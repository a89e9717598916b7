"""Constraint-polytope construction and LP feasibility."""

import dataclasses

import numpy as np
import pytest

import threshgen as tg
from emptiness_corpus import DELTAS, PSI
from support import random_kb
from threshgen import polytope
from threshgen.polytope import (
    _chebyshev_centers,
    _pinned_coordinates,
    _reduce,
    _solve,
    _walkspace,
    _Walkspace,
)

A1 = tg.Signature(("a",))
AB = tg.Signature(("a", "b"))


def rule(sig, antecedent, consequent, k):
    return tg.Generalization(tg.parse(antecedent, sig), tg.parse(consequent, sig), k)


class TestParameterAssignment:
    def test_defaults(self):
        p = tg.ParameterAssignment(psi=(1.0,), delta=0.1)
        assert p.eta == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            tg.ParameterAssignment(psi=(0.0,), delta=0.1)
        with pytest.raises(ValueError):
            tg.ParameterAssignment(psi=(-1.0,), delta=0.1)
        with pytest.raises(ValueError, match="finite"):
            tg.ParameterAssignment(psi=(float("nan"),), delta=0.1)
        with pytest.raises(ValueError, match="finite"):
            tg.ParameterAssignment(psi=(1.0, float("inf")), delta=0.1)
        with pytest.raises(ValueError):
            tg.ParameterAssignment(psi=(), delta=0.0)
        with pytest.raises(ValueError):
            tg.ParameterAssignment(psi=(), delta=1.0)
        with pytest.raises(ValueError):
            tg.ParameterAssignment(psi=(), delta=0.5, eta=1.0)

    def test_psi_coerced_to_floats(self):
        p = tg.ParameterAssignment(psi=[1, 2], delta=0.5)
        assert p.psi == (1.0, 2.0)


class TestIndicator:
    def test_bits_to_coordinates(self):
        assert tg.indicator(0b0101, 4).tolist() == [1.0, 0.0, 1.0, 0.0]
        assert tg.indicator(0, 4).tolist() == [0.0] * 4

    def test_matches_the_mask_bits_at_every_width(self):
        rng = np.random.default_rng(3)
        for dimension in (2**j for j in range(9)):
            full = (1 << dimension) - 1
            for mask in (0, full, int.from_bytes(rng.bytes(dimension // 8 + 1), "little") & full):
                expected = [(mask >> i) & 1 for i in range(dimension)]
                got = tg.indicator(mask, dimension)
                assert got.dtype == np.float64 and got.tolist() == expected, (dimension, mask)


class TestBuildPolytope:
    def test_empty_kb_is_the_simplex(self):
        kb = tg.KnowledgeBase(A1, ())
        system = tg.build_polytope(kb, tg.ParameterAssignment(psi=(), delta=0.1))
        assert system.dimension == 2
        assert system.rows.shape == (0, 2)

    def test_rows_are_the_only_constraints(self):
        # The simplex is implicit, and every rule row is homogeneous.
        fields = [field.name for field in dataclasses.fields(tg.PolytopeSystem)]
        assert fields == ["signature", "dimension", "rows"]
        space_fields = [field.name for field in dataclasses.fields(_Walkspace)]
        assert space_fields == ["keep", "rows", "center", "radius"]

    def test_single_rule_row(self):
        kb = tg.KnowledgeBase(A1, (rule(A1, "true", "a", 1),))
        system = tg.build_polytope(kb, tg.ParameterAssignment(psi=(1.0,), delta=0.1))
        # Atom order: index 0 is ~a, index 1 is a. The exception is ~a, so
        # the row says pi(~a) - 0.1 * pi(true) <= 0.
        assert system.rows.shape == (1, 2)
        assert np.allclose(system.rows[0], [1.0 - 0.1, -0.1])

    def test_threshold_exponentiates_delta(self):
        kb = tg.KnowledgeBase(AB, (rule(AB, "a", "b", 3),))
        params = tg.ParameterAssignment(psi=(2.0,), delta=0.5)
        system = tg.build_polytope(kb, params)
        scale = 2.0 * 0.5**3
        exception = tg.indicator(tg.parse("a & ~b", AB).mask, 4)
        antecedent = tg.indicator(tg.parse("a", AB).mask, 4)
        assert np.allclose(system.rows[0], exception - scale * antecedent)

    def test_infinite_threshold_becomes_equality(self):
        # delta**inf = 0, so the row is the exception's indicator, and
        # pi(~a) <= 0 on x >= 0 means pi(~a) = 0.
        kb = tg.KnowledgeBase(A1, (rule(A1, "true", "a", tg.INFINITY),))
        system = tg.build_polytope(kb, tg.ParameterAssignment(psi=(1.0,), delta=0.1))
        assert system.rows.tolist() == [[1.0, 0.0]]

    def test_psi_length_mismatch(self):
        kb = tg.KnowledgeBase(A1, (rule(A1, "true", "a", 1),))
        with pytest.raises(ValueError):
            tg.build_polytope(kb, tg.ParameterAssignment(psi=(), delta=0.1))

    def test_signature_size_cap(self):
        sig = tg.Signature(tuple(f"x{i}" for i in range(9)))
        kb = tg.KnowledgeBase(sig, ())
        with pytest.raises(ValueError):
            tg.build_polytope(kb, tg.ParameterAssignment(psi=(), delta=0.1))


class TestFeasibility:
    def params(self, m, delta):
        return tg.ParameterAssignment(psi=(1.0,) * m, delta=delta)

    def test_contradictory_rules_depend_on_delta(self):
        kb = tg.KnowledgeBase(
            A1, (rule(A1, "true", "a", 1), rule(A1, "true", "~a", 1))
        )
        # The two rows force pi(~a) <= delta and pi(a) <= delta, but the
        # masses sum to 1, so the polytope is empty exactly when
        # 2 * delta < 1.
        assert not tg.is_feasible(tg.build_polytope(kb, self.params(2, 0.3)))
        assert tg.is_feasible(tg.build_polytope(kb, self.params(2, 0.6)))

    def test_empty_kb_always_feasible(self):
        kb = tg.KnowledgeBase(AB, ())
        for delta in (0.9, 0.1, 1e-4):
            assert tg.is_feasible(tg.build_polytope(kb, self.params(0, delta)))

    def test_hard_contradiction_infeasible_at_every_delta(self):
        kb = tg.KnowledgeBase(
            A1,
            (
                rule(A1, "true", "a", tg.INFINITY),
                rule(A1, "true", "~a", tg.INFINITY),
            ),
        )
        for delta in (0.9, 0.1):
            assert not tg.is_feasible(tg.build_polytope(kb, self.params(2, delta)))

    def test_consistent_kb_feasible_at_small_delta(self):
        kb = tg.KnowledgeBase(
            AB, (rule(AB, "true", "a", 1), rule(AB, "~a", "b", 1))
        )
        for delta in (0.5, 0.1, 1e-3, 1e-4):
            assert tg.is_feasible(tg.build_polytope(kb, self.params(2, delta)))

    def test_degenerate_vertex_stays_feasible(self):
        # At small delta this system's only slack-free model puts all
        # mass on the ~a & b atom; the solver must still say feasible.
        # (HiGHS presolve once misdeclared exactly this shape infeasible.)
        kb = tg.KnowledgeBase(
            AB,
            (
                rule(AB, "~b", "a", 3),
                rule(AB, "a <-> b", "~a", 3),
                rule(AB, "a | ~b", "a <-> b", 2),
            ),
        )
        assert tg.compile_kb(kb).is_consistent()
        for delta in (0.1, 0.05, 0.025, 0.0125, 1e-3, 1e-4):
            assert tg.is_feasible(tg.build_polytope(kb, self.params(3, delta)))

    def test_boundary_decided_once_for_feasibility_and_sampling(self):
        # pi(~a) <= delta and pi(a) <= delta leave a model only at
        # delta >= 1/2. Just below, the polytope is empty by more than the
        # feasibility tolerance, and the sampler must not return its
        # near-miss as a degenerate sample.
        kb = tg.KnowledgeBase(
            A1, (rule(A1, "true", "a", 1), rule(A1, "true", "~a", 1))
        )
        below = tg.build_polytope(kb, self.params(2, 0.5 - 1e-9))
        assert not tg.is_feasible(below)
        with pytest.raises(tg.InfeasiblePolytopeError):
            tg.sample_uniform(below, 50, burn_in=10)
        at = tg.build_polytope(kb, self.params(2, 0.5))
        assert tg.is_feasible(at)
        sample = tg.sample_uniform(at, 50, burn_in=10)
        assert tg.max_violation(at, sample.points) <= 1e-9

    def test_solver_breakdown_on_empty_system_still_decides(self):
        # HiGHS's simplex stops on this empty system with an unknown status
        # instead of proving it infeasible; the decision must still come
        # out as "empty", not as a NumericalError.
        text = (
            "(a & ~b & ~c) | (a & b & ~c) | (a & ~b & c) | (~a & b & c)"
            " | (a & b & c) => (a & b & ~c) | (a & ~b & c) @ 3\n"
            "(a & ~b & ~c) | (~a & b & ~c) | (a & b & ~c) | (~a & b & c)"
            " | (a & b & c) => (a & ~b & ~c) | (a & ~b & c) @ 3\n"
            "true => (~a & ~b & ~c) | (a & ~b & ~c) | (a & b & c) @ 3\n"
            "(~a & ~b & ~c) | (a & b & ~c) | (a & ~b & c) | (~a & b & c)"
            " => (~a & b & ~c) | (a & b & ~c) @ 3\n"
        )
        kb = tg.load_kb(text)
        params = tg.ParameterAssignment(psi=(2.0, 0.5, 2.0, 2.0), delta=1e-3)
        system = tg.build_polytope(kb, params)
        assert not tg.is_feasible(system)
        with pytest.raises(tg.InfeasiblePolytopeError):
            tg.sample_uniform(system, 50, burn_in=10)


class TestChebyshevCenter:
    def feasible_systems(self, count):
        """The first count systems at psi 1 and delta 0.2 with a model,
        over random knowledge bases of up to 4 names."""
        rng = np.random.default_rng(77)
        systems = []
        while len(systems) < count:
            kb = random_kb(rng, max_names=4, max_rules=3, allow_infinite=True)
            system = tg.build_polytope(kb, tg.ParameterAssignment((1.0,) * kb.size, 0.2))
            if tg.is_feasible(system):
                systems.append(system)
        return systems

    @staticmethod
    def center(system):
        space = _walkspace(system)
        point = np.zeros(system.dimension)
        point[space.keep] = space.center
        return point, space.radius

    def test_center_permutes_with_the_atoms(self):
        # The 3rd and 12th of these have many optimal centers. A vertex
        # solver picks one by the order of the atoms, at radius 4.3e-4 one
        # with the free mass on atom 6 or on atom 9, and the walk stays near
        # it; the center of the optimal face is one point, whatever the
        # order. The solve stops near it, not at it, so the centers of two
        # orders agree to about 1e-9, not to the last bit; the vertices
        # differ by about 0.5.
        systems = self.feasible_systems(12)
        orders = np.random.default_rng(5)
        for system in (systems[2], systems[11]):
            center, radius = self.center(system)
            assert radius > 1e-4
            for _ in range(4):
                order = orders.permutation(system.dimension)
                permuted = tg.PolytopeSystem(system.signature, system.dimension, system.rows[:, order])
                moved, moved_radius = self.center(permuted)
                assert moved_radius == pytest.approx(radius, rel=1e-9)
                assert np.abs(moved - center[order]).max() <= 1e-6

    def test_center_is_inside_by_its_radius(self):
        # The reported radius is that of the returned center, measured from
        # its slacks, so the center is a model, strictly inside when the
        # radius is positive.
        rng = np.random.default_rng(31)
        for _ in range(60):
            kb = random_kb(rng, max_names=4, max_rules=4, allow_infinite=True)
            for delta in (0.5, 0.1, 1e-3):
                system = tg.build_polytope(kb, tg.ParameterAssignment((1.0,) * kb.size, delta))
                try:
                    center, radius = self.center(system)
                except tg.InfeasiblePolytopeError:
                    continue
                assert tg.max_violation(system, center) <= 1e-9
                assert radius >= 0.0

    def test_non_convergence_is_a_numerical_error(self, monkeypatch):
        kb = tg.KnowledgeBase(AB, (rule(AB, "true", "a", 1),))
        system = tg.build_polytope(kb, tg.ParameterAssignment(psi=(1.0,), delta=0.1))
        monkeypatch.setattr(tg.polytope, "_MAX_ITERATIONS", 2)
        with pytest.raises(tg.NumericalError, match="Chebyshev-center LP failed"):
            tg.is_feasible(system)


class TestStackedSolve:
    # _chebyshev_centers solves a stack of same-shape LPs in lockstep, and
    # _solve stacks a list of reduced systems by shape. Each member must
    # come out as it does in a stack of one, bit for bit, whatever else
    # shares its stack.

    @staticmethod
    def outcome(entry):
        if isinstance(entry, Exception):
            return type(entry)
        center, radius = entry
        return center.tobytes(), radius.hex()

    @staticmethod
    def kind(entry):
        if isinstance(entry, Exception):
            return "empty"
        return "point" if entry[1] == 0.0 else "open"

    @staticmethod
    def corpus_stacks(kbs):
        """The distinct reduced LPs of the first kbs knowledge bases of
        the emptiness corpus's seed 7, one stack per reduced shape."""
        rng = np.random.default_rng(7)
        shapes = {}
        for _ in range(kbs):
            kb = random_kb(rng, max_names=4, max_rules=4, allow_infinite=True)
            for scale in PSI:
                for delta in DELTAS:
                    params = tg.ParameterAssignment(psi=(scale,) * kb.size, delta=delta)
                    keep, rows = _reduce(tg.build_polytope(kb, params))
                    if keep.size > 1:
                        shapes.setdefault(rows.shape, {})[rows.tobytes()] = rows
        return [np.stack(list(distinct.values())) for distinct in shapes.values()]

    def test_members_equal_stacks_of_one(self):
        # Up to 4 members of each kind per stack are solved alone. The
        # 2-row, 3-atom stack holds empty, single-point and open members.
        mixed = compared = 0
        for stack in self.corpus_stacks(200):
            entries = _chebyshev_centers(stack)
            kinds = [self.kind(entry) for entry in entries]
            mixed += len(set(kinds)) == 3
            for kind in set(kinds):
                for i in [i for i, k in enumerate(kinds) if k == kind][:4]:
                    (alone,) = _chebyshev_centers(stack[i : i + 1])
                    assert self.outcome(entries[i]) == self.outcome(alone)
                    compared += 1
        assert mixed and compared > 100

    def test_no_iteration_fails_every_member(self, monkeypatch):
        monkeypatch.setattr(polytope, "_MAX_ITERATIONS", 0)
        stack = max(self.corpus_stacks(20), key=len)
        entries = _chebyshev_centers(stack)
        assert len(entries) == len(stack) > 1
        for entry in entries:
            assert isinstance(entry, tg.NumericalError)
            assert str(entry).startswith("Chebyshev-center LP failed")

    def test_first_failure_in_list_order_raises(self, monkeypatch):
        def reduced(text, delta, names=("a",)):
            kb = tg.load_kb(text, names)
            params = tg.ParameterAssignment(psi=(1.0,) * kb.size, delta=delta)
            return _reduce(tg.build_polytope(kb, params))

        # Two rows over two atoms, nonempty at delta 0.6 and empty at 0.3
        # by its LP; every atom pinned; one atom left, a single point; and
        # one row over four atoms, whose LP is made to fail.
        both = "t => a @ 1\nt => ~a @ 1\n"
        open_, empty = reduced(both, 0.6), reduced(both, 0.3)
        pinned = reduced("t => a @ inf\nt => ~a @ inf\n", 0.5)
        point = reduced("t => a @ inf\n", 0.5)
        failing = reduced("t => a @ 1\n", 0.1, ("a", "b"))
        assert (pinned[0].size, point[0].size, failing[1].shape) == (0, 1, (1, 4))
        solve = polytope._chebyshev_centers

        def fail_wide(stack):
            if stack.shape[1:] == (1, 4):
                return [tg.NumericalError("Chebyshev-center LP failed")] * len(stack)
            return solve(stack)

        monkeypatch.setattr(polytope, "_chebyshev_centers", fail_wide)
        spaces = _solve([open_, point])
        assert spaces[0].radius > 0.0
        assert (spaces[1].center.tolist(), spaces[1].radius) == ([1.0], 0.0)
        # The stack of open_ and empty is solved before failing's, but the
        # list order decides which error is raised.
        cases = [
            ([open_, empty, pinned], tg.InfeasiblePolytopeError, 1, "polytope is empty"),
            ([open_, pinned, empty], tg.InfeasiblePolytopeError, 1, "forced to zero"),
            ([open_, failing, empty], tg.NumericalError, 1, "LP failed"),
            ([open_, empty, failing], tg.InfeasiblePolytopeError, 1, "polytope is empty"),
            ([point, pinned, failing], tg.InfeasiblePolytopeError, 1, "forced to zero"),
        ]
        for systems, error, index, message in cases:
            with pytest.raises(error, match=message) as raised:
                _solve(systems)
            assert raised.value.index == index


def pinned_row_by_row(rows):
    """The pinning closure one row at a time, as the reference: a row with
    no live negative entry pins every live coordinate it touches
    positively, until a pass over every row pins nothing new."""
    pinned = np.zeros(rows.shape[1], dtype=bool)
    changed = True
    while changed:
        changed = False
        for row in rows:
            live = ~pinned
            positive = live & (row > 0.0)
            if positive.any() and not (live & (row < 0.0)).any():
                pinned |= positive
                changed = True
    return pinned


class TestPinning:
    def test_rounds_reach_the_row_by_row_fixpoint(self):
        # Random sign patterns over 8 coordinates, where one row's pins
        # often free another row of its negative entries.
        rng = np.random.default_rng(29)
        cascades = 0
        for _ in range(2000):
            shape = (int(rng.integers(0, 7)), 8)
            rows = rng.choice([-1.0, 0.0, 1.0], p=[0.15, 0.45, 0.4], size=shape)
            system = tg.PolytopeSystem(tg.Signature(("a", "b", "c")), 8, rows)
            expected = pinned_row_by_row(rows)
            assert np.array_equal(_pinned_coordinates(system), expected)
            direct = (rows > 0.0)[~(rows < 0.0).any(axis=1)].any(axis=0)
            cascades += expected.sum() > direct.sum()
        assert cascades > 100

    def test_no_kept_row_has_one_sign(self):
        # After the pinning closure, a rule's row over the kept atoms
        # either has no positive entry, and holds at every non-negative
        # point, or has entries of both signs, and cuts the simplex. No row
        # is left positive and constant on the plane sum(x) = 1.
        rng = np.random.default_rng(19)
        for _ in range(300):
            kb = random_kb(rng, max_names=4, max_rules=4, allow_infinite=True)
            for psi in (0.5, 1.0, 2.0):
                for delta in (0.5, 0.1, 0.0125, 1e-4):
                    params = tg.ParameterAssignment(psi=(psi,) * kb.size, delta=delta)
                    system = tg.build_polytope(kb, params)
                    kept = system.rows[:, ~_pinned_coordinates(system)]
                    positive = (kept > 0.0).any(axis=1)
                    assert np.all(~positive | (kept < 0.0).any(axis=1))

    def test_infinite_rules_pin_their_exceptions(self):
        # An @ inf rule's row has no negative entry, so the closure pins its
        # exception atoms and the walk never moves them off zero.
        rng = np.random.default_rng(23)
        walked = 0
        for _ in range(300):
            kb = random_kb(rng, max_names=4, max_rules=4, allow_infinite=True)
            for delta in (0.5, 0.0125):
                system = tg.build_polytope(kb, tg.ParameterAssignment((1.0,) * kb.size, delta))
                pinned = _pinned_coordinates(system)
                width = system.dimension
                try:
                    keep = _walkspace(system).keep
                except tg.InfeasiblePolytopeError:
                    keep = np.array([], dtype=int)
                for r in kb.rules:
                    if r.threshold == tg.INFINITY:
                        exception = np.flatnonzero(tg.indicator(r.exception().mask, width))
                        assert pinned[exception].all()
                        assert not np.isin(exception, keep).any()
                        walked += keep.size > 0
        assert walked > 50


class TestMaxViolation:
    def test_reports_worst_gap(self):
        kb = tg.KnowledgeBase(A1, (rule(A1, "true", "a", 1),))
        system = tg.build_polytope(kb, tg.ParameterAssignment(psi=(1.0,), delta=0.1))
        inside = np.array([[0.05, 0.95]])
        boundary = np.array([[0.1, 0.9]])
        outside = np.array([[0.3, 0.7]])
        assert tg.max_violation(system, inside) <= 1e-12
        assert tg.max_violation(system, boundary) <= 1e-12
        # pi(~a) = 0.3 exceeds the allowed 0.1 by 0.2 after the row's
        # -0.1 * pi(true) correction.
        assert tg.max_violation(system, outside) == pytest.approx(0.2)
        bad_sum = np.array([[0.05, 0.05]])
        assert tg.max_violation(system, bad_sum) == pytest.approx(0.9)
        negative = np.array([[-0.2, 1.2]])
        assert tg.max_violation(system, negative) >= 0.2

    def test_reports_forbidden_mass(self):
        # An @ inf rule forbids its exception atoms any mass at all.
        kb = tg.KnowledgeBase(AB, (rule(AB, "a", "b", tg.INFINITY),))
        system = tg.build_polytope(kb, tg.ParameterAssignment(psi=(1.0,), delta=0.1))
        inside = np.array([[0.5, 0.0, 0.2, 0.3]])
        assert tg.max_violation(system, inside) == 0.0
        # Atom 1 is a & ~b, the rule's exception.
        outside = np.array([[0.5, 0.25, 0.2, 0.05], [0.5, 0.0, 0.2, 0.3]])
        assert tg.max_violation(system, outside) == pytest.approx(0.25)

    def test_negative_forbidden_mass_still_violates(self):
        # Atoms 0 and 2 (~a & ~b and ~a & b) are the exception of
        # t => a @ inf. Negative mass on both satisfies the rule's row, at
        # -0.2, and the sum, but not x >= 0: the worst gap is 0.1.
        kb = tg.KnowledgeBase(AB, (rule(AB, "true", "a", tg.INFINITY),))
        system = tg.build_polytope(kb, tg.ParameterAssignment(psi=(1.0,), delta=0.1))
        point = np.array([[-0.1, 0.6, -0.1, 0.6]])
        assert tg.max_violation(system, point) == pytest.approx(0.1)
