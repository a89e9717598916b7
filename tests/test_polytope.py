"""Constraint-polytope construction and LP feasibility."""

import dataclasses

import numpy as np
import pytest

import threshgen as tg
from support import random_kb
from threshgen.polytope import _pinned_coordinates, _walkspace, _Walkspace

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
