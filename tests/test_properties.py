"""Property tests over random knowledge bases of up to 4 names."""

from unittest import mock

import numpy as np
import pytest

import threshgen as tg
from support import NAMES, brute_force_atom_depths, lockstep_points
from threshgen import sampling
from threshgen.polytope import _walkspace
from threshgen.sampling import _DEGENERATE_RADIUS, _walk as walk

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def texts(names):
    """Proposition texts over names and the constants that use every
    connective, with parenthesized and negated pairs among the operands."""
    leaves = st.sampled_from(names + ("t", "f"))
    ops = st.sampled_from(("&", "|", "->", "<->"))
    pairs = st.tuples(st.sampled_from(("", "~")), leaves, ops, leaves).map(
        lambda t: f"{t[0]}({t[1]} {t[2]} {t[3]})"
    )
    operands = st.one_of(leaves, leaves.map("~{}".format), pairs)
    return st.tuples(operands, st.lists(st.tuples(ops, operands), max_size=3)).map(
        lambda t: t[0] + "".join(f" {op} {operand}" for op, operand in t[1])
    )


@st.composite
def knowledge_bases(draw, max_names=4, allow_infinite=True):
    """Rules whose sides are mask propositions or parsed texts."""
    r = draw(st.integers(1, max_names))
    signature = tg.Signature(NAMES[:r])
    sides = st.one_of(
        st.integers(0, signature.full_mask).map(lambda mask: tg.Proposition(signature, mask)),
        texts(signature.names).map(lambda text: tg.parse(text, signature)),
    )
    thresholds = st.integers(1, 3)
    if allow_infinite:
        thresholds = st.one_of(thresholds, st.just(tg.INFINITY))
    rules = draw(
        st.lists(st.tuples(sides, sides, thresholds), max_size=4).map(
            lambda triples: tuple(tg.Generalization(*triple) for triple in triples)
        )
    )
    return tg.KnowledgeBase(signature, rules)


PROPERTY = hypothesis.settings(max_examples=200, deadline=None, derandomize=True)


@PROPERTY
@hypothesis.given(knowledge_bases())
def test_format_load_format_round_trips(kb):
    # A file's signature lists its names by first appearance, so a first
    # rule naming each name in order gives the file kb's signature.
    text = " & ".join(kb.signature.names) + " => true @ 1\n" + tg.format_kb(kb)
    loaded = tg.load_kb(text)
    assert loaded.signature == kb.signature
    assert [(r.antecedent, r.consequent, r.threshold) for r in loaded.rules[1:]] == [
        (r.antecedent, r.consequent, r.threshold) for r in kb.rules
    ]
    assert tg.format_kb(loaded) == text


@PROPERTY
@hypothesis.given(knowledge_bases())
def test_atom_depths_equal_per_minterm_depth_of(kb):
    profile = tg.compile_kb(kb)
    signature = kb.signature
    assert profile.atom_depths() == [
        profile.depth_of(tg.Proposition.minterm(signature, i))
        for i in range(signature.atom_count)
    ]


# The oracle handles only all-finite KBs and searches every atom-depth
# vector, so it takes at most three names; 500 examples run in about 2 s.
@hypothesis.settings(max_examples=500, deadline=None, derandomize=True)
@hypothesis.given(knowledge_bases(max_names=3, allow_infinite=False))
def test_atom_depths_equal_the_brute_force_oracle(kb):
    profile = tg.compile_kb(kb)
    expected = brute_force_atom_depths(kb, profile.fixpoint)
    assert np.array_equal(np.array(profile.atom_depths(), dtype=float), expected)


SAMPLING = hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
DELTAS = st.sampled_from((0.5, 0.2, 0.05))
SEEDS = st.integers(0, 2**32 - 1)


def walked_systems(kb, delta):
    """The polytopes of kb over the psi sweep at delta that walk, each with
    its reduced shape; empty and single-point ones are left out."""
    walked = []
    for scale in tg.PSI_SWEEP:
        system = tg.build_polytope(kb, tg.ParameterAssignment(psi=(scale,) * kb.size, delta=delta))
        try:
            space = _walkspace(system)
        except tg.InfeasiblePolytopeError:
            continue
        if space.radius > _DEGENERATE_RADIUS:
            walked.append((system, space.rows.shape))
    return walked


@SAMPLING
@hypothesis.given(knowledge_bases(), DELTAS)
def test_center_is_a_model(kb, delta):
    for scale in tg.PSI_SWEEP:
        system = tg.build_polytope(
            kb, tg.ParameterAssignment(psi=(scale,) * kb.size, delta=delta)
        )
        try:
            space = _walkspace(system)
        except tg.InfeasiblePolytopeError:
            continue
        center = np.zeros((1, system.dimension))
        center[:, space.keep] = space.center
        assert tg.max_violation(system, center) <= 1e-9
        assert np.all(space.rows @ space.center <= 1e-9)
        if space.radius <= _DEGENERATE_RADIUS:
            continue
        # The walk kernel's precondition, met by _lockstep: the space's
        # rule rows, then -I, all with rhs 0.
        seen = []

        def spy(rows, rhs, *args):
            seen.append((rows[0], rhs[0]))
            return walk(rows, rhs, *args)

        with mock.patch.object(sampling, "_walk", spy):
            with sampling._sweep([system], [0], 1, 0) as (_, walks):
                next(walks)
        (rows, rhs), q = seen[0], space.keep.size
        assert np.array_equal(rows, np.vstack([space.rows, -np.eye(q)]))
        assert np.array_equal(rhs, np.zeros(len(rows)))


@SAMPLING
@hypothesis.given(knowledge_bases(), DELTAS, SEEDS)
def test_sampled_points_lie_in_the_polytope(kb, delta, seed):
    system = tg.build_polytope(
        kb, tg.ParameterAssignment(psi=(1.0,) * kb.size, delta=delta)
    )
    try:
        sample = tg.sample_uniform(system, 300, burn_in=50, seed=seed)
    except tg.InfeasiblePolytopeError:
        return
    assert tg.max_violation(system, sample.points) <= 1e-9


@SAMPLING
@hypothesis.given(knowledge_bases(), DELTAS, SEEDS)
def test_lockstep_group_equals_its_lone_chains(kb, delta, seed):
    walked = walked_systems(kb, delta)
    for shape in {shape for _, shape in walked}:
        group = [system for system, system_shape in walked if system_shape == shape]
        seeds = [seed + k for k in range(len(group))]
        together = lockstep_points(group, seeds, 300, 50)
        for system, chain_seed, points in zip(group, seeds, together):
            (alone,) = lockstep_points([system], [chain_seed], 300, 50)
            assert np.array_equal(points, alone)
