"""Uniform polytope sampling and the quantile-scaling verdict."""

import math
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.stats import beta

import threshgen as tg
from support import (
    exact_quantile,
    lockstep_inputs,
    lockstep_points,
    loop_walk,
    per_point_quantiles,
    random_kb,
    random_proposition,
    reference_walk,
    truncated_beta_quantile,
)
from exact_oracle_corpus import corpus_cases, grid_points
from threshgen import polytope, sampling
from threshgen.polytope import _walkspace
from threshgen.sampling import _CHUNK, _walk

A1 = tg.Signature(("a",))
AB = tg.Signature(("a", "b"))


def rule(sig, antecedent, consequent, k):
    return tg.Generalization(tg.parse(antecedent, sig), tg.parse(consequent, sig), k)


def simple_system(delta=0.1):
    kb = tg.KnowledgeBase(A1, (rule(A1, "true", "a", 1),))
    return kb, tg.build_polytope(kb, tg.ParameterAssignment(psi=(1.0,), delta=delta))


def two_rule_chain_kb():
    return tg.KnowledgeBase(AB, (rule(AB, "true", "a", 1), rule(AB, "~a", "b", 1)))


def rule_quantile(query, params):
    """truncated_beta_quantile of a query that restates a rule of a KB
    whose rules have pairwise disjoint antecedents, at unit psi."""
    exception_atoms = len(list(query.exception().atoms()))
    other_atoms = len(list((query.antecedent & query.consequent).atoms()))
    bound = params.delta**query.threshold
    return truncated_beta_quantile(exception_atoms, other_atoms, bound, params.eta)


ENTRY_POINTS = ("sample_uniform", "conclusion_quantile", "scaling_verdict")


def run_entry_point(name, kb, params, query, n, burn_in, seed):
    """One of the three entry points, each a sweep, on kb at params: the
    sampled points, the quantile, or a verdict's quantiles on the grid
    that halves params.delta twice."""
    if name == "sample_uniform":
        return tg.sample_uniform(tg.build_polytope(kb, params), n, burn_in, seed).points
    if name == "conclusion_quantile":
        return tg.conclusion_quantile(kb, params, query, n, burn_in, seed)
    grid = (params.delta, params.delta / 2, params.delta / 4)
    return tg.scaling_verdict(kb, query, grid, params, n=n, seed=seed, burn_in=burn_in).quantiles


def wide_grid_case():
    """A 7-name KB of facts on a 4-delta grid: its 12 points walk in 128
    coordinates, so at most 8 chains share a group, and they need two."""
    signature = tg.Signature(("a", "b", "c", "d", "e", "g", "h"))
    kb = tg.KnowledgeBase(
        signature, tuple(rule(signature, "true", name, 1) for name in signature.names)
    )
    params = tg.ParameterAssignment(psi=(1.0,) * kb.size, delta=0.1)
    query = rule(signature, "true", "a & b", 1)
    return kb, query, (0.1, 0.05, 0.025, 0.0125), params


def batch_mean_se(values, batches=100):
    """Standard error of the mean of a correlated sequence via batch means."""
    usable = len(values) - len(values) % batches
    means = values[:usable].reshape(batches, -1).mean(axis=1)
    return means.std(ddof=1) / math.sqrt(batches)


def walk_inputs(seed, steps=256, dim=3, cut=1.5):
    """A feasible random walk problem in the kernel's row layout: the box
    [0, 2]^dim with a diagonal cut sum(x) <= cut + dim, as rule rows I and
    the cut, then -I. The walk starts at the box's centre."""
    rng = np.random.default_rng(seed)
    rows = np.vstack([np.eye(dim), np.ones((1, dim)), -np.eye(dim)])
    rhs = np.concatenate([np.full(dim, 2.0), [cut + dim], np.zeros(dim)])
    y = np.ones(dim)
    normals = rng.standard_normal((steps, dim))
    uniforms = rng.random(steps)
    return rows, rhs, y, normals, uniforms


def run_reference(seed, steps=256, dim=3):
    rows, rhs, y, normals, uniforms = walk_inputs(seed, steps, dim)
    out = np.empty((steps, dim))
    reference_walk(rows, rhs, y, normals, uniforms, out)
    return y, out


def run_kernel(problems, steps):
    """Walk single-chain problems as one K-chain call of the kernel;
    normals may hold more rows than steps."""
    rows, rhs, y, normals, uniforms = (np.stack(part) for part in zip(*problems))
    out = np.empty((len(problems), steps, rows.shape[2]))
    _walk(rows, rhs, y, normals, uniforms[:, :steps], out)
    return y, out


def walk_as_loop_walk(inputs, steps):
    """_walk's visited points, once they and its final state are checked
    to equal support.loop_walk's bit for bit; each kernel walks its own
    copy of the inputs."""
    results = []
    for kernel in (_walk, loop_walk):
        rows, rhs, y, normals, uniforms = (part.copy() for part in inputs)
        out = np.empty((len(y), steps, y.shape[1]))
        kernel(rows, rhs, y, normals, uniforms[:, :steps], out)
        results.append((out, y))
    (out, y), (loop_out, loop_y) = results
    assert np.array_equal(out, loop_out)
    assert np.array_equal(y, loop_y)
    return out


class TestWalkKernel:
    # Hit-and-run is chaotic: rounding differences between the kernel and
    # the step-at-a-time reference compound exponentially along a
    # trajectory, so trajectories are compared only over short horizons;
    # beyond that the kernel is checked as a sampler.

    def test_short_walks_match_reference(self):
        seeds = range(8)
        y_new, out_new = run_kernel([walk_inputs(seed, steps=12) for seed in seeds], 12)
        for k, seed in enumerate(seeds):
            y_ref, out_ref = run_reference(seed, steps=12)
            assert np.allclose(out_new[k], out_ref, atol=1e-9, rtol=0.0)
            assert np.allclose(y_new[k], y_ref, atol=1e-9, rtol=0.0)

    def test_short_walks_match_reference_in_higher_dimension(self):
        _, out_ref = run_reference(11, steps=10, dim=12)
        _, out_new = run_kernel([walk_inputs(11, steps=10, dim=12)], 10)
        assert np.allclose(out_new[0], out_ref, atol=1e-9, rtol=0.0)

    def test_stays_inside(self):
        problems = [walk_inputs(seed, steps=1200, cut=cut) for seed, cut in ((1, 1.5), (2, 0.2))]
        _, out = run_kernel(problems, 1200)
        for (rows, rhs, *_), visited in zip(problems, out):
            assert np.all(rows @ visited.T <= rhs[:, None] + 1e-12)

    def test_final_state_is_last_row(self):
        y, out = run_kernel([walk_inputs(2), walk_inputs(3)], 256)
        assert np.array_equal(y, out[:, -1])

    def test_lockstep_chains_equal_lone_chains(self):
        # Different polytopes of one shape, stepping fewer times than the
        # normals hold rows: each chain of the K-chain call must be
        # bit-identical to the same chain walked alone.
        steps = 1100
        problems = [
            walk_inputs(seed, steps=1536, dim=4, cut=cut)
            for seed, cut in ((5, 1.5), (6, 0.3), (7, 3.9), (8, 2.0))
        ]
        y_all, out_all = run_kernel(problems, steps)
        for k, problem in enumerate(problems):
            y_one, out_one = run_kernel([problem], steps)
            assert np.array_equal(out_all[k], out_one[0])
            assert np.array_equal(y_all[k], y_one[0])

    @pytest.mark.parametrize("q", [4, 32, 256])
    @pytest.mark.parametrize("chains", [1, 4, 12])
    def test_equals_loop_walk(self, chains, q):
        walk_as_loop_walk(lockstep_inputs(q + chains, chains, q), _CHUNK)

    def test_equals_loop_walk_on_a_partial_chunk(self):
        # 700 = 10 * 64 + 60 steps from 1024 rows of normals: a partial
        # chunk that ends in a partial slice.
        walk_as_loop_walk(lockstep_inputs(3, 4, 16, drawn=1024), 700)

    def test_equals_loop_walk_through_an_empty_chord(self):
        # A zero normal meets every row at 0, so both ends reduce to NaN
        # and the guard keeps that chain in place for the step.
        inputs = lockstep_inputs(5, 4, 32)
        inputs[3][2, 100] = 0.0
        out = walk_as_loop_walk(inputs, _CHUNK)
        assert np.array_equal(out[2, 100], out[2, 99])
        assert not np.array_equal(out[1, 100], out[1, 99])

    def test_visited_points_may_overwrite_the_normals(self):
        steps = 700
        rows, rhs, y, normals, uniforms = (
            part[None] for part in walk_inputs(9, steps=1024)
        )
        y_apart, out_apart = run_kernel([walk_inputs(9, steps=1024)], steps)
        _walk(rows, rhs, y, normals, uniforms[:, :steps], normals[:, :steps])
        assert np.array_equal(normals[:, :steps], out_apart)
        assert np.array_equal(y, y_apart)

    def test_chunk_buffers_stay_small(self):
        # One 512-step chunk of four 256-coordinate chains behind 8 rule
        # rows, as at 8 names. Projections of the directions on all 264
        # rows would take 4.3 MB by themselves; the kernel projects on the
        # rule rows only and cuts chords 64 steps at a time, in about 2 MB.
        chains, q, rules = 4, 256, 8
        rng = np.random.default_rng(4)
        rule_rows = np.vstack([np.ones((1, q)), rng.random((rules - 1, q))])
        rows = np.stack([np.vstack([rule_rows, -np.eye(q)])] * chains)
        rhs = np.stack([np.concatenate([np.ones(rules), np.zeros(q)])] * chains)
        y = np.full((chains, q), 0.5 / q)
        normals = rng.standard_normal((chains, 512, q))
        uniforms = rng.random((chains, 512))
        tracemalloc.start()
        try:
            _walk(rows, rhs, y, normals, uniforms, normals)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20
        assert np.all(rows @ y[..., None] <= rhs[..., None] + 1e-12)

    def test_single_name_distribution(self):
        _, system = simple_system(delta=0.1)
        n = 20000
        sample = tg.sample_uniform(system, n, burn_in=500, seed=21)
        mass = sample.points[:, 0]  # pi(~a), uniform on [0, 0.1]
        assert tg.max_violation(system, sample.points) <= 1e-9
        assert abs(mass.mean() - 0.05) <= 3 * 0.1 / math.sqrt(12 * n)
        assert abs(tg.empirical_quantile(mass, 0.1) - 0.09) <= 0.005


class TestSampleUniform:
    def test_reproducible_and_seed_sensitive(self):
        _, system = simple_system()
        s1 = tg.sample_uniform(system, 500, burn_in=100, seed=42)
        s2 = tg.sample_uniform(system, 500, burn_in=100, seed=42)
        s3 = tg.sample_uniform(system, 500, burn_in=100, seed=43)
        assert np.array_equal(s1.points, s2.points)
        assert not np.array_equal(s1.points, s3.points)

    def test_longer_run_extends_shorter(self):
        # The random stream is consumed identically, so a longer run with
        # the same seed must reproduce the shorter one as a prefix; burn-in
        # ends inside a 512-step chunk and the shorter run ends inside
        # another.
        kb = two_rule_chain_kb()
        system = tg.build_polytope(
            kb, tg.ParameterAssignment(psi=(1.0, 1.0), delta=0.1)
        )
        short = tg.sample_uniform(system, 2000, burn_in=999, seed=5)
        long = tg.sample_uniform(system, 6000, burn_in=999, seed=5)
        assert np.array_equal(long.points[:2000], short.points)

    def test_lockstep_group_equals_lone_chains_across_chunks(self):
        # Burn-in ends inside the second 512-step chunk and the walk ends
        # inside the fourth, so the group crosses every kind of chunk
        # boundary; each chain must still be bit-identical alone.
        kb = two_rule_chain_kb()
        systems = [
            tg.build_polytope(kb, tg.ParameterAssignment(psi=(1.0, 1.0), delta=d))
            for d in (0.1, 0.05, 0.025)
        ]
        assert len({_walkspace(system).rows.shape for system in systems}) == 1
        seeds = [17, 18, 19]
        together = lockstep_points(systems, seeds, 1100, 700)
        for system, seed, points in zip(systems, seeds, together):
            (alone,) = lockstep_points([system], [seed], 1100, 700)
            assert np.array_equal(points, alone)

    def test_samples_satisfy_constraints(self):
        rng = np.random.default_rng(40)
        checked = 0
        while checked < 15:
            kb = random_kb(rng, allow_infinite=True)
            params = tg.ParameterAssignment(psi=(1.0,) * kb.size, delta=0.2)
            system = tg.build_polytope(kb, params)
            try:
                sample = tg.sample_uniform(system, 400, burn_in=200, seed=checked)
            except tg.InfeasiblePolytopeError:
                continue
            assert tg.max_violation(system, sample.points) <= 1e-9
            checked += 1

    def test_unconstrained_single_name_mean(self):
        kb = tg.KnowledgeBase(A1, ())
        system = tg.build_polytope(kb, tg.ParameterAssignment(psi=(), delta=0.5))
        n = 20000
        sample = tg.sample_uniform(system, n, burn_in=500, seed=1)
        assert not sample.degenerate
        mean = sample.points[:, 1].mean()
        assert abs(mean - 0.5) <= 3.0 / math.sqrt(12 * n)

    def test_unconstrained_two_name_means(self):
        kb = tg.KnowledgeBase(AB, ())
        system = tg.build_polytope(kb, tg.ParameterAssignment(psi=(), delta=0.5))
        sample = tg.sample_uniform(system, 40000, burn_in=1000, seed=2)
        for atom in range(4):
            coords = sample.points[:, atom]
            se = batch_mean_se(coords)
            assert abs(coords.mean() - 0.25) <= 3 * se, f"atom {atom}"

    def test_constrained_mass_is_uniform_on_its_interval(self):
        _, system = simple_system(delta=0.1)
        sample = tg.sample_uniform(system, 20000, burn_in=500, seed=3)
        mass = sample.points[:, 0]
        assert mass.min() >= -1e-9
        assert mass.max() <= 0.1 + 1e-9
        assert abs(mass.mean() - 0.05) <= 3.0 * 0.1 / math.sqrt(12 * 20000)

    def test_hard_rule_restricts_to_a_face(self):
        kb = tg.KnowledgeBase(
            AB, (rule(AB, "true", "a", tg.INFINITY), rule(AB, "a", "b", 1))
        )
        params = tg.ParameterAssignment(psi=(1.0, 1.0), delta=0.2)
        system = tg.build_polytope(kb, params)
        sample = tg.sample_uniform(system, 5000, burn_in=500, seed=4)
        assert not sample.degenerate
        assert tg.max_violation(system, sample.points) <= 1e-9
        not_a = tg.indicator(tg.parse("~a", AB).mask, 4)
        assert np.max(sample.points @ not_a) <= 1e-9
        exception = sample.points @ tg.indicator(tg.parse("a & ~b", AB).mask, 4)
        assert abs(exception.mean() - 0.1) <= 0.01

    def test_single_point_polytope_is_degenerate(self):
        kb = tg.KnowledgeBase(
            A1, (rule(A1, "true", "a", 1), rule(A1, "true", "~a", 1))
        )
        system = tg.build_polytope(kb, tg.ParameterAssignment(psi=(1.0, 1.0), delta=0.5))
        sample = tg.sample_uniform(system, 50, seed=6)
        assert sample.degenerate
        assert len(sample.points) == 50
        assert np.allclose(sample.points, 0.5)

    def test_fully_pinned_face_is_degenerate(self):
        kb = tg.KnowledgeBase(A1, (rule(A1, "true", "a", tg.INFINITY),))
        system = tg.build_polytope(kb, tg.ParameterAssignment(psi=(1.0,), delta=0.5))
        sample = tg.sample_uniform(system, 10, seed=7)
        assert sample.degenerate
        assert np.array_equal(sample.points, np.tile([0.0, 1.0], (10, 1)))

    def test_infeasible_polytope_raises(self):
        kb = tg.KnowledgeBase(
            A1, (rule(A1, "true", "a", 1), rule(A1, "true", "~a", 1))
        )
        system = tg.build_polytope(kb, tg.ParameterAssignment(psi=(1.0, 1.0), delta=0.3))
        with pytest.raises(tg.InfeasiblePolytopeError):
            tg.sample_uniform(system, 10, seed=8)

    def test_thin_polytope_still_sampled(self):
        # A system whose models cluster around one degenerate vertex
        # (nearly all mass on ~a & b) must not be mistaken for empty.
        kb = tg.KnowledgeBase(
            AB,
            (
                rule(AB, "~b", "a", 3),
                rule(AB, "a <-> b", "~a", 3),
                rule(AB, "a | ~b", "a <-> b", 2),
            ),
        )
        params = tg.ParameterAssignment(psi=(1.0, 1.0, 1.0), delta=0.0125)
        system = tg.build_polytope(kb, params)
        sample = tg.sample_uniform(system, 500, burn_in=200, seed=9)
        assert len(sample.points) == 500
        assert tg.max_violation(system, sample.points) <= 1e-9
        assert sample.points[:, 2].mean() > 0.9

    def test_argument_validation(self):
        _, system = simple_system()
        with pytest.raises(ValueError):
            tg.sample_uniform(system, 0)
        with pytest.raises(ValueError):
            tg.sample_uniform(system, 10, burn_in=-1)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            tg.sample_uniform(system, 10, seed=-1)


class TestDrawAhead:
    # _DrawAhead draws each chunk's randomness on one helper thread per
    # sweep while the chunk before it, or the sweep's LPs, run on the
    # calling thread.

    def test_concurrent_walks_equal_serial_walks(self):
        # More threads than cores, each with its own helper, switching as
        # often as the interpreter allows: a draw into the buffer being
        # walked, or a generator used from two threads at once, would
        # change some point.
        kb = two_rule_chain_kb()
        params = tg.ParameterAssignment(psi=(1.0, 1.0), delta=0.1)
        system = tg.build_polytope(kb, params)
        query = rule(AB, "true", "a | b", 2)
        seeds = (30, 31, 32, 33)

        def run(seed):
            points = tg.sample_uniform(system, 1500, burn_in=600, seed=seed).points
            return points, tg.conclusion_quantile(kb, params, query, 1500, 600, seed)

        serial = {seed: run(seed) for seed in seeds}
        results = {}
        threads = [
            threading.Thread(target=lambda seed=seed: results.update({seed: run(seed)}))
            for seed in seeds
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for seed in seeds:
            for result, expected in zip(results[seed], serial[seed]):
                assert np.array_equal(result, expected)

    def test_closing_a_walk_ends_its_helper(self):
        # The sweep's block is left part-way through the walk.
        before = threading.active_count()
        with sampling._sweep([simple_system()[1]], [3], 5000, 0) as (_, walks):
            next(walks)
            assert threading.active_count() == before + 1
        assert threading.active_count() == before

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_a_failed_draw_reaches_the_caller(self, monkeypatch, entry):
        # The second chunk's normals fail, on the helper, while the first
        # chunk walks.
        default_rng = np.random.default_rng

        class FailingGenerator:
            def __init__(self, seed):
                self.rng = default_rng(seed)
                self.draws = 0

            def standard_normal(self, out):
                self.draws += 1
                if self.draws == 2:
                    raise RuntimeError("draw failed")
                return self.rng.standard_normal(out=out)

            def random(self, out):
                return self.rng.random(out=out)

        monkeypatch.setattr(np.random, "default_rng", FailingGenerator)
        monkeypatch.setattr(sampling, "_last_sweep", None)
        kb, _ = simple_system()
        params = tg.ParameterAssignment(psi=(1.0,), delta=0.1)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed"):
            run_entry_point(entry, kb, params, rule(A1, "true", "a", 1), 2000, 0, 3)
        assert threading.active_count() == before
        assert sampling._last_sweep is None

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_an_unused_draw_is_awaited(self, monkeypatch, entry):
        # Every point's LP finds it single-point (pi(a) = 0 where
        # psi * delta < 0.5), so no group walks and the chunk drawn while
        # the LPs solved goes unused: its failure still reaches the caller.
        def fail(*args):
            raise RuntimeError("draw failed")

        monkeypatch.setattr(sampling, "_draw", fail)
        monkeypatch.setattr(sampling, "_last_sweep", None)
        kb = tg.load_kb("a => b @ 1\na => ~b @ 1\n")
        params = tg.ParameterAssignment(psi=(0.2, 0.2), delta=0.9)
        query = tg.parse_query("t => a & b @ 1", kb.signature)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed"):
            run_entry_point(entry, kb, params, query, 300, 10, 0)
        assert threading.active_count() == before

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_an_empty_polytope_ends_the_helper_after_its_draw(self, monkeypatch, entry):
        # Only the LP finds the polytope empty, after the helper has
        # started drawing the first chunk: the error waits for that draw.
        kb = tg.KnowledgeBase(A1, (rule(A1, "true", "a", 1), rule(A1, "true", "~a", 1)))
        params = tg.ParameterAssignment(psi=(1.0, 1.0), delta=0.3)
        started, finished, walked = [], [], []
        draw = sampling._draw

        def slow_draw(*args):
            started.append(True)
            time.sleep(0.2)
            draw(*args)
            finished.append(True)

        monkeypatch.setattr(sampling, "_draw", slow_draw)
        monkeypatch.setattr(sampling, "_walk", lambda *args: walked.append(args))
        monkeypatch.setattr(sampling, "_last_sweep", None)
        before = threading.active_count()
        with pytest.raises(tg.InfeasiblePolytopeError):
            run_entry_point(entry, kb, params, rule(A1, "true", "a", 1), 300, 10, 0)
        assert started and finished == started
        assert walked == []
        assert threading.active_count() == before

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_first_chunk_is_drawn_while_the_lps_solve(self, monkeypatch, entry):
        # Every LP waits for a draw to start, so a sweep that submitted its
        # first draw only after its LPs would wait out the timeout.
        started = threading.Event()
        waited = []
        draw, solve = sampling._draw, polytope._chebyshev_centers

        def draw_spy(*args):
            started.set()
            return draw(*args)

        def lp_spy(stack):
            waited.append(started.wait(timeout=10))
            return solve(stack)

        kb = two_rule_chain_kb()
        params = tg.ParameterAssignment(psi=(1.0, 1.0), delta=0.1)
        query = rule(AB, "true", "a | b", 2)
        with monkeypatch.context() as patched:
            patched.setattr(sampling, "_draw", draw_spy)
            patched.setattr(polytope, "_chebyshev_centers", lp_spy)
            patched.setattr(sampling, "_last_sweep", None)
            result = run_entry_point(entry, kb, params, query, 700, 100, 21)
        assert waited and all(waited)
        # The same numbers as without the spies; a verdict's are those of
        # each grid point's own conclusion_quantile.
        monkeypatch.setattr(sampling, "_last_sweep", None)
        if entry == "scaling_verdict":
            expected = per_point_quantiles(kb, query, (0.1, 0.05, 0.025), params, 700, 21, 100)
        else:
            expected = run_entry_point(entry, kb, params, query, 700, 100, 21)
        assert np.array_equal(result, expected)

    SOME = "a => b @ 1\na => ~b @ 1\n"

    @pytest.mark.parametrize(
        "text, psi, width, plan, walked",
        [
            # Where psi * delta <= 0.5, a & b and a & ~b each hold at most
            # half of pi(a), so pi(a) = 0 and the point, on a face, is
            # found single-point by its LP. Here that is psi x1 and psi
            # x0.5: the first six points of the one planned group.
            (SOME, (0.45, 0.45), 1024, [list(range(9))], [[6, 7, 8]]),
            # The same six points, which c's row plans as a group of their
            # own: every chain of the first planned group leaves it.
            (
                "a => b @ 1\na => ~b @ 1\nt => c @ 1\n",
                (0.5, 0.5, 0.9),
                1024,
                [list(range(6)), [6, 7, 8]],
                [[6, 7, 8]],
            ),
            # Groups of two, and only the psi x0.5 points are single-point:
            # the first group walks whole and later ones lose points.
            (
                SOME,
                (0.9, 0.9),
                8,
                [[0, 1], [2, 3], [4, 5], [6, 7], [8]],
                [[0, 1], [2], [6, 7], [8]],
            ),
        ],
        ids=["some", "all", "later"],
    )
    def test_single_point_found_by_its_lp_leaves_its_group(
        self, monkeypatch, text, psi, width, plan, walked
    ):
        planned, groups = [], []
        walks = sampling._DrawAhead.walks

        def spy(self, spaces, *args):
            planned.append(self.plan)
            for group, stored, visited in walks(self, spaces, *args):
                if groups[-1:] != [group]:
                    groups.append(group)
                yield group, stored, visited

        monkeypatch.setattr(sampling._DrawAhead, "walks", spy)
        monkeypatch.setattr(sampling, "_LOCKSTEP_WIDTH", width)
        monkeypatch.setattr(sampling, "_last_sweep", None)
        kb = tg.load_kb(text)
        params = tg.ParameterAssignment(psi=psi, delta=0.9)
        query = tg.parse_query("t => a & b @ 1", kb.signature)
        grid = (0.9, 0.7, 0.6)
        # Burn-in ends in the first chunk and the walk in the second, so
        # a first chunk drawn afresh and a chunk drawn after the LPs both
        # walk.
        report = tg.scaling_verdict(kb, query, grid, params, n=700, seed=22, burn_in=100)
        assert planned == [plan]
        assert groups == walked
        expected = per_point_quantiles(kb, query, grid, params, 700, 22, 100)
        assert np.array_equal(report.quantiles, expected)

    def test_a_first_group_that_loses_points_draws_afresh(self, monkeypatch):
        # The "some" case: the chunk drawn for the nine planned chains
        # while the LPs solve goes unused, and the three that walk draw
        # their first chunk again, from generators restarted at their
        # seeds, then their second.
        draws = []
        draw = sampling._draw

        def spy(rngs, normals, uniforms):
            draws.append(len(rngs))
            return draw(rngs, normals, uniforms)

        monkeypatch.setattr(sampling, "_last_sweep", None)
        kb = tg.load_kb(self.SOME)
        params = tg.ParameterAssignment(psi=(0.45, 0.45), delta=0.9)
        query = tg.parse_query("t => a & b @ 1", kb.signature)
        grid = (0.9, 0.7, 0.6)
        with monkeypatch.context() as patched:
            patched.setattr(sampling, "_draw", spy)
            report = tg.scaling_verdict(kb, query, grid, params, n=700, seed=22, burn_in=100)
        assert draws == [9, 3, 3]
        expected = per_point_quantiles(kb, query, grid, params, 700, 22, 100)
        assert np.array_equal(report.quantiles, expected)

    def test_a_failed_draw_between_groups_reaches_the_caller(self, monkeypatch):
        # One chunk per group, so the second draw is the second group's
        # first chunk, drawn while the first group walks.
        draws = []
        draw = sampling._draw

        def spy(rngs, normals, uniforms):
            draws.append(len(rngs))
            if len(draws) == 2:
                raise RuntimeError("draw failed")
            return draw(rngs, normals, uniforms)

        monkeypatch.setattr(sampling, "_draw", spy)
        monkeypatch.setattr(sampling, "_last_sweep", None)
        kb, query, grid, params = wide_grid_case()
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed"):
            tg.scaling_verdict(kb, query, grid, params, n=300, seed=23, burn_in=100)
        assert draws == [8, 4]
        assert threading.active_count() == before
        assert sampling._last_sweep is None


class TestSweep:
    # _sweep is the one route from polytopes to walks. On a sample of random
    # sweeps with empty and duplicate systems, each of its spaces must be
    # the walk space that _walkspace finds alone, and it must raise for the
    # first system that _walkspace rejects.

    @staticmethod
    def fields(space):
        return (
            space.keep.tobytes(),
            space.rows.shape,
            space.rows.tobytes(),
            space.center.tobytes(),
            space.radius.hex(),
        )

    @staticmethod
    def arrays(system):
        return system.rows.shape, system.rows.tobytes()

    def test_spaces_equal_lone_walkspaces(self, lps):
        rng = np.random.default_rng(12)
        emptied = duplicated = 0
        for _ in range(12):
            kb = random_kb(rng, max_names=4, max_rules=4, allow_infinite=True)
            systems = [
                tg.build_polytope(kb, tg.ParameterAssignment(psi=(scale,) * kb.size, delta=delta))
                for scale in tg.PSI_SWEEP
                for delta in (0.5, 0.2, 0.05)
            ]
            seeds = list(range(len(systems)))
            # Each distinct system solved alone, with its LPs.
            alone, solves = {}, {}
            for system in systems:
                if self.arrays(system) not in alone:
                    lps.clear()
                    try:
                        alone[self.arrays(system)] = _walkspace(system)
                    except tg.InfeasiblePolytopeError:
                        alone[self.arrays(system)] = None
                    solves[self.arrays(system)] = len(lps)
            empty = [alone[self.arrays(system)] is None for system in systems]
            first = empty.index(True) if any(empty) else len(systems)
            lps.clear()
            if first < len(systems):
                with pytest.raises(tg.InfeasiblePolytopeError) as raised:
                    with sampling._sweep(systems, seeds, 1, 0):
                        pass
                assert raised.value.index == first
            else:
                with sampling._sweep(systems, seeds, 1, 0):
                    pass
            # Each distinct system's LP, once, past the first empty one too:
            # a stack solves every distinct member of its shape.
            assert len(lps) == sum(solves.values())
            emptied += first < len(systems)
            duplicated += len(alone) < len(systems)
            kept = [system for system, gone in zip(systems, empty) if not gone]
            if kept:
                with sampling._sweep(kept, seeds, 1, 0) as (spaces, _):
                    pass
                assert [self.fields(space) for space in spaces] == [
                    self.fields(alone[self.arrays(system)]) for system in kept
                ]
        assert emptied and duplicated


class TestExceptionRate:
    def test_known_points(self):
        points = np.array(
            [
                [0.25, 0.25, 0.25, 0.25],
                [0.0, 0.5, 0.0, 0.5],
                [0.5, 0.0, 0.5, 0.0],
            ]
        )
        gamma = tg.parse("a", AB)
        zeta = tg.parse("b", AB)
        rates = tg.exception_rate(points, gamma, zeta)
        # Row 1: pi(a) = 0.5, pi(a & b) = 0.25, so 1 - 0.25/0.5 = 0.5.
        # Row 2: pi(a) = 1, pi(a & b) = 0.5.
        # Row 3: pi(a) = 0, conditional read as 1, rate 0.
        assert np.allclose(rates, [0.5, 0.5, 0.0])

    def test_propositions_over_other_atoms_are_refused(self):
        points = np.array([[0.25, 0.25, 0.25, 0.25]])
        for sig in (A1, tg.Signature(("a", "b", "c"))):
            with pytest.raises(tg.SignatureError):
                tg.exception_rate(points, tg.parse("a", sig), tg.parse("a", sig))

    def test_impossible_antecedent_never_excepts(self):
        points = np.array([[0.25, 0.25, 0.25, 0.25]])
        rates = tg.exception_rate(points, tg.parse("false", AB), tg.parse("a", AB))
        assert rates.tolist() == [0.0]


class TestEmpiricalQuantile:
    def test_order_statistic_rank(self):
        values = np.arange(1.0, 11.0)
        assert tg.empirical_quantile(values, 0.1) == 9.0
        assert tg.empirical_quantile(values, 0.25) == 8.0
        assert tg.empirical_quantile(values, 0.95) == 1.0
        assert tg.empirical_quantile(values, 1e-9) == 10.0

    def test_order_does_not_matter(self):
        rng = np.random.default_rng(41)
        values = rng.random(101)
        shuffled = rng.permutation(values)
        assert tg.empirical_quantile(values, 0.2) == tg.empirical_quantile(
            shuffled, 0.2
        )

    def test_monotone_in_eta(self):
        rng = np.random.default_rng(42)
        values = rng.random(457)
        grid = np.linspace(0.01, 0.99, 40)
        quantiles = [tg.empirical_quantile(values, eta) for eta in grid]
        assert all(a >= b for a, b in zip(quantiles, quantiles[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            tg.empirical_quantile(np.array([]), 0.1)
        with pytest.raises(ValueError):
            tg.empirical_quantile(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            tg.empirical_quantile(np.array([1.0]), 1.0)


class TestConclusionQuantile:
    def test_uniform_segment_quantile(self):
        kb, _ = simple_system()
        params = tg.ParameterAssignment(psi=(1.0,), delta=0.1, eta=0.1)
        query = rule(A1, "true", "a", 1)
        q = tg.conclusion_quantile(kb, params, query, n=20000, seed=9)
        assert abs(q - 0.09) <= 0.005

    def test_kb_rule_never_exceeds_its_own_bound(self):
        kb = two_rule_chain_kb()
        params = tg.ParameterAssignment(psi=(1.0, 1.0), delta=0.2, eta=0.01)
        for query in kb.rules:
            q = tg.conclusion_quantile(kb, params, query, n=4000, seed=10)
            assert q <= 1.0 * 0.2**query.threshold + 1e-9


class TestExactQuantile:
    CHAIN_GRID = (0.1, 0.05, 0.025, 0.0125)
    # exact_quantile of t => a | b @ 2 over the two-rule chain on CHAIN_GRID.
    CHAIN_QUANTILES = (6.7986e-3, 1.7047e-3, 4.2678e-4, 1.0677e-4)

    def test_closed_forms(self):
        # Uniform models of an empty KB are Dirichlet(1, ..., 1), so the
        # mass of a's complement, half of the 2**r atoms, is
        # Beta(2**(r-1), 2**(r-1)); one rule t => a @ 1 makes pi(~a)
        # uniform on [0, delta].
        for names in (("a", "b"), ("a", "b", "c")):
            signature = tg.Signature(names)
            kb = tg.KnowledgeBase(signature, ())
            half = signature.atom_count // 2
            exact = exact_quantile(
                kb,
                tg.ParameterAssignment(psi=(), delta=0.5),
                rule(signature, "true", "a", 1),
            )
            assert abs(exact - beta.ppf(0.9, half, half)) <= 1e-12
        kb, _ = simple_system()
        exact = exact_quantile(
            kb, tg.ParameterAssignment(psi=(1.0,), delta=0.1), rule(A1, "true", "a", 1)
        )
        assert abs(exact - 0.09) <= 1e-12

    def test_two_rule_chain(self):
        kb = two_rule_chain_kb()
        query = rule(AB, "true", "a | b", 2)
        for delta, expected in zip(self.CHAIN_GRID, self.CHAIN_QUANTILES):
            params = tg.ParameterAssignment(psi=(1.0, 1.0), delta=delta)
            assert abs(exact_quantile(kb, params, query) / expected - 1) <= 1e-4

    # The grid points of tests/exact_oracle_corpus.py where Qhull raised
    # before exact_quantile measured volumes in a rounded frame: 36 points
    # in 12 cases, by case index and position in the psi sweep x grid.
    QHULL_POINTS = {
        5: (2, 3, 7),
        8: (2, 3, 7, 11),
        10: (1, 2, 3, 5, 6, 7, 11),
        16: (3,),
        24: (3, 7),
        25: (3, 6, 7),
        29: (10,),
        31: (3,),
        32: (3, 6, 7),
        34: (2, 3, 6, 7, 11),
        35: (3, 6, 7, 11),
        37: (3, 7),
    }

    def test_thin_corpus_polytopes_are_measured(self):
        cases = corpus_cases(max(self.QHULL_POINTS) + 1)
        measured = 0
        for index, positions in self.QHULL_POINTS.items():
            kb, query = cases[index]
            points = grid_points(kb)
            for position in positions:
                quantile = exact_quantile(kb, points[position], query)
                assert 0.0 < quantile < 1.0, (index, position)
                measured += 1
        assert measured == 36

    def test_walk_quantiles_are_calibrated(self):
        # Measured over seeds 0-19 at n = 20000: the walk's quantile lies
        # within 3.8% of the exact one on the two-rule chain's grid, and
        # within 16.4% on the three-name chain, whose quantile moves by
        # about 8.5% (one standard deviation) between seeds.
        kb = two_rule_chain_kb()
        query = rule(AB, "true", "a | b", 2)
        for delta, expected in zip(self.CHAIN_GRID, self.CHAIN_QUANTILES):
            params = tg.ParameterAssignment(psi=(1.0, 1.0), delta=delta)
            walked = tg.conclusion_quantile(kb, params, query, n=20000, seed=0)
            assert abs(walked / expected - 1) <= 0.05
        abc = tg.Signature(("a", "b", "c"))
        kb = tg.KnowledgeBase(
            abc,
            (rule(abc, "true", "a", 1), rule(abc, "a", "b", 1), rule(abc, "b", "c", 2)),
        )
        params = tg.ParameterAssignment(psi=(1.0,) * 3, delta=0.1)
        query = rule(abc, "a", "c", 2)
        expected = exact_quantile(kb, params, query)
        assert abs(expected - 0.0709) <= 1e-4
        for seed in range(4):
            walked = tg.conclusion_quantile(kb, params, query, n=20000, seed=seed)
            assert abs(walked / expected - 1) <= 0.25

    def test_truncated_betas_match_volumes(self):
        # One rule, and two rules with disjoint antecedents, at 2-3 names,
        # where exact_quantile measures the volumes themselves.
        abc = tg.Signature(("a", "b", "c"))
        kbs = (
            tg.KnowledgeBase(AB, (rule(AB, "true", "a", 1),)),
            tg.KnowledgeBase(abc, (rule(abc, "a", "b", 1), rule(abc, "~a", "c", 2))),
        )
        for kb in kbs:
            params = tg.ParameterAssignment(psi=(1.0,) * kb.size, delta=0.1)
            for query in kb.rules:
                expected = rule_quantile(query, params)
                assert abs(exact_quantile(kb, params, query) / expected - 1) <= 1e-9

    def test_walk_matches_truncated_betas(self):
        # Measured over seeds 0-19 at n = 20000: the walk's quantile lies
        # within 1.05% of the truncated Beta for the five-name rule and
        # within 1.08% on the four-name disjoint-antecedent KB.
        five = tg.Signature(("a", "b", "c", "d", "e"))
        four = tg.Signature(("a", "b", "c", "d"))
        kbs = (
            tg.KnowledgeBase(five, (rule(five, "true", "a", 1),)),
            tg.KnowledgeBase(
                four, (rule(four, "a & b", "c", 1), rule(four, "~a", "d", 2))
            ),
        )
        for kb in kbs:
            for delta in (0.1, 0.05):
                params = tg.ParameterAssignment(psi=(1.0,) * kb.size, delta=delta)
                for query in kb.rules:
                    expected = rule_quantile(query, params)
                    walked = tg.conclusion_quantile(kb, params, query, n=20000, seed=0)
                    assert abs(walked / expected - 1) <= 0.015


class TestScalingVerdict:
    GRID = (0.1, 0.05, 0.025)

    def test_entailed_query_supported(self):
        kb = two_rule_chain_kb()
        params = tg.ParameterAssignment(psi=(1.0, 1.0), delta=0.1)
        query = rule(AB, "true", "a | b", 2)
        report = tg.scaling_verdict(kb, query, self.GRID, params, n=8000, seed=11)
        assert report.verdict == "supports"
        assert 1.7 <= report.fitted_exponent <= 2.3
        assert report.delta_grid == self.GRID
        assert report.psi_scales == tg.PSI_SWEEP
        assert len(report.quantiles) == len(tg.PSI_SWEEP)
        assert all(len(row) == len(self.GRID) for row in report.quantiles)

    def test_overreaching_threshold_refuted(self):
        kb = two_rule_chain_kb()
        params = tg.ParameterAssignment(psi=(1.0, 1.0), delta=0.1)
        query = rule(AB, "true", "a | b", 3)
        report = tg.scaling_verdict(kb, query, self.GRID, params, n=8000, seed=12)
        assert report.verdict == "refutes"

    def test_tautological_query_has_infinite_exponent(self):
        kb = tg.KnowledgeBase(A1, ())
        params = tg.ParameterAssignment(psi=(), delta=0.1)
        query = rule(A1, "a", "a", 3)
        report = tg.scaling_verdict(kb, query, self.GRID, params, n=500, seed=13)
        assert report.verdict == "supports"
        assert report.fitted_exponent == tg.INFINITY
        assert all(q == 0.0 for row in report.quantiles for q in row)

    def test_reproducible(self):
        kb = two_rule_chain_kb()
        params = tg.ParameterAssignment(psi=(1.0, 1.0), delta=0.1)
        query = rule(AB, "true", "a | b", 2)
        r1 = tg.scaling_verdict(kb, query, self.GRID, params, n=1500, seed=14)
        # Another sweep in between, so that the second call walks again
        # instead of replaying the first.
        tg.scaling_verdict(kb, query, self.GRID, params, n=1500, seed=15)
        r2 = tg.scaling_verdict(kb, query, self.GRID, params, n=1500, seed=14)
        assert r1.quantiles == r2.quantiles
        assert r1.exponents == r2.exponents

    def test_grid_validation(self):
        kb = tg.KnowledgeBase(A1, ())
        params = tg.ParameterAssignment(psi=(), delta=0.1)
        query = rule(A1, "a", "a", 1)
        with pytest.raises(ValueError):
            tg.scaling_verdict(kb, query, (0.1, 0.05), params, n=100, seed=0)
        with pytest.raises(ValueError):
            tg.scaling_verdict(kb, query, (0.1, 0.1, 0.05), params, n=100, seed=0)
        with pytest.raises(ValueError):
            tg.scaling_verdict(kb, query, (0.025, 0.05, 0.1), params, n=100, seed=0)

    def test_infeasible_grid_point_names_its_delta(self):
        kb = tg.KnowledgeBase(
            A1, (rule(A1, "true", "a", 1), rule(A1, "true", "~a", 1))
        )
        params = tg.ParameterAssignment(psi=(1.0, 1.0), delta=0.9)
        query = rule(A1, "true", "a", 1)
        with pytest.raises(tg.InfeasiblePolytopeError, match="0.3"):
            tg.scaling_verdict(kb, query, (0.9, 0.7, 0.3), params, n=100, seed=0)

    @pytest.mark.parametrize(
        "psi, cause, later",
        [
            (15.0, "polytope is empty$", (0.5, 0.3, "every coordinate is forced to zero")),
            (5.0, "every coordinate is forced to zero", (0.5, 0.9, "polytope is empty$")),
        ],
        ids=["pinned-after-lp", "lp-after-pinned"],
    )
    def test_first_empty_point_is_named_whichever_check_finds_it(
        self, monkeypatch, psi, cause, later
    ):
        # The a rules leave no model where psi scale * delta < 0.5, which
        # only the LP finds. The b rules pin every atom where psi scale *
        # psi * delta**2 < 1, found before any LP. Either way the first
        # empty point of the sweep is psi x1 at delta 0.3, and a point of
        # the other kind follows it.
        kb = tg.load_kb("t => a @ 1\nt => ~a @ 1\nt => b @ inf\nt => ~b @ 2\n")
        params = tg.ParameterAssignment(psi=(1.0, 1.0, 1.0, psi), delta=0.9)
        query = tg.parse_query("t => a @ 1", kb.signature)
        grid = (0.9, 0.7, 0.3)
        scale, delta, message = later
        point = tg.ParameterAssignment(psi=(scale, scale, scale, scale * psi), delta=delta)
        with pytest.raises(tg.InfeasiblePolytopeError, match=message):
            _walkspace(tg.build_polytope(kb, point))
        started, finished, walked = [], [], []
        draw = sampling._draw

        def slow_draw(*args):
            started.append(True)
            time.sleep(0.2)
            draw(*args)
            finished.append(True)

        monkeypatch.setattr(sampling, "_draw", slow_draw)
        monkeypatch.setattr(sampling, "_walk", lambda *args: walked.append(args))
        monkeypatch.setattr(sampling, "_last_sweep", None)
        before = threading.active_count()
        with pytest.raises(
            tg.InfeasiblePolytopeError, match=r"delta=0.3 \(psi scale 1.0\)"
        ) as raised:
            tg.scaling_verdict(kb, query, grid, params, n=300, burn_in=10)
        assert re.search(cause, str(raised.value.__cause__))
        assert started and finished == started
        assert walked == []
        assert threading.active_count() == before

    def test_quantiles_equal_per_point_quantiles(self, lps):
        # Over (0.9, 0.6, 0.3) the psi x2 row drops the first rule's row at
        # 0.9 and 0.6, so the grid mixes reduced shapes. Wherever the second
        # rule's psi * delta is below 1 (all of psi x0.5, and delta 0.3 at
        # psi x1) it pins every b atom, the @ inf rule pins ~a & ~b, and
        # the one coordinate left makes the point degenerate.
        kb = tg.KnowledgeBase(
            AB,
            (
                rule(AB, "true", "a", 1),
                rule(AB, "b", "~b", 1),
                rule(AB, "~b", "a", tg.INFINITY),
            ),
        )
        params = tg.ParameterAssignment(psi=(1.0, 2.0, 1.0), delta=0.9)
        query = rule(AB, "true", "a & ~b", 1)
        grid = (0.9, 0.6, 0.3)
        report = tg.scaling_verdict(kb, query, grid, params, n=700, seed=15, burn_in=4000)
        expected = per_point_quantiles(kb, query, grid, params, 700, 15, 4000)
        assert np.array_equal(report.quantiles, expected)
        # The same sweep again replays the recorded groups of both shapes,
        # with the single-point spaces between them, and solves no LP.
        lps.clear()
        replayed = tg.scaling_verdict(kb, query, grid, params, n=700, seed=15, burn_in=4000)
        assert lps == []
        assert np.array_equal(replayed.quantiles, expected)
        spaces = [
            _walkspace(
                tg.build_polytope(
                    kb, tg.ParameterAssignment(psi=(s, 2 * s, s), delta=d)
                )
            )
            for s in tg.PSI_SWEEP
            for d in grid
        ]
        walked = [space.rows.shape for space in spaces if space.radius > 0.0]
        assert len(set(walked)) == 2
        assert len(walked) < len(spaces)

    def test_readout_reads_each_chain_on_its_own_atoms(self, monkeypatch):
        # Two polytopes of one shape that keep different atoms (a & ~b,
        # a & b against ~a & b, a & b): a group must read each chain
        # against its own kept atoms, exactly as that chain alone. The
        # rates are caught on their way into the quantile.
        params = tg.ParameterAssignment(psi=(1.0,), delta=0.1)
        systems = [
            tg.build_polytope(tg.KnowledgeBase(AB, (rule(AB, "true", name, tg.INFINITY),)), params)
            for name in ("a", "b")
        ]
        spaces = [_walkspace(system) for system in systems]
        assert spaces[0].rows.shape == spaces[1].rows.shape
        assert not np.array_equal(spaces[0].keep, spaces[1].keep)
        read = []
        quantile = sampling.empirical_quantile

        def spy(values, eta):
            read.append(values.copy())
            return quantile(values, eta)

        monkeypatch.setattr(sampling, "empirical_quantile", spy)
        query = rule(AB, "true", "a", 1)

        def rates(group, seeds):
            read.clear()
            with sampling._sweep(group, seeds, 700, 100) as (spaces, walks):
                sampling._quantiles(spaces, walks, query, AB.atom_count, 700, 0.1)
            return list(read)

        seeds = [3, 4]
        together = rates(systems, seeds)
        assert len(together) == 2
        for system, seed, chain_rates in zip(systems, seeds, together):
            (alone,) = rates([system], [seed])
            assert np.array_equal(chain_rates, alone)
        assert not together[0].any() and together[1].all()

    def test_wide_grid_splits_into_capped_groups(self, monkeypatch):
        kb, query, grid, params = wide_grid_case()
        groups = []
        lockstep = sampling._lockstep

        def spy(spaces, *args):
            groups.append(len(spaces))
            return lockstep(spaces, *args)

        monkeypatch.setattr(sampling, "_lockstep", spy)
        report = tg.scaling_verdict(kb, query, grid, params, n=300, seed=16, burn_in=100)
        assert groups == [8, 4]
        expected = per_point_quantiles(kb, query, grid, params, 300, 16, 100)
        assert np.array_equal(report.quantiles, expected)

    def test_verdict_holds_rates_not_models(self, monkeypatch):
        # 5 names walk in 32 coordinates, so the 9 grid chains walk as one
        # group. Their models at n = 20000 would take 46 MB held whole and
        # 41 MB for 8 of them; the rates, one (9, n) array for every grid
        # point, take 1.4 MB. The kernel is swapped for one that stays
        # put: its own buffers are set by the width cap, not by n, and
        # under tracemalloc the real one's 20000 steps take seconds.
        def stay(rows, rhs, y, normals, uniforms, out):
            out[:] = y[:, None]

        monkeypatch.setattr(sampling, "_walk", stay)
        signature = tg.Signature(("a", "b", "c", "d", "e"))
        kb = tg.KnowledgeBase(
            signature, tuple(rule(signature, "true", name, 1) for name in signature.names)
        )
        params = tg.ParameterAssignment(psi=(1.0,) * kb.size, delta=0.1)
        query = rule(signature, "true", "a & b", 1)
        tracemalloc.start()
        try:
            report = tg.scaling_verdict(kb, query, self.GRID, params, n=20000, burn_in=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert all(0.0 < q < 1.0 for row in report.quantiles for q in row)

    def test_single_point_grid_reads_one_rate(self):
        # Every name is a fact at threshold inf, so each grid polytope is
        # the one model a & b & ... & h: its quantile is the rate at that
        # model, read without repeating it n times (41 MB at n = 20000).
        signature = tg.Signature(("a", "b", "c", "d", "e", "g", "h", "i"))
        kb = tg.KnowledgeBase(
            signature,
            tuple(rule(signature, "true", name, tg.INFINITY) for name in signature.names),
        )
        params = tg.ParameterAssignment(psi=(1.0,) * kb.size, delta=0.1)
        for consequent, rate in (("~a", 1.0), ("a & i", 0.0)):
            query = rule(signature, "true", consequent, 1)
            tracemalloc.start()
            try:
                report = tg.scaling_verdict(kb, query, self.GRID, params, n=20000)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20
            assert report.quantiles == ((rate,) * len(self.GRID),) * len(tg.PSI_SWEEP)
            assert tg.conclusion_quantile(kb, params, query, 20000) == rate

    def test_run_arguments_checked_before_any_lp(self, monkeypatch):
        def no_lp(stack):
            raise AssertionError("an LP ran before the arguments were checked")

        monkeypatch.setattr(polytope, "_chebyshev_centers", no_lp)
        kb = two_rule_chain_kb()
        params = tg.ParameterAssignment(psi=(1.0, 1.0), delta=0.1)
        query = rule(AB, "true", "a | b", 2)
        cases = [
            (dict(n=0), "n must be at least 1"),
            (dict(n=100, burn_in=-1), "burn_in must be non-negative"),
            (dict(n=100, seed=-1), "seed must be non-negative"),
        ]
        for kwargs, message in cases:
            with pytest.raises(ValueError, match=message):
                tg.scaling_verdict(kb, query, self.GRID, params, **kwargs)
            with pytest.raises(ValueError, match=message):
                tg.conclusion_quantile(kb, params, query, **kwargs)
        for grid in ((0.1, 0.05, 0.0), (0.1, 0.05, -0.5), (1.5, 0.5, 0.1)):
            with pytest.raises(ValueError, match=r"\(0, 1\)"):
                tg.scaling_verdict(kb, query, grid, params, n=100)
        # A query over another signature, even one of the same atom count,
        # is refused rather than read over the kb's atoms.
        kb = tg.load_kb("t => a @ 1\n")
        params = tg.ParameterAssignment(psi=(1.0,), delta=0.1)
        for names in (("b", "a"), ("a", "b", "c"), ("b",)):
            query = tg.parse_query(f"t => ~{names[-1]} @ 1", tg.Signature(names))
            with pytest.raises(tg.SignatureError, match="differs from knowledge base"):
                tg.scaling_verdict(kb, query, self.GRID, params, n=100)
            with pytest.raises(tg.SignatureError, match="differs from knowledge base"):
                tg.conclusion_quantile(kb, params, query, n=100)

    def test_agreement_with_symbolic_engine(self):
        rng = np.random.default_rng(43)
        cases = 0
        while cases < 12:
            kb = random_kb(rng, max_threshold=2)
            profile = tg.compile_kb(kb)
            if not profile.is_consistent():
                continue
            gamma = random_proposition(rng, kb.signature)
            zeta = random_proposition(rng, kb.signature)
            best = profile.max_entailed_threshold(gamma, zeta)
            params = tg.ParameterAssignment(psi=(1.0,) * kb.size, delta=0.1)
            for j in (1, 2):
                query = tg.Generalization(gamma, zeta, j)
                report = tg.scaling_verdict(
                    kb, query, self.GRID, params, n=4000, seed=cases * 7 + j
                )
                if profile.entails_in_probability(query):
                    assert report.verdict == "supports", (kb, query, report)
                elif best is None or best < j:
                    assert report.verdict != "supports", (kb, query, report)
            cases += 1

@pytest.fixture
def lps(monkeypatch):
    """The shape of the rows of every LP solved, in order: one entry per
    member of each stack solved."""
    calls = []
    solve = polytope._chebyshev_centers

    def spy(stack):
        calls.extend([stack.shape[1:]] * len(stack))
        return solve(stack)

    monkeypatch.setattr(polytope, "_chebyshev_centers", spy)
    return calls


class TestSweepReplay:
    # validate-shared's shape: two (gamma, zeta) pairs, each probed at its
    # largest entailed threshold and one above, on one KB whose 12 grid
    # polytopes take one LP per distinct polytope.
    TEXT = "t => a @ 1\n~a => b @ 1\n"
    GRID = (0.1, 0.05, 0.025, 0.0125)
    QUERIES = ("t => a | b @ 2", "t => a | b @ 3", "t => a @ 1", "t => a @ 2")

    def verdict(self, query, text=TEXT, names=(), psi=1.0, eta=0.1, grid=GRID, **run):
        kb = tg.load_kb(text, names)
        params = tg.ParameterAssignment(psi=(psi,) * kb.size, delta=grid[0], eta=eta)
        run = {"n": 1000, "seed": 5, "burn_in": 200, **run}
        return tg.scaling_verdict(kb, tg.parse_query(query, kb.signature), grid, params, **run)

    @staticmethod
    def distinct(text=TEXT, psi=1.0, grid=GRID):
        """The LPs a sweep solves: one per distinct tuple of its rules'
        psi * delta**k, computed as build_polytope computes them. On the
        halving grid that is 6 of 12 at threshold 1 and 9 at threshold 2."""
        kb = tg.load_kb(text)
        return len(
            {
                tuple((scale * psi) * delta**r.threshold for r in kb.rules)
                for scale in tg.PSI_SWEEP
                for delta in grid
            }
        )

    def test_queries_on_one_sweep_share_its_walk(self, lps):
        self.verdict(self.QUERIES[0], seed=6)
        lps.clear()
        reports = [self.verdict(query) for query in self.QUERIES]
        assert len(lps) == self.distinct() == 6
        assert [r.verdict for r in reports] == ["supports", "refutes"] * 2
        for query, report in zip(self.QUERIES, reports):
            self.verdict(query, seed=6)
            lps.clear()
            walked = self.verdict(query)
            assert len(lps) == self.distinct()
            assert walked.quantiles == report.quantiles
            assert walked.exponents == report.exponents
            assert walked.verdict == report.verdict

    def test_a_replay_builds_no_polytope(self, lps, monkeypatch):
        before = self.verdict(self.QUERIES[0])
        built = []
        build = sampling.build_polytope

        def spy(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(sampling, "build_polytope", spy)
        lps.clear()
        # A reloaded knowledge base equals the one before, so it replays.
        replayed = self.verdict(self.QUERIES[0])
        assert built == [] and lps == []
        assert replayed == before
        self.verdict(self.QUERIES[0], seed=6)
        assert len(built) == len(tg.PSI_SWEEP) * len(self.GRID)

    def test_a_replay_reads_the_entry_once(self, lps):
        # A miss on another thread drops the entry. Here the seed's own
        # comparison drops it, after the key matched: a replay that read
        # the entry again would find None.
        before = self.verdict(self.QUERIES[0])

        class DroppingSeed(int):
            __hash__ = int.__hash__

            def __eq__(self, other):
                sampling._last_sweep = None
                return int.__eq__(self, other)

        lps.clear()
        assert self.verdict(self.QUERIES[0], seed=DroppingSeed(5)) == before
        assert lps == []

    def test_eta_is_not_part_of_the_sweep(self, lps):
        self.verdict(self.QUERIES[0])
        lps.clear()
        self.verdict(self.QUERIES[0], eta=0.2)
        assert lps == []

    @pytest.mark.parametrize(
        "change",
        [
            {"n": 999},
            {"seed": 6},
            {"burn_in": 201},
            {"psi": 0.9},
            {"grid": (0.1, 0.05, 0.025, 0.01)},
            {"names": ("c",)},
        ],
        ids=["n", "seed", "burn_in", "psi", "grid", "names"],
    )
    def test_a_changed_sweep_walks_afresh(self, lps, change):
        self.verdict(self.QUERIES[0])
        lps.clear()
        self.verdict(self.QUERIES[0], **change)
        shape = {name: change[name] for name in ("psi", "grid") if name in change}
        assert len(lps) == self.distinct(**shape)

    def test_sweep_over_the_budget_is_not_recorded(self, lps):
        # 3 names: the 12 grid points' models take 12 * 8 * 8 bytes per
        # sample, so 5461 samples are the most that fit in 4 MiB.
        most = 4 * 2**20 // (12 * 8 * 8)
        for n, solved in ((most, self.distinct()), (most + 1, 2 * self.distinct())):
            lps.clear()
            for _ in range(2):
                self.verdict(self.QUERIES[0], names=("c",), n=n, burn_in=0)
            assert len(lps) == solved

    def test_sweep_that_raises_part_way_records_nothing(self, lps, monkeypatch):
        # At psi x1 and delta 0.9 both rules' rows are vacuous (psi * delta
        # >= 1), so that point would walk alone once delta 0.7 brings the
        # rows back; psi x0.5 empties the polytope at delta 0.7, and every
        # polytope is solved before any walk, so nothing walks.
        before = self.verdict(self.QUERIES[0])
        groups = []
        lockstep = sampling._lockstep

        def spy(spaces, *args):
            groups.append(len(spaces))
            return lockstep(spaces, *args)

        monkeypatch.setattr(sampling, "_lockstep", spy)
        kb = tg.load_kb("t => a @ 1\nt => ~a @ 1\n")
        params = tg.ParameterAssignment(psi=(1.2, 1.2), delta=0.9)
        query = tg.parse_query("t => a @ 1", kb.signature)
        for _ in range(2):
            with pytest.raises(tg.InfeasiblePolytopeError, match=r"delta=0.7 \(psi scale 0.5"):
                tg.scaling_verdict(kb, query, (0.9, 0.7, 0.6), params, n=300, burn_in=10)
        assert groups == []
        lps.clear()
        assert self.verdict(self.QUERIES[0]) == before
        assert len(lps) == self.distinct()

    def test_one_lp_per_distinct_polytope(self, lps):
        # At threshold 2 a grid polytope depends on psi * delta**2, so the
        # halving grid's 12 points hold 9 distinct polytopes. Points that
        # share one still walk with their own seeds.
        text = "t => a @ 2\n~a => b @ 2\n"
        assert self.distinct(text) == 9
        report = self.verdict("t => a @ 2", text=text, n=700, seed=8)
        assert len(lps) == 9
        kb = tg.load_kb(text)
        params = tg.ParameterAssignment(psi=(1.0,) * kb.size, delta=self.GRID[0])
        query = tg.parse_query("t => a @ 2", kb.signature)
        expected = per_point_quantiles(kb, query, self.GRID, params, 700, 8, 200)
        assert np.array_equal(report.quantiles, expected)
