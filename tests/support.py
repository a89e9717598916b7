"""Shared helpers for the test suite: generators and independent oracles."""

import math
import os
from pathlib import Path

import numpy as np
from scipy.optimize import brentq, linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError
from scipy.stats import beta

import threshgen as tg
from threshgen.polytope import _walkspace
from threshgen.sampling import _CHUNK, _SLICE, _sweep


def child_env(**overrides):
    """Environment for a fresh interpreter that imports this threshgen."""
    env = dict(os.environ, **overrides)
    source = str(Path(tg.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    return env


NAMES = ("a", "b", "c", "d", "e", "g", "h", "i", "j", "k")


def doubling_name_mask(r, j):
    """Name j's mask over r names, built independently of
    Signature.name_mask: one period of 2**j clear bits and 2**j set bits,
    doubled until it spans all 2**r atoms."""
    half = 1 << j
    mask = ((1 << half) - 1) << half
    width = half << 1
    while width < 1 << r:
        mask |= mask << width
        width <<= 1
    return mask


def random_proposition(rng, signature):
    if signature.atom_count <= 32:
        mask = int(rng.integers(0, signature.full_mask + 1, dtype=np.int64))
    else:
        # Too wide for an int64 draw: take uniform random bytes instead.
        mask = int.from_bytes(rng.bytes(signature.atom_count // 8), "little")
    return tg.Proposition(signature, mask)


def random_kb(
    rng,
    max_names=3,
    max_rules=3,
    max_threshold=3,
    allow_infinite=False,
    min_names=1,
):
    """A small random knowledge base over names drawn from NAMES."""
    r = int(rng.integers(min_names, max_names + 1))
    signature = tg.Signature(NAMES[:r])
    m = int(rng.integers(0, max_rules + 1))
    rules = []
    for _ in range(m):
        if allow_infinite and rng.random() < 0.15:
            threshold = tg.INFINITY
        else:
            threshold = int(rng.integers(1, max_threshold + 1))
        rules.append(
            tg.Generalization(
                random_proposition(rng, signature),
                random_proposition(rng, signature),
                threshold,
            )
        )
    return tg.KnowledgeBase(signature, tuple(rules))


def batch_mean_se(values, batches=100):
    """Standard error of the mean of a correlated sequence via batch means."""
    usable = len(values) - len(values) % batches
    means = values[:usable].reshape(batches, -1).mean(axis=1)
    return means.std(ddof=1) / np.sqrt(batches)


def reference_walk(rows, rhs, y, normals, uniforms, out):
    """Straight-line hit-and-run, one step at a time, as the reference for
    the sampler's walk kernel.

    Each step normalizes its normal draw, cuts the chord through y along
    it with every constraint row (slack recomputed from scratch), and lets
    the uniform draw pick the next point; a numerically empty chord keeps
    the walk in place. Every visited point goes to out; y is updated in
    place.
    """
    for step in range(len(uniforms)):
        direction = normals[step]
        norm = np.sqrt(direction @ direction)
        if norm > 0.0:
            unit = direction / norm
            along = rows @ unit
            slack = rhs - rows @ y
            with np.errstate(divide="ignore", invalid="ignore"):
                bounds = slack / along
            hi = np.min(bounds[along > 0.0], initial=np.inf)
            lo = np.max(bounds[along < 0.0], initial=-np.inf)
            if np.isfinite(lo) and np.isfinite(hi) and hi >= lo:
                y += (lo + uniforms[step] * (hi - lo)) * unit
        out[step] = y


def lockstep_inputs(seed, chains, q, drawn=_CHUNK, rules=3):
    """K chains in _walk's lockstep layout, each in its own polytope: the
    simplex cut by random homogeneous rule rows, each -0.05 at the centre,
    then -I, all with right-hand side 0. Every chain starts at the centre
    and steps along sum-zero normals, as _lockstep walks."""
    rng = np.random.default_rng(seed)
    weights = rng.random((chains, rules, q))
    rule_rows = weights - weights.mean(axis=2, keepdims=True) - 0.05
    rows = np.concatenate([rule_rows, np.broadcast_to(-np.eye(q), (chains, q, q))], axis=1)
    rhs = np.zeros(rows.shape[:2])
    y = np.full((chains, q), 1.0 / q)
    normals = rng.standard_normal((chains, drawn, q))
    normals -= normals.mean(axis=2, keepdims=True)
    uniforms = rng.random((chains, drawn))
    return rows, rhs, y, normals, uniforms


def loop_walk(rows, rhs, y, normals, uniforms, out):
    """The walk kernel's arithmetic, chain by chain within each step, as
    the reference for sampling._walk: the chord ends laid out
    (64, K, 2, m), each chain's step length lo + u * (hi - lo) written
    into a (K, 1) array one chain at a time. _walk must give the same
    points and final state bit for bit."""
    chains, steps = uniforms.shape
    m = len(rows[0])
    r = m - y.shape[1]
    moves = np.zeros((steps, chains, 1))
    slack = np.array([b - a @ x for a, b, x in zip(rows, rhs, y)])
    slack_by_side = slack[:, None, :]
    point = slack[:, r:]
    rule_along = np.empty((chains, normals.shape[1], r))
    for k in range(chains):
        np.matmul(normals[k], rows[k][:r].T, out=rule_along[k])
    along = np.empty((_SLICE, chains, m))
    ends = np.empty((_SLICE, chains, 2, m))
    ratio = np.empty((chains, 2, m))
    bounds = np.empty((chains, 2))
    picks = uniforms.T.tolist()
    visits = out.transpose(1, 0, 2)
    inf = math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        for first in range(0, steps, _SLICE):
            last = min(first + _SLICE, steps)
            slice_along = along[: last - first]
            slice_along[:, :, :r] = rule_along[:, first:last].transpose(1, 0, 2)
            np.negative(normals[:, first:last].transpose(1, 0, 2), out=slice_along[:, :, r:])
            slice_ends = ends[: last - first]
            # Rising rows bound the chord above and falling rows below.
            # Every other entry is 0/False = NaN, which the fmin reduction
            # skips; a bounding entry is 0/True = 0 plus its exact value.
            np.divide(0.0, slice_along > 0.0, out=slice_ends[:, :, 0])
            np.divide(0.0, slice_along < 0.0, out=slice_ends[:, :, 1])
            slice_ends[:, :, 0] += slice_along
            slice_ends[:, :, 1] -= slice_along
            for chain_picks, step_ends, step_along, moved, visit in zip(
                picks[first:last], slice_ends, slice_along, moves[first:last], visits[first:last]
            ):
                np.divide(slack_by_side, step_ends, out=ratio)
                np.fmin.reduce(ratio, axis=2, out=bounds)
                for k, ((hi, low), u) in enumerate(zip(bounds.tolist(), chain_picks)):
                    lo = -low
                    # A bounded polytope yields finite chords; the guard
                    # keeps a pathological direction (or a side with no
                    # bounding row, which reduces to NaN) from poisoning
                    # the walk.
                    if -inf < lo <= hi < inf:
                        moved[k] = lo + u * (hi - lo)
                slack -= moved * step_along
                visit[...] = point
    y[:] = point


def lockstep_points(systems, seeds, n, burn_in):
    """The (K, n, q) points of the systems' walk spaces, walked as one
    lockstep group of one sweep, checking on the way that the chunks hand
    back sample indices 0..n-1 in order."""
    end = 0
    with _sweep(systems, seeds, n, burn_in) as (spaces, walks):
        points = np.empty((len(spaces), n, spaces[0].rows.shape[1]))
        for group, stored, visited in walks:
            assert group == list(range(len(spaces)))
            assert stored.start == end and visited.shape[:2] == (len(spaces), stored.stop - end)
            points[:, stored] = visited
            end = stored.stop
    assert end == n
    return points


def per_point_quantiles(kb, query, grid, params, n, seed, burn_in):
    """scaling_verdict's quantiles computed one grid point at a time, each
    by its own conclusion_quantile call at the seed scaling_verdict derives
    for it; the reference for the lockstep walk of the grid."""
    seeds = np.random.SeedSequence(seed).generate_state(
        len(tg.PSI_SWEEP) * len(grid), dtype=np.uint64
    )
    at = 0
    rows = []
    for scale in tg.PSI_SWEEP:
        row = []
        for delta in grid:
            point = tg.ParameterAssignment(
                psi=tuple(scale * p for p in params.psi), delta=delta, eta=params.eta
            )
            row.append(
                tg.conclusion_quantile(kb, point, query, n, burn_in, int(seeds[at]))
            )
            at += 1
        rows.append(tuple(row))
    return tuple(rows)


def _drop_last(rows, rhs):
    """rows @ x <= rhs over the kept atoms, rewritten over all of them but
    the last, which carries 1 - sum(others)."""
    return rows[:, :-1] - rows[:, -1:], rhs - rows[:, -1]


def _inner_point(rows, rhs):
    """Chebyshev center and radius of rows @ u <= rhs; radius 0 when the
    system is empty. The feasibility tolerances are HiGHS's tightest: at
    its default of 1e-7 the center of a polytope of radius 1e-8 can lie
    outside it."""
    d = rows.shape[1]
    norms = np.linalg.norm(rows, axis=1)
    result = linprog(
        np.r_[np.zeros(d), -1.0],
        A_ub=np.hstack([rows, norms[:, None]]),
        b_ub=rhs,
        bounds=[(None, None)] * d + [(0, None)],
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if result.status != 0:
        return None, 0.0
    return result.x[:d], result.x[d]


def _analytic_center(rows, rhs, start):
    """The point of rows @ u < rhs that maximizes sum(log(rhs - rows @ u)),
    by Newton steps with backtracking from a strictly interior start, and
    the triangular R of the slack-scaled rows there: R.T @ R is the log
    barrier's Hessian. Each step solves least squares on the scaled rows,
    not a system in the Hessian, whose condition number is the square of
    theirs and reaches 1e16 in the thinnest polytopes."""
    u = start

    def barrier(point):
        slack = rhs - rows @ point
        return -np.log(slack).sum() if np.all(slack > 0.0) else math.inf

    for _ in range(100):
        scaled = rows / (rhs - rows @ u)[:, None]
        step = np.linalg.lstsq(scaled, -np.ones(len(rows)), rcond=None)[0]
        decrement = -scaled.sum(axis=0) @ step
        if decrement <= 1e-16:
            break
        # Below a squared decrement of 1/16 a full step stays inside and
        # converges quadratically (Boyd & Vandenberghe, section 9.6).
        t, value = 1.0, barrier(u)
        while decrement > 1 / 16 and barrier(u + t * step) > value - 0.25 * t * decrement:
            t /= 2
        u = u + t * step
    return u, np.linalg.qr(rows / (rhs - rows @ u)[:, None], mode="r")


def _volume(rows, rhs):
    """Volume of rows @ u <= rhs; 0 when it has no interior.

    A thin polytope, such as one cut by rows scaled by psi * delta**k,
    can leave Qhull's seed point on a facet. So the vertices are found
    after the affine map v = R @ (u - c), with c the analytic centre and
    R.T @ R the log barrier's Hessian there: in v the polytope holds the
    unit ball and lies within a ball of radius len(rows), and the seed
    point 0 is at least 1 from every facet. Their hull is measured back
    in u, where Qhull merges the clusters of nearly equal vertices that
    many facets meeting at small angles leave; in v it resolves them and
    fails more often.
    """
    if rows.shape[1] == 1:
        column = rows[:, 0]
        ends = rhs / column
        return max(0.0, ends[column > 0].min() - ends[column < 0].max())
    inside, radius = _inner_point(rows, rhs)
    if radius <= 1e-14:
        return 0.0
    # A zero row holds everywhere, since the polytope has an interior.
    norms = np.linalg.norm(rows, axis=1)
    live = norms > 0.0
    rows, rhs = rows[live] / norms[live, None], rhs[live] / norms[live]
    center, factor = _analytic_center(rows, rhs, inside)
    rounded = np.linalg.solve(factor.T, rows.T).T / (rhs - rows @ center)[:, None]
    vertices = HalfspaceIntersection(
        np.hstack([rounded, -np.ones((len(rounded), 1))]), np.zeros(rows.shape[1])
    ).intersections
    try:
        return ConvexHull(center + np.linalg.solve(factor, vertices.T).T).volume
    except QhullError:
        # Joggled in v, where the map scales volumes by |det(R)|. On the
        # corpus of tests/exact_oracle_corpus.py it is needed for 53 of
        # about 10000 volumes and moves no quantile by more than 1e-8.
        hull = ConvexHull(vertices, qhull_options="QJ")
    return hull.volume / abs(np.prod(np.diag(factor)))


def exact_quantile(kb, params, query):
    """The exact (1 - eta)-quantile of 1 - pi(zeta|gamma) under the uniform
    law on the kb polytope, for knowledge bases of 2-3 names.

    The polytope is parametrized by its kept atoms but the last, which
    carries 1 - sum(others). That linear map scales every volume by one
    factor, so probabilities are volume ratios in these coordinates. The
    event 1 - pi(zeta|gamma) <= t is the half-space
    ((1 - t) gamma - gamma & zeta) . x <= 0, so its probability is the
    volume of the polytope cut by it over the polytope's own volume, and
    the quantile is found by root bracketing on t.
    """
    system = tg.build_polytope(kb, params)
    space = _walkspace(system)
    if space.radius <= 0.0:
        raise ValueError("the polytope has no interior to measure")
    keep = space.keep
    # The walk space leaves x >= 0 implicit; the volumes need its rows.
    rows, rhs = _drop_last(
        np.vstack([space.rows, -np.eye(keep.size)]),
        np.zeros(len(space.rows) + keep.size),
    )
    whole = _volume(rows, rhs)
    gamma, both = (
        tg.indicator(prop.mask, system.dimension)[keep]
        for prop in (query.antecedent, query.antecedent & query.consequent)
    )

    def share_within(t):
        cut, bound = _drop_last(((1.0 - t) * gamma - both)[None], np.zeros(1))
        if not cut.any():
            return 1.0 if bound[0] >= 0.0 else 0.0
        return _volume(np.vstack([rows, cut]), np.concatenate([rhs, bound])) / whole

    level = 1.0 - params.eta
    if share_within(0.0) >= level:
        return 0.0
    return brentq(lambda t: share_within(t) - level, 0.0, 1.0, xtol=1e-15)


def truncated_beta_quantile(exception_atoms, other_atoms, bound, eta):
    """The exact (1 - eta)-quantile of a rule's exception rate when the
    rule's own constraint is the only one that touches it.

    Uniform models are Dirichlet(1, ..., 1), so for a rule gamma => zeta
    the rate R = pi(gamma & ~zeta) / pi(gamma) is Beta(a, b), with a the
    number of atoms of gamma & ~zeta and b that of gamma & zeta. By
    Dirichlet neutrality R is independent of pi(gamma) and of every rule
    over atoms outside gamma, so the constraint R <= bound (bound being
    psi * delta**k) truncates it and nothing else does: the quantile is
    F^-1((1 - eta) F(bound)), with F the Beta(a, b) CDF.
    """
    law = beta(exception_atoms, other_atoms)
    return law.ppf((1.0 - eta) * law.cdf(bound))


def eval_tree(node, assignment):
    """Truth of a display tree under {name: bool}; independent of masks."""
    if isinstance(node, tg.Proposition):
        node = node.ast
        if node is None:
            raise ValueError("mask-only proposition reached the evaluator")
    kind = node[0]
    if kind == "const":
        return node[1]
    if kind == "name":
        return assignment[node[1]]
    if kind == "not":
        return not eval_tree(node[1], assignment)
    if kind == "and":
        return eval_tree(node[1], assignment) and eval_tree(node[2], assignment)
    if kind == "or":
        return eval_tree(node[1], assignment) or eval_tree(node[2], assignment)
    if kind == "imp":
        return (not eval_tree(node[1], assignment)) or eval_tree(node[2], assignment)
    if kind == "iff":
        return eval_tree(node[1], assignment) == eval_tree(node[2], assignment)
    raise ValueError(f"unknown node kind {kind!r}")


def truth_table_mask(prop):
    """Recompute a parsed proposition's atom mask by evaluating its tree
    under every assignment."""
    signature = prop.signature
    mask = 0
    for atom in range(signature.atom_count):
        assignment = {
            name: bool((atom >> j) & 1) for j, name in enumerate(signature.names)
        }
        if eval_tree(prop, assignment):
            mask |= 1 << atom
    return mask


def subset_sums(values):
    sums = {0}
    for v in values:
        sums |= {s + v for s in sums}
    return sorted(sums)


def brute_force_atom_depths(kb, fixpoint):
    """Pointwise-minimal atom-depth vector satisfying every rule.

    Exhaustively searches assignments of a depth to each atom for those
    where every rule i satisfies

        depth(exception_i) >= depth(antecedent_i) + k_i

    (the depth of a proposition being the minimum over its atoms, inf for
    the empty one), and returns the coordinatewise minimum of the
    survivors. Candidate values per atom are {0..fixpoint} + {inf},
    narrowed to subset sums of the thresholds: every finite depth the
    engine can assign is a sum of distinct rule thresholds, since each
    finite atom depth is some antecedent's depth plus that rule's
    threshold and depths strictly decrease along that recursion.

    Atoms in no antecedent appear in no constraint, so every survivor can
    give them any value and their minimum is 0. The others are assigned
    one at a time, those in the most antecedents first, and a partial
    assignment is dropped as soon as its best completion breaks a rule.
    The exception atoms of a rule are its antecedent atoms outside the
    consequent, so raising one can only help the rule and lowering one of
    its other antecedent atoms can only help it too: the best completion
    sets the unassigned exception atoms to inf and the rule's other
    unassigned antecedent atoms to 0. Once every atom is placed that is
    the rule itself, so the search drops nothing that could survive.
    """
    thresholds = kb.finite_thresholds()
    if len(thresholds) != kb.size:
        raise ValueError("oracle only handles all-finite knowledge bases")
    values = np.array(
        [s for s in subset_sums(thresholds) if s <= fixpoint] + [np.inf]
    )
    n_atoms = kb.signature.atom_count
    rules = [
        (
            {i for i in range(n_atoms) if (rule.exception().mask >> i) & 1},
            {i for i in range(n_atoms) if (rule.antecedent.mask >> i) & 1},
            rule.threshold,
        )
        for rule in kb.rules
    ]
    order = sorted(
        (i for i in range(n_atoms) if any(i in ant for _, ant, _ in rules)),
        key=lambda i: -sum(i in ant for _, ant, _ in rules),
    )
    # Row r of survivors holds depths of order[:placed].
    survivors = np.zeros((1, 0))
    for placed in range(1, len(order) + 1):
        survivors = np.hstack(
            [
                np.repeat(survivors, len(values), axis=0),
                np.tile(values, len(survivors))[:, None],
            ]
        )
        ok = np.ones(len(survivors), dtype=bool)
        for exc, ant, threshold in rules:
            exc_cols = [p for p, i in enumerate(order[:placed]) if i in exc]
            other_cols = [p for p, i in enumerate(order[:placed]) if i in ant - exc]
            d_exc = np.full(len(survivors), np.inf)
            if exc_cols:
                d_exc = survivors[:, exc_cols].min(axis=1)
            d_ant = d_exc
            if other_cols:
                d_ant = np.minimum(d_ant, survivors[:, other_cols].min(axis=1))
            if len(other_cols) < len(ant - exc):
                d_ant = np.minimum(d_ant, 0.0)
            ok &= d_exc >= d_ant + threshold
        survivors = survivors[ok]
    best = np.full(n_atoms, np.inf)
    if len(survivors):
        best[:] = 0.0
        best[order] = survivors.min(axis=0)
    return best


def reference_chain(kb, length):
    """Straight-line reimplementation of the exception chain, for cross-
    checking the engine's fixpoint detection and its pruning of rules.
    Tests every rule at every level. Returns chain[0..length] and, for
    each level, the indices of the rules that fired there."""
    true = tg.Proposition.true(kb.signature)
    chain = [true]
    fired = [()]
    for d in range(1, length + 1):
        level = tg.Proposition.false(kb.signature)
        fired_here = []
        for i, rule in enumerate(kb.rules):
            back = d - rule.threshold
            reference = true if back <= 0 else chain[int(back)]
            if rule.antecedent.entails(reference):
                level = level | rule.exception()
                fired_here.append(i)
        chain.append(level)
        fired.append(tuple(fired_here))
    return chain, fired


def engine_atom_depths(profile):
    signature = profile.kb.signature
    return np.array(
        [
            profile.depth_of(tg.Proposition.minterm(signature, i))
            for i in range(signature.atom_count)
        ],
        dtype=float,
    )
