"""Uniform sampling of model polytopes and quantile-scaling verdicts.

The symbolic depth engine answers queries by manipulating exception sets;
this module is the independent, numerical route to the same judgments. It
draws approximately uniform models from a knowledge base's polytope with a
hit-and-run walk, turns a query ``gamma => zeta @ j`` into the random
variable 1 - pi(zeta|gamma) over those models, and reads off how that
variable's upper quantile shrinks as the exception scale delta shrinks.
If the knowledge base really does support the query at threshold j, the
(1 - eta)-quantile must scale like delta**j, so the fitted log-log slope
across a grid of deltas supports or refutes j.

Sampling walks the atoms threshgen.polytope keeps when it decides
emptiness, in model coordinates and along directions that sum to zero,
from that decision's Chebyshev center. If the polytope has radius zero the
single (center) point is returned n times, flagged degenerate; width-zero
polytopes with extent in some direction would collapse the same way, but
only arise from exact parameter coincidences.

Polytopes become quantiles through one sweep, _sweep, for every entry
point: sample_uniform and conclusion_quantile walk a one-point sweep and
scaling_verdict a grid of them. _sweep reduces each distinct polytope
(the same arrays are the same LP), and _groups plans which points walk
together from the reduced shapes alone. It starts the sweep's one helper
thread, which draws the walk's random numbers one chunk ahead, in walk
order across groups, and then solves the LPs on the calling thread while
the first chunk is drawn, so an empty point raises before any walk.
_DrawAhead.walks walks each group in lockstep and hands the whole sweep
over as one stream of (group, stored, visited) chunks, with each group's
first chunk drawn while the group before it walks its last. _quantiles
reads that stream into one (points, n) array of exception rates: every
row starts at the rate at its point's center and each walked chunk is
written over its rows at once, so the sweep holds rates and no points.
A lockstep step is a few NumPy calls over the whole group, so NumPy's
per-call cost is paid once per step for the group instead of once per
chain. A point whose LP finds it single-point is walked in no group and
keeps its center's rate. If that takes a point out of the first planned
group, the chunk drawn for that group during the LPs is awaited unused,
its generators restart from their seeds, and the first group that walks
draws its first chunk afresh. Every chain draws from its own generator
and does exactly the arithmetic it would do alone, so its points, and
hence every quantile and verdict, are bit-identical to sampling that
grid point by itself.

A verdict's sample depends on its sweep, not on its query, so
scaling_verdict keeps the last sweep it walked, in one module-level entry,
and replays it for the next call that asks for the same sweep: one more
query on the same knowledge base, grid, psi, n, burn-in and seed builds no
polytope, solves no LP and takes no walk. The entry's key is those
inputs, (kb, psi, grid, n, burn_in, seed), which fix every polytope and
seed of the sweep; it holds neither eta nor the query. The kb compares
by value, so a reloaded knowledge base hits. The entry holds the grid
points' walk spaces and a copy of the stream of walked chunks, each
with its group; a replay hands that recording to _quantiles, which reads
it as it reads a walk, so every quantile is bit-identical. A sweep is
recorded only when len(sweep) * n * atom_count * 8 bytes, a bound on its
points known before any LP, is at most 4 MiB; larger sweeps stream and
record nothing. A call reads the entry once, so a miss on another thread
that drops it cannot break a replay under way. A miss drops the old
entry and walks its sweep; the new entry is published only once the
whole sweep has walked, so a sweep that raises leaves no entry.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import product
from typing import Iterator

import numpy as np

from .depth import Depth, Generalization, KnowledgeBase
from .logic import Proposition, SignatureError
from .polytope import (
    InfeasiblePolytopeError,
    ParameterAssignment,
    PolytopeSystem,
    _Walkspace,
    _reduce,
    _solve,
    build_polytope,
    indicator,
)

# Slack levels applied to every rule's psi when probing a verdict; the
# first entry is the one whose fitted exponent gets reported.
PSI_SWEEP = (1.0, 0.5, 2.0)

# Fitted slopes within 0.3 below the queried threshold still support it;
# 0.7 or more below refute it; in between is inconclusive.
SUPPORT_MARGIN = 0.3
REFUTE_MARGIN = 0.7

# Steps drawn at once from each chain's generator and projected onto the
# rule rows in one stacked product; 512 keeps the chunk's normals near
# 1 MB per 256 walked coordinates.
_CHUNK = 512
# Steps whose chords are cut at once: the (64, K, m) projections on every
# row and the (2, 64, K, m) ends buffer are an eighth of a whole chunk's.
_SLICE = 64
_DEGENERATE_RADIUS = 1e-12
# Coordinates walked in lockstep: a group of chains of dimension q holds
# at most _LOCKSTEP_WIDTH // q of them, so its K (m, q) constraint rows
# (m = q plus the rule rows) stay near 2 MB, the kernel's projections on
# the rule rows and its 64-step slices near 2 MB, and each of a sweep's
# two normals buffers (one walking, one being drawn), sized once for its
# largest group's (K, 512, q), near 4 MB. A sweep keeps (points, n)
# exception rates, not its models. All 12 chains of an 8-name sweep in one
# group (a cap of 3072) walked about 10% faster but peaked about 23 MB
# (24%) higher, so the cap stays at 1024.
_LOCKSTEP_WIDTH = 1024
# A sweep is recorded for replay when its points, bounded by
# len(sweep) * n * atom_count * 8 bytes, fit in one lockstep group's
# normals buffer: 4 MiB.
_REPLAY_BYTES = _LOCKSTEP_WIDTH * _CHUNK * 8
# The last recorded sweep: (key, walk spaces, recorded walks), or None.
_last_sweep: tuple | None = None


@dataclass(eq=False)
class UniformSample:
    """Models drawn from one polytope: points is (n, dimension).

    degenerate marks the single-point collapse, where all n rows repeat
    the polytope's only (or central) point instead of being a walk.
    """

    points: np.ndarray
    degenerate: bool


def _walk(
    rows: np.ndarray,
    rhs: np.ndarray,
    y: np.ndarray,
    normals: np.ndarray,
    uniforms: np.ndarray,
    out: np.ndarray,
) -> None:
    """Run K hit-and-run chains in lockstep through one chunk of steps,
    uniforms.shape[1] steps each.

    Chain k walks from y[k] inside rows[k] @ y <= rhs[k], where rows is
    (K, m, q) and rhs is (K, m): step s moves along normals[k, s], the
    chord through the current point is cut by every constraint row, and
    uniforms[k, s] picks the next point on it.
    A uniform point of a chord does not depend on the direction's length,
    so the normals are used unnormalized. A numerically empty chord
    (hi < lo) keeps the chain in place rather than stepping outside.
    Every visited point is written to out[k] and y[k] ends at the last.

    Precondition: the rows are laid out as _lockstep lays them out, the
    r = m - q rule rows followed by -I with right-hand side 0. The kernel
    relies on it twice. A direction d meets the -I block at -d, so only
    the rule rows are multiplied by the directions. And that block's
    slack, 0 - (-I) y, is the point itself, so each visited point is read
    from the slack after its step, with the same additions in the same
    order as a running sum of the moves from y.

    Each chain does exactly the floating-point operations it would do
    alone, so K chains in one call give the same points, bit for bit, as
    K calls of one chain. The directions are projected on the rule rows
    with one stacked product per chunk, the same BLAS call per chain,
    over every row of normals, which may hold more rows than steps are
    taken, so a partial chunk repeats the arithmetic of the start of a
    full one; BLAS may round a row of a shorter product differently, so
    the product is never split.

    Everything else treats the K chains as one array. The chord ends are
    masked 64 steps at a time into a side-major (2, 64, K, m) buffer: the
    rising rows, NaN elsewhere, then the negated falling rows, each side
    one contiguous block. A step divides the slack by both sides at once
    over (2, K, m), and one fmin reduction gives every chain's hi and
    -lo. The K step lengths are plain float arithmetic on one list, and
    the slack takes all K moves in one multiply and one subtraction. out
    may be normals[:, :steps]: each 64-step slice of directions is read
    before the visited points of that slice are written over it.
    """
    chains, steps = uniforms.shape
    m = rows.shape[1]
    r = m - y.shape[1]
    slack = rhs - np.matmul(rows, y[:, :, None])[:, :, 0]
    point = slack[:, r:]
    rule_along = np.empty((chains, normals.shape[1], r))
    np.matmul(normals, rows[:, :r].transpose(0, 2, 1), out=rule_along)
    along = np.empty((_SLICE, chains, m))
    ends = np.empty((2, _SLICE, chains, m))
    ratio = np.empty((2, chains, m))
    bounds = np.empty((2, chains))
    shift = np.empty((chains, m))
    picks = uniforms.T.tolist()
    visits = out.transpose(1, 0, 2)
    inf = math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        for first in range(0, steps, _SLICE):
            last = min(first + _SLICE, steps)
            slice_along = along[: last - first]
            slice_along[:, :, :r] = rule_along[:, first:last].transpose(1, 0, 2)
            np.negative(normals[:, first:last].transpose(1, 0, 2), out=slice_along[:, :, r:])
            slice_ends = ends[:, : last - first]
            rising, falling = slice_ends
            # Rising rows bound the chord above and falling rows below.
            # Every other entry is 0/False = NaN, which the fmin reduction
            # skips; a bounding entry is 0/True = 0 plus its exact value.
            np.divide(0.0, slice_along > 0.0, out=rising)
            np.divide(0.0, slice_along < 0.0, out=falling)
            rising += slice_along
            falling -= slice_along
            for chain_picks, step_ends, step_along, visit in zip(
                picks[first:last],
                slice_ends.transpose(1, 0, 2, 3),
                slice_along,
                visits[first:last],
            ):
                np.divide(slack, step_ends, out=ratio)
                np.fmin.reduce(ratio, axis=2, out=bounds)
                his, lows = bounds.tolist()
                # lo = -low, and u * (hi + low) - low is lo + u * (hi - lo)
                # bit for bit. A bounded polytope yields finite chords; the
                # guard keeps a pathological direction (or a side with no
                # bounding row, which reduces to NaN) from poisoning the
                # walk, and that chain stays where it is.
                moved = [
                    u * (hi + low) - low if -inf < -low <= hi < inf else 0.0
                    for hi, low, u in zip(his, lows, chain_picks)
                ]
                np.multiply(np.array(moved)[:, None], step_along, out=shift)
                slack -= shift
                visit[...] = point
    y[:] = point


def _draw(rngs, normals: np.ndarray, uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fill one chunk's (K, L, q) normals and (K, L) uniforms: each chain
    draws its normals and then its uniforms from its own generator, as a
    lone chain does; then every normal is centred on the plane."""
    for rng, chain_normals, chain_uniforms in zip(rngs, normals, uniforms):
        rng.standard_normal(out=chain_normals)
        rng.random(out=chain_uniforms)
    normals -= normals.mean(axis=2, keepdims=True)
    return normals, uniforms


def _lockstep(
    spaces: list[_Walkspace], chunks: Iterator, n: int, burn_in: int
) -> Iterator[tuple[slice, np.ndarray]]:
    """Walk every space from its Chebyshev center, one chain per space, in
    lockstep, and yield the walk one chunk at a time as (stored, visited)
    after burn_in steps: visited[k] holds chain k's models over its space's
    kept atoms for the sample indices in the slice stored. The spaces must
    share rows.shape. visited is a (K, L, q) view of a buffer that the
    next chunk overwrites, so read it before asking for the next.

    chunks gives each chunk's (K, _CHUNK, q) normals and (K, _CHUNK)
    uniforms, as _draw fills them from the chains' own generators, and
    one is taken only when its chunk walks. A whole chunk is drawn even
    when fewer steps remain, so the randomness feeding step t depends on
    the seed alone and a longer run with the same seed extends a shorter
    one exactly. A normal z steps along z - mean(z), isotropic in the
    plane sum(x) = 1, so the target stays uniform; each chunk starts by
    putting the chain's point back on that plane.
    """
    q = spaces[0].rows.shape[1]
    chains = len(spaces)
    # _walk's layout, one (K, m, q) array: the rule rows, then -I, all with
    # right-hand side 0. The kernel takes the -I rows' projections from the
    # directions and their slack as the point, but they stay in the rows
    # because each chunk starts from one product over all of them: the
    # rule rows alone may round their slack differently, which would
    # change every walk.
    rows = np.stack([space.rows for space in spaces])
    rows = np.concatenate([rows, np.broadcast_to(-np.eye(q), (chains, q, q))], axis=1)
    rhs = np.zeros(rows.shape[:2])
    y = np.stack([space.center for space in spaces])
    # Step indices count from -burn_in, so the stored ones are those >= 0.
    for start, (normals, uniforms) in zip(range(-burn_in, n, _CHUNK), chunks):
        y += (1.0 - y.sum(axis=1, keepdims=True)) / q
        steps = min(_CHUNK, n - start)
        visited = normals[:, :steps]
        _walk(rows, rhs, y, normals, uniforms[:, :steps], visited)
        first = max(-start, 0)
        if first < steps:
            yield slice(start + first, start + steps), visited[:, first:]


class _DrawAhead:
    """The random numbers of one sweep's lockstep walks, drawn on one
    helper thread one chunk ahead of the walk.

    It is made from the lockstep plan and each point's rows.shape, which
    are known before any LP, and it submits the first planned group's
    first chunk at once, so _sweep, which makes it before the LPs, has
    that chunk drawn while they solve; it is used only if that group
    walks whole. walks then walks the groups as one stream, and each
    chunk's draw is submitted when the chunk before it in walk order,
    across group boundaries, starts to walk: a group's first chunk is
    drawn while the group before it walks its last. The draws alternate
    between two (normals, uniforms) buffers, sized once for the plan's
    largest group, and a chunk is submitted only once the one before it
    has been asked for, so the helper never writes over a visited view
    that may still be read. NumPy releases the interpreter lock while it
    fills them.

    Each chain draws from its own generator, used by one thread at a time
    and handed over by the future, so its stream, and every point, is as
    if drawn on the calling thread, whatever walks beside it.
    """

    def __init__(
        self,
        helper: ThreadPoolExecutor,
        plan: list[list[int]],
        shapes: list[tuple[int, int]],
        seeds,
    ):
        self.helper = helper
        self.plan = plan
        self.seeds = seeds
        self.widths = [shape[1] for shape in shapes]
        self.rngs = {i: np.random.default_rng(seeds[i]) for group in plan for i in group}
        size = max((len(group) * self.widths[group[0]] for group in plan), default=0)
        chains = max(map(len, plan), default=0)
        self.buffers = [(np.empty(size * _CHUNK), np.empty(chains * _CHUNK)) for _ in range(2)]
        self.drawn = self._submit(0, plan[0]) if plan else None

    def _submit(self, index: int, group: list[int]):
        """Draw the chunk at index in walk order, for group, into buffer
        index % 2."""
        chains, q = len(group), self.widths[group[0]]
        normals, uniforms = self.buffers[index % 2]
        return self.helper.submit(
            _draw,
            [self.rngs[i] for i in group],
            normals[: chains * _CHUNK * q].reshape(chains, _CHUNK, q),
            uniforms[: chains * _CHUNK].reshape(chains, _CHUNK),
        )

    def _chunks(self, groups: list[list[int]], count: int) -> Iterator:
        """The (normals, uniforms) of count chunks of each group, in walk
        order, each submitted as the one before it is handed out."""
        order = [group for group in groups for _ in range(count)]
        drawn = self.drawn
        for index in range(len(order)):
            chunk = drawn.result()
            if index + 1 < len(order):
                drawn = self._submit(index + 1, order[index + 1])
            yield chunk

    def walks(self, spaces: list[_Walkspace], n: int, burn_in: int) -> Iterator:
        """The lockstep walk of each planned group, less its points that
        their LP found single-point, over the solved spaces, as one stream
        of (group, stored, visited) chunks in walk order; visited is
        _lockstep's view, so read it before asking for the next."""
        walked = (
            [i for i in group if spaces[i].radius > _DEGENERATE_RADIUS] for group in self.plan
        )
        groups = [group for group in walked if group]
        if self.drawn is not None and groups[:1] != self.plan[:1]:
            # The first planned group does not walk whole: its chunk goes
            # unused, awaited even when no group walks, and its generators
            # restart, so the first group that walks draws afresh.
            self.drawn.result()
            self.rngs.update((i, np.random.default_rng(self.seeds[i])) for i in self.plan[0])
            self.drawn = self._submit(0, groups[0]) if groups else None
        chunks = self._chunks(groups, len(range(-burn_in, n, _CHUNK)))
        for group in groups:
            for stored, visited in _lockstep([spaces[i] for i in group], chunks, n, burn_in):
                yield group, stored, visited


def _check_run(n: int, burn_in: int, seed: int) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    if burn_in < 0:
        raise ValueError("burn_in must be non-negative")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed!r}")


def sample_uniform(
    system: PolytopeSystem, n: int, burn_in: int = 1000, seed: int = 0
) -> UniformSample:
    """Draw n approximately uniform models from the polytope.

    Hit-and-run: from the Chebyshev center, repeatedly pick a uniform
    direction, intersect the polytope with the line through the current
    point, and jump to a uniform point of that chord. The first burn_in
    points are discarded, then every step is recorded. Deterministic for
    a given seed.

    Raises InfeasiblePolytopeError on an empty polytope. A polytope with
    a single point (radius 0) yields that point n times with
    degenerate=True.

    The polytope is a one-point _sweep, so its first chunk is drawn while
    its LP solves. Every row starts at the center, which a single-point
    polytope keeps, and a walk writes every row over it.
    """
    _check_run(n, burn_in, seed)
    points = np.zeros((n, system.dimension))
    with _sweep([system], [seed], n, burn_in) as ((space,), walks):
        points[:, space.keep] = space.center
        for _, stored, visited in walks:
            points[stored, space.keep] = visited[0]
    return UniformSample(points, degenerate=space.radius <= _DEGENERATE_RADIUS)


def _weights(gamma: Proposition, zeta: Proposition, dimension: int) -> np.ndarray:
    """The (dimension, 2) indicators of gamma and gamma & zeta: a model
    times them gives its masses pi(gamma) and pi(gamma & zeta)."""
    masks = (gamma.mask, (gamma & zeta).mask)
    return np.stack([indicator(mask, dimension) for mask in masks], axis=1)


def _rates(masses: np.ndarray) -> np.ndarray:
    """1 - pi(zeta | gamma) from (..., 2) masses, 0 where pi(gamma) = 0."""
    mass_gamma, mass_both = masses[..., 0], masses[..., 1]
    safe = np.where(mass_gamma > 0.0, mass_gamma, 1.0)
    return np.where(mass_gamma > 0.0, 1.0 - mass_both / safe, 0.0)


def exception_rate(
    points: np.ndarray, gamma: Proposition, zeta: Proposition
) -> np.ndarray:
    """1 - pi(zeta | gamma) for each model row, 0 where pi(gamma) = 0.

    The zero-antecedent convention matches reading the conditional as 1
    when gamma has no mass: such models never witness an exception.
    The propositions must be over points.shape[1] atoms.
    """
    if gamma.signature.atom_count != points.shape[1]:
        raise SignatureError("proposition signature differs from the points")
    return _rates(points @ _weights(gamma, zeta, points.shape[1]))


def empirical_quantile(values: np.ndarray, eta: float) -> float:
    """The (1 - eta)-quantile as the order statistic at ceil((1-eta)*n)."""
    if not 0 < eta < 1:
        raise ValueError(f"eta must lie in (0, 1), got {eta!r}")
    n = len(values)
    if n == 0:
        raise ValueError("no values to take a quantile of")
    rank = math.ceil((1.0 - eta) * n - 1e-12)
    rank = min(max(rank, 1), n)
    return float(np.sort(values)[rank - 1])


def _groups(shapes: list[tuple[int, int]]) -> list[list[int]]:
    """The lockstep plan, from each point's rows.shape alone: the indices
    of the points that walk together, group by group. A group takes
    consecutive points of one shape, up to _LOCKSTEP_WIDTH coordinates;
    points with fewer than two kept atoms walk in none and do not split
    one."""
    groups: list[list[int]] = []
    for index, shape in enumerate(shapes):
        if shape[1] < 2:
            continue
        group = groups[-1] if groups else []
        width = max(1, _LOCKSTEP_WIDTH // shape[1])
        if group and shapes[group[0]] == shape and len(group) < width:
            group.append(index)
        else:
            groups.append([index])
    return groups


@contextmanager
def _sweep(systems: list[PolytopeSystem], seeds, n: int, burn_in: int):
    """Solve and walk a sweep of polytopes, one seed per system: the block
    gets (spaces, walks), each system's walk space in order and
    _DrawAhead.walks over them, one stream of (group, stored, visited)
    chunks in walk order.

    Each distinct system (the same arrays are the same LP) is reduced
    once, the lockstep groups are planned from the reduced shapes, and
    the sweep's helper thread starts drawing the first chunk before the
    LPs, which solve in order on the calling thread. The first empty
    system in order raises InfeasiblePolytopeError, with its position in
    systems as the error's index, before any walk. The helper ends when
    the block exits, on error too, once its pending draw is done.
    """
    arrays = [(system.rows.shape, system.rows.tobytes()) for system in systems]
    reduced = {key: _reduce(system) for key, system in dict(zip(arrays, systems)).items()}
    shapes = [reduced[key][1].shape for key in arrays]
    with ThreadPoolExecutor(max_workers=1) as helper:
        ahead = _DrawAhead(helper, _groups(shapes), shapes, seeds)
        solved: dict[tuple, _Walkspace] = {}
        for index, key in enumerate(arrays):
            if key not in solved:
                try:
                    solved[key] = _solve(*reduced[key])
                except InfeasiblePolytopeError as err:
                    err.index = index
                    raise
        spaces = [solved[key] for key in arrays]
        yield spaces, ahead.walks(spaces, n, burn_in)


def _quantiles(
    spaces: list[_Walkspace], walks, query: Generalization, dimension: int, n: int, eta: float
) -> list[float]:
    """The (1 - eta)-quantile of 1 - pi(zeta|gamma) over each space's
    models, in order, from one (len(spaces), n) array of rates. Every row
    starts as the rate at its space's center, all in one _rates call, and
    walks, the (group, stored, visited) chunks of _DrawAhead.walks or a
    recording of them, writes each walked chunk over its rows at once,
    read over each chain's own kept atoms, so no model is kept. A
    single-point space is never walked, so its row is n copies of the rate
    at its point."""
    weights = _weights(query.antecedent, query.consequent, dimension)
    kept = [weights[space.keep] for space in spaces]
    rates = np.empty((len(spaces), n))
    rates[:] = _rates(np.array([space.center @ w for space, w in zip(spaces, kept)]))[:, None]
    for group, stored, visited in walks:
        rates[group, stored] = _rates(np.matmul(visited, np.stack([kept[i] for i in group])))
    return [empirical_quantile(row, eta) for row in rates]


def conclusion_quantile(
    kb: KnowledgeBase,
    params: ParameterAssignment,
    query: Generalization,
    n: int,
    burn_in: int = 1000,
    seed: int = 0,
) -> float:
    """Empirical (1 - params.eta)-quantile of 1 - pi(zeta|gamma) over
    models sampled uniformly from the kb polytope at params, as
    sample_uniform would draw them: a one-point _sweep, read chunk by
    chunk into rates, so no model is kept."""
    _check_run(n, burn_in, seed)
    if query.signature != kb.signature:
        raise SignatureError("query signature differs from knowledge base")
    with _sweep([build_polytope(kb, params)], [seed], n, burn_in) as (spaces, walks):
        (quantile,) = _quantiles(spaces, walks, query, kb.signature.atom_count, n, params.eta)
    return quantile


@dataclass(frozen=True)
class ScalingReport:
    """Outcome of probing one query across a delta grid and psi sweep.

    fitted_exponent is the log-log slope at the unscaled psi (infinite
    when every quantile on the grid is zero); exponents and quantiles are
    indexed by the psi sweep. The verdict compares each slope against the
    query threshold and is only 'supports'/'refutes' when every sweep
    member agrees.
    """

    threshold: Depth
    delta_grid: tuple[float, ...]
    psi_scales: tuple[float, ...]
    quantiles: tuple[tuple[float, ...], ...]
    exponents: tuple[float, ...]
    verdict: str

    @property
    def fitted_exponent(self) -> float:
        return self.exponents[0]


def _fit_exponent(deltas: np.ndarray, quantiles: np.ndarray) -> float:
    if np.all(quantiles <= 1e-12):
        return math.inf
    # Zero quantiles among nonzero ones would sink the fit; clipping keeps
    # the slope finite and steep, which is the faithful direction.
    logs = np.log(np.clip(quantiles, 1e-15, None))
    return float(np.polyfit(np.log(deltas), logs, 1)[0])


def _single_verdict(exponent: float, threshold: Depth) -> str:
    if exponent >= threshold - SUPPORT_MARGIN:
        return "supports"
    if exponent <= threshold - REFUTE_MARGIN:
        return "refutes"
    return "inconclusive"


def scaling_verdict(
    kb: KnowledgeBase,
    query: Generalization,
    delta_grid,
    params: ParameterAssignment,
    n: int = 20000,
    seed: int = 0,
    burn_in: int = 1000,
) -> ScalingReport:
    """Estimate how the query's exception quantile scales with delta.

    For each psi scale in PSI_SWEEP and each grid delta the kb polytope is
    sampled and the query's (1 - eta)-quantile recorded; a least-squares
    line through (log delta, log quantile) estimates the exponent. params
    supplies psi and eta; its delta is unused, since the grid gives every
    delta. The grid must have at least 3 strictly decreasing deltas, and
    every grid polytope must be nonempty: an infeasible point aborts,
    naming its delta, since quantiles of an empty model set mean nothing.
    Every grid polytope is solved before any is walked, so it aborts
    before any walk. Grid points whose polytope arrays are identical (a
    polytope depends on the grid only through each psi * delta**k) share
    one LP; the first empty point in sweep order is the one named, whether
    its pinned atoms or its LP find it empty. The query must be over the
    kb's signature.

    The grid's psi scales and deltas are one _sweep, as conclusion_quantile
    is a one-point sweep: each grid point is sampled with its own seed,
    drawn from seed, and its quantile taken by _quantiles, exactly as
    conclusion_quantile would take it alone, so grouping the walks
    changes no sample, and the first chunk is drawn while the LPs solve.
    n, burn_in, seed and the grid are checked before any polytope is
    built.

    The sample does not depend on the query or eta. A sweep whose points
    take at most 4 MiB (len(PSI_SWEEP) * len(grid) * n * atom_count * 8
    bytes) is recorded, and the next call with an equal kb and the same
    params.psi, grid, n, burn_in and seed replays it, building no
    polytope and taking no LP and no walk, to the same quantiles. Only
    the last recorded sweep is kept.
    """
    grid = tuple(float(d) for d in delta_grid)
    if len(grid) < 3:
        raise ValueError("delta grid needs at least 3 points")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ValueError("delta grid must be strictly decreasing")
    if not all(0 < d < 1 for d in grid):
        raise ValueError(f"every grid delta must lie in (0, 1), got {grid!r}")
    _check_run(n, burn_in, seed)
    if query.signature != kb.signature:
        raise SignatureError("query signature differs from knowledge base")
    sweep = list(product(PSI_SWEEP, grid))
    key = (kb, params.psi, grid, n, burn_in, seed)
    atoms = kb.signature.atom_count
    global _last_sweep
    entry = _last_sweep
    if entry is not None and entry[0] == key:
        _, spaces, walks = entry
        quantiles = _quantiles(spaces, walks, query, atoms, n, params.eta)
    else:
        _last_sweep = None
        seeds = np.random.SeedSequence(seed).generate_state(len(sweep), dtype=np.uint64)
        systems = [
            build_polytope(kb, replace(params, psi=[scale * p for p in params.psi], delta=delta))
            for scale, delta in sweep
        ]
        try:
            with _sweep(systems, seeds.tolist(), n, burn_in) as (spaces, walks):
                if len(sweep) * n * atoms * 8 <= _REPLAY_BYTES:
                    walks = [(group, stored, visited.copy()) for group, stored, visited in walks]
                    _last_sweep = (key, spaces, walks)
                quantiles = _quantiles(spaces, walks, query, atoms, n, params.eta)
        except InfeasiblePolytopeError as err:
            scale, delta = sweep[err.index]
            raise InfeasiblePolytopeError(
                f"polytope is empty at delta={delta} (psi scale {scale});"
                " the scaling fit is undefined"
            ) from err
    rows = [tuple(quantiles[i : i + len(grid)]) for i in range(0, len(sweep), len(grid))]
    exponents = [_fit_exponent(np.array(grid), np.array(row)) for row in rows]
    verdicts = {_single_verdict(exponent, query.threshold) for exponent in exponents}
    return ScalingReport(
        threshold=query.threshold,
        delta_grid=grid,
        psi_scales=PSI_SWEEP,
        quantiles=tuple(rows),
        exponents=tuple(exponents),
        verdict=verdicts.pop() if len(verdicts) == 1 else "inconclusive",
    )
