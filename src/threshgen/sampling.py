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

Sampling runs inside the affine hull of the polytope, in the reduced
coordinates threshgen.polytope computes when it decides emptiness, and the
walk starts from that decision's Chebyshev center. If the reduced polytope
has radius zero the single (center) point is returned n times, flagged
degenerate; width-zero polytopes with extent in some direction would
collapse the same way, but only arise from exact parameter coincidences.

The walk draws its normals and uniforms in whole blocks of 4096 steps,
so the randomness feeding each step depends on the seed alone: a chain is
reproducible bit-for-bit for a fixed seed, and a longer run extends a
shorter one exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .depth import Depth, Generalization, KnowledgeBase
from .logic import Proposition
from .polytope import (
    InfeasiblePolytopeError,
    ParameterAssignment,
    PolytopeSystem,
    _walkspace,
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

_BLOCK = 4096
# Steps whose chord directions are projected onto the rows in one matmul;
# 512 keeps that (chunk, rows) array near 1 MB at dimension 256.
_CHUNK = 512
_DEGENERATE_RADIUS = 1e-12


@dataclass(eq=False)
class UniformSample:
    """Models drawn from one polytope: points is (n, dimension).

    degenerate marks the single-point collapse, where all n rows repeat
    the polytope's only (or central) point instead of being a walk.
    """

    points: np.ndarray
    degenerate: bool

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.points)


def _walk(
    rows: np.ndarray,
    rhs: np.ndarray,
    y: np.ndarray,
    normals: np.ndarray,
    uniforms: np.ndarray,
    out: np.ndarray,
) -> None:
    """Run len(uniforms) hit-and-run steps from y inside rows @ y <= rhs.

    Step s moves along normals[s]: the chord through the current point is
    cut by every constraint row, and uniforms[s] picks the next point on
    it. A uniform point of a chord does not depend on the direction's
    length, so the normals are used unnormalized. A numerically empty
    chord (hi < lo) keeps the walk in place rather than stepping outside.
    Every visited point is written to out and y ends at the last one.

    normals may hold more rows than steps are taken: the chord directions
    are projected in whole chunks, so a partial block walks the same
    arithmetic as the start of a full one.
    """
    steps = len(uniforms)
    moves = np.zeros(steps)
    slack = rhs - rows @ y
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, steps, _CHUNK):
            along = normals[start : start + _CHUNK] @ rows.T
            rising = along > 0.0
            falling = along < 0.0
            for s in range(min(_CHUNK, steps - start)):
                ratio = slack / along[s]
                hi = ratio[rising[s]].min(initial=np.inf)
                lo = ratio[falling[s]].max(initial=-np.inf)
                # A bounded polytope yields finite chords; the guard keeps
                # a pathological direction from poisoning the walk.
                if -np.inf < lo <= hi < np.inf:
                    t = lo + uniforms[start + s] * (hi - lo)
                    slack -= t * along[s]
                    moves[start + s] = t
    # Adding y to the first row before the running sum keeps the additions
    # in walk order.
    np.multiply(moves[:, None], normals[:steps], out=out)
    out[0] += y
    np.cumsum(out, axis=0, out=out)
    y[:] = out[-1]


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
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if burn_in < 0:
        raise ValueError("burn_in must be non-negative")
    space = _walkspace(system)
    points = np.zeros((n, system.dimension))
    if space.radius <= _DEGENERATE_RADIUS:
        points[:, space.keep] = space.origin + space.basis @ space.center
        return UniformSample(points=points, degenerate=True)
    rng = np.random.default_rng(seed)
    q = space.basis.shape[1]
    y = space.center
    block_out = np.empty((_BLOCK, q))
    total = burn_in + n
    done = 0
    while done < total:
        take = min(_BLOCK, total - done)
        # Whole blocks are always drawn, even when only part is stepped,
        # so the randomness feeding step t depends on the seed alone: a
        # longer run with the same seed extends a shorter one exactly.
        normals = rng.standard_normal((_BLOCK, q))
        uniforms = rng.random(_BLOCK)
        _walk(space.rows, space.rhs, y, normals, uniforms[:take], block_out[:take])
        first_wanted = max(done, burn_in)
        if done + take > first_wanted:
            segment = block_out[first_wanted - done : take]
            points[first_wanted - burn_in : done + take - burn_in, space.keep] = (
                segment @ space.basis.T + space.origin
            )
        done += take
    return UniformSample(points=points, degenerate=False)


def exception_rate(
    points: np.ndarray, gamma: Proposition, zeta: Proposition
) -> np.ndarray:
    """1 - pi(zeta | gamma) for each model row, 0 where pi(gamma) = 0.

    The zero-antecedent convention matches reading the conditional as 1
    when gamma has no mass: such models never witness an exception.
    """
    dimension = points.shape[1]
    mass_gamma = points @ indicator(gamma.mask, dimension)
    mass_both = points @ indicator((gamma & zeta).mask, dimension)
    safe = np.where(mass_gamma > 0.0, mass_gamma, 1.0)
    return np.where(mass_gamma > 0.0, 1.0 - mass_both / safe, 0.0)


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


def conclusion_quantile(
    kb: KnowledgeBase,
    params: ParameterAssignment,
    query: Generalization,
    n: int,
    burn_in: int = 1000,
    seed: int = 0,
) -> float:
    """Empirical (1 - params.eta)-quantile of 1 - pi(zeta|gamma) over
    models sampled uniformly from the kb polytope at params."""
    sample = sample_uniform(build_polytope(kb, params), n, burn_in, seed)
    rates = exception_rate(sample.points, query.antecedent, query.consequent)
    return empirical_quantile(rates, params.eta)


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
    line through (log delta, log quantile) estimates the exponent. The
    grid must have at least 3 strictly decreasing deltas, and every grid
    polytope must be nonempty: an infeasible point aborts, naming its
    delta, since quantiles of an empty model set mean nothing.
    """
    grid = tuple(float(d) for d in delta_grid)
    if len(grid) < 3:
        raise ValueError("delta grid needs at least 3 points")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ValueError("delta grid must be strictly decreasing")
    seeds = np.random.SeedSequence(seed).generate_state(
        len(PSI_SWEEP) * len(grid), dtype=np.uint64
    )
    quantiles = []
    exponents = []
    verdicts = []
    at = 0
    for scale in PSI_SWEEP:
        scaled = replace(params, psi=tuple(scale * p for p in params.psi))
        row = []
        for delta in grid:
            point_params = replace(scaled, delta=delta)
            try:
                quantile = conclusion_quantile(
                    kb, point_params, query, n, burn_in, int(seeds[at])
                )
            except InfeasiblePolytopeError as err:
                raise InfeasiblePolytopeError(
                    f"polytope is empty at delta={delta} (psi scale {scale});"
                    " the scaling fit is undefined"
                ) from err
            row.append(quantile)
            at += 1
        quantiles.append(tuple(row))
        exponent = _fit_exponent(np.array(grid), np.array(row))
        exponents.append(exponent)
        verdicts.append(_single_verdict(exponent, query.threshold))
    verdict = verdicts[0] if len(set(verdicts)) == 1 else "inconclusive"
    return ScalingReport(
        threshold=query.threshold,
        delta_grid=grid,
        psi_scales=PSI_SWEEP,
        quantiles=tuple(quantiles),
        exponents=tuple(exponents),
        verdict=verdict,
    )
