"""Model-side semantics: the constraint polytope of a knowledge base.

A model assigns a probability to every atom of the signature, so models
live on the standard simplex in 2**r dimensions. A generalization
``alpha => beta @ k`` carves the simplex down to the models in which the
exceptional mass is small relative to the antecedent mass:

    pi(alpha & ~beta) <= psi_i * delta**k_i * pi(alpha)

where pi(phi) sums the coordinates of phi's atoms, psi_i is a positive
slack and 0 < delta < 1 is the common exception scale. Every such row is
linear and homogeneous in the model vector, row @ x <= 0. An @ inf rule
has the same row with delta**inf = 0, pi(alpha & ~beta) <= 0, which on
x >= 0 forces its exception mass to 0. So a knowledge base plus a
parameter assignment yields a convex polytope: the simplex (x >= 0,
sum(x) = 1) cut by one homogeneous row per rule. Models where the
antecedent has probability 0 satisfy the row trivially, which matches
reading the conditional probability as 1 there.

The module also owns the one decision of whether the polytope is empty.
Coordinates pinned to zero (by rows with no negative entry, as an @ inf
rule's row is) are eliminated, and a single Chebyshev-center
linear program over the remaining atoms, on the plane where they sum to 1,
either places the largest inscribed ball or proves the system empty.
is_feasible asks that question, and threshgen.sampling starts its walk
from the same center. The elimination and the LP are separate steps,
_reduce and _solve, so a sweep of polytopes knows the shape of every
walk before its first LP. The LP is solved in NumPy by a primal-dual
interior-point method, so the module needs no other library.

Exact vectors over all 2**r atoms stop being reasonable well before the
24-name cap of the symbolic side, so model-semantics operations cap the
signature at 8 names (256 coordinates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .depth import KnowledgeBase
from .logic import Signature

MAX_MODEL_NAMES = 8

FEASIBILITY_TOLERANCE = 1e-9
# A polytope whose largest inscribed ball has at most this radius is a
# single point: its center is its only model.
_DEGENERATE_RADIUS = 1e-12
# Interior-point iterations before a Chebyshev-center LP counts as failed.
# The LPs of up to 4 names that the emptiness corpus draws take at most
# about 15.
_MAX_ITERATIONS = 50


class NumericalError(RuntimeError):
    """The LP solver failed for numerical reasons (not infeasibility)."""


class InfeasiblePolytopeError(ValueError):
    """An operation requiring a nonempty polytope was given an empty one."""


@dataclass(frozen=True)
class ParameterAssignment:
    """Slacks and scales fixing one concrete polytope for a knowledge base.

    psi holds one positive slack per rule (in knowledge-base order), delta
    is the exception scale in (0,1), and eta in (0,1) is the mass of models
    a conclusion is allowed to fail on (quantile level 1 - eta).
    """

    psi: tuple[float, ...]
    delta: float
    eta: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "psi", tuple(float(p) for p in self.psi))
        if not all(0 < p < math.inf for p in self.psi):
            raise ValueError("every psi must be finite and strictly positive")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")
        if not 0 < self.eta < 1:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta!r}")


@dataclass(eq=False)
class PolytopeSystem:
    """Linear description of the model set of one (kb, parameters) pair:
    the points x of the simplex with rows @ x <= 0.

    rows holds indicator(exception) - psi*delta**k * indicator(antecedent),
    one per rule in knowledge-base order; an @ inf rule's row is its
    exception's indicator, since delta**inf = 0. The simplex, x >= 0 and
    sum(x) = 1, is implicit here and explicit in every solver call.
    """

    signature: Signature
    dimension: int
    rows: np.ndarray


def indicator(mask: int, dimension: int) -> np.ndarray:
    """Dense 0/1 coordinate vector of an atom-set mask."""
    data = np.frombuffer(mask.to_bytes((dimension + 7) // 8, "little"), np.uint8)
    return np.unpackbits(data, count=dimension, bitorder="little").astype(float)


def build_polytope(kb: KnowledgeBase, params: ParameterAssignment) -> PolytopeSystem:
    """Assemble the constraint system for kb at the given parameters.

    Atom 0 is ~a and atom 1 is a, so the exception of t => a is ~a:

    >>> from threshgen import load_kb
    >>> build_polytope(load_kb("t => a @ inf"), ParameterAssignment((1.0,), 0.1)).rows.tolist()
    [[1.0, 0.0]]
    >>> build_polytope(load_kb("t => a @ 1"), ParameterAssignment((1.0,), 0.1)).rows.tolist()
    [[0.9, -0.1]]
    """
    r = kb.signature.size
    if r > MAX_MODEL_NAMES:
        raise ValueError(
            f"model vectors need 2**{r} coordinates; the cap is"
            f" {MAX_MODEL_NAMES} names ({2 ** MAX_MODEL_NAMES} coordinates)"
        )
    if len(params.psi) != kb.size:
        raise ValueError(
            f"psi has {len(params.psi)} entries for {kb.size} rules"
        )
    dimension = kb.signature.atom_count
    rows = [
        indicator(rule.exception().mask, dimension)
        - psi * params.delta ** rule.threshold * indicator(rule.antecedent.mask, dimension)
        for rule, psi in zip(kb.rules, params.psi)
    ]
    return PolytopeSystem(
        signature=kb.signature,
        dimension=dimension,
        rows=np.array(rows).reshape(len(rows), dimension),
    )


@dataclass(eq=False)
class _Walkspace:
    """The polytope over its kept atoms, in model coordinates: the points
    of the simplex over them with rows @ x <= 0. rows holds only the rule
    rows that cut it; the simplex is implicit, as in PolytopeSystem.
    center and radius describe the largest ball inside, within the plane
    sum(x) = 1; with one kept atom the polytope is the point [1.0] and
    radius is 0."""

    keep: np.ndarray
    rows: np.ndarray
    center: np.ndarray
    radius: float


def _pinned_coordinates(system: PolytopeSystem) -> np.ndarray:
    """Boolean mask of coordinates forced to zero, closed under the rule
    that a row with no negative coefficient left pins every coordinate it
    still touches positively (row @ x <= 0 with x >= 0)."""
    positive, negative = system.rows > 0.0, system.rows < 0.0
    pinned = np.zeros(system.dimension, dtype=bool)
    while True:
        live = ~pinned
        # Each round applies every row at once; the closure is monotone, so
        # the rounds reach the fixpoint that pinning row by row reaches.
        new = (positive[~(negative & live).any(axis=1)] & live).any(axis=0)
        if not new.any():
            return pinned
        pinned |= new


def _step_length(values: np.ndarray, step: np.ndarray) -> float:
    """The largest a <= 1 with values + a * step >= 0, for values > 0."""
    falling = step < 0.0
    return min(1.0, float(np.min(-values[falling] / step[falling], initial=np.inf)))


def _chebyshev_center(rows: np.ndarray) -> tuple[np.ndarray, float]:
    """Center and radius of the largest ball inside rows @ x <= 0 and
    x >= 0 on the plane sum(x) = 1, within which a row's norm is that of
    row - mean(row); InfeasiblePolytopeError when the largest radius is
    below -FEASIBILITY_TOLERANCE, which no model then comes within.

    The LP maximizes the radius t, which may be negative, over rows @ x +
    t * norms <= 0 and x >= unit * t, unit being the norm of every x >= 0
    row. Writing x = s + unit * t turns the latter into bounds s >= 0, so
    only the m rule rows, with slacks w, and sum(x) = 1 are equations,
    and each step solves (m + 1)-row normal equations, at O(q * m**2) for
    q atoms. The uniform point gives t a lower bound, start, so t = floor
    + tau with tau >= 0 and floor below start. From a strictly feasible
    primal and dual point, Mehrotra's predictor-corrector steps (Mehrotra,
    SIAM J. Optim. 2, 1992) follow the central path, so the center is
    one inside the optimal face rather than one of its vertices, and
    permuting the atoms permutes it. Each step takes its primal direction
    as a projection through the thin QR factor of the scaled equations,
    which keeps the iterates on the equations where the normal equations
    in product form do not.

    Every iteration brackets the optimum: the radius of the current
    point, measured from its slacks, is a lower bound, and the dual
    objective an upper one. The solve stops once the bracket decides
    emptiness, holds only single-point radii, or is narrow, and returns
    the best point seen; a bracket still open after _MAX_ITERATIONS
    raises NumericalError.
    """
    m, q = rows.shape
    unit = math.sqrt(1.0 - 1.0 / q)
    norms = np.linalg.norm(rows - rows.mean(axis=1, keepdims=True), axis=1)
    sums = rows.sum(axis=1)
    start = min(1.0 / (q * unit), float(np.min(-sums / (q * norms), initial=np.inf)))
    floor = start - 1.0 / q
    slope = unit * sums + norms
    # Variables (s, tau, w) and their equations.
    equations = np.zeros((m + 1, q + 1 + m))
    equations[:m, :q] = rows
    equations[:m, q] = slope
    equations[:m, q + 1 :] = np.eye(m)
    equations[m, :q] = 1.0
    equations[m, q] = q * unit
    target = np.append(-slope * floor, 1.0 - q * unit * floor)
    cost = np.zeros(q + 1 + m)
    cost[q] = -1.0
    # The uniform point at t = start - 1/(2q), and dual multipliers -1 on
    # the rule rows with one on the sum row low enough for positive slacks.
    t = start - 0.5 / q
    primal = np.concatenate([np.full(q, 1.0 / q - unit * t), [t - floor], -sums / q - norms * t])
    dual = np.append(
        np.full(m, -1.0),
        min(float(rows.sum(axis=0).min()), (slope.sum() - 1.0) / (q * unit)) - 1.0,
    )
    reduced = cost - equations.T @ dual
    scales = np.append(norms, np.full(q, unit))
    lower, upper, center = -math.inf, math.inf, None
    for _ in range(_MAX_ITERATIONS):
        point = primal[:q] + unit * (floor + primal[q])
        point = point / point.sum()
        radius = float(np.min(np.append(-(rows @ point), point) / scales))
        if radius > lower:
            lower, center = radius, point
        upper = min(upper, floor - float(target @ dual))
        if upper < -FEASIBILITY_TOLERANCE:
            raise InfeasiblePolytopeError("polytope is empty")
        if upper - lower <= 1e-9 * abs(lower) + 1e-14 or (
            lower >= -FEASIBILITY_TOLERANCE and upper <= _DEGENERATE_RADIUS
        ):
            if lower < -FEASIBILITY_TOLERANCE:
                raise InfeasiblePolytopeError("polytope is empty")
            return center, max(0.0, lower)
        primal_residual = equations @ primal - target
        dual_residual = equations.T @ dual + reduced - cost
        mu = primal @ reduced / primal.size
        root = np.sqrt(primal / reduced)
        if not np.all(np.isfinite(root)):
            break
        basis, factor = np.linalg.qr((equations * root).T)
        if not np.all(np.diagonal(factor)):
            break
        inverse = np.linalg.inv(factor)
        shift = inverse.T @ primal_residual

        def direction(product):
            # The Newton step toward primal * reduced = product.
            scaled = root * (dual_residual - product / primal)
            coefficients = basis.T @ scaled + shift
            step = -(inverse @ coefficients)
            return (
                root * (scaled - basis @ coefficients),
                step,
                -dual_residual - equations.T @ step,
            )

        d_primal, d_dual, d_reduced = direction(primal * reduced)
        a_primal, a_dual = _step_length(primal, d_primal), _step_length(reduced, d_reduced)
        predicted = (primal + a_primal * d_primal) @ (reduced + a_dual * d_reduced)
        sigma = (predicted / primal.size / mu) ** 3
        d_primal, d_dual, d_reduced = direction(
            primal * reduced + d_primal * d_reduced - sigma * mu
        )
        a_primal = 0.99 * _step_length(primal, d_primal)
        a_dual = 0.99 * _step_length(reduced, d_reduced)
        primal = primal + a_primal * d_primal
        dual = dual + a_dual * d_dual
        reduced = reduced + a_dual * d_reduced
    raise NumericalError(
        f"Chebyshev-center LP failed: radius bracketed only to [{lower:.3g}, {upper:.3g}]"
    )


def _reduce(system: PolytopeSystem) -> tuple[np.ndarray, np.ndarray]:
    """The system over its kept atoms, before any LP: keep, the atoms
    that no row pins to zero (empty when every one is pinned), and rows,
    the rule rows over them that cut the simplex."""
    keep = np.flatnonzero(~_pinned_coordinates(system))
    kept = system.rows[:, keep]
    # A row with no positive kept entry holds at every non-negative point.
    # Every other row also has a negative one, or the pinning closure would
    # have pinned its positive entries, so it cuts the simplex.
    return keep, kept[(kept > 0.0).any(axis=1)]


def _solve(keep: np.ndarray, rows: np.ndarray) -> _Walkspace:
    """The walk space of a reduced system, with its Chebyshev center,
    raising InfeasiblePolytopeError when no model satisfies every
    constraint."""
    if keep.size == 0:
        raise InfeasiblePolytopeError(
            "every coordinate is forced to zero, so no model normalizes"
        )
    if keep.size == 1:
        # One free coordinate carrying all mass; no row cuts it, so the
        # polytope is that single point.
        center, radius = np.ones(1), 0.0
    else:
        center, radius = _chebyshev_center(rows)
    return _Walkspace(keep, rows, center, radius)


def _walkspace(system: PolytopeSystem) -> _Walkspace:
    """Restrict the system to its kept atoms and find its Chebyshev
    center, raising InfeasiblePolytopeError when no model satisfies every
    constraint."""
    return _solve(*_reduce(system))


def is_feasible(system: PolytopeSystem) -> bool:
    """Does any model satisfy every constraint?

    Infeasibility is a result; a solver breakdown is a NumericalError so
    the two are never conflated.
    """
    try:
        _walkspace(system)
    except InfeasiblePolytopeError:
        return False
    return True


def max_violation(system: PolytopeSystem, points: np.ndarray) -> float:
    """Largest constraint violation over the given model vectors.

    Checks non-negativity, normalization and the rule rows; points is
    (n, dimension). Used to verify that sampled models actually lie in the
    polytope.
    """
    points = np.atleast_2d(points)
    gaps = (-points, np.abs(points.sum(axis=1) - 1.0), system.rows @ points.T)
    return max(float(np.max(gap, initial=0.0)) for gap in gaps)
