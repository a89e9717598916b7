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
interior-point method, so the module needs no other library. _solve takes
a list of reduced systems and solves the LPs of one reduced shape as one
stack, whose members iterate in lockstep: a sweep pays NumPy's per-call
cost once per step for each shape, not once per step for each LP, and
is_feasible solves a stack of one. A member's center and radius do not
depend on what else is in its stack.

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


def _least(first, second):
    """Python's min(first, second) per member: second only where it is
    smaller, so a NaN never wins."""
    return np.where(second < first, second, first)


def _step_lengths(values: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Per member, the largest a <= 1 with values + a * steps >= 0, for
    values > 0."""
    falling = steps < 0.0
    # Only the falling ratios are computed, and only they are read.
    ratios = np.divide(-values, steps, out=None, where=falling)
    # fmin, as Python's min(1.0, ratio), takes 1.0 over a NaN ratio.
    return np.fmin(ratios.min(axis=1, where=falling, initial=np.inf), 1.0)


def _products(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Each member's matrix times its vector, (..., k, n) @ (..., n, 1),
    so every member takes the BLAS matrix-vector routine that a lone
    matrix @ vector takes."""
    return np.matmul(matrices, vectors[..., None])[..., 0]


def _dots(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Each member's dot product, (1, n) @ (n, 1), which takes the BLAS
    routine that a lone vector @ vector takes."""
    return np.matmul(first[:, None, :], second[:, :, None])[:, 0, 0]


def _chebyshev_centers(stack: np.ndarray) -> list:
    """Center and radius of the largest ball inside rows @ x <= 0 and
    x >= 0 on the plane sum(x) = 1, within which a row's norm is that of
    row - mean(row), for each member rows of stack, an (L, m, q) array of
    same-shape systems. A member's entry in the returned list is its
    (center, radius) or the exception it raises: InfeasiblePolytopeError
    when the largest radius is below -FEASIBILITY_TOLERANCE, which no
    model then comes within, or NumericalError.

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

    Every iteration brackets each optimum: the radius of the current
    point, measured from its slacks, is a lower bound, and the dual
    objective an upper one. A member leaves the stack once its bracket
    decides emptiness, holds only single-point radii, or is narrow, with
    the best point it has seen; one whose bracket is still open after
    _MAX_ITERATIONS, or whose step breaks down, gets NumericalError.

    The members iterate in lockstep, each step one stacked NumPy call per
    operation, so NumPy's per-call cost is paid once per step for the
    whole stack. Each member does the arithmetic it would do in a stack
    of one: products go through _products and _dots, Python's min through
    _least, the bracket is tested on each member's Python floats, and
    sigma's cube is taken member by member, as a NumPy scalar, since the
    array power rounds differently. A member's entry is therefore the
    same, bit for bit, in any stack.
    """
    count, m, q = stack.shape
    size = q + 1 + m
    unit = math.sqrt(1.0 - 1.0 / q)
    norms = np.linalg.norm(stack - stack.mean(axis=2, keepdims=True), axis=2)
    sums = stack.sum(axis=2)
    start = _least(1.0 / (q * unit), np.min(-sums / (q * norms), axis=1, initial=np.inf))
    floor = start - 1.0 / q
    slope = unit * sums + norms
    # Variables (s, tau, w) and their equations.
    equations = np.zeros((count, m + 1, size))
    equations[:, :m, :q] = stack
    equations[:, :m, q] = slope
    equations[:, :m, q + 1 :] = np.eye(m)
    equations[:, m, :q] = 1.0
    equations[:, m, q] = q * unit
    target = np.column_stack([-slope * floor[:, None], 1.0 - q * unit * floor])
    cost = np.zeros(size)
    cost[q] = -1.0
    # The uniform point at t = start - 1/(2q), and dual multipliers -1 on
    # the rule rows with one on the sum row low enough for positive slacks.
    t = start - 0.5 / q
    primal = np.column_stack(
        [
            (1.0 / q - unit * t)[:, None].repeat(q, axis=1),
            t - floor,
            -sums / q - norms * t[:, None],
        ]
    )
    bound = _least(stack.sum(axis=1).min(axis=1), (slope.sum(axis=1) - 1.0) / (q * unit))
    dual = np.column_stack([np.full((count, m), -1.0), bound - 1.0])
    reduced = cost - _products(equations.transpose(0, 2, 1), dual)
    scales = np.column_stack([norms, np.full((count, q), unit)])
    lower, upper = np.full(count, -math.inf), np.full(count, math.inf)
    center = np.zeros((count, q))
    members = np.arange(count)
    outcomes: list = [None] * count

    def leave(settled):
        """Record each settled member's outcome, given as {row: outcome},
        and drop the settled rows from every per-member array; the mask
        of the rows kept."""
        nonlocal members, stack, equations, target, floor, scales
        nonlocal primal, dual, reduced, lower, upper, center
        live = np.ones(len(members), dtype=bool)
        for i, outcome in settled.items():
            outcomes[members[i]] = outcome
            live[i] = False
        members, stack, equations, target, floor, scales = (
            array[live] for array in (members, stack, equations, target, floor, scales)
        )
        primal, dual, reduced, lower, upper, center = (
            array[live] for array in (primal, dual, reduced, lower, upper, center)
        )
        return live

    def failures(broken):
        """NumericalError, with its bracket, for each broken member."""
        return {
            i: NumericalError(
                "Chebyshev-center LP failed: radius bracketed only to"
                f" [{float(lower[i]):.3g}, {float(upper[i]):.3g}]"
            )
            for i in np.flatnonzero(broken)
        }

    for _ in range(_MAX_ITERATIONS):
        if not members.size:
            break
        point = primal[:, :q] + (unit * (floor + primal[:, q]))[:, None]
        point = point / point.sum(axis=1, keepdims=True)
        radius = (np.concatenate([-_products(stack, point), point], axis=1) / scales).min(axis=1)
        better = radius > lower
        lower = np.where(better, radius, lower)
        center = np.where(better[:, None], point, center)
        upper = _least(upper, floor - _dots(target, dual))
        settled = {}
        for i, (low, high) in enumerate(zip(lower.tolist(), upper.tolist())):
            if high < -FEASIBILITY_TOLERANCE:
                settled[i] = InfeasiblePolytopeError("polytope is empty")
            elif high - low <= 1e-9 * abs(low) + 1e-14 or (
                low >= -FEASIBILITY_TOLERANCE and high <= _DEGENERATE_RADIUS
            ):
                if low < -FEASIBILITY_TOLERANCE:
                    settled[i] = InfeasiblePolytopeError("polytope is empty")
                else:
                    settled[i] = center[i], max(0.0, low)
        if settled:
            leave(settled)
        # A step breaks down on a non-finite scaling or a singular factor.
        root = np.sqrt(primal / reduced)
        finite = np.isfinite(root).all(axis=1)
        if not finite.all():
            root = root[leave(failures(~finite))]
        basis, factor = np.linalg.qr((equations * root[:, None, :]).transpose(0, 2, 1))
        solvable = np.diagonal(factor, axis1=1, axis2=2).all(axis=1)
        if not solvable.all():
            live = leave(failures(~solvable))
            root, basis, factor = root[live], basis[live], factor[live]
        inverse = np.linalg.inv(factor)
        primal_residual = _products(equations, primal) - target
        dual_residual = _products(equations.transpose(0, 2, 1), dual) + reduced - cost
        mu = _dots(primal, reduced) / size
        shift = _products(inverse.transpose(0, 2, 1), primal_residual)

        def direction(product):
            # The Newton step toward primal * reduced = product.
            scaled = root * (dual_residual - product / primal)
            coefficients = _products(basis.transpose(0, 2, 1), scaled) + shift
            step = -_products(inverse, coefficients)
            return (
                root * (scaled - _products(basis, coefficients)),
                step,
                -dual_residual - _products(equations.transpose(0, 2, 1), step),
            )

        d_primal, d_dual, d_reduced = direction(primal * reduced)
        a_primal, a_dual = _step_lengths(primal, d_primal), _step_lengths(reduced, d_reduced)
        predicted = _dots(
            primal + a_primal[:, None] * d_primal, reduced + a_dual[:, None] * d_reduced
        )
        sigma = np.array([(p / size / u) ** 3 for p, u in zip(predicted, mu)])
        d_primal, d_dual, d_reduced = direction(
            primal * reduced + d_primal * d_reduced - (sigma * mu)[:, None]
        )
        a_primal = 0.99 * _step_lengths(primal, d_primal)
        a_dual = 0.99 * _step_lengths(reduced, d_reduced)
        primal = primal + a_primal[:, None] * d_primal
        dual = dual + a_dual[:, None] * d_dual
        reduced = reduced + a_dual[:, None] * d_reduced
    leave(failures(np.ones(members.size, dtype=bool)))
    return outcomes


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


def _solve(reduced: list[tuple[np.ndarray, np.ndarray]]) -> list[_Walkspace]:
    """The walk spaces of a list of reduced systems, (keep, rows) as
    _reduce gives them, with their Chebyshev centers. The LPs of one
    reduced shape are solved as one stack. The first system in order that
    has no model, or whose LP fails, raises its InfeasiblePolytopeError
    or NumericalError, with its position in the list as the error's
    index."""
    outcomes: list = [None] * len(reduced)
    stacks: dict[tuple[int, int], list[int]] = {}
    for index, (keep, rows) in enumerate(reduced):
        if keep.size == 0:
            outcomes[index] = InfeasiblePolytopeError(
                "every coordinate is forced to zero, so no model normalizes"
            )
        elif keep.size == 1:
            # One free coordinate carrying all mass; no row cuts it, so the
            # polytope is that single point.
            outcomes[index] = np.ones(1), 0.0
        else:
            stacks.setdefault(rows.shape, []).append(index)
    for indices in stacks.values():
        solved = _chebyshev_centers(np.stack([reduced[index][1] for index in indices]))
        for index, outcome in zip(indices, solved):
            outcomes[index] = outcome
    spaces = []
    for index, ((keep, rows), outcome) in enumerate(zip(reduced, outcomes)):
        if isinstance(outcome, Exception):
            outcome.index = index
            raise outcome
        spaces.append(_Walkspace(keep, rows, *outcome))
    return spaces


def _walkspace(system: PolytopeSystem) -> _Walkspace:
    """Restrict the system to its kept atoms and find its Chebyshev
    center, raising InfeasiblePolytopeError when no model satisfies every
    constraint."""
    return _solve([_reduce(system)])[0]


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
