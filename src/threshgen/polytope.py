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
walk before its first LP. The LP goes through the module's linprog, which
imports SciPy on its first call, so importing this module loads NumPy
but not SciPy.

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


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, with SciPy imported on the first call.

    Importing scipy.optimize takes about half a second, so it waits until
    an LP is solved; building a polytope or checking a model needs none.
    Every LP of the package goes through this name.
    """
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


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


def _chebyshev_center(rows: np.ndarray) -> tuple[np.ndarray, float]:
    """Center and radius of the largest ball inside rows @ x <= 0 and
    x >= 0 on the plane sum(x) = 1, within which a row's norm is that of
    row - mean(row). The LP takes x >= 0 as -I rows after the given ones."""
    q = rows.shape[1]
    rows = np.vstack([rows, -np.eye(q)])
    norms = np.linalg.norm(rows - rows.mean(axis=1, keepdims=True), axis=1)
    objective = np.zeros(q + 1)
    objective[q] = -1.0
    # Presolve is disabled: HiGHS's presolver can misdeclare thin systems
    # (rows with delta**k coefficients near its drop tolerances, feasible
    # only at a degenerate vertex) infeasible. The systems are small, so
    # solving them outright is cheap and gives the reliable answer. The
    # simplex solver also stops, rarely, with an unknown status (status 4)
    # on small empty systems; the interior-point solver then decides. The
    # bounds x >= 0 repeat the -I rows, which alone let HiGHS's scaling
    # leave a degenerate center's zero coordinates at -1e-6.
    for method in ("highs", "highs-ipm"):
        result = linprog(
            objective,
            A_ub=np.hstack([rows, norms[:, None]]),
            b_ub=np.zeros(len(rows)),
            A_eq=np.append(np.ones(q), 0.0)[None],
            b_eq=[1.0],
            bounds=[(0, None)] * (q + 1),
            method=method,
            options={
                "presolve": False,
                "primal_feasibility_tolerance": FEASIBILITY_TOLERANCE,
            },
        )
        if result.status != 4:
            break
    if result.status == 2:
        raise InfeasiblePolytopeError("polytope is empty")
    if result.status != 0:
        raise NumericalError(f"Chebyshev-center LP failed: {result.message}")
    return result.x[:q], float(result.x[q])


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
