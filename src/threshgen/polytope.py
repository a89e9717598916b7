"""Model-side semantics: the constraint polytope of a knowledge base.

A model assigns a probability to every atom of the signature, so models
live on the standard simplex in 2**r dimensions. A generalization
``alpha => beta @ k`` carves the simplex down to the models in which the
exceptional mass is small relative to the antecedent mass:

    pi(alpha & ~beta) <= psi_i * delta**k_i * pi(alpha)

where pi(phi) sums the coordinates of phi's atoms, psi_i is a positive
slack and 0 < delta < 1 is the common exception scale. The rows are linear
in the model vector, so a knowledge base plus a parameter assignment
yields a convex polytope: normalization and any @ inf rows as equalities
(delta**inf = 0 forces the exception mass to vanish), one inequality row
per finite rule, plus coordinatewise non-negativity. Models where the
antecedent has probability 0 satisfy the row trivially, which matches
reading the conditional probability as 1 there.

Feasibility of the polytope is decided by a phase-1 linear program. The
sampling machinery lives in threshgen.sampling; this module only builds
and tests the geometry.

Exact vectors over all 2**r atoms stop being reasonable well before the
24-name cap of the symbolic side, so model-semantics operations cap the
signature at 8 names (256 coordinates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .depth import INFINITY, KnowledgeBase
from .logic import Signature

MAX_MODEL_NAMES = 8

FEASIBILITY_TOLERANCE = 1e-9


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
    """Linear description of the model set of one (kb, parameters) pair.

    Equality rows are the normalization row (all ones, rhs 1) first, then
    one zero-forcing row per @ inf rule. Inequality rows are
    indicator(exception) - psi*delta**k * indicator(antecedent) <= 0, one
    per finite rule, in knowledge-base order. Coordinates are additionally
    bounded below by 0; that bound is implicit here and explicit in every
    solver call.
    """

    signature: Signature
    dimension: int
    eq_rows: np.ndarray
    eq_rhs: np.ndarray
    ineq_rows: np.ndarray
    ineq_rhs: np.ndarray


def indicator(mask: int, dimension: int) -> np.ndarray:
    """Dense 0/1 coordinate vector of an atom-set mask."""
    return np.array([(mask >> i) & 1 for i in range(dimension)], dtype=float)


def build_polytope(kb: KnowledgeBase, params: ParameterAssignment) -> PolytopeSystem:
    """Assemble the constraint system for kb at the given parameters."""
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
    eq_rows = [np.ones(dimension)]
    eq_rhs = [1.0]
    ineq_rows = []
    ineq_rhs = []
    for rule, psi in zip(kb.rules, params.psi):
        exception = indicator(rule.exception().mask, dimension)
        if rule.threshold == INFINITY:
            eq_rows.append(exception)
            eq_rhs.append(0.0)
        else:
            antecedent = indicator(rule.antecedent.mask, dimension)
            scale = psi * params.delta ** rule.threshold
            ineq_rows.append(exception - scale * antecedent)
            ineq_rhs.append(0.0)
    return PolytopeSystem(
        signature=kb.signature,
        dimension=dimension,
        eq_rows=np.array(eq_rows),
        eq_rhs=np.array(eq_rhs),
        ineq_rows=np.array(ineq_rows).reshape(len(ineq_rows), dimension),
        ineq_rhs=np.array(ineq_rhs),
    )


def is_feasible(system: PolytopeSystem) -> bool:
    """Phase-1 test: does any model satisfy every constraint?

    Infeasibility is a result; a solver breakdown is a NumericalError so
    the two are never conflated.
    """
    have_ineq = system.ineq_rows.size > 0
    # Presolve is disabled: HiGHS's presolver can misdeclare thin systems
    # (rows with delta**k coefficients near its drop tolerances, feasible
    # only at a degenerate vertex) infeasible. The systems are small, so
    # solving them outright is cheap and gives the reliable answer.
    result = linprog(
        c=np.zeros(system.dimension),
        A_ub=system.ineq_rows if have_ineq else None,
        b_ub=system.ineq_rhs if have_ineq else None,
        A_eq=system.eq_rows,
        b_eq=system.eq_rhs,
        bounds=(0, None),
        method="highs",
        options={
            "presolve": False,
            "primal_feasibility_tolerance": FEASIBILITY_TOLERANCE,
        },
    )
    if result.status == 0:
        return True
    if result.status == 2:
        return False
    raise NumericalError(f"feasibility LP failed: {result.message}")


def max_violation(system: PolytopeSystem, points: np.ndarray) -> float:
    """Largest constraint violation over the given model vectors.

    Checks equality rows, inequality rows, and non-negativity; points is
    (n, dimension). Used to verify that sampled models actually lie in
    the polytope.
    """
    points = np.atleast_2d(points)
    worst = float(np.max(-points, initial=0.0))
    eq_gap = system.eq_rows @ points.T - system.eq_rhs[:, None]
    worst = max(worst, float(np.max(np.abs(eq_gap), initial=0.0)))
    if system.ineq_rows.size:
        ineq_gap = system.ineq_rows @ points.T - system.ineq_rhs[:, None]
        worst = max(worst, float(np.max(ineq_gap, initial=0.0)))
    return worst
