"""Compare is_feasible with a HiGHS reference over a seeded corpus.

The corpus: random_kb(default_rng(seed), max_names=4, max_rules=4,
allow_infinite=True) for seeds 7-10, 800 knowledge bases each, every one
built at psi scale 0.5, 1 and 2 per rule and at 12 deltas, from 0.9 to
1e-4 with 0.5 and 0.4999 among them: 115,200 systems. Each is decided by
is_feasible and by support.highs_chebyshev_center on the same reduced
system (no kept atom is empty, one kept atom is a point). Systems with
the same reduced rows are solved once.

It prints the count of systems, of distinct LPs and of empty systems,
then every disagreement with both decisions and the optimal radius t*
of the LP with t free (negative on an empty system), and exits 1 on any
disagreement. pytest does not collect it. Run it from the repository
root:

    PYTHONPATH=src:tests python tests/emptiness_corpus.py
"""

import sys

import numpy as np
from scipy.optimize import linprog

import threshgen as tg
from support import highs_chebyshev_center, random_kb
from threshgen.polytope import _reduce

SEEDS = (7, 8, 9, 10)
KBS = 800
PSI = (0.5, 1.0, 2.0)
DELTAS = (0.9, 0.7, 0.6, 0.5, 0.4999, 0.45, 0.3, 0.1, 0.05, 0.01, 1e-3, 1e-4)


def reference_feasible(keep, rows):
    """The emptiness decision with HiGHS in place of the interior-point
    method."""
    if keep.size < 2:
        return keep.size == 1
    try:
        highs_chebyshev_center(rows)
    except tg.InfeasiblePolytopeError:
        return False
    return True


def signed_radius(rows):
    """t* of the Chebyshev LP with the radius free, by HiGHS."""
    q = rows.shape[1]
    rows = np.vstack([rows, -np.eye(q)])
    norms = np.linalg.norm(rows - rows.mean(axis=1, keepdims=True), axis=1)
    result = linprog(
        np.r_[np.zeros(q), -1.0],
        A_ub=np.hstack([rows, norms[:, None]]),
        b_ub=np.zeros(len(rows)),
        A_eq=np.r_[np.ones(q), 0.0][None],
        b_eq=[1.0],
        bounds=[(None, None)] * (q + 1),
        method="highs",
    )
    return result.x[q] if result.status == 0 else float("nan")


def main():
    decided = {}
    systems = empty = disagreements = 0
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for index in range(KBS):
            kb = random_kb(rng, max_names=4, max_rules=4, allow_infinite=True)
            for scale in PSI:
                for delta in DELTAS:
                    params = tg.ParameterAssignment(psi=(scale,) * kb.size, delta=delta)
                    system = tg.build_polytope(kb, params)
                    keep, rows = _reduce(system)
                    key = (keep.tobytes(), rows.shape, rows.tobytes())
                    if key not in decided:
                        decided[key] = (tg.is_feasible(system), reference_feasible(keep, rows))
                    ours, reference = decided[key]
                    systems += 1
                    empty += not ours
                    if ours != reference:
                        disagreements += 1
                        print(
                            f"seed {seed} kb {index} psi x{scale} delta {delta}:"
                            f" interior point {'nonempty' if ours else 'empty'},"
                            f" HiGHS {'nonempty' if reference else 'empty'},"
                            f" t* = {signed_radius(rows):.3g}"
                        )
    print(f"{systems} systems, {len(decided)} distinct, {empty} empty")
    print(f"{disagreements} disagreements")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
