"""Run support.exact_quantile over a seeded corpus of random 3-name cases.

The corpus: random_kb(default_rng(5), min_names=3, max_names=3,
max_rules=4, max_threshold=2), keeping consistent knowledge bases with at
least one rule. Each kept KB draws gamma and zeta with random_proposition
from the same generator, and the case is kept when max_entailed_threshold
is finite and at least 1. The first 40 cases are probed at j = max, at
every psi scale of PSI_SWEEP and every delta of the default grid: 480 grid
points.

It prints how many points raise, by Qhull error code (or by exception
type when there is none), and exits 1 if any point raises. pytest does not
collect it. Run it from the repository root:

    PYTHONPATH=src:tests python tests/exact_oracle_corpus.py
"""

import re
import sys
from collections import Counter

import numpy as np

import threshgen as tg
from support import exact_quantile, random_kb, random_proposition

CASES = 40
GRID = (0.1, 0.05, 0.025, 0.0125)


def corpus_cases(count=CASES, names=3):
    """The first count cases over the given number of names, as (kb,
    query at j = max)."""
    rng = np.random.default_rng(5)
    cases = []
    while len(cases) < count:
        kb = random_kb(rng, min_names=names, max_names=names, max_rules=4, max_threshold=2)
        profile = tg.compile_kb(kb)
        if kb.size == 0 or not profile.is_consistent():
            continue
        gamma = random_proposition(rng, kb.signature)
        zeta = random_proposition(rng, kb.signature)
        best = profile.max_entailed_threshold(gamma, zeta)
        if best is not None and best != tg.INFINITY and best >= 1:
            cases.append((kb, tg.Generalization(gamma, zeta, best)))
    return cases


def grid_points(kb):
    """The parameters of each (psi scale, delta) point of a case's sweep."""
    return [
        tg.ParameterAssignment(psi=(scale,) * kb.size, delta=delta)
        for scale in tg.PSI_SWEEP
        for delta in GRID
    ]


def main():
    failures = Counter()
    cases = set()
    for index, (kb, query) in enumerate(corpus_cases()):
        for params in grid_points(kb):
            try:
                exact_quantile(kb, params, query)
            except Exception as err:
                code = re.search(r"QH\d{4}", str(err))
                failures[code.group() if code else type(err).__name__] += 1
                cases.add(index)
    points = CASES * len(tg.PSI_SWEEP) * len(GRID)
    print(f"{sum(failures.values())} of {points} grid points raise, in {len(cases)} cases")
    for code, count in failures.most_common():
        print(f"{count:6} {code}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
