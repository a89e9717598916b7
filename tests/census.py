"""Census of scaling_verdict against the symbolic route, at 2 and 3 names.

The corpus per width is exact_oracle_corpus.corpus_cases(12, names): the
first 12 consistent random knowledge bases with a query whose
max_entailed_threshold is finite and at least 1. Each case is probed at
j = max, where the symbolic route says "supports", and at j = max + 1,
where it says "refutes". Every probe runs scaling_verdict at psi = 1 per
rule on the default grid, with n = 20000 and the case's index as seed.

Each miss gets a cause label from support.exact_quantile at its 12 grid
points, fitted and judged as scaling_verdict fits and judges its walked
quantiles: "walk" when the exact quantiles give the expected verdict, so
the sampler is at fault, "grid" when they miss too, so the grid is too
coarse for the asymptotic claim, and "n/a" when some grid point has no
interior to measure.

It prints the misses per width, by (expected, got) and by label, and a
sha256 over the float.hex of every probe's walked quantiles. The digest
pins a sampler change that should move no bit; it depends on the BLAS
build and the SIMD path, so it is printed only. The run exits 1 if a
width has more misses than its count in COMMITTED. pytest does not
collect it. Run it from the repository root:

    PYTHONPATH=src:tests python tests/census.py
"""

import hashlib
import sys
from collections import Counter

import numpy as np

import threshgen as tg
from exact_oracle_corpus import GRID, corpus_cases, grid_points
from support import exact_quantile
from threshgen.sampling import _fit_exponent, _single_verdict

CASES = 12
SAMPLES = 20000
# Misses per width, as measured when the census was committed.
COMMITTED = {2: 6, 3: 6}


def exact_verdict(kb, query):
    """The verdict that scaling_verdict would reach from the exact
    quantiles, or None when a grid point has no interior."""
    try:
        quantiles = [exact_quantile(kb, params, query) for params in grid_points(kb)]
    except ValueError:
        return None
    rows = np.reshape(quantiles, (len(tg.PSI_SWEEP), len(GRID)))
    exponents = [_fit_exponent(np.array(GRID), row) for row in rows]
    verdicts = {_single_verdict(exponent, query.threshold) for exponent in exponents}
    return verdicts.pop() if len(verdicts) == 1 else "inconclusive"


def main():
    digest = hashlib.sha256()
    worse = False
    for names, committed in COMMITTED.items():
        pairs, labels = Counter(), Counter()
        for seed, (kb, query) in enumerate(corpus_cases(CASES, names)):
            params = tg.ParameterAssignment(psi=(1.0,) * kb.size, delta=GRID[0])
            for offset, expected in ((0, "supports"), (1, "refutes")):
                probe = tg.Generalization(
                    query.antecedent, query.consequent, query.threshold + offset
                )
                report = tg.scaling_verdict(kb, probe, GRID, params, n=SAMPLES, seed=seed)
                for row in report.quantiles:
                    digest.update(" ".join(map(float.hex, row)).encode() + b"\n")
                if report.verdict == expected:
                    continue
                exact = exact_verdict(kb, probe)
                label = "n/a" if exact is None else "walk" if exact == expected else "grid"
                pairs[expected, report.verdict] += 1
                labels[label] += 1
                print(
                    f"  {names} names, case {seed}, j = {probe.threshold}: {report.verdict}"
                    f" where {expected} is expected (exponents"
                    f" {', '.join(f'{e:.3f}' for e in report.exponents)}), {label}"
                )
        misses = sum(pairs.values())
        print(f"{names} names: {misses} of {2 * CASES} probes miss (committed {committed})")
        for (expected, got), count in sorted(pairs.items()):
            print(f"{count:6} expected {expected}, got {got}")
        for label, count in sorted(labels.items()):
            print(f"{count:6} {label}")
        worse |= misses > committed
    print(f"walked quantiles sha256: {digest.hexdigest()}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
