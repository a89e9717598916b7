"""Shared helpers for the test suite: generators and independent oracles."""

import numpy as np

import threshgen as tg

NAMES = ("a", "b", "c", "d", "e", "g", "h", "i", "j", "k")


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

    Exhaustively enumerates assignments of a depth to each atom, keeps
    those where every rule i satisfies

        depth(exception_i) >= depth(antecedent_i) + k_i

    (the depth of a proposition being the minimum over its atoms, inf for
    the empty one), and returns the coordinatewise minimum of the
    survivors. Candidate values per atom are {0..fixpoint} + {inf},
    narrowed to subset sums of the thresholds: every finite depth the
    engine can assign is a sum of distinct rule thresholds, since each
    finite atom depth is some antecedent's depth plus that rule's
    threshold and depths strictly decrease along that recursion.
    """
    thresholds = kb.finite_thresholds()
    if len(thresholds) != kb.size:
        raise ValueError("oracle only handles all-finite knowledge bases")
    values = np.array(
        [s for s in subset_sums(thresholds) if s <= fixpoint] + [np.inf]
    )
    n_values = len(values)
    n_atoms = kb.signature.atom_count
    total = n_values**n_atoms
    radix = n_values ** np.arange(n_atoms, dtype=np.int64)
    columns = [
        (
            [i for i in range(n_atoms) if (rule.exception().mask >> i) & 1],
            [i for i in range(n_atoms) if (rule.antecedent.mask >> i) & 1],
            rule.threshold,
        )
        for rule in kb.rules
    ]
    best = np.full(n_atoms, np.inf)
    chunk = 1 << 18
    for start in range(0, total, chunk):
        index = np.arange(start, min(start + chunk, total), dtype=np.int64)
        depths = values[(index[:, None] // radix) % n_values]
        ok = np.ones(len(index), dtype=bool)
        for exc_cols, ant_cols, threshold in columns:
            d_exc = depths[:, exc_cols].min(axis=1) if exc_cols else np.inf
            d_ant = depths[:, ant_cols].min(axis=1) if ant_cols else np.inf
            ok &= d_exc >= d_ant + threshold
        if ok.any():
            best = np.minimum(best, depths[ok].min(axis=0))
    return best


def reference_chain(kb, length):
    """Straight-line reimplementation of the exception chain, for cross-
    checking the engine's fixpoint detection. Returns chain[0..length]."""
    true = tg.Proposition.true(kb.signature)
    chain = [true]
    for d in range(1, length + 1):
        level = tg.Proposition.false(kb.signature)
        for rule in kb.rules:
            back = d - rule.threshold
            reference = true if back <= 0 else chain[int(back)]
            if rule.antecedent.entails(reference):
                level = level | rule.exception()
        chain.append(level)
    return chain


def engine_atom_depths(profile):
    signature = profile.kb.signature
    return np.array(
        [
            profile.depth_of(tg.Proposition.minterm(signature, i))
            for i in range(signature.atom_count)
        ],
        dtype=float,
    )
