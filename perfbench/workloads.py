"""Seeded inputs, one fixed batch per workload, and the correctness checks.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned. A batch is a fixed list of operations
that depends on the seed alone, so repeated batches of one run do the same
work and their wall times can be compared. The sizes that drive the cost
(signature sizes, query counts, sample counts) are fixed; the seed only
changes rule contents, names, query choice and sampler seeds, so runs with
different seeds cost about the same.

threshgen is reached only through its public functions and its command
line. Nothing here builds the compiled walk kernel; whichever kernel the
package selects is the one measured.
"""

from __future__ import annotations

import hashlib
import inspect
import io
import math
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import threshgen as tg
from threshgen import cli

DEFAULT_SEED = 0

# sha256 of the symbolic answers at DEFAULT_SEED, recorded from the commit
# that introduced this benchmark. A change that alters any symbolic answer
# (or the generator) changes it; see README.md for how to re-record.
SYMBOLIC_DIGEST = "fade89e9c13e1d2c95b2cb56dd5b76db69163a0fe83444e4f4816dd382d09e5e"

# symbolic: one KB per size. 20 names is where load_kb's name masks take
# over a second; 24 names stays out while that costs minutes.
SYMBOLIC_SIZES = (8, 10, 12, 14, 16, 18, 20)
QUERIES_PER_KB = 30
DEPTHMAP_MAX_NAMES = 14
ZPLUS_MAX_NAMES = 16
ZPLUS_QUERIES = 3

# The numerical route: one delta grid, one parameter point and one sample
# size for every verdict of a workload.
DELTA_GRID = (0.1, 0.05, 0.025, 0.0125)
ETA = 0.1
SHARED_SAMPLES, SHARED_BURN_IN = 1000, 500
WIDE_SAMPLES, WIDE_BURN_IN = 2000, 500
WIDE_SIZES = (5, 6, 7, 8)
VIOLATION_LIMIT = 1e-9
CALIBRATION_SAMPLES = 20_000
CALIBRATION_SE_LIMIT = 6.0

# validate-shared templates over names a, b, c. Each lists queries whose
# fitted slope stays well inside the 0.3 margins of scaling_verdict at the
# sample size above, checked on many sampler seeds.
SHARED_TEMPLATES = {
    2: (
        (
            "t => a @ 1\nt => b @ 2\n",
            ("t => b", "t => a | b", "a => b", "t => b | ~a", "a | b => b"),
        ),
        ("a => b @ 2\nb => a @ 2\n", ("a => b", "b => a", "a | b => a & b", "a => a <-> b")),
        ("t => a @ 2\nt => b @ 2\n", ("t => a", "t => b", "t => a & b", "a => b", "b => a")),
        ("a => b @ 1\n~a => ~b @ 1\n", ("a => b", "~a => ~b", "t => a <-> b", "a => a & b")),
        ("t => a @ 1\n~a => b @ 1\n", ("~a => b", "~a => a | b")),
    ),
    3: (
        ("t => a @ 1\na => b @ 2\na & b => c @ 1\n", ("a => b", "a => b | c", "a & c => b")),
        ("a => b @ 2\nc => ~b @ 2\n", ("a => b", "c => ~b", "a & ~c => b", "a | c => a <-> b")),
        ("t => a @ 2\nt => b @ 2\nt => c @ 2\n", ("t => a", "t => b", "t => c")),
        ("a => b @ 1\nb => c @ 1\n", ("a => b", "b => c")),
    ),
}
NAME_POOL = ("bird", "fly", "wing", "egg", "sea", "swim", "cold", "fur")


@dataclass
class Batch:
    """What one pass over a workload's fixed batch measured and found."""

    wall_s: float = 0.0
    latencies: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)
    records: list = field(default_factory=list)
    # Per coarse operation: (seconds, fastest calibration probe seconds),
    # the probe timed right after the operation in the same process.
    calibrated: list = field(default_factory=list)

    def time(self, kind: str, seconds: float) -> None:
        self.latencies.setdefault(kind, []).append(seconds)

    def check(self, ok: bool, message: str) -> bool:
        """Count one operation; a false ok records it as failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


def _rng(seed: int, stream: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, tag])


# -- symbolic --------------------------------------------------------------


def _literal(rng, name: str) -> str:
    return name if rng.random() < 0.5 else "~" + name


def _formula(rng, names, joiners=(" & ", " | "), most=3, anchor=None) -> str:
    count = int(rng.integers(1, most + 1))
    chosen = [names[int(i)] for i in rng.integers(0, len(names), size=count)]
    if anchor is not None:
        chosen[0] = anchor
    text = _literal(rng, chosen[0])
    for name in chosen[1:]:
        text += joiners[int(rng.integers(0, len(joiners)))] + _literal(rng, name)
    return text


def symbolic_kb(rng, size: int) -> dict:
    """Rule text with one rule per name (every name appears), thresholds
    1-3, an @ inf rule in about a third of the KBs, and in a quarter of
    them a contradictory pair that makes the KB inconsistent. Antecedents
    are short conjunctions and consequents short disjunctions, so that
    exceptions are small and most of the other KBs stay consistent."""
    names = [f"p{j}" for j in range(size)]
    hard = int(rng.integers(0, size)) if rng.random() < 0.3 else -1
    lines = []
    for j, name in enumerate(names):
        if rng.random() < 0.15:
            antecedent = "t"
            consequent = _formula(rng, names, (" | ",), 2, anchor=name)
        else:
            antecedent = _formula(rng, names, (" & ",), 2, anchor=name)
            consequent = _formula(rng, names, (" | ",), 2)
        threshold = "inf" if j == hard else str(int(rng.integers(1, 4)))
        lines.append(f"{antecedent} => {consequent} @ {threshold}")
    if rng.random() < 0.25:
        name = names[int(rng.integers(0, size))]
        k = int(rng.integers(1, 3))
        lines += [f"t => {name} @ {k}", f"t => ~{name} @ {k}"]
    queries = []
    for _ in range(QUERIES_PER_KB):
        gamma = "t" if rng.random() < 0.2 else _formula(rng, names, (" & ",), 2)
        queries.append(f"{gamma} => {_formula(rng, names)} @ {int(rng.integers(1, 4))}")
    return {"size": size, "text": "".join(line + "\n" for line in lines), "queries": queries}


def symbolic_inputs(seed: int) -> dict:
    rng = _rng(seed, "symbolic")
    return {"kbs": [symbolic_kb(rng, size) for size in SYMBOLIC_SIZES]}


def check_threshold_agreement(batch: Batch, profile, query, best, where: str) -> None:
    """entails_in_probability at j = max and j = max + 1 must agree with
    max_entailed_threshold (at j = 1 and j = inf when max is None or inf)."""
    gamma, zeta = query.antecedent, query.consequent
    if best is None:
        probes = [(1, False)]
    elif best == tg.INFINITY:
        probes = [(tg.INFINITY, True)]
    else:
        probes = [(best, True), (best + 1, False)]
    for j, expected in probes:
        got = profile.entails_in_probability(tg.Generalization(gamma, zeta, j))
        batch.check(got == expected, f"{where}: entails at j={j} is {got}, max is {best}")


def _zplus_round_trip(batch, tracer, kb, profile, answered, where):
    """to_zplus -> text -> load_defaults -> zplus_consequence must repeat
    the direct answers, for queries whose side conditions hold."""
    if any(rule.threshold == tg.INFINITY for rule in kb.rules):
        return
    eligible = []
    for text, query, entailed, _ in answered[:ZPLUS_QUERIES]:
        try:
            tg.check_side_conditions(profile, query.antecedent, query.consequent)
        except tg.SideConditionError:
            continue
        eligible.append((text, entailed))
    if not eligible:
        return
    start = time.perf_counter()
    with tracer.span("zplus.roundtrip"):
        rules_text = tg.format_defaults(tg.to_zplus(kb))
        rules, signature = tg.load_defaults(rules_text, extra_names=kb.signature.names)
        answers = []
        for text, _ in eligible:
            query = tg.parse_query(text, signature)
            answers.append(
                tg.zplus_consequence(
                    rules, query.antecedent, query.consequent, query.threshold - 1
                )
            )
        back = tg.format_kb(tg.from_zplus(rules, signature))
    batch.time("zplus_ms", time.perf_counter() - start)
    batch.check(back == tg.format_kb(kb), f"{where}: zplus round trip changed the rules")
    for (text, entailed), got in zip(eligible, answers):
        batch.check(got == entailed, f"{where}: zplus answers {got} for {text!r}")
        batch.records.append(f"z:{int(got)}")


def _depthmap(batch, tracer, path, profile, answered, where):
    buffer = io.StringIO()
    start = time.perf_counter()
    with tracer.span("cli.depthmap"), redirect_stdout(buffer):
        code = cli.main(["depthmap", "--kb", path, "--format", "kv"])
    batch.time("depthmap_ms", time.perf_counter() - start)
    if not batch.check(code == 0, f"{where}: depthmap exited {code}"):
        return
    record = cli.parse_kv(buffer.getvalue())
    depths = [
        math.inf if record[f"atom_{i}"] == "inf" else int(record[f"atom_{i}"])
        for i in range(profile.kb.signature.atom_count)
    ]
    # A proposition's depth is the least depth of its atoms.
    for text, query, _, _ in answered[:3]:
        gamma = query.antecedent
        least = min((depths[i] for i in gamma.atoms()), default=math.inf)
        batch.check(
            least == profile.depth_of(gamma),
            f"{where}: depthmap disagrees with depth_of for {text!r}",
        )
    batch.records.append("d:" + hashlib.sha256(buffer.getvalue().encode()).hexdigest()[:16])


def run_symbolic(inputs, tracer) -> Batch:
    batch = Batch()
    for index, entry in enumerate(inputs["kbs"]):
        where = f"kb {index} ({entry['size']} names)"
        tracer.operation = index
        first, *rest = entry["queries"]
        start = time.perf_counter()
        kb = tg.load_kb(entry["text"])
        profile = tg.compile_kb(kb)
        query = tg.parse_query(first, kb.signature)
        entailed = profile.entails_in_probability(query)
        best = profile.max_entailed_threshold(query.antecedent, query.consequent)
        batch.time("kb_answer_ms", time.perf_counter() - start)
        batch.records.append(f"k:{index}:{int(profile.is_consistent())}:{profile.fixpoint}")
        answered = [(first, query, entailed, best)]
        for text in rest:
            start = time.perf_counter()
            with tracer.span("logic.parse"):
                query = tg.parse_query(text, kb.signature)
            with tracer.span("depth.entails"):
                entailed = profile.entails_in_probability(query)
            with tracer.span("depth.max_threshold"):
                best = profile.max_entailed_threshold(query.antecedent, query.consequent)
            batch.time("query_us", time.perf_counter() - start)
            answered.append((text, query, entailed, best))
        for text, query, entailed, best in answered:
            batch.check(
                entailed == (best is not None and query.threshold <= best)
                and (profile.is_consistent() or entailed),
                f"{where}: {text!r} entailed={entailed} but max={best}",
            )
            check_threshold_agreement(batch, profile, query, best, where)
            batch.records.append(f"q:{int(entailed)}:{tg.depth_text(best) if best else '-'}")
        if entry["size"] <= ZPLUS_MAX_NAMES:
            _zplus_round_trip(batch, tracer, kb, profile, answered, where)
        if entry["size"] <= DEPTHMAP_MAX_NAMES:
            _depthmap(batch, tracer, entry["path"], profile, answered, where)
    return batch


def answers_digest(records) -> str:
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


# -- numerical route ----------------------------------------------------------


def _rename(text: str, mapping: dict) -> str:
    return re.sub(r"[A-Za-z_]\w*", lambda m: mapping.get(m.group(), m.group()), text)


def _verdict_job(text, gamma_zeta, j_offset, sampler_seed):
    """One verdict input. The expected verdict comes from the symbolic
    route: j = max supports, j = max + 1 refutes."""
    kb = tg.load_kb(text)
    gamma_text, zeta_text = gamma_zeta.split(" => ")
    gamma = tg.parse(gamma_text, kb.signature)
    zeta = tg.parse(zeta_text, kb.signature)
    best = tg.compile_kb(kb).max_entailed_threshold(gamma, zeta)
    if best is None or best == tg.INFINITY:
        raise ValueError(f"no finite threshold to probe for {gamma_zeta!r} in {text!r}")
    return {
        "text": text,
        "query": f"{gamma_zeta} @ {best + j_offset}",
        "expected": "supports" if j_offset == 0 else "refutes",
        "seed": sampler_seed,
    }


def shared_inputs(seed: int) -> dict:
    """One 2-name and one 3-name KB. Each gets two queries, both probed at
    j = max and j = max + 1, and all four share the parameters, grid,
    sample size and sampler seed."""
    rng = _rng(seed, "validate-shared")
    jobs = []
    for size, templates in SHARED_TEMPLATES.items():
        text, queries = templates[int(rng.integers(0, len(templates)))]
        mapping = dict(zip("abc", rng.permutation(NAME_POOL)[:size]))
        lines = text.splitlines()
        text = "".join(_rename(lines[i], mapping) + "\n" for i in rng.permutation(len(lines)))
        sampler_seed = int(rng.integers(0, 2**31))
        for pick in rng.permutation(len(queries))[:2]:
            query = _rename(queries[pick], mapping)
            jobs += [_verdict_job(text, query, offset, sampler_seed) for offset in (0, 1)]
    return {"jobs": jobs, "samples": SHARED_SAMPLES, "burn_in": SHARED_BURN_IN}


def wide_kb(rng, size: int) -> tuple[str, str]:
    """Facts t => (~)x @ k on every name, k shared, in shuffled order; the
    query restates one of them."""
    names = [f"x{j}" for j in rng.permutation(size)]
    k = int(rng.integers(1, 3))
    literals = [_literal(rng, name) for name in names]
    text = "".join(f"t => {literal} @ {k}\n" for literal in literals)
    return text, f"t => {literals[int(rng.integers(0, size))]}"


def wide_inputs(seed: int) -> dict:
    """One query per KB; no two queries share a KB."""
    rng = _rng(seed, "validate-wide")
    offsets = rng.permutation([i % 2 for i in range(len(WIDE_SIZES))])
    jobs = []
    for size, offset in zip(WIDE_SIZES, offsets):
        text, query = wide_kb(rng, size)
        jobs.append(_verdict_job(text, query, int(offset), int(rng.integers(0, 2**31))))
    return {"jobs": jobs, "samples": WIDE_SAMPLES, "burn_in": WIDE_BURN_IN}


def verdict_params(kb) -> tg.ParameterAssignment:
    return tg.ParameterAssignment(psi=(1.0,) * kb.size, delta=DELTA_GRID[0], eta=ETA)


def check_verdict(batch: Batch, report, expected: str, where: str) -> None:
    batch.check(
        report.verdict == expected,
        f"{where}: verdict {report.verdict}, expected {expected}"
        f" (exponents {', '.join(f'{e:.3f}' for e in report.exponents)})",
    )


def run_validate(inputs, tracer, probe=None) -> Batch:
    """One verdict per job. With a probe, each verdict is followed by two
    calibration probes, kept in batch.calibrated."""
    batch = Batch()
    for index, job in enumerate(inputs["jobs"]):
        tracer.operation = index
        kb = tg.load_kb(job["text"])
        query = tg.parse_query(job["query"], kb.signature)
        start = time.perf_counter()
        with tracer.span("sampling.scaling_verdict"):
            report = tg.scaling_verdict(
                kb,
                query,
                DELTA_GRID,
                verdict_params(kb),
                n=inputs["samples"],
                seed=job["seed"],
                burn_in=inputs["burn_in"],
            )
        seconds = time.perf_counter() - start
        batch.time("verdict_s", seconds)
        if probe is not None:
            batch.calibrated.append((seconds, min(probe(), probe())))
        check_verdict(batch, report, job["expected"], f"job {index} {job['query']!r}")
        batch.records.append(f"v:{report.verdict}")
    return batch


def check_points(batch: Batch, system, points, where: str) -> None:
    worst = tg.max_violation(system, points)
    batch.check(worst <= VIOLATION_LIMIT, f"{where}: sampled point violates by {worst:.3g}")


def batch_mean_se(values, batches=100):
    """Standard error of a correlated sequence's mean, from batch means."""
    usable = len(values) - len(values) % batches
    means = values[:usable].reshape(batches, -1).mean(axis=1)
    return means.std(ddof=1) / np.sqrt(batches)


def sampling_gates(inputs, seed: int) -> Batch:
    """Points sampled here must lie in their polytope, and on empty-KB
    polytopes of 1-2 names every column mean must lie within 6 batch-mean
    standard errors of 1/2**r."""
    batch = Batch()
    for index, text in enumerate(dict.fromkeys(job["text"] for job in inputs["jobs"])):
        kb = tg.load_kb(text)
        for delta in (DELTA_GRID[0], DELTA_GRID[-1]):
            params = tg.ParameterAssignment(psi=(1.0,) * kb.size, delta=delta, eta=ETA)
            system = tg.build_polytope(kb, params)
            sample = tg.sample_uniform(system, 500, burn_in=100, seed=seed + index)
            check_points(batch, system, sample.points, f"kb {index} at delta {delta}")
    for r in (1, 2):
        signature = tg.Signature(("a", "b")[:r])
        system = tg.build_polytope(
            tg.KnowledgeBase(signature, ()), tg.ParameterAssignment(psi=(), delta=0.5)
        )
        points = tg.sample_uniform(system, CALIBRATION_SAMPLES, seed=seed + 70 + r).points
        check_points(batch, system, points, f"empty KB of {r} names")
        target = 1.0 / signature.atom_count
        for column in range(signature.atom_count):
            gap = abs(points[:, column].mean() - target)
            se = max(batch_mean_se(points[:, column]), 1e-15)
            batch.check(
                gap <= CALIBRATION_SE_LIMIT * se,
                f"calibration: {r} names, column {column} mean is {gap / se:.1f} SE off",
            )
    return batch


# -- cold command line ---------------------------------------------------------

CLI_QUERIES = 4
CLI_DEPTHMAPS = 2
# Runs the command line as `python -m threshgen.cli` does (runpy), then
# times the calibration probe in the same interpreter. The last line of
# standard error is "<seconds of the command> <fastest probe seconds>
# <seconds spent probing>".
CLI_RUNNER = """
import runpy, sys, time
start = time.perf_counter()
try:
    runpy.run_module("threshgen.cli", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as stop:
    code = stop.code
seconds = time.perf_counter() - start
sys.stdout.flush()
sys.path.insert(0, %r)
from run import calibration_probe
probes = [calibration_probe() for _ in range(2)]
print(seconds, min(probes), time.perf_counter() - start - seconds, file=sys.stderr)
sys.exit(code)
""" % os.path.dirname(os.path.abspath(__file__))


def cli_inputs(seed: int) -> dict:
    """Small rule files (3-4 names); the symbolic route gives each
    query's exit code and each depthmap's kv output in advance."""
    rng = _rng(seed, "cli")
    files = []
    for index in range(CLI_QUERIES):
        entry = symbolic_kb(rng, 3 + index % 2)
        files.append({"text": entry["text"], "query": entry["queries"][0]})
    for index in range(CLI_DEPTHMAPS):
        files.append({"text": symbolic_kb(rng, 3 + index % 2)["text"], "query": None})
    return {"files": files}


def expected_cli_output(entry) -> tuple[int, str]:
    """In-process answer of the command a cli job runs: exit code, stdout."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(cli_arguments(entry))
    return code, buffer.getvalue()


def cli_arguments(entry) -> list[str]:
    if entry["query"] is None:
        return ["depthmap", "--kb", entry["path"], "--format", "kv"]
    return ["query", "--kb", entry["path"], "--format", "kv", entry["query"]]


def run_cli(inputs, tracer, env) -> Batch:
    batch = Batch()
    for index, entry in enumerate(inputs["files"]):
        tracer.operation = index
        kind = "cli_depthmap_ms" if entry["query"] is None else "cli_query_ms"
        start = time.perf_counter()
        with tracer.span("cli.subprocess"):
            done = subprocess.run(
                [sys.executable, "-c", CLI_RUNNER, *cli_arguments(entry)],
                capture_output=True,
                text=True,
                env=env,
                timeout=60,
            )
        wall = time.perf_counter() - start
        *_, last = done.stderr.splitlines() or [""]
        seconds, probe, probing = (float(part) for part in last.split())
        batch.time(kind, wall - probing)
        batch.calibrated.append((seconds, probe))
        code, stdout = entry["expected"]
        batch.check(
            done.returncode == code and done.stdout == stdout,
            f"cli job {index}: exit {done.returncode} (expected {code});"
            f" stderr {done.stderr.strip()[-200:]!r}",
        )
        batch.records.append(f"c:{done.returncode}")
    return batch


def write_rule_files(inputs: dict, directory: str, entries_key: str) -> None:
    """Give every entry a rule file on disk; the CLI reads only files."""
    for index, entry in enumerate(inputs[entries_key]):
        path = os.path.join(directory, f"{entries_key}-{index}.rules")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(entry["text"])
        entry["path"] = path




def trace_points(tracer):
    """Wrappers for a traced batch, as (owner, attribute, factory) triples.

    Functions are wrapped where the caller looks them up: the package
    namespace for the benchmark's own calls, and each module's globals for
    the calls threshgen makes internally. Together with the benchmark's own
    spans they cover every layer a batch reaches.
    """
    from threshgen import polytope, rulefile, sampling, zplus

    counts = tracer.counts

    def span(name, on_result=None):
        return lambda function: tracer.wrapper(name, function, on_result)

    def add(name):
        def on_result(args, kwargs, result):
            counts[name] += 1

        return on_result

    def chain_steps(args, kwargs, profile):
        # compile_kb extends the chain until depth fixpoint + window.
        counts["depth.chain_steps"] += profile.fixpoint + profile.window

    def walk_steps(args, kwargs, sample):
        counts["sampling.sample_calls"] += 1
        if not sample.degenerate:
            bound = inspect.signature(tg.sample_uniform).bind(*args, **kwargs)
            bound.apply_defaults()
            counts["walk.steps"] += bound.arguments["n"] + bound.arguments["burn_in"]

    compile_span = span("depth.compile_kb", chain_steps)
    return [
        (tg.Signature, "name_mask", span("logic.name_mask")),
        (rulefile, "parse", span("logic.parse_fragment")),
        (tg, "load_kb", span("rulefile.load_kb")),
        (cli, "load_kb", span("rulefile.load_kb")),
        (tg, "compile_kb", compile_span),
        (cli, "compile_kb", compile_span),
        (zplus, "compile_kb", compile_span),
        (sampling, "build_polytope", span("polytope.build", add("polytope.build_calls"))),
        (sampling, "is_feasible", span("polytope.feasible")),
        (sampling, "sample_uniform", span("sampling.sample_uniform", walk_steps)),
        (sampling, "exception_rate", span("sampling.quantile")),
        (sampling, "empirical_quantile", span("sampling.quantile")),
        (sampling, "linprog", span("lp.linprog", add("lp.solves"))),
        (polytope, "linprog", span("lp.linprog", add("lp.solves"))),
    ]
