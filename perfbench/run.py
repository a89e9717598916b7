"""Run one workload of the threshgen benchmark and print its metrics.

    python3 perfbench/run.py --workload symbolic --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from
src/ there, never from an installed copy, and nothing is built. With
--trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics named in BENCHMARK.json; with --trace 1 it holds the
per-layer metrics, and the spans are written to
.perfbench_out/trace-<workload>-<seed>.json. The line before it is the
run's metadata. A failed check prints what failed to standard error and
gives exit code 1; a checkout without the package gives exit code 2.
README.md in this directory explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUTPUT = ROOT / ".perfbench_out"

WORKLOADS = ("symbolic", "validate-shared", "validate-wide", "cli")
SETUP_REPEATS = 3
IMPORT_PROBES = 5
WALK_FIT_STEPS = (500, 4000)
WALK_FIT_REPEATS = 3
IN_PROCESS_REPEATS = 5
# The fastest calibration_probe() time on the reference machine (2-core
# x86_64 VM, Python 3.11, NumPy 2.4). End-to-end times are reported in
# seconds of that machine at that speed; see reference_seconds.
PROBE_REFERENCE_S = 0.025
# One thread per BLAS pool keeps the run steady on a shared 2-core box.
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LAYERS = ("bench", "logic", "rulefile", "depth", "zplus", "polytope", "sampling", "lp", "cli")

END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
WORKLOAD_LATENCIES = (
    ("kb_answer_ms.p50", "kb_answer_ms", 50, 1e3),
    ("query_us.p50", "query_us", 50, 1e6),
    ("query_us.p99", "query_us", 99, 1e6),
    ("depthmap_ms.p50", "depthmap_ms", 50, 1e3),
    ("verdict_s.p50", "verdict_s", 50, 1.0),
    ("cli_query_ms.p50", "cli_query_ms", 50, 1e3),
    ("cli_depthmap_ms.p50", "cli_depthmap_ms", 50, 1e3),
)
# Per traced batch: (metric, spans summed, scale) and exact counters.
SPAN_SUMS = (
    ("logic.name_masks_ms", "logic.name_mask", 1e3),
    ("rulefile.load_kb_ms", "rulefile.load_kb", 1e3),
    ("depth.compile_kb_ms", "depth.compile_kb", 1e3),
    ("zplus.roundtrip_ms", "zplus.roundtrip", 1e3),
    ("polytope.build_ms", "polytope.build", 1e3),
    ("polytope.feasible_ms", "polytope.feasible", 1e3),
    ("lp.ms", "lp.linprog", 1e3),
    ("sampling.quantile_ms", "sampling.quantile", 1e3),
)
SPAN_MEDIANS = (
    ("logic.parse_us", "logic.parse", 1e6),
    ("depth.entails_us", "depth.entails", 1e6),
    ("depth.max_threshold_us", "depth.max_threshold", 1e6),
)
COUNTS = (
    "depth.chain_steps",
    "polytope.build_calls",
    "lp.solves",
    "sampling.sample_calls",
    "walk.steps",
)
UNITS = {"s": "s", "ms": "ms", "us": "us", "mb": "MB"}


def unit_of(name: str) -> str:
    if name in COUNTS:
        return "count"
    if name == "walk.steps_per_s":
        return "1/s"
    if name == "failed_share":
        return "share"
    if name.startswith("self_ms."):
        return "ms"
    return UNITS[re.split(r"[._]", re.sub(r"\.p\d+$", "", name))[-1]]


def per_layer_names() -> list[str]:
    names = [name for name, *_ in WORKLOAD_LATENCIES]
    names += [name for name, *_ in SPAN_SUMS + SPAN_MEDIANS]
    names += list(COUNTS)
    names += ["depth.depthmap_ms", "walk.steps_per_s", "sampling.fixed_ms"]
    names += ["cli.import_ms", "cli.overhead_ms", "trace.overhead_s", "failed_share"]
    names += [f"self_ms.{layer}" for layer in LAYERS]
    return names


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: int) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(len(ordered) * q / 100))])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE), env.get("PYTHONPATH")]))
    return env


def cold_import_seconds(env) -> tuple[float, float]:
    """`import threshgen` timed inside a fresh interpreter, and the fastest
    of three calibration probes run in that interpreter right after it."""
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, time; t = time.perf_counter(); import threshgen;"
            " t = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]);"
            " from run import calibration_probe;"
            " print(t, min(calibration_probe() for _ in range(3)))",
            str(HERE),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    )
    seconds, probe = done.stdout.split()
    return float(seconds), float(probe)


def metadata(args, tg) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SOURCE / "threshgen").glob("*.py*")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    backend = getattr(tg, "kernel_backend", None)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel": backend() if backend else "unknown",
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARIABLES},
        "machine": platform.machine(),
    }


class Runner:
    """Set-up, batches and gates of one workload in this process."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        import tracing
        import workloads

        self.w = workloads
        self.tracing = tracing
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = child_env()
        self.inputs = None

    # -- set-up -----------------------------------------------------------

    def make_inputs(self):
        w = self.w
        if self.workload == "symbolic":
            inputs = w.symbolic_inputs(self.seed)
            w.write_rule_files(inputs, str(self.workdir), "kbs")
        elif self.workload == "validate-shared":
            inputs = w.shared_inputs(self.seed)
        elif self.workload == "validate-wide":
            inputs = w.wide_inputs(self.seed)
        else:
            inputs = w.cli_inputs(self.seed)
            w.write_rule_files(inputs, str(self.workdir), "files")
            for entry in inputs["files"]:
                entry["expected"] = w.expected_cli_output(entry)
        return inputs

    def warm_up(self, inputs) -> None:
        """Run the code paths once on a small input, untimed."""
        w = self.w
        if self.workload == "symbolic":
            self.run_batch({"kbs": inputs["kbs"][:1]}, self.tracing.NullTracer())
        elif self.workload.startswith("validate"):
            job = inputs["jobs"][0]
            kb = w.tg.load_kb(job["text"])
            query = w.tg.parse_query(job["query"], kb.signature)
            w.tg.scaling_verdict(
                kb, query, w.DELTA_GRID, w.verdict_params(kb), n=50, burn_in=10, seed=0
            )
        # The cold-import probes of set_up already warm the cli workload.

    def set_up(self) -> tuple[list[tuple[float, float]], list[float]]:
        """Cold imports (time, probe), and times of input generation plus
        warm-up."""
        imports = [cold_import_seconds(self.env) for _ in range(IMPORT_PROBES)]
        prepare = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            inputs = self.make_inputs()
            self.warm_up(inputs)
            prepare.append(time.perf_counter() - start)
            self.inputs = inputs
        return imports, prepare

    # -- batches ----------------------------------------------------------

    def run_batch(self, inputs, tracer, probe=None):
        w = self.w
        if self.workload == "symbolic":
            return w.run_symbolic(inputs, tracer)
        if self.workload == "cli":
            return w.run_cli(inputs, tracer, self.env)
        return w.run_validate(inputs, tracer, probe)

    def timed_batch(self, tracer, probe=None):
        start = time.perf_counter()
        with tracer.span("bench.batch"):
            batch = self.run_batch(self.inputs, tracer, probe)
        batch.wall_s = time.perf_counter() - start
        return batch

    def traced_batch(self, tracer):
        first = len(tracer.spans)
        counts_before = dict(tracer.counts)
        with self.tracing.patched(self.w.trace_points(tracer)):
            batch = self.timed_batch(tracer)
        counts = {k: tracer.counts[k] - counts_before.get(k, 0) for k in COUNTS}
        return batch, first, counts

    # -- per-layer extras ---------------------------------------------------

    def walk_fit(self) -> tuple[float, float]:
        """Steps/s (slope) and fixed cost in ms (intercept) of
        sample_uniform between two sample sizes, on the batch's largest
        polytope at the first grid delta."""
        tg = self.w.tg
        kbs = [tg.load_kb(job["text"]) for job in self.inputs["jobs"]]
        kb = max(kbs, key=lambda kb: kb.signature.size)
        system = tg.build_polytope(kb, self.w.verdict_params(kb))
        times = {steps: [] for steps in WALK_FIT_STEPS}
        for repeat in range(WALK_FIT_REPEATS):
            for steps in WALK_FIT_STEPS:
                start = time.perf_counter()
                tg.sample_uniform(system, steps, burn_in=0, seed=self.seed + repeat)
                times[steps].append(time.perf_counter() - start)
        low, high = WALK_FIT_STEPS
        per_step = (median(times[high]) - median(times[low])) / (high - low)
        fixed = median(times[low]) - low * per_step
        return (1.0 / per_step if per_step > 0 else 0.0), fixed * 1e3

    def in_process_query_ms(self) -> float:
        entry = next(e for e in self.inputs["files"] if e["query"] is not None)
        times = []
        for _ in range(IN_PROCESS_REPEATS):
            start = time.perf_counter()
            self.w.expected_cli_output(entry)
            times.append(time.perf_counter() - start)
        return median(times) * 1e3

    def gates(self):
        if self.workload.startswith("validate"):
            return self.w.sampling_gates(self.inputs, self.seed)
        return None


def calibration_probe() -> float:
    """Seconds taken by a fixed piece of work that does not use threshgen:
    small-array NumPy arithmetic, big-int bit operations and plain
    bytecode, the three kinds of work threshgen's layers do."""
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(0)
    rows, rhs, point = rng.standard_normal((12, 7)), np.ones(12), np.zeros(7)
    for _ in range(1500):
        direction = rng.standard_normal(7)
        along = rows @ (direction / np.sqrt(direction @ direction))
        bounds = (rhs - rows @ point) / along
        np.min(bounds[along > 0], initial=np.inf)
        np.max(bounds[along < 0], initial=-np.inf)
    full = (1 << 200_000) - 1
    mask = full
    for _ in range(200):
        mask = (mask >> 1) ^ (mask << 3) & full
    total = 0
    for i in range(100_000):
        total += i & 7
    return time.perf_counter() - start


def fastest_ops(batches) -> float:
    """Sum over a batch's operations of each one's fastest time in the run."""
    return sum(
        sum(min(values) for values in zip(*(batch.latencies[kind] for batch in batches)))
        for kind in batches[0].latencies
    )


def reference_seconds(seconds: float, probes) -> float:
    """seconds measured in this run, converted to the reference machine
    with the fastest of the calibration probes timed alongside them.

    The host this benchmark was built on switches between a fast and a
    slow state, about 1.5x apart, every few seconds to minutes, because
    other tenants share it. A probe timed next to the work sees the state
    the work saw. README.md gives the figures.
    """
    return seconds * PROBE_REFERENCE_S / min(probes)


def collect(batches):
    latencies = {}
    for batch in batches:
        for kind, values in batch.latencies.items():
            latencies.setdefault(kind, []).extend(values)
    return latencies


def check_repeatable(batches, seed, workload, w, failures) -> None:
    digests = {w.answers_digest(batch.records) for batch in batches}
    if len(digests) > 1:
        failures.append("answers differ between batches of one run")
    if workload == "symbolic" and seed == w.DEFAULT_SEED:
        digest = w.answers_digest(batches[0].records)
        if digest != w.SYMBOLIC_DIGEST:
            failures.append(f"symbolic answers digest {digest} != recorded {w.SYMBOLIC_DIGEST}")


def measure(args) -> tuple[dict | None, dict, list[str], int]:
    """Returns (metrics, metadata, failures, attempted); metrics is None
    when an exception stopped the first batch."""
    import_start = time.perf_counter()
    import threshgen as tg

    if Path(tg.__file__).resolve().parent != SOURCE / "threshgen":
        raise SystemExit(f"threshgen was imported from {tg.__file__}, not from {SOURCE}")
    in_process_import = time.perf_counter() - import_start
    import tracing

    meta = metadata(args, tg)
    workdir = OUTPUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, workdir)
        imports, prepare = runner.set_up()
        meta["in_process_import_s"] = in_process_import

        # Exceptions and run-level checks; each counts as a failed operation.
        untraced, traced, run_failures, probes = [], [], [], []
        tracer = tracing.Tracer()
        deadline = time.perf_counter() + args.seconds
        gate = None
        try:
            while True:
                probes += [calibration_probe() for _ in range(2)]
                untraced.append(runner.timed_batch(tracing.NullTracer(), calibration_probe))
                if args.trace:
                    traced.append(runner.traced_batch(tracer))
                round_s = untraced[-1].wall_s + (traced[-1][0].wall_s if args.trace else 0.0)
                if time.perf_counter() + round_s > deadline and len(untraced) >= 2:
                    break
            gate = runner.gates()
        except Exception:  # an exception from threshgen is a failed operation
            run_failures.append(traceback.format_exc())
        if not untraced or (args.trace and not traced):
            return None, meta, run_failures, len(run_failures)

        batches = untraced + [batch for batch, _, _ in traced]
        check_repeatable(batches, args.seed, args.workload, runner.w, run_failures)
        if gate is not None:
            batches.append(gate)
        failures = run_failures + [message for batch in batches for message in batch.failures]
        attempted = sum(batch.attempted for batch in batches) + len(run_failures)

        latencies = collect(untraced)
        walls = [batch.wall_s for batch in untraced]
        meta["batches"] = len(untraced)
        meta["batch_walls_s"] = [round(wall, 4) for wall in walls]
        meta["probe_s"] = [round(probe, 5) for probe in probes]
        meta["wall_median_s"] = median(walls)
        meta["fastest_ops_s"] = fastest_ops(untraced)
        meta["cold_imports_s_and_probe_s"] = imports
        meta["setup_median_s"] = median([seconds for seconds, _ in imports]) + median(prepare)
        meta["operations_per_batch"] = untraced[0].attempted
        meta["latency_samples"] = {kind: len(values) for kind, values in latencies.items()}
        if not args.trace:
            rusage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            if untraced[0].calibrated:
                # Coarse operations carry their own probe (validate, cli).
                per_op = zip(*(batch.calibrated for batch in untraced))
                wall = sum(median([reference_seconds(s, [p]) for s, p in op]) for op in per_op)
            else:
                wall = reference_seconds(fastest_ops(untraced), probes)
            metrics = {
                "setup_s": median([reference_seconds(s, [p]) for s, p in imports])
                + reference_seconds(min(prepare), probes),
                "wall_s": wall,
                "peak_rss_mb": resource.getrusage(rusage).ru_maxrss / 1024.0,
            }
        else:
            metrics = layer_metrics(runner, tracer, traced, untraced, latencies, imports, meta)
            metrics["failed_share"] = len(failures) / max(attempted, 1)
            trace_path = OUTPUT / f"trace-{args.workload}-{args.seed}.json"
            with open(trace_path, "w", encoding="utf-8") as handle:
                json.dump({"meta": meta, "spans": tracer.records()}, handle)
            meta["trace_file"] = str(trace_path.relative_to(ROOT))
        return metrics, meta, failures, attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def layer_metrics(runner, tracer, traced, untraced, latencies, imports, meta) -> dict:
    tracing = runner.tracing
    spans = tracer.spans
    ends = [first for _, first, _ in traced[1:]] + [len(spans)]
    per_batch = []
    for (batch, first, counts), end in zip(traced, ends):
        row = {
            name: sum(tracing.inclusive(spans, span, first, end)) * scale
            for name, span, scale in SPAN_SUMS
        }
        for name, span, scale in SPAN_MEDIANS:
            row[name] = median(tracing.inclusive(spans, span, first, end)) * scale
        row.update(counts)
        own = tracing.self_times(spans, first, end, by_name=True)
        row["depth.depthmap_ms"] = own.get("cli.depthmap", 0.0) * 1e3
        layers = tracing.self_times(spans, first, end)
        for layer in LAYERS:
            row[f"self_ms.{layer}"] = layers.get(layer, 0.0) * 1e3
        row["wall_s"] = batch.wall_s
        per_batch.append(row)
    metrics = {}
    for name, kind, q, scale in WORKLOAD_LATENCIES:
        metrics[name] = percentile(latencies.get(kind, []), q) * scale
    for name in per_batch[0]:
        if name != "wall_s":
            metrics[name] = median([row[name] for row in per_batch])
    for name in COUNTS:
        metrics[name] = int(metrics[name])
    if runner.workload.startswith("validate"):
        metrics["walk.steps_per_s"], metrics["sampling.fixed_ms"] = runner.walk_fit()
    else:
        metrics["walk.steps_per_s"], metrics["sampling.fixed_ms"] = 0.0, 0.0
    metrics["cli.import_ms"] = median([seconds for seconds, _ in imports]) * 1e3
    metrics["cli.overhead_ms"] = (
        metrics["cli_query_ms.p50"] - runner.in_process_query_ms()
        if runner.workload == "cli"
        else 0.0
    )
    metrics["trace.overhead_s"] = fastest_ops([batch for batch, _, _ in traced]) - fastest_ops(
        untraced
    )
    # The self times of a traced batch sum to its root span, which is the
    # batch's wall time up to the clock reads around it.
    meta["traced_walls_s"] = [round(row["wall_s"], 4) for row in per_batch]
    meta["self_time_share_of_traced_wall"] = [
        round(sum(row[f"self_ms.{layer}"] for layer in LAYERS) / (row["wall_s"] * 1e3), 6)
        for row in per_batch
    ]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind normally: subprocess.run kills and reaps its child
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SOURCE / "threshgen" / "__init__.py").is_file():
        print(f"error: no threshgen package under {SOURCE}", file=sys.stderr)
        return 2
    for name in BLAS_VARIABLES:
        os.environ.setdefault(name, "1")
    sys.path.insert(0, str(SOURCE))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))

    metrics, meta, failures, attempted = measure(args)
    for message in failures:
        print(f"FAILED: {message}", file=sys.stderr)
    if metrics is None:
        return 1
    names = per_layer_names() if args.trace else list(END_TO_END)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit_of(name)} for name in names},
    }
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
