"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They check that a seed fixes the generated workload, that the correctness
gates catch a flipped verdict, a wrong symbolic answer and a point outside
its polytope, that self times add up, and that the printed metric names
are the ones BENCHMARK.json declares.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import run  # noqa: E402
import threshgen as tg  # noqa: E402
import tracing  # noqa: E402
import workloads as w  # noqa: E402

GENERATORS = (w.symbolic_inputs, w.shared_inputs, w.wide_inputs, w.cli_inputs)


def declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_a_seed_fixes_the_workload():
    for generate in GENERATORS:
        assert generate(7) == generate(7)
        assert generate(7) != generate(8)


def test_workload_sizes_do_not_depend_on_the_seed():
    for seed in (0, 1, 2):
        assert [kb["size"] for kb in w.symbolic_inputs(seed)["kbs"]] == list(w.SYMBOLIC_SIZES)
        sizes = [tg.load_kb(job["text"]).signature.size for job in w.wide_inputs(seed)["jobs"]]
        assert sizes == list(w.WIDE_SIZES)
        shared = w.shared_inputs(seed)["jobs"]
        assert len(shared) == 8
        assert sorted(job["expected"] for job in shared) == ["refutes"] * 4 + ["supports"] * 4


def test_flipped_verdict_is_caught():
    kb = tg.load_kb("t => a @ 1\n")
    query = tg.parse_query("t => a @ 1", kb.signature)
    report = tg.scaling_verdict(
        kb, query, w.DELTA_GRID, w.verdict_params(kb), n=400, burn_in=100, seed=3
    )
    assert report.verdict == "supports"
    batch = w.Batch()
    w.check_verdict(batch, report, "supports", "right")
    assert batch.failures == []
    w.check_verdict(batch, report, "refutes", "flipped")
    assert batch.attempted == 2 and len(batch.failures) == 1


def test_out_of_polytope_point_is_caught():
    kb = tg.load_kb("t => a @ 1\n")
    system = tg.build_polytope(kb, w.verdict_params(kb))
    batch = w.Batch()
    inside = tg.sample_uniform(system, 50, burn_in=10, seed=1).points
    w.check_points(batch, system, inside, "sampled")
    assert batch.failures == []
    # Atom 0 is ~a: mass 0.5 there breaks pi(~a) <= 0.1.
    w.check_points(batch, system, np.array([[0.5, 0.5]]), "outside")
    assert len(batch.failures) == 1


def test_wrong_symbolic_answer_is_caught():
    kb = tg.load_kb("t => a @ 1\n~a => b @ 1\n")
    profile = tg.compile_kb(kb)
    query = tg.parse_query("t => a | b @ 1", kb.signature)
    batch = w.Batch()
    w.check_threshold_agreement(batch, profile, query, 2, "right")
    assert batch.failures == []
    w.check_threshold_agreement(batch, profile, query, 3, "wrong")
    assert batch.failures


def test_self_times_add_up_to_the_root():
    tracer = tracing.Tracer()
    with tracer.span("bench.batch"):
        with tracer.span("depth.compile_kb"):
            with tracer.span("logic.name_mask"):
                sum(range(1000))
        with tracer.span("lp.linprog"):
            sum(range(1000))
    root = tracing.inclusive(tracer.spans, "bench.batch", 0, len(tracer.spans))[0]
    layers = tracing.self_times(tracer.spans, 0, len(tracer.spans))
    assert set(layers) == {"bench", "depth", "logic", "lp"}
    assert abs(sum(layers.values()) - root) < 1e-9


def test_declared_metrics_are_the_ones_computed():
    spec = declared()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"])
    assert [entry["name"] for entry in spec["workloads"]] == list(run.WORKLOADS)


def _run(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_printed_metric_names_match_benchmark_json():
    spec = declared()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = _run(ROOT, trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        expected = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_cli_jobs_compare_against_in_process_output(tmp_path):
    inputs = w.cli_inputs(2)
    w.write_rule_files(inputs, str(tmp_path), "files")
    entry = inputs["files"][0]
    code, stdout = w.expected_cli_output(entry)
    assert code in (0, 3) and stdout.startswith("verdict=")
