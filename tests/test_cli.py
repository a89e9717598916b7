"""End-to-end command-line behavior: verdicts, exit codes, kv output."""

import hashlib
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import threshgen as tg
from support import child_env, random_kb
from threshgen.cli import build_parser, main, parse_kv

TWO_RULE_TEXT = "t => a @ 1\n~a => b @ 1\n"
# An 18-name chain: t => x0, x0 => x1, ..., x16 => x17, all @ 1.
CHAIN_TEXT = "t => x0 @ 1\n" + "".join(f"x{i} => x{i + 1} @ 1\n" for i in range(17))
CONTRADICTION_TEXT = "t => a @ 1\nt => ~a @ 1\n"


@pytest.fixture
def kb_file(tmp_path):
    path = tmp_path / "kb.rules"
    path.write_text(TWO_RULE_TEXT)
    return str(path)


@pytest.fixture
def bad_kb_file(tmp_path):
    path = tmp_path / "bad.rules"
    path.write_text(CONTRADICTION_TEXT)
    return str(path)


def read_depth(text):
    return math.inf if text == "inf" else int(text)


# Every subcommand, with the positional arguments it needs.
SUBCOMMANDS = {
    "check": [],
    "query": ["t => a @ 1"],
    "rarity": ["a"],
    "depthmap": [],
    "explain": [],
    "zplus": ["to"],
    "validate": ["t => a @ 1"],
}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_subcommand_takes_kb_and_format(command, capsys):
    # --kb is required and --format is text or kv, text when not given.
    parser = build_parser()
    rest = SUBCOMMANDS[command]
    args = parser.parse_args([command, "--kb", "x.rules", *rest])
    assert (args.command, args.kb, args.format) == (command, "x.rules", "text")
    for fmt in ("text", "kv"):
        args = parser.parse_args([command, "--format", fmt, "--kb", "x.rules", *rest])
        assert (args.kb, args.format) == ("x.rules", fmt)
    for argv, message in (
        ([command, *rest], "the following arguments are required: --kb"),
        ([command, "--kb", "x.rules", "--format", "json", *rest], "argument --format: invalid choice"),
        ([command, "--kb", "x.rules", "--format", "KV", *rest], "argument --format: invalid choice"),
    ):
        with pytest.raises(SystemExit) as exit:
            parser.parse_args(argv)
        assert exit.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: threshgen {command} [-h] --kb KB [--format {{text,kv}}]")
        assert err.splitlines()[-1].startswith(f"threshgen {command}: error: {message}")


def test_parse_kv_rejects_a_line_without_equals():
    assert parse_kv("verdict=true\n\nD=3\n") == {"verdict": "true", "D": "3"}
    with pytest.raises(ValueError, match="^not a key=value line: 'verdict true'$"):
        parse_kv("D=3\nverdict true\n")


class TestCheck:
    def test_consistent(self, kb_file, capsys):
        assert main(["check", "--kb", kb_file]) == 0
        out = capsys.readouterr().out
        assert "consistent" in out
        assert "D = 3" in out

    def test_inconsistent_exit_code(self, bad_kb_file, capsys):
        assert main(["check", "--kb", bad_kb_file]) == 2
        assert "inconsistent" in capsys.readouterr().out

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.rules"
        path.write_text("# no rules\n")
        assert main(["check", "--kb", str(path)]) == 0
        out = capsys.readouterr().out
        assert "consistent" in out
        assert "D = 1" in out

    def test_kv_output(self, kb_file, capsys):
        assert main(["check", "--kb", kb_file, "--format", "kv"]) == 0
        record = parse_kv(capsys.readouterr().out)
        assert record["consistent"] == "true"
        assert record["D"] == "3"
        assert record["chain_0"] == "true"
        assert record["chain_3"] == "false"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["check", "--kb", str(tmp_path / "nope.rules")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "oops.rules"
        path.write_text("a => @ 1\n")
        assert main(["check", "--kb", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err

    @pytest.mark.parametrize(
        "text",
        ["(" * 200 + "a" + ")" * 200, "~" * 1000 + "a"],
        ids=["parentheses", "negations"],
    )
    def test_deep_nesting_is_one_error_line(self, tmp_path, capsys, text):
        path = tmp_path / "deep.rules"
        path.write_text("t => b @ 1\n" + text + " => b @ 1\n")
        assert main(["check", "--kb", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: line 2, column 101: nesting deeper than 100 levels"
            " of '(', '~' and '->'\n"
        )


class TestQuery:
    def test_entailed(self, kb_file, capsys):
        assert main(["query", "--kb", kb_file, "t => a | b @ 2"]) == 0
        out = capsys.readouterr().out
        assert "entailed" in out

    def test_not_entailed_exit_code(self, kb_file, capsys):
        assert main(["query", "--kb", kb_file, "t => a | b @ 3"]) == 3
        assert "not entailed" in capsys.readouterr().out

    def test_kv_fields(self, kb_file, capsys):
        assert main(["query", "--kb", kb_file, "--format", "kv", "t => a | b @ 2"]) == 0
        record = parse_kv(capsys.readouterr().out)
        assert record == {
            "verdict": "true",
            "d_exception": "2",
            "d_antecedent": "0",
            "threshold": "2",
            "D": "3",
            "consistent": "true",
            "vacuous": "false",
        }

    def test_kv_round_trip_reevaluates(self, kb_file, capsys):
        main(["query", "--kb", kb_file, "--format", "kv", "t => a | b @ 2"])
        record = parse_kv(capsys.readouterr().out)
        kb = tg.load_kb(TWO_RULE_TEXT)
        profile = tg.compile_kb(kb)
        query = tg.parse_query("t => a | b @ 2", kb.signature)
        assert read_depth(record["threshold"]) == query.threshold
        assert read_depth(record["d_antecedent"]) == profile.depth_of(query.antecedent)
        assert read_depth(record["d_exception"]) == profile.depth_of(query.exception())
        assert (record["verdict"] == "true") == profile.entails_in_probability(query)
        assert (record["vacuous"] == "true") == query.antecedent.is_false

    def test_vacuous_query(self, kb_file, capsys):
        assert main(["query", "--kb", kb_file, "--format", "kv", "false => a @ 1"]) == 0
        record = parse_kv(capsys.readouterr().out)
        assert record["verdict"] == "true"
        assert record["vacuous"] == "true"
        assert record["d_exception"] == "inf"

    def test_vacuous_query_text(self, kb_file, capsys):
        assert main(["query", "--kb", kb_file, "false => a @ 1"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "query: false => a @ 1",
            "entailed",
            "d_exception = inf",
            "d_antecedent = inf",
            "vacuous: the antecedent is impossible",
        ]

    def test_query_names_extend_signature(self, kb_file, capsys):
        assert main(["query", "--kb", kb_file, "c => c @ inf"]) == 0

    def test_inconsistent_kb_entails_everything(self, bad_kb_file, capsys):
        assert main(["query", "--kb", bad_kb_file, "b => ~b @ 4"]) == 0
        capsys.readouterr()
        main(["query", "--kb", bad_kb_file, "--format", "kv", "b => ~b @ 4"])
        record = parse_kv(capsys.readouterr().out)
        assert record["consistent"] == "false"
        assert record["d_exception"] == "inf"
        assert record["d_antecedent"] == "inf"

    def test_malformed_query(self, kb_file, capsys):
        assert main(["query", "--kb", kb_file, "t | a @ 2"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_two_depths_per_query(self, kb_file, capsys, monkeypatch):
        asked = []
        depth_of = tg.DepthProfile.depth_of

        def spy(profile, rho):
            asked.append(rho)
            return depth_of(profile, rho)

        monkeypatch.setattr(tg.DepthProfile, "depth_of", spy)
        for fmt in ("text", "kv"):
            asked.clear()
            assert main(["query", "--kb", kb_file, "--format", fmt, "t => a | b @ 2"]) == 0
            assert len(asked) == 2

    def test_long_flat_conjunction_prints(self, kb_file, capsys):
        conjunction = " & ".join(["a"] * 1500)
        assert main(["query", "--kb", kb_file, f"{conjunction} => b @ 1"]) == 3
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == f"query: {conjunction} => b @ 1"
        assert captured.err == ""


class TestRarityAndDepthmap:
    def test_rarity_values(self, kb_file, capsys):
        for text, expected in (("~a & ~b", "2"), ("true", "0"), ("false", "inf")):
            assert main(["rarity", "--kb", kb_file, "--format", "kv", text]) == 0
            assert parse_kv(capsys.readouterr().out) == {"rarity": expected}

    def test_rarity_text_output(self, kb_file, capsys):
        assert main(["rarity", "--kb", kb_file, "~a"]) == 0
        assert "rarity = 1" in capsys.readouterr().out

    def test_rarity_of_fresh_name(self, kb_file, capsys):
        assert main(["rarity", "--kb", kb_file, "--format", "kv", "zebra"]) == 0
        assert parse_kv(capsys.readouterr().out) == {"rarity": "0"}

    def test_depthmap_matches_rarity_per_atom(self, kb_file, capsys):
        assert main(["depthmap", "--kb", kb_file, "--format", "kv"]) == 0
        record = parse_kv(capsys.readouterr().out)
        names = record.pop("names").split(",")
        assert names == ["a", "b"]
        assert len(record) == 4
        for i in range(4):
            literals = " & ".join(
                name if (i >> j) & 1 else f"~{name}"
                for j, name in enumerate(names)
            )
            assert main(["rarity", "--kb", kb_file, "--format", "kv", literals]) == 0
            rarity = parse_kv(capsys.readouterr().out)["rarity"]
            assert record[f"atom_{i}"] == rarity

    def test_depthmap_worked_values(self, kb_file, capsys):
        main(["depthmap", "--kb", kb_file, "--format", "kv"])
        record = parse_kv(capsys.readouterr().out)
        assert record["atom_0"] == "2"  # ~a & ~b
        assert record["atom_1"] == "0"  # a & ~b
        assert record["atom_2"] == "1"  # ~a & b
        assert record["atom_3"] == "0"  # a & b

    def test_depthmap_of_inconsistent_kb(self, bad_kb_file, capsys):
        # Fixpoint 0: the limit is the whole chain, so no atom has depth 0.
        assert main(["depthmap", "--kb", bad_kb_file, "--format", "kv"]) == 0
        record = parse_kv(capsys.readouterr().out)
        assert record.pop("names") == "a"
        assert record == {"atom_0": "inf", "atom_1": "inf"}

    def test_depthmap_lines_are_the_minterm_depths(self, tmp_path, capsys):
        # Every line of both formats against depth_of of the atom's minterm,
        # on random KBs of up to 6 names, among them 1- and 2-name ones,
        # whose fewer than 8 atoms fill only part of a byte.
        rng = np.random.default_rng(33)
        path = tmp_path / "kb.rules"
        sizes = set()
        for _ in range(60):
            path.write_text(tg.format_kb(random_kb(rng, max_names=6, allow_infinite=True)))
            profile = tg.compile_kb(tg.load_kb(path.read_text()))
            signature = profile.kb.signature
            sizes.add(signature.size)
            depths = [
                tg.depth_text(profile.depth_of(tg.Proposition.minterm(signature, i)))
                for i in range(signature.atom_count)
            ]
            expected = {
                "text": "".join(
                    f"{signature.atom_text(i)}: {d}\n" for i, d in enumerate(depths)
                ),
                "kv": f"names={','.join(signature.names)}\n"
                + "".join(f"atom_{i}={d}\n" for i, d in enumerate(depths)),
            }
            for fmt, text in expected.items():
                assert main(["depthmap", "--kb", str(path), "--format", fmt]) == 0
                assert capsys.readouterr().out == text
        assert {1, 2} <= sizes and max(sizes) >= 5, sizes

    # The sha256 of each whole output on the 18-name chain: 2**18 depthmap
    # lines, or a chain whose members have up to 2**17 atom terms. depthmap
    # text was recorded when each atom's text came from Signature.atom_text,
    # the rest while check and explain still built each chain member's whole
    # text before writing any of it.
    LONG_CHAIN_DIGESTS = {
        "depthmap-text": "87d4800ef5880ef26910e0aee7386777d828bedb16753ba1e58d2b0926558e4b",
        "depthmap-kv": "3650a50e25644bb23f61701593c406848261c9c1af9cd9cb283ecf5ba3b9816d",
        "check-text": "bdbad33d4a3b1d9d7a222fa1ea2a4529ef11912e517f59ca08013248450dc57f",
        "check-kv": "c5b55162966b5cffa0a03d7857cc1fa3b479e8ee317f1a99fd7fc2f2871425ea",
        "explain-text": "efcdeaa5c50e6ccf49bf29ecac24553797dbe48e0231b9c3a3386f37a4b384e9",
        "explain-kv": "4169504a0da1267dc94d1a10459072a98afa3a9f0be1475fe83e1c1428ceb012",
    }

    @pytest.mark.parametrize("case", LONG_CHAIN_DIGESTS)
    def test_output_of_a_long_chain(self, tmp_path, capsys, case):
        command, fmt = case.split("-")
        path = tmp_path / "chain.rules"
        path.write_text(CHAIN_TEXT)
        assert main([command, "--kb", str(path), "--format", fmt]) == 0
        out = capsys.readouterr().out
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.LONG_CHAIN_DIGESTS[case]


class TestExplain:
    def test_text_output(self, kb_file, capsys):
        assert main(["explain", "--kb", kb_file]) == 0
        out = capsys.readouterr().out
        assert "rule 1: true => a @ 1" in out
        assert "D = 3 (window 1)" in out
        assert "depth 0: true" in out
        assert "(rules: 1, 2)" in out

    def test_kv_output(self, kb_file, capsys):
        assert main(["explain", "--kb", kb_file, "--format", "kv"]) == 0
        record = parse_kv(capsys.readouterr().out)
        assert record["window"] == "1"
        assert record["rules_1"] == "1,2"
        assert record["rules_2"] == "2"
        assert record["rules_3"] == ""


class TestZPlusCommand:
    def test_to_defaults(self, kb_file, capsys):
        assert main(["zplus", "--kb", kb_file, "to"]) == 0
        assert capsys.readouterr().out == "true -> a @ 0\n~a -> b @ 0\n"

    def test_from_defaults(self, tmp_path, capsys):
        path = tmp_path / "defaults.rules"
        path.write_text("true -> a @ 0\n~a -> b @ 0\n")
        assert main(["zplus", "--kb", str(path), "from"]) == 0
        assert capsys.readouterr().out == TWO_RULE_TEXT.replace("t =>", "true =>")

    def test_round_trip(self, kb_file, tmp_path, capsys):
        main(["zplus", "--kb", kb_file, "to"])
        defaults_text = capsys.readouterr().out
        path = tmp_path / "roundtrip.rules"
        path.write_text(defaults_text)
        assert main(["zplus", "--kb", str(path), "from"]) == 0
        assert capsys.readouterr().out == "true => a @ 1\n~a => b @ 1\n"

    def test_infinite_rule_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "hard.rules"
        path.write_text("a => b @ inf\n")
        assert main(["zplus", "--kb", str(path), "to"]) == 1
        err = capsys.readouterr().err
        assert "rule 1" in err


class TestValidate:
    GRID = "0.1,0.05,0.025"

    @pytest.mark.parametrize("preset", [None, "2"])
    def test_blas_threads_default_to_one(self, kb_file, preset):
        # A cold validate pins BLAS to one thread before NumPy loads, unless
        # the caller chose a count.
        variables = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {key: value for key, value in child_env().items() if key not in variables}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        script = (
            "import contextlib, io, os, sys\n"
            "from threshgen.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(sys.argv[1:])\n"
            f"print(code, *(os.environ.get(name) for name in {variables!r}))\n"
        )
        argv = ["validate", "--kb", kb_file, "--samples", "200", "t => a | b @ 2"]
        done = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert done.stdout.split()[1:] == [preset or "1", "1", "1"]

    def test_supported_query(self, kb_file, capsys):
        code = main(
            [
                "validate",
                "--kb",
                kb_file,
                "--delta-grid",
                self.GRID,
                "--samples",
                "2000",
                "--seed",
                "3",
                "t => a | b @ 2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "supports" in out

    def test_refuted_query_exit_code(self, kb_file, capsys):
        code = main(
            [
                "validate",
                "--kb",
                kb_file,
                "--delta-grid",
                self.GRID,
                "--samples",
                "2000",
                "--seed",
                "3",
                "t => a | b @ 3",
            ]
        )
        assert code == 3
        assert "refutes" in capsys.readouterr().out

    def test_kv_output_is_reproducible(self, kb_file, capsys):
        argv = [
            "validate",
            "--kb",
            kb_file,
            "--format",
            "kv",
            "--delta-grid",
            self.GRID,
            "--samples",
            "1000",
            "--seed",
            "11",
            "t => a | b @ 2",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        record = parse_kv(first)
        assert record["verdict"] == "supports"
        assert set(record) >= {
            "verdict",
            "fitted_exponent",
            "threshold",
            "delta_grid",
            "psi_scales",
            "exponents",
            "quantiles_0",
        }

    def test_eta_flag_is_honored(self, kb_file, capsys):
        argv = lambda eta: [
            "validate",
            "--kb",
            kb_file,
            "--format",
            "kv",
            "--delta-grid",
            self.GRID,
            "--samples",
            "1000",
            "--seed",
            "11",
            "--eta",
            eta,
            "t => a | b @ 2",
        ]
        assert main(argv("0.1")) == 0
        low = parse_kv(capsys.readouterr().out)
        assert main(argv("0.5")) == 0
        high = parse_kv(capsys.readouterr().out)
        assert low["quantiles_0"] != high["quantiles_0"]

    def test_psi_broadcast_and_explicit_list(self, kb_file, capsys):
        base = [
            "validate",
            "--kb",
            kb_file,
            "--delta-grid",
            self.GRID,
            "--samples",
            "500",
            "t => a | b @ 2",
        ]
        assert main(base + ["--psi", "1"]) in (0, 4)
        capsys.readouterr()
        assert main(base + ["--psi", "1,1"]) in (0, 4)
        capsys.readouterr()
        assert main(base + ["--psi", "1,2,3"]) == 1
        assert "psi" in capsys.readouterr().err

    @pytest.mark.parametrize("psi", ["nan", "inf"])
    def test_non_finite_psi_rejected(self, kb_file, capsys, psi):
        argv = ["validate", "--kb", kb_file, "--psi", psi, "t => a | b @ 2"]
        assert main(argv) == 1
        assert "psi" in capsys.readouterr().err

    def test_malformed_grid(self, kb_file, capsys):
        assert (
            main(
                [
                    "validate",
                    "--kb",
                    kb_file,
                    "--delta-grid",
                    "0.1,banana",
                    "t => a @ 1",
                ]
            )
            == 1
        )
        assert "delta grid" in capsys.readouterr().err

    def test_malformed_psi(self, kb_file, capsys):
        assert main(["validate", "--kb", kb_file, "--psi", "1,x", "t => a @ 1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: malformed psi list '1,x'\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "-1"], "seed must be non-negative"),
            (["--samples", "0"], "n must be at least 1"),
            (["--delta-grid", "0.5,0.1,0"], "every grid delta must lie in (0, 1)"),
            (["--samples", str(10**15)], "Unable to allocate"),
        ],
    )
    def test_bad_run_arguments_rejected(self, kb_file, capsys, flags, message):
        assert main(["validate", "--kb", kb_file, *flags, "t => a | b @ 2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_lp_failure_is_an_error(self, kb_file, capsys, monkeypatch):
        # An interior-point solve allowed no iteration cannot converge.
        stacks = []
        solve = tg.polytope._chebyshev_centers

        def spy(stack):
            stacks.append(len(stack))
            return solve(stack)

        monkeypatch.setattr(tg.polytope, "_chebyshev_centers", spy)
        monkeypatch.setattr(tg.polytope, "_MAX_ITERATIONS", 0)
        # A seed no other test samples with, so that no earlier sweep is
        # replayed in place of the LP.
        argv = ["--kb", kb_file, "--samples", "10", "--seed", "1009", "t => a | b @ 2"]
        code = main(["validate", *argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: Chebyshev-center LP failed")
        assert len(captured.err.splitlines()) == 1
        # The sweep's 6 distinct polytopes (psi * delta takes 6 values on
        # the halving grid) share one reduced shape, so one stack solves
        # them all; every one fails, and only the first is reported.
        assert stacks == [6]

    def test_infeasible_grid_point(self, tmp_path, capsys):
        path = tmp_path / "contradiction.rules"
        path.write_text(CONTRADICTION_TEXT)
        code = main(
            [
                "validate",
                "--kb",
                str(path),
                "--delta-grid",
                "0.9,0.7,0.3",
                "--samples",
                "200",
                "t => a @ 1",
            ]
        )
        assert code == 1
        assert "0.3" in capsys.readouterr().err


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """The README's birds.rules block and its '$ threshgen ...' examples,
    each as (arguments, the output lines shown under it)."""
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", README.read_text(), re.M | re.S)
    (rules,) = [block for block in blocks if block.startswith("# birds.rules\n")]
    examples = []
    for block in blocks:
        shown = None
        for line in block.splitlines():
            if line.startswith("$ threshgen "):
                shown = []
                examples.append((shlex.split(line[len("$ threshgen ") :]), shown))
            elif not line:
                shown = None
            elif shown is not None:
                shown.append(line)
    return rules, examples


def test_readme_examples(tmp_path, monkeypatch, capsys):
    # Each shown line must be printed as shown, in order; a line ending in
    # '...' is a prefix of the printed one and may end the shown output.
    rules, examples = readme_examples()
    assert examples and all(shown for _, shown in examples)
    (tmp_path / "birds.rules").write_text(rules)
    monkeypatch.chdir(tmp_path)
    for argv, shown in examples:
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, ""), argv
        printed = captured.out.splitlines()
        if shown[-1].endswith("..."):
            printed = printed[: len(shown)]
            assert printed[-1].startswith(shown[-1][:-3]), argv
            shown[-1] = printed[-1]
        assert printed == shown, argv


class TestProcess:
    """The command line as its own process."""

    SYMBOLIC = [
        ["check"],
        ["query", "t => a | b @ 2"],
        ["rarity", "~a & ~b"],
        ["depthmap"],
        ["explain"],
        ["zplus", "to"],
    ]

    def test_symbolic_commands_load_neither_numpy_nor_scipy(self, kb_file):
        script = f"""
import contextlib, io, sys

def loaded():
    return sorted({{name.split(".")[0] for name in sys.modules}} & {{"numpy", "scipy"}})

import threshgen
print("import", loaded())
from threshgen.cli import main
for command in {self.SYMBOLIC!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command[0], "--kb", {kb_file!r}, *command[1:]])
    print(command[0], code, loaded())
"""
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=child_env(),
            check=True,
        )
        expected = ["import []"] + [f"{command[0]} 0 []" for command in self.SYMBOLIC]
        assert done.stdout.splitlines() == expected

    def test_validate_loads_numpy_but_not_scipy(self, kb_file):
        # The Chebyshev-center LPs are solved in NumPy, so a cold validate
        # never imports SciPy, whose optimizer took about 0.5 s and 49 MB.
        script = f"""
import contextlib, io, sys
from threshgen.cli import main
argv = ["validate", "--kb", {kb_file!r}, "--samples", "300", "t => a | b @ 2"]
with contextlib.redirect_stdout(io.StringIO()):
    code = main(argv)
print(code, sorted({{name.split(".")[0] for name in sys.modules}} & {{"numpy", "scipy"}}))
"""
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=child_env(),
            check=True,
        )
        code, loaded = done.stdout.split(" ", 1)
        assert code in {"0", "3", "4"}
        assert loaded.strip() == "['numpy']"

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads VmHWM from /proc"
    )
    def test_check_explain_and_depthmap_stream(self, tmp_path):
        # Joining 2**18 depthmap kv lines before writing them took about 74 MB
        # more than a query on the same file, and building each chain
        # member's whole text took check and explain 69-81 MB more; written
        # as they come, 2-4 MB. VmHWM, unlike ru_maxrss, does not
        # inherit the forking test process's own peak.
        path = tmp_path / "chain.rules"
        path.write_text(CHAIN_TEXT)
        script = """
import sys
from threshgen.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(code, peak, file=sys.stderr)
"""

        def peak_kb(*argv):
            done = subprocess.run(
                [sys.executable, "-c", script, *argv, "--kb", str(path)],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                env=child_env(),
                check=True,
            )
            code, peak = done.stderr.split()
            assert code == "0"
            return int(peak)

        query = peak_kb("query", "x0 => x17 @ 1")
        over = {
            f"{command} {fmt}": peak_kb(command, "--format", fmt) - query
            for command in ("check", "explain", "depthmap")
            for fmt in ("text", "kv")
        }
        assert max(over.values()) <= 10 * 1024, over

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["query", "t => a | b @ 2"], 0),
            (["query", "t => a | b @ 3"], 3),
            (["depthmap"], 0),
            (["check"], 0),
            (["validate", "--samples", "300", "t => a | b @ 3"], 3),
        ],
        ids=["entailed", "not-entailed", "depthmap", "check", "validate-refutes"],
    )
    def test_closed_stdout_keeps_the_exit_code(self, kb_file, argv, code, buffered):
        env = child_env(PYTHONUNBUFFERED="" if buffered else "1")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "threshgen.cli", argv[0], "--kb", kb_file, *argv[1:]],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
            )
        finally:
            os.close(write_end)
        assert done.returncode == code
        assert done.stderr == b""
