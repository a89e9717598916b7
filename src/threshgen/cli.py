"""Command-line front end.

Subcommands: check, query, rarity, depthmap, explain, zplus to|from, and
validate. Input is a knowledge base file (--kb) plus, where relevant, a
query or proposition string; names appearing only in the query enlarge
the signature before compilation, which never changes verdicts about the
file's own names. Output is a human-readable block by default or a
line-oriented ``key=value`` block with --format kv, bit-exact across runs
for identical inputs and seed.

Each command returns its exit code and its output as an iterable of text
pieces, rendered as they are taken, and main writes every command's
output through the one batched writer. A reader that closes standard
output early stops the rendering; that is not an error, and the exit
code is still the verdict's.

Exit codes: 0 for the affirmative verdict (consistent / entailed /
supports, and plain success for the other commands), 2 for inconsistent,
3 for not entailed or refuted, 4 for inconclusive, 1 for any input error.

Only validate imports the numerical route (threshgen.polytope and
threshgen.sampling, hence NumPy and SciPy); the other commands are
symbolic and never load either library, which would take longer to
import than they take to answer. Likewise only zplus imports the
System-Z+ bridge, threshgen.zplus, on first use.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, islice

from .depth import INFINITY, DepthProfile, compile_kb, depth_text
from .logic import _render, parse
from .rulefile import (
    format_defaults,
    format_kb,
    load_defaults,
    load_kb,
    parse_query,
    query_names,
)


def _kv_bool(value: bool) -> str:
    return "true" if value else "false"


def _write(pieces) -> None:
    # One write per 4096 pieces (non-empty strings): there can be 2**24
    # depthmap lines or atom terms, and with an unbuffered stdout every
    # write is a system call.
    pieces = iter(pieces)
    while chunk := "".join(islice(pieces, 4096)):
        sys.stdout.write(chunk)


def _kv(pairs):
    return (f"{key}={value}\n" for key, value in pairs)


def parse_kv(text: str) -> dict[str, str]:
    """Parse a kv block back into a dict (the inverse of --format kv)."""
    record = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"not a key=value line: {line!r}")
        record[key] = value
    return record


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _float_text(x: float) -> str:
    return "inf" if x == float("inf") else format(x, ".6g")


def _chain(profile: DepthProfile, kv: bool, with_rules: bool):
    """The exception chain as pieces of kv lines or of 'depth d:' lines."""
    for d, prop in enumerate(profile.chain):
        yield f"chain_{d}=" if kv else f"depth {d}: "
        yield from _render(prop)
        if with_rules and d > 0:
            fired = ("," if kv else ", ").join(str(i + 1) for i in profile.fired[d])
            yield f"\nrules_{d}={fired}" if kv else f"  (rules: {fired or 'none'})"
        yield "\n"


def cmd_check(args):
    profile = compile_kb(load_kb(_read(args.kb)))
    consistent = profile.is_consistent()
    kv = args.format == "kv"
    if kv:
        head = _kv([("consistent", _kv_bool(consistent)), ("D", profile.fixpoint)])
    else:
        head = ["consistent\n" if consistent else "inconsistent\n"]
        head.append(f"D = {profile.fixpoint}\n")
    return 0 if consistent else 2, chain(head, _chain(profile, kv, with_rules=False))


def cmd_query(args):
    text = _read(args.kb)
    kb = load_kb(text, extra_names=query_names(args.query))
    profile = compile_kb(kb)
    query = parse_query(args.query, kb.signature)
    verdict, depth_exception, depth_antecedent = profile.decide(query)
    if args.format == "kv":
        output = _kv(
            [
                ("verdict", _kv_bool(verdict)),
                ("d_exception", depth_text(depth_exception)),
                ("d_antecedent", depth_text(depth_antecedent)),
                ("threshold", depth_text(query.threshold)),
                ("D", profile.fixpoint),
                ("consistent", _kv_bool(profile.is_consistent())),
                ("vacuous", _kv_bool(query.antecedent.is_false)),
            ]
        )
    else:
        output = [
            f"query: {query.text()}\n",
            "entailed\n" if verdict else "not entailed\n",
            f"d_exception = {depth_text(depth_exception)}\n",
            f"d_antecedent = {depth_text(depth_antecedent)}\n",
        ]
        if query.antecedent.is_false:
            output.append("vacuous: the antecedent is impossible\n")
    return 0 if verdict else 3, output


def cmd_rarity(args):
    kb = load_kb(_read(args.kb), extra_names=query_names(args.proposition))
    profile = compile_kb(kb)
    rarity = profile.degree_of_rarity(parse(args.proposition, kb.signature))
    if args.format == "kv":
        return 0, _kv([("rarity", depth_text(rarity))])
    return 0, [f"rarity = {depth_text(rarity)}\n"]


def cmd_depthmap(args):
    profile = compile_kb(load_kb(_read(args.kb)))
    signature = profile.kb.signature
    codes = profile._atom_codes()
    # Each line ends in its depth's text; code fixpoint is depth infinity.
    texts = map(depth_text, (*range(profile.fixpoint), INFINITY))
    if args.format == "kv":
        ends = [f"={text}\n" for text in texts]
        head = _kv([("names", ",".join(signature.names))])
        lines = (f"atom_{i}{ends[code]}" for i, code in enumerate(codes))
    else:
        ends = [f": {text}\n" for text in texts]
        atoms = signature.atom_texts()
        head, lines = [], (f"{atom}{ends[code]}" for atom, code in zip(atoms, codes))
    return 0, chain(head, lines)


def cmd_explain(args):
    profile = compile_kb(load_kb(_read(args.kb)))
    kv = args.format == "kv"
    if kv:
        head = _kv(
            [
                ("consistent", _kv_bool(profile.is_consistent())),
                ("D", profile.fixpoint),
                ("window", profile.window),
            ]
        )
    else:
        rules = enumerate(profile.kb.rules, start=1)
        head = [f"rule {i}: {rule.text()}\n" for i, rule in rules]
        head.append(f"D = {profile.fixpoint} (window {profile.window})\n")
    return 0, chain(head, _chain(profile, kv, with_rules=True))


def cmd_zplus(args):
    from .zplus import from_zplus, to_zplus

    text = _read(args.kb)
    if args.direction == "to":
        return 0, [format_defaults(to_zplus(load_kb(text)))]
    rules, signature = load_defaults(text)
    return 0, [format_kb(from_zplus(rules, signature))]


def _floats(text: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"malformed {what} {text!r}") from None


def cmd_validate(args):
    # The sampler draws the next chunk on a helper thread while the current
    # one walks, and BLAS worker threads would take the core it needs. BLAS
    # reads these once, when NumPy first loads it; a value the caller set
    # is kept.
    if "numpy" not in sys.modules:
        for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(variable, "1")
    # The numerical route, and with it NumPy and SciPy, loads only here.
    from .polytope import NumericalError, ParameterAssignment
    from .sampling import scaling_verdict

    text = _read(args.kb)
    kb = load_kb(text, extra_names=query_names(args.query))
    query = parse_query(args.query, kb.signature)
    grid = _floats(args.delta_grid, "delta grid")
    psi = _floats(args.psi, "psi list")
    params = ParameterAssignment(
        psi=psi * kb.size if len(psi) == 1 else psi, delta=grid[0], eta=args.eta
    )
    try:
        report = scaling_verdict(
            kb, query, grid, params, n=args.samples, seed=args.seed
        )
    except (NumericalError, MemoryError) as error:
        return _fail(error), []
    code = {"supports": 0, "refutes": 3, "inconclusive": 4}[report.verdict]
    if args.format == "kv":
        pairs = [
            ("verdict", report.verdict),
            ("fitted_exponent", _float_text(report.fitted_exponent)),
            ("threshold", depth_text(report.threshold)),
            ("delta_grid", ",".join(_float_text(d) for d in report.delta_grid)),
            ("psi_scales", ",".join(_float_text(s) for s in report.psi_scales)),
            (
                "exponents",
                ",".join(_float_text(e) for e in report.exponents),
            ),
        ]
        for i, row in enumerate(report.quantiles):
            pairs.append((f"quantiles_{i}", ",".join(_float_text(q) for q in row)))
        return code, _kv(pairs)
    output = [
        f"verdict: {report.verdict} (threshold {depth_text(report.threshold)})\n",
        f"fitted exponent = {_float_text(report.fitted_exponent)}\n",
    ]
    for scale, exponent, row in zip(
        report.psi_scales, report.exponents, report.quantiles
    ):
        quantile_text = ", ".join(
            f"{_float_text(d)} -> {_float_text(q)}"
            for d, q in zip(report.delta_grid, row)
        )
        output.append(
            f"psi x{_float_text(scale)}: exponent {_float_text(exponent)};"
            f" quantiles {quantile_text}\n"
        )
    return code, output


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threshgen",
        description="Reason about thresholded generalizations: symbolic"
        " depth queries plus Monte-Carlo model checking.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    # The options of every subcommand, declared once.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--kb", required=True, help="knowledge base file")
    shared.add_argument(
        "--format",
        choices=("text", "kv"),
        default="text",
        help="output style: human text or machine key=value lines",
    )

    def common(sub, **kwargs):
        return subparsers.add_parser(sub, parents=[shared], **kwargs)

    check = common("check", help="consistency and the exception chain")
    check.set_defaults(func=cmd_check)

    query = common("query", help="decide a query '<prop> => <prop> @ <k>'")
    query.add_argument("query")
    query.set_defaults(func=cmd_query)

    rarity = common("rarity", help="degree of rarity of a proposition")
    rarity.add_argument("proposition")
    rarity.set_defaults(func=cmd_rarity)

    depthmap = common("depthmap", help="depth of every atom")
    depthmap.set_defaults(func=cmd_depthmap)

    explain = common("explain", help="exception chain with fired rules")
    explain.set_defaults(func=cmd_explain)

    zplus = common("zplus", help="translate to or from default-rule format")
    zplus.add_argument("direction", choices=("to", "from"))
    zplus.set_defaults(func=cmd_zplus)

    validate = common(
        "validate", help="Monte-Carlo check of a query's quantile scaling"
    )
    validate.add_argument("query")
    validate.add_argument(
        "--delta-grid",
        default="0.1,0.05,0.025,0.0125",
        help="comma-separated strictly decreasing deltas",
    )
    validate.add_argument(
        "--samples", type=int, default=20000, help="models sampled per grid point"
    )
    validate.add_argument("--seed", type=int, default=0, help="sampler seed")
    validate.add_argument(
        "--eta", type=float, default=0.1, help="quantile level is 1 - eta"
    )
    validate.add_argument(
        "--psi",
        default="1",
        help="comma-separated per-rule slacks, or one value for all rules",
    )
    validate.set_defaults(func=cmd_validate)
    return parser


def _fail(error: Exception) -> int:
    print(f"error: {error}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, output = args.func(args)
        _write(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone, so the rendering stops, but the verdict
        # still decides the exit code. Point the descriptor at /dev/null:
        # whatever the stream still buffers when Python flushes at exit
        # goes nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except (ValueError, OSError) as error:
        return _fail(error)
    return code


if __name__ == "__main__":
    sys.exit(main())
