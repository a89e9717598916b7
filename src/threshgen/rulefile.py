"""Flat-file formats for knowledge bases and default-rule sets.

Knowledge base files hold one generalization per line,

    <proposition> => <proposition> @ <threshold>

with thresholds a positive integer or ``inf``, ``#`` starting a comment,
and blank lines ignored. Default-rule files are the same shape with the
``->`` arrow and a non-negative integer strength:

    <proposition> -> <proposition> @ <strength>

Both numbers are written in plain ASCII digits. The file's signature is
the set of identifiers appearing anywhere in it, in first-appearance
order, optionally extended with names supplied by the caller (a query's
names, typically). Because ``->`` is also conditional sugar inside
propositions, the rule arrow of a default line is the first ``->`` at
parenthesis depth 0 that is not part of ``<->``; an antecedent that
itself uses conditional sugar therefore needs parentheses.
"""

from __future__ import annotations

from .depth import INFINITY, Depth, Generalization, KnowledgeBase
from .logic import ParseError, Proposition, Signature, parse, scan_names


class RuleFileError(ValueError):
    """Malformed rule file; the message carries the offending line."""


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _parse_fragment(
    fragment: str, signature: Signature, lineno: int, offset: int
) -> Proposition:
    try:
        return parse(fragment, signature)
    except ParseError as error:
        column = offset + error.column
        raise RuleFileError(
            f"line {lineno}, column {column}: {error.bare_message}"
        ) from error


def _natural(text: str) -> int:
    """text as a number written in ASCII digits only, else -1; int() alone
    would also take '1_0', '+1' and non-ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        return -1
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        return -1


def _parse_threshold(text: str, lineno: int) -> Depth:
    text = text.strip()
    if text == "inf":
        return INFINITY
    value = _natural(text)
    if value < 1:
        raise RuleFileError(
            f"line {lineno}: threshold must be a positive integer or inf,"
            f" got {text!r}"
        )
    return value


def _parse_strength(text: str, lineno: int) -> int:
    text = text.strip()
    value = _natural(text)
    if value < 0:
        raise RuleFileError(
            f"line {lineno}: strength must be a non-negative integer, got {text!r}"
        )
    return value


def _parse_rule(
    line: str, arrow: int, signature: Signature, lineno: int
) -> tuple[Proposition, Proposition, str]:
    """Antecedent, consequent and the unparsed number of a rule line whose
    two-character arrow starts at arrow and whose number follows one '@'."""
    parts = line[arrow + 2 :].split("@")
    if len(parts) != 2:
        raise RuleFileError(f"line {lineno}: expected one '@ <number>' suffix")
    antecedent = _parse_fragment(line[:arrow], signature, lineno, 0)
    consequent = _parse_fragment(parts[0], signature, lineno, arrow + 2)
    return antecedent, consequent, parts[1]


def _toplevel_arrow(text: str) -> int:
    """Offset of the first '->' outside parentheses that is not the tail
    of '<->', or -1."""
    depth = 0
    for i, ch in enumerate(text[:-1]):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif (
            ch == "-"
            and text[i + 1] == ">"
            and depth == 0
            and (i == 0 or text[i - 1] != "<")
        ):
            return i
    return -1


def _numbered_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if line.strip():
            yield lineno, line


def file_signature(text: str, extra_names=()) -> Signature:
    """Signature of every identifier in the file plus extra_names, in order."""
    names = _scan_lines(text)
    for name in extra_names:
        if name not in names:
            names.append(name)
    return Signature(names)


def _scan_lines(text: str) -> list[str]:
    # Identifier scanning must not see threshold text ('inf' would leak
    # into the signature) or the '=>' separator the tokenizer rejects, so
    # drop everything after '@' on each line and blank out each arrow with
    # two spaces, which keeps a bad character at its own line and column.
    lines = []
    for raw in text.splitlines():
        line = _strip_comment(raw)
        lines.append(line.split("@")[0].replace("=>", "  "))
    try:
        return scan_names("\n".join(lines))
    except ParseError as error:
        raise RuleFileError(
            f"line {error.line}, column {error.column}: {error.bare_message}"
        ) from error


def load_kb(text: str, extra_names=()) -> KnowledgeBase:
    """Parse knowledge base text into a KnowledgeBase."""
    signature = file_signature(text, extra_names)
    rules = []
    for lineno, line in _numbered_lines(text):
        arrow = line.find("=>")
        if arrow < 0:
            raise RuleFileError(f"line {lineno}: expected '=>' between propositions")
        antecedent, consequent, number = _parse_rule(line, arrow, signature, lineno)
        threshold = _parse_threshold(number, lineno)
        rules.append(Generalization(antecedent, consequent, threshold))
    return KnowledgeBase(signature, tuple(rules))


def load_defaults(text: str, extra_names=()) -> tuple[list, Signature]:
    """Parse default-rule text into ZPlusRules plus their signature."""
    from .zplus import ZPlusRule  # loads on first use, like the zplus command

    signature = file_signature(text, extra_names)
    rules = []
    for lineno, line in _numbered_lines(text):
        arrow = _toplevel_arrow(line)
        if arrow < 0:
            raise RuleFileError(
                f"line {lineno}: expected '->' between propositions"
                " (antecedents using conditional sugar need parentheses)"
            )
        antecedent, consequent, number = _parse_rule(line, arrow, signature, lineno)
        rules.append(ZPlusRule(antecedent, consequent, _parse_strength(number, lineno)))
    return rules, signature


def parse_query(text: str, signature: Signature) -> Generalization:
    """Parse a query string '<prop> => <prop> @ <threshold>'."""
    arrow = text.find("=>")
    if arrow < 0:
        raise RuleFileError("query must look like '<prop> => <prop> @ <threshold>'")
    antecedent, consequent, number = _parse_rule(text, arrow, signature, 1)
    return Generalization(antecedent, consequent, _parse_threshold(number, 1))


def query_names(text: str) -> list[str]:
    """Identifiers a query string would add to a signature."""
    return _scan_lines(text)


def format_kb(kb: KnowledgeBase) -> str:
    return "".join(rule.text() + "\n" for rule in kb.rules)


def format_defaults(rules) -> str:
    return "".join(rule.text() + "\n" for rule in rules)
