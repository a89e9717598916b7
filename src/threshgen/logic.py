"""Propositional language over a fixed finite signature.

A proposition here is not a syntax tree but a *semantic* object: the set of
truth assignments (atoms) it holds in, encoded as a bitmask over the 2**r
atoms of an r-name signature. Atom i assigns True to name j exactly when
bit j of i is set. Under this encoding the connectives are bitwise ops and
entailment is a subset test, which is what the depth calculus and the
polytope builder both consume.

Syntax still matters at the edges (files, CLI, error messages), so
propositions parsed from text keep their source tree for display, and
propositions built by combinators compose display trees. Propositions
constructed directly from a mask render as a disjunction of atom terms.
Text is produced in pieces, so a rendering of millions of terms can be
written as it goes.

The signature is deliberately capped at 24 names: masks are arbitrary
precision integers and 2**24 bits (2 MiB per proposition) is where exact
set semantics stops being a sensible default. Mask work stays linear in
the mask width, O(2**r) per mask: a name mask is one shift and one xor
of the next name's mask, the all-atoms mask is computed once per
signature, and atom enumeration walks the mask's bytes once.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from itertools import product

MAX_NAMES = 24

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# t and f are customary spellings of the constants in rule files, so they
# are keyword aliases rather than available names.
_KEYWORDS = {"true": "true", "t": "true", "false": "false", "f": "false"}


class SignatureError(ValueError):
    """Invalid signature, or an operation mixing distinct signatures."""


class ParseError(ValueError):
    """Syntax error in a proposition, with the offset it occurred at."""

    def __init__(self, message: str, text: str, position: int):
        self.bare_message = message
        self.position = position
        prefix = text[:position]
        self.line = prefix.count("\n") + 1
        self.column = position - (prefix.rfind("\n") + 1) + 1
        super().__init__(f"{message} (line {self.line}, column {self.column})")


class UnknownNameError(ParseError):
    """Identifier not present in the signature; the name is reported."""

    def __init__(self, name: str, text: str, position: int):
        super().__init__(f"unknown name {name!r}", text, position)
        self.name = name


def _conjunctions(names) -> list[str]:
    """The literals of every atom over names, joined by ' & ', in index
    order."""
    # product varies its last factor fastest, and atom i's bit 0 is names[0].
    literals = product(*((f"~{name}", name) for name in reversed(names)))
    return [" & ".join(reversed(row)) for row in literals]


class Signature:
    """Ordered collection of distinct primitive proposition names."""

    __slots__ = ("names", "full_mask", "_index", "_name_masks", "_atom_tables")

    def __init__(self, names):
        names = tuple(names)
        for name in names:
            if not _NAME_RE.match(name):
                raise SignatureError(f"invalid name {name!r}")
            if name in _KEYWORDS:
                raise SignatureError(f"{name!r} is reserved")
        if len(set(names)) != len(names):
            raise SignatureError("duplicate names in signature")
        if len(names) > MAX_NAMES:
            raise SignatureError(
                f"signature has {len(names)} names; the cap is {MAX_NAMES}"
            )
        self.names = names
        # The all-atoms mask; every Proposition checks its range against it.
        self.full_mask = (1 << (1 << len(names))) - 1
        self._index = {name: j for j, name in enumerate(names)}
        self._name_masks: dict[int, int] = {}
        self._atom_tables: tuple[int, list[str], list[str]] | None = None

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def atom_count(self) -> int:
        return 1 << len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SignatureError(f"unknown name {name!r}") from None

    def name_mask(self, j: int) -> int:
        """Mask of the atoms that assign True to name j.

        Bit i is set iff bit j of i is set, i.e. blocks of 2**j clear bits
        alternating with 2**j set bits. Built once per name on demand, from
        the mask of name j + 1 (the full mask for the last name) in one
        shift and one xor: in each 2**(j + 2)-bit period of that mask the
        set upper half, xored with itself shifted down 2**j bits, leaves
        the second and fourth quarters set, which is name j's pattern.
        Each mask costs O(2**r), and asking for name j builds the masks of
        the names above it.
        """
        mask = self._name_masks.get(j)
        if mask is None:
            if not 0 <= j < len(self.names):
                raise SignatureError(f"name index {j} out of range")
            upper = self.name_mask(j + 1) if j + 1 < len(self.names) else self.full_mask
            mask = upper ^ (upper >> (1 << j))
            self._name_masks[j] = mask
        return mask

    def atom_text(self, i: int) -> str:
        """Render atom i as a conjunction of literals, e.g. 'a & ~b'."""
        if not 0 <= i < self.atom_count:
            raise SignatureError(f"atom index {i} out of range")
        half, low, high = self._tables()
        return low[i & ((1 << half) - 1)] + high[i >> half]

    def atom_texts(self) -> Iterator[str]:
        """atom_text(i) for every atom, in index order."""
        _, low, high = self._tables()
        return (head + tail for tail in high for head in low)

    def _tables(self) -> tuple[int, list[str], list[str]]:
        """(half, low, high): atom i's text is low[i % 2**half] plus
        high[i >> half], the conjunction over the first half names and
        ' & ' plus the one over the rest. Built once per signature, so an
        atom's text is one concatenation, not r literals joined anew."""
        if self._atom_tables is None:
            names = self.names
            half = (len(names) + 1) // 2
            low = _conjunctions(names[:half]) if names else ["true"]
            rest = names[half:]
            high = [f" & {text}" for text in _conjunctions(rest)] if rest else [""]
            self._atom_tables = (half, low, high)
        return self._atom_tables

    def __eq__(self, other):
        # Propositions of one signature share its object, so most
        # comparisons end at the identity test.
        return self is other or (
            isinstance(other, Signature) and self.names == other.names
        )

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Signature({list(self.names)!r})"


# _BYTE_BITS[b] lists the set bit positions of byte value b, ascending.
_BYTE_BITS = tuple(tuple(j for j in range(8) if (b >> j) & 1) for b in range(256))


def _check_same_signature(p: "Proposition", q: "Proposition") -> None:
    if p.signature is not q.signature and p.signature != q.signature:
        raise SignatureError("propositions have different signatures")


class Proposition:
    """A set of atoms of a signature, with an optional display tree."""

    __slots__ = ("signature", "mask", "ast")

    def __init__(self, signature: Signature, mask: int, ast=None):
        if not 0 <= mask <= signature.full_mask:
            raise ValueError(f"mask {mask:#x} out of range for {signature!r}")
        self.signature = signature
        self.mask = mask
        self.ast = ast

    @classmethod
    def true(cls, signature: Signature) -> "Proposition":
        return cls(signature, signature.full_mask, ("const", True))

    @classmethod
    def false(cls, signature: Signature) -> "Proposition":
        return cls(signature, 0, ("const", False))

    @classmethod
    def name(cls, signature: Signature, name: str) -> "Proposition":
        return cls(signature, signature.name_mask(signature.index(name)), ("name", name))

    @classmethod
    def minterm(cls, signature: Signature, i: int) -> "Proposition":
        """The proposition holding in exactly atom i."""
        if not 0 <= i < signature.atom_count:
            raise ValueError(f"atom index {i} out of range")
        return cls(signature, 1 << i)

    # -- connectives -------------------------------------------------

    def __and__(self, other: "Proposition") -> "Proposition":
        return _connect("and", self, other)

    def __or__(self, other: "Proposition") -> "Proposition":
        return _connect("or", self, other)

    def __invert__(self) -> "Proposition":
        return Proposition(
            self.signature, self.signature.full_mask ^ self.mask, ("not", self._tree())
        )

    # -- judgments ---------------------------------------------------

    def entails(self, other: "Proposition") -> bool:
        """True iff every atom of self is an atom of other."""
        _check_same_signature(self, other)
        return self.mask | other.mask == other.mask

    def equivalent(self, other: "Proposition") -> bool:
        _check_same_signature(self, other)
        return self.mask == other.mask

    @property
    def is_false(self) -> bool:
        return self.mask == 0

    @property
    def is_true(self) -> bool:
        return self.mask == self.signature.full_mask

    def atoms(self) -> Iterator[int]:
        """Indices of the atoms this proposition holds in, ascending.

        One pass over the mask's bytes, so O(2**r / 8 + popcount) steps
        rather than one full-width big-int operation per atom.
        """
        data = self.mask.to_bytes((self.mask.bit_length() + 7) // 8, "little")
        for offset, byte in enumerate(data):
            if byte:
                base = offset << 3
                for bit in _BYTE_BITS[byte]:
                    yield base + bit

    # -- display -----------------------------------------------------

    def _tree(self):
        return self.ast if self.ast is not None else self

    def text(self) -> str:
        """The proposition's text, with the parentheses its parse needs.

        >>> parse("(a -> b) -> c", Signature("abc")).text()
        '(a -> b) -> c'
        """
        return "".join(_render(self))

    def __eq__(self, other):
        return (
            isinstance(other, Proposition)
            and self.signature == other.signature
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((self.signature, self.mask))

    def __str__(self):
        return self.text()

    def __repr__(self):
        # Only as many pieces as the first 81 characters take: a proposition
        # can have millions of atom terms.
        text = ""
        for piece in _render(self):
            text += piece
            if len(text) > 80:
                text = text[:77] + "..."
                break
        return f"Proposition({text!r})"


# The binary connectives, loosest first: token kind -> (text, precedence,
# groups right, mask rule). '->' alone groups to the right, and it alone
# does not associate. '~' binds tighter than all of them.
_BINARY = {
    "iff": (" <-> ", 1, False, lambda full, p, q: full ^ p ^ q),
    "imp": (" -> ", 2, True, lambda full, p, q: (full ^ p) | q),
    "or": (" | ", 3, False, lambda full, p, q: p | q),
    "and": (" & ", 4, False, lambda full, p, q: p & q),
}
_NOT_PREC = 5


def _connect(kind: str, p: Proposition, q: Proposition) -> Proposition:
    """p and q joined by the binary connective kind."""
    _check_same_signature(p, q)
    mask = _BINARY[kind][3](p.signature.full_mask, p.mask, q.mask)
    return Proposition(p.signature, mask, (kind, p._tree(), q._tree()))


def _render(prop: Proposition) -> Iterator[str]:
    """The text of prop's display tree, in pieces, from an explicit stack:
    chains of thousands of connectives must not exhaust Python's recursion
    limit, and a writer need never hold millions of atom terms at once.
    A node looser than its floor is parenthesized. An operand's floor is
    its connective's precedence, one higher for the left operand of '->'."""
    stack = [(prop._tree(), 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            yield item
            continue
        node, floor = item
        if isinstance(node, Proposition):
            yield from _render_atoms(node, floor)
            continue
        kind = node[0]
        if kind == "const":
            yield "true" if node[1] else "false"
        elif kind == "name":
            yield node[1]
        elif kind == "not":
            yield "~"
            stack.append((node[1], _NOT_PREC))
        else:
            # The stack is last in, first out: push right to left.
            text, prec, right, _ = _BINARY[kind]
            operands = [(node[2], prec), text, (node[1], prec + 1 if right else prec)]
            stack += [")", *operands, "("] if floor > prec else operands


def _render_atoms(prop: Proposition, floor: int) -> Iterator[str]:
    """A proposition with no source tree, as atom terms joined by ' | '."""
    if prop.is_true or prop.is_false:
        yield "true" if prop.is_true else "false"
        return
    # A lone term is a conjunction of size literals, and several terms need
    # two names; & binds tighter than |, so disjoined terms need no parentheses.
    lone = prop.mask.bit_count() == 1
    wrap = floor > _BINARY["and" if lone else "or"][1] and prop.signature.size > 1
    half, low, high = prop.signature._tables()
    bits = (1 << half) - 1
    terms = (low[i & bits] + high[i >> half] for i in prop.atoms())
    yield "(" + next(terms) if wrap else next(terms)
    yield from (" | " + term for term in terms)
    if wrap:
        yield ")"


# -- parsing ---------------------------------------------------------

_SCAN_RE = re.compile(
    r"""[ \t\r\n]+ | \#[^\n]*
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<iff><->)
      | (?P<imp>->)
      | (?P<not>~)
      | (?P<and>&)
      | (?P<or>\|)
      | (?P<lp>\()
      | (?P<rp>\))
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """Scan text into (kind, value, offset) triples, dropping # comments."""
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        match = _SCAN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", text, pos)
        kind = match.lastgroup
        if kind is not None:  # None: whitespace or a comment
            value = match.group()
            if kind == "name" and value in _KEYWORDS:
                kind = _KEYWORDS[value]
            tokens.append((kind, value, pos))
        pos = match.end()
    tokens.append(("end", "", n))
    return tokens


# Levels of '(', '~' and '->' a proposition may nest. A level costs the
# parser at most three frames ('a & (' nests binary, unary, binary), so 100
# levels take about 300 of Python's default 1000, leaving the caller room;
# deeper input is a ParseError at the token opening the level past the
# bound, not a RecursionError.
_MAX_NESTING = 100


class _Parser:
    """Precedence climbing over the token list and the _BINARY table.

    Grammar, loosest binding first:
        proposition := iff
        iff  := imp ('<->' imp)*
        imp  := or ('->' imp)?          right-grouping
        or   := and ('|' and)*
        and  := unary ('&' unary)*
        unary := '~' unary | '(' iff ')' | name | 'true' | 'false'

    binary(floor) parses all four binary levels: a unary, then each
    connective of precedence floor or tighter with its right operand,
    binary(precedence) for '->', which groups right, else one level up.

    't' and 'f' are accepted as aliases of 'true' and 'false', and all
    four spellings are reserved (never names).

    The conditional forms are sugar: p -> q abbreviates ~p | q and
    p <-> q abbreviates (p -> q) & (q -> p); they desugar during mask
    construction but keep their own display nodes.

    Nesting is bounded: '(', '~' and the right operand of '->' each open
    a level, and at most _MAX_NESTING may be open at once.
    """

    def __init__(self, text: str, signature: Signature):
        self.text = text
        self.signature = signature
        self.tokens = tokenize(text)
        self.at = 0
        self.depth = 0

    def peek(self) -> str:
        return self.tokens[self.at][0]

    def expect(self, kind: str, what: str) -> None:
        if self.peek() != kind:
            _, value, pos = self.tokens[self.at]
            found = repr(value) if value else "end of input"
            raise ParseError(f"expected {what}, found {found}", self.text, pos)
        self.at += 1

    def open_level(self, pos: int) -> None:
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError(
                f"nesting deeper than {_MAX_NESTING} levels of '(', '~' and '->'",
                self.text,
                pos,
            )

    def proposition(self) -> Proposition:
        prop = self.binary(0)
        if self.peek() != "end":
            _, value, pos = self.tokens[self.at]
            raise ParseError(f"unexpected {value!r} after proposition", self.text, pos)
        return prop

    def binary(self, floor: int) -> Proposition:
        """The longest proposition here whose top-level connectives have
        precedence floor or tighter."""
        prop = self.unary()
        kind, _, pos = self.tokens[self.at]
        while kind in _BINARY and _BINARY[kind][1] >= floor:
            _, prec, right, _ = _BINARY[kind]
            self.at += 1
            if right:
                self.open_level(pos)
                prop = _connect(kind, prop, self.binary(prec))
                self.depth -= 1
            else:
                prop = _connect(kind, prop, self.binary(prec + 1))
            kind, _, pos = self.tokens[self.at]
        return prop

    def unary(self) -> Proposition:
        kind, value, pos = self.tokens[self.at]
        self.at += 1
        if kind == "not":
            self.open_level(pos)
            prop = ~self.unary()
            self.depth -= 1
            return prop
        if kind == "lp":
            self.open_level(pos)
            prop = self.binary(0)
            self.expect("rp", "')'")
            self.depth -= 1
            return prop
        if kind == "true":
            return Proposition.true(self.signature)
        if kind == "false":
            return Proposition.false(self.signature)
        if kind == "name":
            if value not in self.signature._index:
                raise UnknownNameError(value, self.text, pos)
            return Proposition.name(self.signature, value)
        found = repr(value) if value else "end of input"
        raise ParseError(f"expected a proposition, found {found}", self.text, pos)


def parse(text: str, signature: Signature) -> Proposition:
    """Parse text into a Proposition over the given signature.

    Raises ParseError on malformed input (with position) and
    UnknownNameError for identifiers outside the signature.
    """
    return _Parser(text, signature).proposition()


def scan_names(text: str) -> list[str]:
    """All identifiers in text in first-appearance order, keywords excluded.

    Used by file loaders to build a signature from the names a file
    actually mentions.
    """
    seen: dict[str, None] = {}
    for kind, value, _ in tokenize(text):
        if kind == "name":
            seen.setdefault(value)
    return list(seen)
