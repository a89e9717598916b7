"""Depth calculus for knowledge bases of thresholded generalizations.

A generalization ``antecedent => consequent @ k`` asserts that exceptional
cases (antecedent true, consequent false) are at least k orders rarer than
the antecedent itself; ``@ inf`` asserts exceptions are impossible. A
knowledge base is an ordered list of such rules; compiling it produces a
chain of *exception sets*

    chain[0] = true
    chain[d] = union over rules i of exception(i),
               taken over those i whose antecedent entails chain[d - k_i]
               (chain[d'] counts as true for d' <= 0)

so chain[d] collects the exceptional cases that are still "live" at rarity
order d. The chain is entailment-decreasing and reaches, after a bounded
number of steps, a depth D past which it no longer changes (up to
equivalence). The *depth* of a proposition rho is the largest d with
rho entailing chain[d], or infinity when rho entails the stable set
chain[D]; it measures how rare rho is forced to be, in orders of a small
exception probability.

compile_kb guarantees the nesting (chain[d + 1] entails chain[d]), and
three methods rely on it: compile_kb itself, since a rule that stops
firing never fires again; DepthProfile.depth_of, which bisects the chain
because the levels rho entails are a prefix of it; and
DepthProfile._atom_codes, behind atom_depths and the depthmap command,
which gives each atom the level where it leaves the chain.

Queries reduce to a depth gap: the knowledge base supports
``gamma => zeta @ j`` exactly when

    depth(gamma & ~zeta) >= depth(gamma) + j

with the usual extended arithmetic (a sum involving infinity is infinity,
and infinity >= infinity holds). Consistency is the statement that the
true proposition has depth 0; an inconsistent knowledge base gives every
proposition depth infinity, so it supports every query.

Depths and thresholds are plain ints with ``math.inf`` standing in for
infinity, which makes the extended comparisons native Python.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from operator import attrgetter

from .logic import Proposition, Signature, SignatureError

INFINITY = math.inf

Depth = int | float


def is_valid_threshold(k) -> bool:
    return k == INFINITY or (isinstance(k, int) and k >= 1)


def depth_text(d: Depth) -> str:
    return "inf" if d == INFINITY else str(int(d))


class StabilizationError(RuntimeError):
    """The exception chain failed to stabilize within its guaranteed bound.

    This cannot happen for a well-formed knowledge base; seeing it means a
    bug in the chain construction, not bad input.
    """


class Record:
    """Base of the immutable value records, with frozen-dataclass behaviour.

    A subclass declares its fields as class annotations, in order. The
    base stores the field values, given by position or by name, compares
    and hashes by class and field values, gives the dataclass repr and
    refuses assignment and deletion. A subclass that validates its
    fields writes its own __init__, which checks them and ends with
    super().__init__ of the field values. Pickle and copy restore the
    instance __dict__ directly. The dataclasses module would do the same,
    but importing it (and inspect with it) costs a cold symbolic command
    more than it spends answering.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(cls.__annotations__)
        # The field values as one tuple (every record has two or more fields).
        cls._values = property(attrgetter(*cls._fields))

    def __init__(self, *values, **named):
        fields = self._fields
        # Every call inside the package passes each field by position.
        if named or len(values) != len(fields):
            if len(values) > len(fields) or named.keys() != set(fields[len(values):]):
                raise TypeError(
                    f"{self.__class__.__qualname__} takes the fields {', '.join(fields)},"
                    f" each once; got {len(values)} by position and {sorted(named)} by name"
                )
            values += tuple(named[name] for name in fields[len(values):])
        self.__dict__.update(zip(fields, values))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Generalization(Record):
    """One rule: exceptions to (antecedent so consequent) at order >= threshold."""

    antecedent: Proposition
    consequent: Proposition
    threshold: Depth

    def __init__(
        self, antecedent: Proposition, consequent: Proposition, threshold: Depth
    ):
        if antecedent.signature != consequent.signature:
            raise SignatureError("rule sides have different signatures")
        if not is_valid_threshold(threshold):
            raise ValueError(
                f"threshold must be an integer >= 1 or infinity, got {threshold!r}"
            )
        super().__init__(antecedent, consequent, threshold)

    @property
    def signature(self) -> Signature:
        return self.antecedent.signature

    def exception(self) -> Proposition:
        """The exceptional case this rule constrains: antecedent & ~consequent."""
        return self.antecedent & ~self.consequent

    def text(self) -> str:
        return (
            f"{self.antecedent.text()} => {self.consequent.text()}"
            f" @ {depth_text(self.threshold)}"
        )

    def __str__(self):
        return self.text()


class KnowledgeBase(Record):
    """An ordered list of generalizations over one signature.

    Order is preserved for reporting and duplicates are allowed; neither
    affects the compiled semantics.
    """

    signature: Signature
    rules: tuple[Generalization, ...]

    def __init__(self, signature: Signature, rules):
        rules = tuple(rules)
        for rule in rules:
            if rule.signature != signature:
                raise SignatureError("rule signature differs from knowledge base")
        super().__init__(signature, rules)

    @property
    def size(self) -> int:
        return len(self.rules)

    def finite_thresholds(self) -> list[int]:
        return [r.threshold for r in self.rules if r.threshold != INFINITY]


class DepthProfile(Record):
    """Compiled form of a knowledge base: the exception chain up to its fixpoint.

    chain[d] is the order-d exception set for 0 <= d <= fixpoint, and
    fired[d] holds the indices of the rules contributing to chain[d]
    (fired[0] is empty). window is the stabilization stride: the chain is
    stable once it stops shrinking over `window` consecutive steps, and
    every depth beyond fixpoint has chain value equivalent to
    chain[fixpoint].

    compile_kb guarantees that the chain is nested, chain[d + 1] entailing
    chain[d]; depth_of and _atom_codes rely on it.
    """

    kb: KnowledgeBase
    chain: tuple[Proposition, ...]
    fired: tuple[tuple[int, ...], ...]
    fixpoint: int
    window: int

    @property
    def limit(self) -> Proposition:
        """The stable exception set; propositions entailing it have depth infinity."""
        return self.chain[self.fixpoint]

    def depth_of(self, rho: Proposition) -> Depth:
        """Largest d with rho entailing chain[d]; infinity past the fixpoint.

        The levels rho entails are a prefix of the nested chain, and
        chain[0] is the true proposition, so after the limit is tested a
        bisection of chain[1:fixpoint] finds the prefix's end in
        ceil(log2(fixpoint)) more entailment tests.
        """
        if rho.signature != self.kb.signature:
            raise SignatureError("proposition signature differs from knowledge base")
        if rho.entails(self.limit):
            return INFINITY
        end = bisect_left(self.chain, True, 1, self.fixpoint, key=lambda c: not rho.entails(c))
        return end - 1

    def atom_depths(self) -> list[Depth]:
        """depth_of of every minterm, indexed by atom: _atom_codes with
        the code fixpoint read as infinity."""
        depths: list[Depth] = [*range(self.fixpoint), INFINITY]
        return [depths[code] for code in self._atom_codes()]

    def _atom_codes(self) -> memoryview:
        """Each atom's depth as a code, one item per atom: the level
        d < fixpoint at which the atom leaves the chain, or fixpoint for
        the atoms of the limit, whose depth is infinity. The items are
        bytes (format "B") below 255 levels, 16 MiB at the 24-name cap,
        and else 4-byte "I" items.

        Read off the chain instead of asking depth_of 2**r times, and
        without a step per atom. The chain is nested, so the atoms that
        leave it at level d are chain[d] ^ chain[d + 1] (the limit at the
        fixpoint), and each atom leaves once. Those atoms join plane p,
        the mask of the atoms whose code has bit p set, for each set bit
        p of d. A plane shifted down k bits and masked to bit 0 of every
        byte holds, in byte m, that bit of the code of atom 8m + k; eight
        planes shifted into place make one byte of the codes of atoms k,
        k + 8, k + 16, ..., which is stored with a stride of 8 items.
        """
        fixpoint = self.fixpoint
        planes = [0] * fixpoint.bit_length()
        for d in range(1, fixpoint + 1):
            leaving = self.chain[d].mask ^ (self.chain[d + 1].mask if d < fixpoint else 0)
            for p in range(d.bit_length()):
                if d >> p & 1:
                    planes[p] |= leaving
        count = self.kb.signature.atom_count
        blocks = max(count >> 3, 1)  # bytes per plane, padded to 8 atoms
        width = 1 if fixpoint < 255 else 4
        codes = bytearray(8 * blocks * width)
        ones = int.from_bytes(b"\x01" * blocks, "little")
        for k in range(8):
            for lane in range(width):
                code_byte = 0
                for p, plane in enumerate(planes[8 * lane : 8 * lane + 8]):
                    code_byte |= (plane >> k & ones) << p
                at = lane if sys.byteorder == "little" else width - 1 - lane
                codes[k * width + at :: 8 * width] = code_byte.to_bytes(blocks, "little")
        del codes[count * width :]  # the padding of fewer than 8 atoms
        return memoryview(codes).cast("B" if width == 1 else "I")

    def degree_of_rarity(self, rho: Proposition) -> Depth:
        """Alias of depth_of: how rare rho is forced to be."""
        return self.depth_of(rho)

    def is_consistent(self) -> bool:
        """True iff the true proposition has depth 0 (the only alternative
        is depth infinity, which makes every query succeed vacuously)."""
        return not self.limit.is_true

    def decide(self, query: Generalization) -> tuple[bool, Depth, Depth]:
        """A query's verdict and the two depths it rests on.

        Returns (entailed, d_exception, d_antecedent): the depths of
        gamma & ~zeta and of gamma, and whether the first is at least the
        second plus the query's threshold.
        """
        if query.signature != self.kb.signature:
            raise SignatureError("query signature differs from knowledge base")
        d_exception = self.depth_of(query.exception())
        d_antecedent = self.depth_of(query.antecedent)
        entailed = d_exception >= d_antecedent + query.threshold
        return entailed, d_exception, d_antecedent

    def entails_in_probability(self, query: Generalization) -> bool:
        """Decide whether the knowledge base supports the query rule."""
        return self.decide(query)[0]

    def max_entailed_threshold(
        self, gamma: Proposition, zeta: Proposition
    ) -> Depth | None:
        """Largest j with gamma => zeta @ j supported; None when no j >= 1 is.

        Infinity means every finite threshold (and @ inf) is supported.
        The depths are decide's for gamma => zeta @ 1, and like decide it
        raises SignatureError when gamma and zeta, or they and the
        knowledge base, have different signatures.
        """
        d_exception = self.depth_of(gamma & ~zeta)
        d_antecedent = self.depth_of(gamma)
        if d_exception < d_antecedent + 1:
            return None
        if d_exception == INFINITY:
            return INFINITY
        # A finite exception depth forces the antecedent depth finite too,
        # since gamma & ~zeta entails gamma.
        return int(d_exception - d_antecedent)


def compile_kb(kb: KnowledgeBase) -> DepthProfile:
    """Build the exception chain of kb and locate its fixpoint.

    The chain is extended one depth at a time; rule i contributes its
    exception set at depth d when its antecedent entails chain[d - k_i],
    where nonpositive indices mean the true proposition. An infinite
    threshold makes d - k_i nonpositive at every d, so @ inf rules
    contribute everywhere and their exceptions stay in the stable set.
    Stabilization is detected by the first D >= 0 with chain[D] entailing
    chain[D + window]; the profile keeps the chain only up to D.
    """
    sig = kb.signature
    finite = kb.finite_thresholds()
    window = max([1] + finite)
    exceptions = [rule.exception() for rule in kb.rules]
    chain: list[Proposition] = [Proposition.true(sig)]
    fired: list[tuple[int, ...]] = [()]
    # The chain provably stabilizes within (m + 1) * window steps, so the
    # fixpoint test succeeds by depth (m + 1) * window + window.
    cap = (kb.size + 1) * window + window
    d = 0
    while True:
        d += 1
        if d > cap:
            raise StabilizationError(
                f"exception chain not stable after {cap} steps; this is a bug"
            )
        mask = 0
        fired_here = []
        # A rule that stops firing never fires again, and every rule fires at level 1.
        for i in fired[-1] if d > 1 else range(kb.size):
            back = d - kb.rules[i].threshold  # -inf for @ inf rules: never reaches 0
            if back <= 0 or kb.rules[i].antecedent.entails(chain[int(back)]):
                mask |= exceptions[i].mask
                fired_here.append(i)
        chain.append(Proposition(sig, mask))
        fired.append(tuple(fired_here))
        candidate = d - window
        if candidate >= 0 and chain[candidate].entails(chain[d]):
            return DepthProfile(
                kb, tuple(chain[: candidate + 1]), tuple(fired[: candidate + 1]), candidate, window
            )
