"""Bridge to System-Z+ style default rules.

A default ``alpha -> beta @ s`` with non-negative integer strength s says
the same thing as the generalization ``alpha => beta @ s+1``: strengths
count from 0 where thresholds count from 1. Translation is that shift in
both directions, and a consequence query at strength jz is answered by
the depth engine at threshold jz + 1.

The equivalence is only guaranteed under side conditions, and this module
enforces them as hard preconditions instead of returning silently
unsound answers:

  * every rule threshold is finite (infinite-strength defaults are out of
    scope, so @ inf generalizations do not translate);
  * no rule antecedent or consequent, and neither query side, is the
    impossible proposition;
  * the rule set is coherent: only the impossible proposition may have
    infinite depth under the translated knowledge base (equivalently,
    the compiled stable exception set is empty).
"""

from __future__ import annotations

from .depth import (
    INFINITY,
    DepthProfile,
    Generalization,
    KnowledgeBase,
    Record,
    compile_kb,
)
from .logic import Proposition, Signature, SignatureError
from .rulefile import _toplevel_arrow


class TranslationError(ValueError):
    """A rule that has no System-Z+ counterpart (infinite threshold)."""


class SideConditionError(ValueError):
    """A consequence query asked outside the guaranteed equivalence.

    The message names the failed condition; `condition` carries a stable
    identifier for it.
    """

    def __init__(self, condition: str, message: str):
        self.condition = condition
        super().__init__(message)


class ZPlusRule(Record):
    """One default rule: antecedent -> consequent at strength >= 0."""

    antecedent: Proposition
    consequent: Proposition
    strength: int

    def __init__(self, antecedent: Proposition, consequent: Proposition, strength: int):
        if antecedent.signature != consequent.signature:
            raise SignatureError("rule sides have different signatures")
        if not (isinstance(strength, int) and strength >= 0):
            raise ValueError(
                f"strength must be a non-negative integer, got {strength!r}"
            )
        super().__init__(antecedent, consequent, strength)

    @property
    def signature(self) -> Signature:
        return self.antecedent.signature

    def text(self) -> str:
        head = self.antecedent.text()
        if _toplevel_arrow(head) >= 0:
            # The file format splits a default at its first bare '->', so
            # an antecedent using conditional sugar must be parenthesized
            # to survive a round trip.
            head = f"({head})"
        return f"{head} -> {self.consequent.text()} @ {self.strength}"

    def __str__(self):
        return self.text()


def to_zplus(kb: KnowledgeBase) -> list[ZPlusRule]:
    """Translate every generalization to a default at strength k - 1."""
    rules = []
    for i, rule in enumerate(kb.rules):
        if rule.threshold == INFINITY:
            raise TranslationError(
                f"rule {i + 1} ({rule.text()}) has an infinite threshold and"
                " no default-rule counterpart"
            )
        rules.append(
            ZPlusRule(rule.antecedent, rule.consequent, rule.threshold - 1)
        )
    return rules


def from_zplus(rules, signature: Signature) -> KnowledgeBase:
    """Translate defaults back to generalizations at threshold s + 1."""
    return KnowledgeBase(
        signature,
        tuple(
            Generalization(r.antecedent, r.consequent, r.strength + 1)
            for r in rules
        ),
    )


def check_side_conditions(
    profile: DepthProfile, gamma: Proposition, zeta: Proposition
) -> None:
    """Raise SideConditionError unless the equivalence preconditions hold."""
    for i, rule in enumerate(profile.kb.rules):
        for side, proposition in (("antecedent", rule.antecedent), ("consequent", rule.consequent)):
            if proposition.is_false:
                raise SideConditionError(
                    "impossible-rule-side",
                    f"rule {i + 1} ({rule.text()}) has an impossible {side}",
                )
    for side, proposition in (("antecedent", gamma), ("consequent", zeta)):
        if proposition.is_false:
            raise SideConditionError(
                "impossible-query-side", f"the query {side} is impossible"
            )
    if not profile.limit.is_false:
        raise SideConditionError(
            "incoherent-rules",
            "the rules leave a possible proposition at infinite depth"
            " (the default set is not Z+ consistent), so the strength"
            " correspondence does not apply",
        )


def zplus_consequence(
    rules, gamma: Proposition, zeta: Proposition, jz: int
) -> bool:
    """Does the default set entail gamma -> zeta at strength jz?

    Answered by translating to a knowledge base and asking the depth
    engine at threshold jz + 1, which agrees with the Z+ notion whenever
    the side conditions hold (and errors out when they do not).
    """
    if not (isinstance(jz, int) and jz >= 0):
        raise ValueError(f"strength must be a non-negative integer, got {jz!r}")
    kb = from_zplus(rules, gamma.signature)
    profile = compile_kb(kb)
    check_side_conditions(profile, gamma, zeta)
    return profile.entails_in_probability(Generalization(gamma, zeta, jz + 1))
