"""Default-rule translation and strength-shifted consequence queries."""

import numpy as np
import pytest

import threshgen as tg
from support import random_kb, random_proposition

AB = tg.Signature(("a", "b"))
ABG = tg.Signature(("a", "b", "g"))


def rule(sig, antecedent, consequent, k):
    return tg.Generalization(tg.parse(antecedent, sig), tg.parse(consequent, sig), k)


def default(sig, antecedent, consequent, strength):
    return tg.ZPlusRule(tg.parse(antecedent, sig), tg.parse(consequent, sig), strength)


class TestZPlusRule:
    def test_strength_validation(self):
        a, b = tg.parse("a", AB), tg.parse("b", AB)
        with pytest.raises(ValueError):
            tg.ZPlusRule(a, b, -1)
        with pytest.raises(ValueError):
            tg.ZPlusRule(a, b, 1.5)
        assert tg.ZPlusRule(a, b, 0).strength == 0

    def test_text(self):
        assert default(AB, "a", "b", 2).text() == "a -> b @ 2"
        assert str(default(AB, "a -> b", "~a", 1)) == "(a -> b) -> ~a @ 1"
        assert default(AB, "a", "b", 0).signature == AB

    def test_text_parenthesizes_conditional_antecedent(self):
        d = default(AB, "a -> b", "a", 0)
        assert d.text() == "(a -> b) -> a @ 0"
        reloaded, sig = tg.load_defaults(d.text())
        assert reloaded[0].antecedent.equivalent(tg.parse("a -> b", sig))

    def test_text_leaves_iff_antecedent_bare(self):
        d = default(AB, "a <-> b", "a", 0)
        assert d.text() == "a <-> b -> a @ 0"
        reloaded, sig = tg.load_defaults(d.text())
        assert reloaded[0].antecedent.equivalent(tg.parse("a <-> b", sig))


class TestTranslation:
    def test_shift_down(self):
        kb = tg.KnowledgeBase(AB, (rule(AB, "a", "b", 1), rule(AB, "b", "a", 3)))
        defaults = tg.to_zplus(kb)
        assert [d.strength for d in defaults] == [0, 2]
        assert defaults[0].antecedent == kb.rules[0].antecedent

    def test_shift_up(self):
        defaults = [default(AB, "a", "b", 0), default(AB, "b", "a", 2)]
        kb = tg.from_zplus(defaults, AB)
        assert [r.threshold for r in kb.rules] == [1, 3]

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            kb = random_kb(rng)
            assert tg.from_zplus(tg.to_zplus(kb), kb.signature) == kb

    def test_round_trip_through_text_keeps_conditional_left_operand(self):
        kb = tg.load_kb("(a -> b) -> c => d @ 1\n")
        text = tg.format_defaults(tg.to_zplus(kb))
        assert text == "((a -> b) -> c) -> d @ 0\n"
        defaults, signature = tg.load_defaults(text)
        assert tg.from_zplus(defaults, signature) == kb

    def test_infinite_threshold_names_the_rule(self):
        kb = tg.KnowledgeBase(
            AB, (rule(AB, "a", "b", 1), rule(AB, "b", "a", tg.INFINITY))
        )
        with pytest.raises(tg.TranslationError, match="rule 2"):
            tg.to_zplus(kb)


class TestSideConditions:
    def check(self, kb_rules, gamma_text="a", zeta_text="b", sig=AB):
        profile = tg.compile_kb(tg.KnowledgeBase(sig, kb_rules))
        tg.check_side_conditions(
            profile, tg.parse(gamma_text, sig), tg.parse(zeta_text, sig)
        )

    def test_passing_case(self):
        self.check((rule(AB, "t", "a", 1), rule(AB, "~a", "b", 1)))

    def test_impossible_rule_antecedent(self):
        with pytest.raises(tg.SideConditionError) as info:
            self.check((rule(AB, "a & ~a", "b", 1),))
        assert info.value.condition == "impossible-rule-side"
        assert str(info.value) == "rule 1 (a & ~a => b @ 1) has an impossible antecedent"

    def test_impossible_rule_consequent(self):
        with pytest.raises(tg.SideConditionError) as info:
            self.check((rule(AB, "a", "b & ~b", 1),))
        assert info.value.condition == "impossible-rule-side"
        assert str(info.value) == "rule 1 (a => b & ~b @ 1) has an impossible consequent"

    def test_impossible_query_sides(self):
        with pytest.raises(tg.SideConditionError) as info:
            self.check((), gamma_text="false")
        assert info.value.condition == "impossible-query-side"
        assert str(info.value) == "the query antecedent is impossible"
        with pytest.raises(tg.SideConditionError) as info:
            self.check((), zeta_text="a & ~a")
        assert info.value.condition == "impossible-query-side"
        assert str(info.value) == "the query consequent is impossible"

    def test_incoherent_rules(self):
        with pytest.raises(tg.SideConditionError) as info:
            self.check((rule(AB, "t", "a", 1), rule(AB, "t", "~a", 1)))
        assert info.value.condition == "incoherent-rules"

    def test_hard_rule_leaves_possible_depth_infinite(self):
        # true => a @ inf pins ~a at infinite depth even though ~a is
        # possible, which is exactly the non-degeneracy the strength
        # correspondence forbids.
        with pytest.raises(tg.SideConditionError) as info:
            self.check((rule(AB, "t", "a", tg.INFINITY),))
        assert info.value.condition == "incoherent-rules"


class TestConsequence:
    def test_two_rule_chain_at_shifted_strength(self):
        defaults = [default(AB, "t", "a", 0), default(AB, "~a", "b", 0)]
        gamma, zeta = tg.parse("t", AB), tg.parse("a | b", AB)
        assert tg.zplus_consequence(defaults, gamma, zeta, 1)
        assert not tg.zplus_consequence(defaults, gamma, zeta, 2)

    def test_threshold_strength_tradeoff(self):
        strong = [default(ABG, "a", "g", 1), default(ABG, "b", "~g", 0)]
        weak = [default(ABG, "a", "g", 0), default(ABG, "b", "~g", 0)]
        gamma, zeta = tg.parse("a & b", ABG), tg.parse("g", ABG)
        assert tg.zplus_consequence(strong, gamma, zeta, 0)
        assert not tg.zplus_consequence(weak, gamma, zeta, 0)

    def test_incoherent_defaults_error(self):
        defaults = [default(AB, "t", "a", 0), default(AB, "t", "~a", 0)]
        with pytest.raises(tg.SideConditionError):
            tg.zplus_consequence(defaults, tg.parse("a", AB), tg.parse("b", AB), 0)

    def test_strength_validation(self):
        defaults = [default(AB, "a", "b", 0)]
        with pytest.raises(ValueError):
            tg.zplus_consequence(defaults, tg.parse("a", AB), tg.parse("b", AB), -1)

    def test_agrees_with_depth_engine_on_random_suite(self):
        rng = np.random.default_rng(51)
        passing = 0
        while passing < 60:
            kb = random_kb(rng)
            profile = tg.compile_kb(kb)
            gamma = random_proposition(rng, kb.signature)
            zeta = random_proposition(rng, kb.signature)
            try:
                tg.check_side_conditions(profile, gamma, zeta)
            except tg.SideConditionError:
                continue
            defaults = tg.to_zplus(kb)
            for j in (1, 2, 3):
                expected = profile.entails_in_probability(
                    tg.Generalization(gamma, zeta, j)
                )
                assert tg.zplus_consequence(defaults, gamma, zeta, j - 1) == expected
            passing += 1