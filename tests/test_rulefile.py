"""Flat-file knowledge-base and default-rule formats."""

import pytest

import threshgen as tg

TWO_RULE_TEXT = """\
# a small knowledge base
t => a @ 1
~a => b @ 1   # exceptions to the first rule are usually b
"""


class TestLoadKb:
    def test_basic_file(self):
        kb = tg.load_kb(TWO_RULE_TEXT)
        assert kb.signature.names == ("a", "b")
        assert kb.size == 2
        assert kb.rules[0].antecedent.is_true
        assert kb.rules[0].consequent.equivalent(tg.parse("a", kb.signature))
        assert kb.rules[0].threshold == 1
        assert kb.rules[1].antecedent.equivalent(tg.parse("~a", kb.signature))

    def test_keyword_aliases_do_not_join_signature(self):
        kb = tg.load_kb("t => a @ 1\nfalse => a @ 2\n")
        assert kb.signature.names == ("a",)

    def test_signature_order_is_first_appearance(self):
        kb = tg.load_kb("b => a @ 1\nc & a => b @ 2\n")
        assert kb.signature.names == ("b", "a", "c")

    def test_empty_file(self):
        kb = tg.load_kb("# nothing here\n\n")
        assert kb.size == 0

    def test_infinite_threshold(self):
        kb = tg.load_kb("a => b @ inf\n")
        assert kb.rules[0].threshold == tg.INFINITY

    def test_extra_names_extend_signature(self):
        kb = tg.load_kb("a => b @ 1\n", extra_names=("c", "a"))
        assert kb.signature.names == ("a", "b", "c")

    def test_compiles_to_expected_profile(self):
        profile = tg.compile_kb(tg.load_kb(TWO_RULE_TEXT))
        assert profile.fixpoint == 3
        assert profile.is_consistent()

    def test_missing_arrow(self):
        with pytest.raises(tg.RuleFileError, match="line 1"):
            tg.load_kb("a & b @ 1\n")

    def test_missing_threshold(self):
        with pytest.raises(tg.RuleFileError, match="line 2"):
            tg.load_kb("a => b @ 1\nb => a\n")

    def test_repeated_at_sign(self):
        with pytest.raises(tg.RuleFileError, match="one '@"):
            tg.load_kb("a => b @ 1 @ 2\n")

    def test_zero_threshold_rejected(self):
        # Thresholds are ASCII digits only: int() alone would read 1_0 as
        # 10, the Arabic-Indic and fullwidth digits as 3 and 1, and +1.
        for number in ("0", "-2", "1.5", "1_0", "\u0663", "\uff11", "+1", "9" * 5000):
            with pytest.raises(tg.RuleFileError, match="positive"):
                tg.load_kb(f"a => b @ {number}\n")

    def test_bad_fragment_reports_line_and_column(self):
        with pytest.raises(tg.RuleFileError, match=r"line 2, column \d+"):
            tg.load_kb("a => b @ 1\na & => b @ 1\n")

    def test_column_offset_covers_consequent(self):
        # The column reported for a consequent error is shifted by the
        # arrow position, so it points into the original line.
        signature = tg.Signature(("ab", "c"))
        with pytest.raises(tg.ParseError) as direct:
            tg.parse(" (c ", signature)
        expected = 5 + direct.value.column  # "ab => " puts the fragment at 5
        with pytest.raises(tg.RuleFileError, match=f"line 1, column {expected}"):
            tg.load_kb("ab => (c @ 1\n")

    def test_bad_character_reports_its_own_column(self):
        # The column counts both characters of each '=>' before it.
        with pytest.raises(tg.RuleFileError) as error:
            tg.load_kb("a => b @ 1\nt => a => b $ @ 1\n")
        assert str(error.value) == "line 2, column 13: unexpected character '$'"


class TestLoadDefaults:
    def test_basic_file(self):
        rules, signature = tg.load_defaults("a -> b @ 0\nb -> ~a @ 2\n")
        assert signature.names == ("a", "b")
        assert [r.strength for r in rules] == [0, 2]
        assert rules[1].consequent.equivalent(tg.parse("~a", signature))

    def test_conditional_antecedent_needs_parentheses(self):
        rules, signature = tg.load_defaults("(a -> b) -> g @ 1\n")
        assert rules[0].antecedent.equivalent(tg.parse("a -> b", signature))
        assert rules[0].consequent.equivalent(tg.parse("g", signature))

    def test_iff_is_not_the_rule_arrow(self):
        rules, signature = tg.load_defaults("a <-> b -> g @ 0\n")
        assert rules[0].antecedent.equivalent(tg.parse("a <-> b", signature))

    def test_missing_arrow_mentions_the_sugar_trap(self):
        with pytest.raises(tg.RuleFileError, match="parentheses"):
            tg.load_defaults("a & b @ 1\n")

    def test_negative_strength_rejected(self):
        for number in ("-1", "-0", "0_1", "\u0663", "+1"):
            with pytest.raises(tg.RuleFileError, match="non-negative"):
                tg.load_defaults(f"a -> b @ {number}\n")

    def test_infinite_strength_rejected(self):
        with pytest.raises(tg.RuleFileError, match="non-negative"):
            tg.load_defaults("a -> b @ inf\n")


class TestParseQuery:
    SIG = tg.Signature(("a", "b"))

    def test_well_formed(self):
        query = tg.parse_query("t => a | b @ 2", self.SIG)
        assert query.antecedent.is_true
        assert query.consequent.equivalent(tg.parse("a | b", self.SIG))
        assert query.threshold == 2

    def test_infinite_threshold(self):
        assert tg.parse_query("a => b @ inf", self.SIG).threshold == tg.INFINITY

    def test_missing_parts(self):
        with pytest.raises(tg.RuleFileError):
            tg.parse_query("a @ 1", self.SIG)
        with pytest.raises(tg.RuleFileError):
            tg.parse_query("a => b", self.SIG)
        with pytest.raises(tg.RuleFileError):
            tg.parse_query("a => b @ 0", self.SIG)
        for number in ("1_0", "\u0663"):
            with pytest.raises(tg.RuleFileError, match="threshold must be"):
                tg.parse_query(f"a => b @ {number}", self.SIG)

    def test_query_names(self):
        assert tg.query_names("t => a | zebra @ 2") == ["a", "zebra"]

    def test_bad_character_in_query_names(self):
        with pytest.raises(tg.RuleFileError) as error:
            tg.query_names("t => a $ @ 1")
        assert str(error.value) == "line 1, column 8: unexpected character '$'"


class TestFormats:
    def test_kb_round_trip(self):
        kb = tg.load_kb("t => a @ 1\n~a => b @ 1\na & b => a | b @ inf\n")
        text = tg.format_kb(kb)
        assert text == "true => a @ 1\n~a => b @ 1\na & b => a | b @ inf\n"
        assert tg.load_kb(text) == kb

    def test_kb_round_trip_keeps_conditional_left_operand(self):
        kb = tg.load_kb("(a -> b) -> c => d @ 1\n")
        text = tg.format_kb(kb)
        assert text == "(a -> b) -> c => d @ 1\n"
        assert tg.load_kb(text) == kb

    def test_defaults_round_trip(self):
        rules, signature = tg.load_defaults("t -> a @ 0\n(a -> b) -> g @ 3\n")
        text = tg.format_defaults(rules)
        reloaded, resig = tg.load_defaults(text)
        assert resig == signature
        assert reloaded == rules

    def test_formatted_kb_reparses_to_same_profile(self):
        kb = tg.load_kb(TWO_RULE_TEXT)
        again = tg.load_kb(tg.format_kb(kb))
        p1, p2 = tg.compile_kb(kb), tg.compile_kb(again)
        assert p1.fixpoint == p2.fixpoint
        for a, b in zip(p1.chain, p2.chain):
            assert a.equivalent(b)