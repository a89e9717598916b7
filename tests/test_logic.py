"""Propositions, signatures, and the formula parser."""

import time

import numpy as np
import pytest

import threshgen as tg
from support import doubling_name_mask, random_proposition, truth_table_mask

AB = tg.Signature(("a", "b"))
ABC = tg.Signature(("a", "b", "c"))


def random_display_tree(rng, signature, depth):
    """A random proposition whose display tree mixes names, constants,
    mask-built leaves and all five connectives; the mask of each '->' and
    '<->' node comes from its truth table, not from the parser."""
    full = signature.full_mask
    choice = int(rng.integers(0, 8 if depth else 3))
    if choice == 0:
        return tg.Proposition.name(signature, str(rng.choice(signature.names)))
    if choice == 1:
        return tg.parse(str(rng.choice(["t", "f"])), signature)
    if choice == 2:
        return random_proposition(rng, signature)
    if choice == 3:
        return ~random_display_tree(rng, signature, depth - 1)
    p = random_display_tree(rng, signature, depth - 1)
    q = random_display_tree(rng, signature, depth - 1)
    if choice == 4:
        return p & q
    if choice == 5:
        return p | q
    if choice == 6:
        return tg.Proposition(signature, (full ^ p.mask) | q.mask, ("imp", p._tree(), q._tree()))
    return tg.Proposition(signature, full ^ p.mask ^ q.mask, ("iff", p._tree(), q._tree()))


class TestSignature:
    def test_basic_properties(self):
        assert AB.size == 2
        assert AB.atom_count == 4
        assert AB.full_mask == 0b1111
        assert ABC.atom_count == 8

    def test_name_mask_matches_per_atom_definition(self):
        # From r = 0, which has no name to ask for.
        for r in range(13):
            sig = tg.Signature(tuple(f"x{i}" for i in range(r)))
            for j in range(r):
                expected = 0
                for atom in range(sig.atom_count):
                    if (atom >> j) & 1:
                        expected |= 1 << atom
                assert sig.name_mask(j) == expected, (r, j)
            with pytest.raises(tg.SignatureError):
                sig.name_mask(r)
        # Too wide to build atom by atom: compare with the doubling
        # construction, asking for the names in both orders.
        for r in (20, 24):
            names = tuple(f"x{i}" for i in range(r))
            for order in (range(r), reversed(range(r))):
                sig = tg.Signature(names)
                for j in order:
                    assert sig.name_mask(j) == doubling_name_mask(r, j), (r, j)

    def test_name_mask_range_check(self):
        for j in (-1, 3):
            with pytest.raises(tg.SignatureError):
                ABC.name_mask(j)

    def test_full_mask_for_every_size(self):
        for r in range(25):
            sig = tg.Signature(tuple(f"x{i}" for i in range(r)))
            assert sig.full_mask == (1 << 2**r) - 1, r

    def test_large_signature(self):
        names = tuple(f"x{i}" for i in range(24))
        sig = tg.Signature(names)
        assert sig.atom_count == 1 << 24
        assert tg.Proposition.name(sig, "x23").mask == sig.name_mask(23)
        for j in range(24):
            mask = sig.name_mask(j)
            assert mask.bit_count() == 1 << 23, j
            assert mask | sig.full_mask == sig.full_mask

    def test_too_many_names(self):
        with pytest.raises(tg.SignatureError):
            tg.Signature(tuple(f"x{i}" for i in range(25)))

    def test_duplicate_names(self):
        with pytest.raises(tg.SignatureError):
            tg.Signature(("a", "a"))

    def test_keywords_rejected(self):
        for word in ("true", "false", "t", "f"):
            with pytest.raises(tg.SignatureError):
                tg.Signature((word,))

    def test_invalid_identifier(self):
        with pytest.raises(tg.SignatureError):
            tg.Signature(("3x",))
        with pytest.raises(tg.SignatureError):
            tg.Signature(("a-b",))

    def test_atom_text(self):
        assert AB.atom_text(0) == "~a & ~b"
        assert AB.atom_text(0b01) == "a & ~b"
        assert AB.atom_text(0b11) == "a & b"
        for i in (-1, 4):
            with pytest.raises(tg.SignatureError, match=f"^atom index {i} out of range$"):
                AB.atom_text(i)

    def test_index_rejects_an_unknown_name(self):
        assert AB.index("b") == 1
        with pytest.raises(tg.SignatureError, match="^unknown name 'c'$"):
            AB.index("c")

    def test_atom_texts_are_the_signature_atom_texts(self):
        # Each atom's text comes from two per-signature tables; it must be
        # the literals of the atom joined in name order.
        rng = np.random.default_rng(0)
        for r in range(11):
            signature = tg.Signature(tuple(f"n{j}" for j in range(r)))
            names = signature.names
            expected = [
                " & ".join(n if (i >> j) & 1 else f"~{n}" for j, n in enumerate(names)) or "true"
                for i in range(signature.atom_count)
            ]
            assert list(signature.atom_texts()) == expected
            assert [signature.atom_text(i) for i in range(signature.atom_count)] == expected
            atoms = np.flatnonzero(rng.random(signature.atom_count) < 0.5)
            mask = sum(1 << int(i) for i in atoms)
            if 0 < mask < signature.full_mask:
                text = tg.Proposition(signature, mask).text()
                assert text == " | ".join(expected[i] for i in atoms)


class TestPropositionAlgebra:
    def test_constants(self):
        assert tg.Proposition.true(AB).mask == AB.full_mask
        assert tg.Proposition.false(AB).mask == 0
        assert tg.Proposition.true(AB).is_true
        assert tg.Proposition.false(AB).is_false

    def test_connectives_are_mask_operations(self):
        a = tg.Proposition.name(AB, "a")
        b = tg.Proposition.name(AB, "b")
        assert (a & b).mask == a.mask & b.mask
        assert (a | b).mask == a.mask | b.mask
        assert (~a).mask == a.mask ^ AB.full_mask

    def test_entailment_examples(self):
        a = tg.Proposition.name(AB, "a")
        b = tg.Proposition.name(AB, "b")
        assert (a & b).entails(a)
        assert not (a | b).entails(a)
        assert tg.Proposition.false(AB).entails(a)
        assert a.entails(tg.Proposition.true(AB))

    def test_entailment_is_a_partial_order(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            x = random_proposition(rng, ABC)
            y = tg.Proposition(ABC, x.mask & int(rng.integers(0, 256)))
            z = tg.Proposition(ABC, y.mask & int(rng.integers(0, 256)))
            assert x.entails(x)
            assert z.entails(y) and y.entails(x)
            assert z.entails(x)
        for _ in range(300):
            x = random_proposition(rng, ABC)
            y = random_proposition(rng, ABC)
            if x.entails(y) and y.entails(x):
                assert x.equivalent(y)

    def test_de_morgan_and_distributivity(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            x = random_proposition(rng, ABC)
            y = random_proposition(rng, ABC)
            z = random_proposition(rng, ABC)
            assert (~(x & y)).equivalent(~x | ~y)
            assert (~(x | y)).equivalent(~x & ~y)
            assert (x & (y | z)).equivalent((x & y) | (x & z))
            assert (x | (y & z)).equivalent((x | y) & (x | z))

    def test_minterms_partition_truth(self):
        sig = ABC
        union = tg.Proposition.false(sig)
        for i in range(sig.atom_count):
            union = union | tg.Proposition.minterm(sig, i)
        assert union.is_true

    def test_out_of_range_masks_and_minterms(self):
        for i in (-1, 4):
            with pytest.raises(ValueError, match=f"^atom index {i} out of range$"):
                tg.Proposition.minterm(AB, i)
        for mask, shown in ((-1, "-0x1"), (0b10000, "0x10")):
            with pytest.raises(ValueError) as raised:
                tg.Proposition(AB, mask)
            assert str(raised.value) == f"mask {shown} out of range for Signature(['a', 'b'])"

    def test_atoms_iterates_set_bits(self):
        a = tg.Proposition.name(AB, "a")
        assert list(a.atoms()) == [0b01, 0b11]

    def test_atoms_matches_per_bit_definition(self):
        rng = np.random.default_rng(11)
        for r in range(11):
            sig = tg.Signature(tuple(f"x{i}" for i in range(r)))
            props = [tg.Proposition.false(sig), tg.Proposition.true(sig)]
            props += [random_proposition(rng, sig) for _ in range(5)]
            props += [tg.Proposition.minterm(sig, sig.atom_count - 1)]
            for p in props:
                expected = [i for i in range(sig.atom_count) if (p.mask >> i) & 1]
                assert list(p.atoms()) == expected, (r, p.mask)

    def test_atoms_half_full_at_20_names_within_bound(self):
        sig = tg.Signature(tuple(f"x{i}" for i in range(20)))
        p = tg.Proposition.name(sig, "x0")
        start = time.perf_counter()
        atoms = list(p.atoms())
        elapsed = time.perf_counter() - start
        assert len(atoms) == 1 << 19
        assert atoms[:3] == [1, 3, 5] and atoms[-1] == (1 << 20) - 1
        assert elapsed < 1.0, f"enumerating 2**19 atoms took {elapsed:.2f} s"

    def test_long_chains_render(self):
        # One connective per level: far deeper than Python's recursion limit.
        p = tg.Proposition.name(AB, "a")
        q = tg.Proposition.name(AB, "b")
        chain = p
        for _ in range(5000):
            chain = chain | p
        assert chain.text() == " | ".join(["a"] * 5001)
        mixed = (chain & q) | ~~q
        assert mixed.text() == f"({chain.text()}) & b | ~~b"
        negated = p
        for _ in range(5000):
            negated = ~negated
        assert negated.text() == "~" * 5000 + "a"
        rule = tg.Generalization(chain, q, 1)
        assert repr(rule).startswith("Generalization(antecedent=Proposition('a | a")

    def test_repr_shows_at_most_80_characters(self):
        p = tg.Proposition.name(AB, "a")
        chain = p
        for n in range(2, 30):
            chain = chain | p
            text = chain.text()  # 4n - 3 characters
            shown = text if len(text) <= 80 else text[:77] + "..."
            assert repr(chain) == f"Proposition({shown!r})"

    def test_repr_renders_only_what_it_shows(self, monkeypatch):
        # Chain member 1 of the 18-name chain t => x0, x0 => x1, ...,
        # x16 => x17, all @ 1, has 2**18 - 1 atom terms.
        text = "t => x0 @ 1\n" + "".join(f"x{i} => x{i + 1} @ 1\n" for i in range(17))
        member = tg.compile_kb(tg.load_kb(text)).chain[1]
        shown = member.text()[:77] + "..."
        render = tg.logic._render
        drawn = []

        def counted(prop):
            for piece in render(prop):
                drawn.append(piece)
                yield piece

        monkeypatch.setattr(tg.logic, "_render", counted)
        assert repr(member) == f"Proposition({shown!r})"
        assert len(drawn) <= 2

    def test_cross_signature_operations_rejected(self):
        a = tg.Proposition.name(AB, "a")
        other = tg.Proposition.name(ABC, "a")
        with pytest.raises(tg.SignatureError):
            a & other
        with pytest.raises(tg.SignatureError):
            a.entails(other)

    def test_equal_signatures_are_interchangeable(self):
        # Two objects with the same names: equal, hashed alike, and their
        # propositions combine, compare and entail one another.
        twin = tg.Signature(("a", "b"))
        assert twin is not AB
        assert twin == AB and AB == twin and not twin != AB
        assert hash(twin) == hash(AB)
        assert twin != tg.Signature(("b", "a")) and twin != ABC
        a = tg.Proposition.name(AB, "a")
        b = tg.Proposition.name(twin, "b")
        assert (a & b).mask == 0b1000
        assert (a & b).entails(a) and a.equivalent(tg.parse("a", twin))
        assert a == tg.parse("a", twin) and hash(a) == hash(tg.parse("a", twin))
        # Different names still do not mix, in either order.
        other = tg.Proposition.name(tg.Signature(("a", "c")), "a")
        for p, q in ((a, other), (other, b)):
            with pytest.raises(tg.SignatureError):
                p | q
            with pytest.raises(tg.SignatureError):
                p.equivalent(q)

    def test_equality_and_hash_follow_meaning(self):
        p1 = tg.parse("a | b", AB)
        p2 = tg.parse("b | a", AB)
        assert p1 == p2
        assert hash(p1) == hash(p2)
        assert p1 != tg.parse("a & b", AB)


class TestParser:
    def test_precedence(self):
        p = tg.parse("~a & b | c", ABC)
        q = tg.parse("((~a) & b) | c", ABC)
        assert p.equivalent(q)

    def test_implication_is_right_associative(self):
        p = tg.parse("a -> b -> c", ABC)
        q = tg.parse("a -> (b -> c)", ABC)
        assert p.equivalent(q)
        assert not p.equivalent(tg.parse("(a -> b) -> c", ABC))

    def test_iff_binds_loosest(self):
        p = tg.parse("a <-> b | c", ABC)
        q = tg.parse("a <-> (b | c)", ABC)
        assert p.equivalent(q)

    def test_sugar_desugars(self):
        assert tg.parse("a -> b", AB).equivalent(tg.parse("~a | b", AB))
        assert tg.parse("a <-> b", AB).equivalent(
            tg.parse("(a & b) | (~a & ~b)", AB)
        )

    def test_keyword_aliases(self):
        assert tg.parse("t", AB).is_true
        assert tg.parse("true", AB).is_true
        assert tg.parse("f", AB).is_false
        assert tg.parse("false", AB).is_false

    def test_comments_and_whitespace(self):
        p = tg.parse("  a &   # trailing comment\n b ", AB)
        assert p.equivalent(tg.parse("a & b", AB))

    def test_double_negation(self):
        assert tg.parse("~~a", AB).equivalent(tg.parse("a", AB))

    def test_parse_matches_truth_table(self):
        rng = np.random.default_rng(9)
        texts = [
            "a -> (b <-> c)",
            "~(a | b) & c",
            "a & b & c | ~a & ~b",
            "(a <-> b) <-> c",
            "true -> a",
            "~f | b",
        ]
        for text in texts:
            p = tg.parse(text, ABC)
            assert p.mask == truth_table_mask(p)
        for _ in range(50):
            p = random_proposition(rng, ABC)
            reparsed = tg.parse(p.text(), ABC)
            assert reparsed.mask == truth_table_mask(reparsed) == p.mask

    def test_print_parse_round_trip(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            p = random_proposition(rng, ABC)
            assert tg.parse(p.text(), ABC).equivalent(p)
        for text in ("a -> b -> c", "~(a <-> b) | ~c", "t & ~f"):
            p = tg.parse(text, ABC)
            assert tg.parse(p.text(), ABC).equivalent(p)
        # '->' does not associate: its left operand keeps its parentheses.
        for text in ("(a -> b) -> c", "((a -> b) -> c) -> a", "(a -> b) <-> c"):
            p = tg.parse(text, ABC)
            assert tg.parse(p.text(), ABC).equivalent(p), p.text()
        assert tg.parse("((a -> b) -> c) -> a", ABC).text() == "((a -> b) -> c) -> a"
        for _ in range(1000):
            p = random_display_tree(rng, ABC, 5)
            assert tg.parse(p.text(), ABC).mask == p.mask, p.text()

    def test_unknown_name(self):
        with pytest.raises(tg.UnknownNameError) as info:
            tg.parse("a & zebra", AB)
        assert info.value.name == "zebra"
        assert "zebra" in str(info.value)

    def test_error_positions(self):
        with pytest.raises(tg.ParseError) as info:
            tg.parse("a &", AB)
        assert info.value.line == 1
        with pytest.raises(tg.ParseError) as info:
            tg.parse("a @ b", AB)
        assert info.value.column == 3
        with pytest.raises(tg.ParseError):
            tg.parse("(a & b", AB)
        with pytest.raises(tg.ParseError):
            tg.parse("a b", AB)
        with pytest.raises(tg.ParseError):
            tg.parse("", AB)

    def test_nesting_bound(self):
        # 100 levels of '(', '~' and '->' parse; the token that opens the
        # 101st is a ParseError at its own column, not a RecursionError.
        for text, same in (
            ("(" * 100 + "a" + ")" * 100, "a"),
            ("~" * 100 + "a", "a"),
            ("(" * 50 + "~" * 50 + "a" + ")" * 50, "a"),
            (" -> ".join(["b"] * 100 + ["a"]), "~b | a"),
            ("a & (" * 100 + "a" + ")" * 100, "a"),
        ):
            assert tg.parse(text, AB).equivalent(tg.parse(same, AB)), text
        for text, column in (
            ("(" * 200 + "a" + ")" * 200, 101),
            ("~" * 1000 + "a", 101),
            ("b & " + "(" * 50 + "~" * 51 + "a" + ")" * 50, 105),
            (" -> ".join(["a"] * 1000), 503),
            ("a & (" * 101 + "a" + ")" * 101, 505),
        ):
            with pytest.raises(tg.ParseError, match="nesting deeper than 100") as info:
                tg.parse(text, AB)
            assert (info.value.line, info.value.column) == (1, column)

    def test_scan_names(self):
        assert tg.scan_names("a -> (b & zebra) # c") == ["a", "b", "zebra"]
        assert tg.scan_names("t & true | f") == []
