"""Knowledge-base compilation, depth queries, and entailment decisions."""

import math
import time

import numpy as np
import pytest

import threshgen as tg
from support import (
    brute_force_atom_depths,
    engine_atom_depths,
    random_kb,
    random_proposition,
    reference_chain,
)

AB = tg.Signature(("a", "b"))
AG = tg.Signature(("a", "b", "g"))


def rule(sig, antecedent, consequent, k):
    return tg.Generalization(tg.parse(antecedent, sig), tg.parse(consequent, sig), k)


def two_rule_chain_kb():
    return tg.KnowledgeBase(
        AB, (rule(AB, "true", "a", 1), rule(AB, "~a", "b", 1))
    )


def contradictory_kb():
    return tg.KnowledgeBase(AB, (rule(AB, "true", "a", 1), rule(AB, "true", "~a", 1)))


class TestGeneralization:
    def test_threshold_validation(self):
        a, b = tg.parse("a", AB), tg.parse("b", AB)
        for bad in (0, -1, 1.5, "2", None):
            with pytest.raises((ValueError, TypeError)):
                tg.Generalization(a, b, bad)
        assert tg.Generalization(a, b, 1).threshold == 1
        assert tg.Generalization(a, b, tg.INFINITY).threshold == tg.INFINITY

    def test_exception(self):
        g = rule(AB, "a", "b", 1)
        assert g.exception().equivalent(tg.parse("a & ~b", AB))

    def test_mixed_signatures_rejected(self):
        with pytest.raises(tg.SignatureError):
            tg.Generalization(tg.parse("a", AB), tg.parse("g", AG), 1)
        with pytest.raises(tg.SignatureError):
            tg.KnowledgeBase(AB, (rule(AG, "a", "g", 1),))

    def test_text(self):
        assert rule(AB, "a", "b", 2).text() == "a => b @ 2"
        assert rule(AB, "a", "b", tg.INFINITY).text() == "a => b @ inf"
        assert str(rule(AB, "a -> b", "~a", 3)) == "a -> b => ~a @ 3"


class TestCompile:
    def test_empty_kb(self):
        profile = tg.compile_kb(tg.KnowledgeBase(AB, ()))
        assert profile.fixpoint == 1
        assert profile.chain[0].is_true
        assert profile.chain[1].is_false
        assert profile.window == 1
        assert profile.is_consistent()

    def test_two_rule_chain(self):
        profile = tg.compile_kb(two_rule_chain_kb())
        assert profile.fixpoint == 3
        expected = ("true", "~a", "~a & ~b", "false")
        for level, text in zip(profile.chain, expected):
            assert level.equivalent(tg.parse(text, AB))
        assert profile.is_consistent()
        assert profile.fired[1] == (0, 1)
        assert profile.fired[2] == (1,)
        assert profile.fired[3] == ()

    def test_contradictory_rules_stabilize_immediately(self):
        profile = tg.compile_kb(contradictory_kb())
        assert profile.fixpoint == 0
        assert profile.limit.is_true
        assert not profile.is_consistent()

    def test_hard_rule_pins_its_exception(self):
        kb = tg.KnowledgeBase(AB, (rule(AB, "true", "a", tg.INFINITY),))
        profile = tg.compile_kb(kb)
        assert profile.window == 1
        assert profile.fixpoint == 1
        assert profile.limit.equivalent(tg.parse("~a", AB))
        assert profile.depth_of(tg.parse("~a", AB)) == tg.INFINITY
        assert profile.is_consistent()

    def test_window_is_largest_finite_threshold(self):
        kb = tg.KnowledgeBase(
            AB,
            (rule(AB, "a", "b", 3), rule(AB, "b", "a", 1), rule(AB, "a", "~b", tg.INFINITY)),
        )
        assert tg.compile_kb(kb).window == 3

    def test_chain_is_monotone(self):
        rng = np.random.default_rng(20)
        for _ in range(150):
            profile = tg.compile_kb(random_kb(rng, allow_infinite=True))
            for d in range(profile.fixpoint):
                assert profile.chain[d + 1].entails(profile.chain[d])

    def test_fixpoint_is_stable_and_minimal(self):
        # compile_kb tests at each level only the rules that fired at the
        # level before; the reference tests every rule at every level.
        rng = np.random.default_rng(21)
        consistency = set()
        for _ in range(150):
            kb = random_kb(rng, allow_infinite=True)
            profile = tg.compile_kb(kb)
            window = profile.window
            chain, fired = reference_chain(kb, profile.fixpoint + 2 * window)
            assert profile.fired == tuple(fired[: profile.fixpoint + 1])
            for d, level in enumerate(profile.chain):
                assert level.equivalent(chain[d])
            for d in range(profile.fixpoint, profile.fixpoint + window + 1):
                assert chain[d].equivalent(profile.limit)
            for early in range(profile.fixpoint):
                assert not chain[early].entails(chain[early + window])
            consistency.add(profile.is_consistent())
        assert consistency == {True, False}

    def test_rule_order_is_irrelevant(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            kb = random_kb(rng, max_rules=3, allow_infinite=True)
            if kb.size < 2:
                continue
            shuffled = tg.KnowledgeBase(
                kb.signature,
                tuple(kb.rules[i] for i in rng.permutation(kb.size)),
            )
            p1, p2 = tg.compile_kb(kb), tg.compile_kb(shuffled)
            assert p1.fixpoint == p2.fixpoint
            for _ in range(10):
                rho = random_proposition(rng, kb.signature)
                assert p1.depth_of(rho) == p2.depth_of(rho)

    def test_duplicate_rules_change_nothing(self):
        kb = two_rule_chain_kb()
        doubled = tg.KnowledgeBase(AB, kb.rules + kb.rules)
        p1, p2 = tg.compile_kb(kb), tg.compile_kb(doubled)
        assert p1.fixpoint == p2.fixpoint
        for level1, level2 in zip(p1.chain, p2.chain):
            assert level1.equivalent(level2)


class TestDepthOf:
    def test_worked_values(self):
        profile = tg.compile_kb(two_rule_chain_kb())
        assert profile.depth_of(tg.parse("true", AB)) == 0
        assert profile.depth_of(tg.parse("~a", AB)) == 1
        assert profile.depth_of(tg.parse("~a & ~b", AB)) == 2
        assert profile.depth_of(tg.parse("false", AB)) == tg.INFINITY

    def test_false_always_infinite(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            kb = random_kb(rng, allow_infinite=True)
            profile = tg.compile_kb(kb)
            assert profile.depth_of(tg.Proposition.false(kb.signature)) == tg.INFINITY

    def test_empty_kb_depths(self):
        profile = tg.compile_kb(tg.KnowledgeBase(AB, ()))
        for mask in range(1, AB.full_mask + 1):
            assert profile.depth_of(tg.Proposition(AB, mask)) == 0

    def test_signature_mismatch(self):
        profile = tg.compile_kb(tg.KnowledgeBase(AB, ()))
        with pytest.raises(tg.SignatureError):
            profile.depth_of(tg.parse("g", AG))

    def test_degree_of_rarity_is_an_alias(self):
        profile = tg.compile_kb(two_rule_chain_kb())
        for text in ("true", "~a", "~a & ~b", "false", "a | b"):
            rho = tg.parse(text, AB)
            assert profile.degree_of_rarity(rho) == profile.depth_of(rho)

    def test_axioms_on_random_inputs(self):
        rng = np.random.default_rng(24)
        for _ in range(400):
            kb = random_kb(rng, allow_infinite=True)
            profile = tg.compile_kb(kb)
            x = random_proposition(rng, kb.signature)
            y = random_proposition(rng, kb.signature)
            assert profile.depth_of(x | y) == min(
                profile.depth_of(x), profile.depth_of(y)
            )
            if x.entails(y):
                assert profile.depth_of(x) >= profile.depth_of(y)
            narrowed = tg.Proposition(kb.signature, x.mask & y.mask)
            assert profile.depth_of(narrowed) >= profile.depth_of(x)

    def test_rules_satisfied_by_their_own_depths(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            kb = random_kb(rng, allow_infinite=True)
            profile = tg.compile_kb(kb)
            for r in kb.rules:
                d_exc = profile.depth_of(r.exception())
                d_ant = profile.depth_of(r.antecedent)
                assert d_exc >= d_ant + r.threshold

    def test_consistency_dichotomy(self):
        rng = np.random.default_rng(26)
        seen = set()
        for _ in range(200):
            profile = tg.compile_kb(random_kb(rng, allow_infinite=True))
            top = profile.depth_of(tg.Proposition.true(profile.kb.signature))
            assert top in (0, tg.INFINITY)
            assert profile.is_consistent() == (top == 0)
            seen.add(top)
        assert seen == {0, tg.INFINITY}

    def test_atom_depths_match_brute_force_search(self):
        rng = np.random.default_rng(27)
        for _ in range(40):
            kb = random_kb(rng)
            profile = tg.compile_kb(kb)
            expected = brute_force_atom_depths(kb, profile.fixpoint)
            got = engine_atom_depths(profile)
            assert np.array_equal(got, expected), (kb, got, expected)

    def test_bisects_the_nested_chain(self, monkeypatch):
        # t => x0 @ 1 and ~x0 & ... & ~x(i-1) => xi @ 1 for i = 1..15: each
        # level drops one more name, so the chain has 17 levels before false.
        names = [f"x{i}" for i in range(16)]
        text = "t => x0 @ 1\n" + "".join(
            " & ".join(f"~{n}" for n in names[:i]) + f" => {names[i]} @ 1\n"
            for i in range(1, 16)
        )
        kb = tg.load_kb(text)
        sig = kb.signature
        profile = tg.compile_kb(kb)
        assert profile.fixpoint == 17
        masks = [level.mask for level in profile.chain]

        def linear_depth(rho):
            if rho.mask | profile.limit.mask == profile.limit.mask:
                return tg.INFINITY
            for d in range(profile.fixpoint - 1, -1, -1):
                if rho.mask | masks[d] == masks[d]:
                    return d

        rng = np.random.default_rng(34)
        probes = [random_proposition(rng, sig) for _ in range(20)]
        # Random parts of each level reach every depth, infinity included.
        for mask in masks:
            for _ in range(3):
                part = mask & random_proposition(rng, sig).mask
                probes.append(tg.Proposition(sig, part))
        expected = [linear_depth(rho) for rho in probes]
        assert set(expected) == set(range(profile.fixpoint)) | {tg.INFINITY}

        calls = 0
        entails = tg.Proposition.entails

        def counted(self, other):
            nonlocal calls
            calls += 1
            return entails(self, other)

        monkeypatch.setattr(tg.Proposition, "entails", counted)
        bound = 1 + math.ceil(math.log2(profile.fixpoint))
        for rho, depth in zip(probes, expected):
            calls = 0
            assert profile.depth_of(rho) == depth
            assert calls <= bound, (depth, calls)

    def test_depth_determined_by_atom_minimum(self):
        rng = np.random.default_rng(28)
        for _ in range(100):
            kb = random_kb(rng, allow_infinite=True)
            profile = tg.compile_kb(kb)
            rho = random_proposition(rng, kb.signature)
            atom_depths = [
                profile.depth_of(tg.Proposition.minterm(kb.signature, i))
                for i in rho.atoms()
            ]
            expected = min(atom_depths, default=tg.INFINITY)
            assert profile.depth_of(rho) == expected


class TestAtomDepths:
    def test_matches_per_minterm_depth_of(self):
        rng = np.random.default_rng(29)
        seen_inf = False
        fixpoints = set()
        for _ in range(60):
            kb = random_kb(
                rng, max_names=10, max_rules=6, allow_infinite=True, min_names=5
            )
            profile = tg.compile_kb(kb)
            got = profile.atom_depths()
            assert np.array_equal(np.array(got, dtype=float), engine_atom_depths(profile))
            seen_inf |= any(r.threshold == tg.INFINITY for r in kb.rules)
            fixpoints.add(profile.fixpoint)
            # The same KB plus a contradictory pair is inconsistent: fixpoint 0
            # and every atom at depth infinity.
            k = int(rng.integers(1, 4))
            a = tg.Proposition.name(kb.signature, "a")
            top = tg.Proposition.true(kb.signature)
            bad = tg.KnowledgeBase(
                kb.signature,
                kb.rules + (tg.Generalization(top, a, k), tg.Generalization(top, ~a, k)),
            )
            profile = tg.compile_kb(bad)
            assert profile.fixpoint == 0
            got = profile.atom_depths()
            assert got == [tg.INFINITY] * kb.signature.atom_count
            assert np.array_equal(np.array(got, dtype=float), engine_atom_depths(profile))
        assert seen_inf
        assert 1 in fixpoints and max(fixpoints) >= 2, fixpoints

    def test_codes_take_one_byte_below_255_levels(self):
        # t => x0 @ k gives fixpoint k + 1, so k = 253 and k = 254 straddle
        # the switch from one byte per code to four, and from 2 names on
        # xr => x0 @ inf puts atoms at code fixpoint (depth infinity). One
        # and two names pad their codes to 8 atoms.
        for r in (1, 2, 3, 4):
            names = [f"x{i}" for i in range(r)]
            chain = "".join(f"{names[i]} => {names[i + 1]} @ 1\n" for i in range(r - 1))
            hard = f"{names[-1]} => x0 @ inf\n" if r > 1 else ""
            for k in (1, 253, 254, 300):
                profile = tg.compile_kb(tg.load_kb(f"t => x0 @ {k}\n{chain}{hard}"))
                assert profile.fixpoint == k + 1
                codes = profile._atom_codes()
                assert len(codes) == 1 << r
                assert codes.format == ("B" if k < 254 else "I")
                assert max(codes) == (k + 1 if hard else k)
                depths = engine_atom_depths(profile)
                assert profile.atom_depths() == depths.tolist(), (r, k)

    def test_matches_brute_force_search(self):
        rng = np.random.default_rng(30)
        for _ in range(40):
            kb = random_kb(rng)
            profile = tg.compile_kb(kb)
            expected = brute_force_atom_depths(kb, profile.fixpoint)
            got = np.array(profile.atom_depths(), dtype=float)
            assert np.array_equal(got, expected), (kb, got, expected)

    def test_worked_values(self):
        # Atoms of AB in order: ~a & ~b, a & ~b, ~a & b, a & b.
        assert tg.compile_kb(two_rule_chain_kb()).atom_depths() == [2, 0, 1, 0]
        hard = tg.KnowledgeBase(AB, (rule(AB, "a", "b", tg.INFINITY),))
        assert tg.compile_kb(hard).atom_depths() == [0, tg.INFINITY, 0, 0]
        assert tg.compile_kb(contradictory_kb()).atom_depths() == [tg.INFINITY] * 4


class TestSymbolicCap:
    def test_24_name_kb_loads_compiles_and_answers_within_bound(self):
        names = [f"x{i}" for i in range(24)]
        lines = [f"{a} => {b} @ 1\n" for a, b in zip(names, names[1:])]
        text = "".join(lines) + "x0 => ~x23 @ 2\n"
        start = time.perf_counter()
        kb = tg.load_kb(text)
        profile = tg.compile_kb(kb)
        own = profile.entails_in_probability(tg.parse_query("x0 => x1 @ 1", kb.signature))
        free = profile.entails_in_probability(tg.parse_query("t => x0 @ 1", kb.signature))
        elapsed = time.perf_counter() - start
        assert kb.signature.size == 24 and kb.size == 24
        assert profile.is_consistent()
        assert own and not free
        assert elapsed < 2.0, f"24-name load, compile and query took {elapsed:.2f} s"


class TestEntailment:
    def test_two_rule_chain_thresholds(self):
        profile = tg.compile_kb(two_rule_chain_kb())
        top = tg.parse("true", AB)
        disj = tg.parse("a | b", AB)
        for j, expected in ((1, True), (2, True), (3, False)):
            query = tg.Generalization(top, disj, j)
            assert profile.entails_in_probability(query) is expected
        assert profile.max_entailed_threshold(top, disj) == 2

    def test_threshold_strength_tradeoff(self):
        strong = tg.KnowledgeBase(
            AG, (rule(AG, "a", "g", 2), rule(AG, "b", "~g", 1))
        )
        weak = tg.KnowledgeBase(
            AG, (rule(AG, "a", "g", 1), rule(AG, "b", "~g", 1))
        )
        query = tg.Generalization(tg.parse("a & b", AG), tg.parse("g", AG), 1)
        assert tg.compile_kb(strong).entails_in_probability(query)
        assert not tg.compile_kb(weak).entails_in_probability(query)

    def test_adding_a_rule_can_retract_a_conclusion(self):
        base = tg.KnowledgeBase(AG, (rule(AG, "a", "g", 2),))
        query = tg.Generalization(tg.parse("a & b", AG), tg.parse("g", AG), 1)
        assert tg.compile_kb(base).entails_in_probability(query)
        extended = tg.KnowledgeBase(
            AG, base.rules + (rule(AG, "a & b", "~g", 1),)
        )
        assert not tg.compile_kb(extended).entails_in_probability(query)

    def test_empty_kb_reduces_to_entailment(self):
        rng = np.random.default_rng(29)
        profile = tg.compile_kb(tg.KnowledgeBase(AB, ()))
        for _ in range(100):
            gamma = random_proposition(rng, AB)
            zeta = random_proposition(rng, AB)
            j = int(rng.integers(1, 4))
            query = tg.Generalization(gamma, zeta, j)
            assert profile.entails_in_probability(query) == gamma.entails(zeta)

    def test_contradictory_kb_entails_everything(self):
        rng = np.random.default_rng(30)
        profile = tg.compile_kb(contradictory_kb())
        for _ in range(100):
            query = tg.Generalization(
                random_proposition(rng, AB),
                random_proposition(rng, AB),
                int(rng.integers(1, 4)),
            )
            assert profile.entails_in_probability(query)

    def test_impossible_antecedent_is_vacuously_entailed(self):
        profile = tg.compile_kb(two_rule_chain_kb())
        query = tg.Generalization(
            tg.parse("false", AB), tg.parse("a", AB), tg.INFINITY
        )
        assert profile.entails_in_probability(query)

    def test_infinite_threshold_queries(self):
        profile = tg.compile_kb(tg.KnowledgeBase(AB, ()))
        a = tg.parse("a", AB)
        assert profile.entails_in_probability(tg.Generalization(a, a, tg.INFINITY))
        assert not profile.entails_in_probability(
            tg.Generalization(a, tg.parse("b", AB), tg.INFINITY)
        )

    def test_max_entailed_threshold_extremes(self):
        profile = tg.compile_kb(tg.KnowledgeBase(AB, ()))
        a, b = tg.parse("a", AB), tg.parse("b", AB)
        assert profile.max_entailed_threshold(a, a) == tg.INFINITY
        assert profile.max_entailed_threshold(a, b) is None

    def test_max_entailed_threshold_rejects_other_signatures(self):
        # As when the rule gamma => zeta @ 1 is built and decided: sides of
        # different signatures, or a signature that is not the KB's, raise.
        profile = tg.compile_kb(two_rule_chain_kb())
        a = tg.parse("a", AB)
        twin = tg.Signature(("a", "b"))
        assert profile.max_entailed_threshold(tg.parse("~a", twin), tg.parse("b", AB)) == 1
        for gamma, zeta in (
            (a, tg.parse("a", AG)),
            (tg.parse("a", AG), a),
            (tg.parse("a", AG), tg.parse("b", AG)),
        ):
            with pytest.raises(tg.SignatureError):
                profile.max_entailed_threshold(gamma, zeta)
            with pytest.raises(tg.SignatureError):
                profile.decide(tg.Generalization(gamma, zeta, 1))

    def test_max_entailed_threshold_agrees_with_queries(self):
        rng = np.random.default_rng(31)
        for _ in range(150):
            kb = random_kb(rng, allow_infinite=True)
            profile = tg.compile_kb(kb)
            gamma = random_proposition(rng, kb.signature)
            zeta = random_proposition(rng, kb.signature)
            best = profile.max_entailed_threshold(gamma, zeta)
            for j in (1, 2, 3, 4):
                expected = best is not None and j <= best
                query = tg.Generalization(gamma, zeta, j)
                assert profile.entails_in_probability(query) == expected
            if best == tg.INFINITY:
                assert profile.entails_in_probability(
                    tg.Generalization(gamma, zeta, tg.INFINITY)
                )

    def test_decide_returns_the_verdict_and_both_depths(self):
        rng = np.random.default_rng(32)
        for _ in range(150):
            kb = random_kb(rng, allow_infinite=True)
            profile = tg.compile_kb(kb)
            query = tg.Generalization(
                random_proposition(rng, kb.signature),
                random_proposition(rng, kb.signature),
                int(rng.integers(1, 4)),
            )
            d_exception = profile.depth_of(query.exception())
            d_antecedent = profile.depth_of(query.antecedent)
            entailed = d_exception >= d_antecedent + query.threshold
            assert profile.decide(query) == (entailed, d_exception, d_antecedent)
        other = tg.Signature(("a", "b", "c"))
        with pytest.raises(tg.SignatureError):
            profile.decide(rule(other, "a", "b", 1))

    def test_depth_text(self):
        assert tg.depth_text(0) == "0"
        assert tg.depth_text(5) == "5"
        assert tg.depth_text(math.inf) == "inf"
