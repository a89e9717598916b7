"""Property tests over random knowledge bases of up to 4 names."""

import pytest

import threshgen as tg
from support import NAMES

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def knowledge_bases(draw):
    r = draw(st.integers(1, 4))
    signature = tg.Signature(NAMES[:r])
    masks = st.integers(0, signature.full_mask)
    thresholds = st.one_of(st.integers(1, 3), st.just(tg.INFINITY))
    rules = draw(
        st.lists(st.tuples(masks, masks, thresholds), max_size=4).map(
            lambda triples: tuple(
                tg.Generalization(
                    tg.Proposition(signature, antecedent),
                    tg.Proposition(signature, consequent),
                    threshold,
                )
                for antecedent, consequent, threshold in triples
            )
        )
    )
    return tg.KnowledgeBase(signature, rules)


PROPERTY = hypothesis.settings(max_examples=200, deadline=None, derandomize=True)


@PROPERTY
@hypothesis.given(knowledge_bases())
def test_format_load_format_round_trips(kb):
    names = kb.signature.names
    loaded = tg.load_kb(tg.format_kb(kb), extra_names=names)
    assert loaded.signature == kb.signature
    assert [(r.antecedent, r.consequent, r.threshold) for r in loaded.rules] == [
        (r.antecedent, r.consequent, r.threshold) for r in kb.rules
    ]
    # A rule built from masks renders each conjunction of a disjunction in
    # parentheses and its parsed tree renders without them, so the text is
    # compared from the first loaded form on.
    text = tg.format_kb(loaded)
    assert tg.format_kb(tg.load_kb(text, extra_names=names)) == text


@PROPERTY
@hypothesis.given(knowledge_bases())
def test_atom_depths_equal_per_minterm_depth_of(kb):
    profile = tg.compile_kb(kb)
    signature = kb.signature
    assert profile.atom_depths() == [
        profile.depth_of(tg.Proposition.minterm(signature, i))
        for i in range(signature.atom_count)
    ]
