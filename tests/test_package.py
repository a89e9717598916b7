"""The package namespace: every public name, with the numerical route's
and the System-Z+ bridge's names resolved on first access, and the frozen
value records."""

import copy
import pickle
import subprocess
import sys

import pytest

import threshgen
from support import child_env


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from threshgen import *", namespace)
    assert set(threshgen.__all__) <= set(namespace)
    for name in threshgen.__all__:
        assert namespace[name] is getattr(threshgen, name)


def test_lazy_names_are_the_modules_own():
    assert threshgen.scaling_verdict is threshgen.sampling.scaling_verdict
    assert threshgen.NumericalError is threshgen.polytope.NumericalError
    assert threshgen.PSI_SWEEP is threshgen.sampling.PSI_SWEEP


def test_namespace_before_first_use():
    # In a fresh interpreter, where no lazy name has been resolved yet.
    script = (
        "import sys, threshgen\n"
        "assert set(threshgen.__all__) <= set(dir(threshgen))\n"
        "assert 'numpy' not in sys.modules\n"
        "assert threshgen.sampling is sys.modules['threshgen.sampling']\n"
        "assert threshgen.polytope is sys.modules['threshgen.polytope']\n"
    )
    subprocess.run([sys.executable, "-c", script], env=child_env(), check=True)


def test_unknown_attribute_is_missing():
    assert not hasattr(threshgen, "nope")
    with pytest.raises(AttributeError, match="nope"):
        threshgen.nope


def test_symbolic_commands_import_only_what_they_run(tmp_path):
    # query and depthmap load no module that they never call: not the
    # System-Z+ bridge, not dataclasses and inspect, not NumPy or SciPy.
    # Whatever the interpreter loaded at start-up does not count.
    path = tmp_path / "kb.rules"
    path.write_text("t => a @ 1\n~a => b @ 1\n")
    script = f"""
import contextlib, io, sys
start = set(sys.modules)
import threshgen.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["query", "--kb", {str(path)!r}, "t => a | b @ 2"]) == 0
    assert cli.main(["depthmap", "--kb", {str(path)!r}]) == 0
unwanted = ("dataclasses", "inspect", "threshgen.zplus", "numpy", "scipy")
new = set(sys.modules) - start
print(sorted(name for name in new if name in unwanted or name.split(".")[0] in unwanted))
import threshgen as tg
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert cli.main(["zplus", "--kb", {str(path)!r}, "to"]) == 0
print(out.getvalue().replace("\\n", ";"))
kb = tg.load_kb("t => a @ 2\\n")
print(tg.format_defaults(tg.to_zplus(kb)).strip())
print(tg.ZPlusRule is sys.modules["threshgen.zplus"].ZPlusRule)
"""
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=child_env(),
        check=True,
    )
    assert done.stdout.splitlines() == [
        "[]",
        "true -> a @ 0;~a -> b @ 0;",
        "true -> a @ 1",
        "True",
    ]


SIG = threshgen.Signature(["a", "b"])
A = threshgen.parse("a", SIG)
A_IMPLIES_B = threshgen.parse("a -> b", SIG)
OTHER = threshgen.parse("a", threshgen.Signature(["a"]))
RULE = threshgen.Generalization(A, A_IMPLIES_B, 2)
KB = threshgen.KnowledgeBase(SIG, (RULE,))
PROFILE = threshgen.compile_kb(KB)

# Per record class: field values, changed values for some fields, the
# errors a bad construction raises, and the repr a frozen dataclass gave.
RECORDS = {
    "Generalization": (
        {"antecedent": A, "consequent": A_IMPLIES_B, "threshold": 2},
        {"antecedent": A_IMPLIES_B, "consequent": A, "threshold": threshgen.INFINITY},
        [
            ({"consequent": OTHER}, threshgen.SignatureError, "different signatures"),
            ({"threshold": 0}, ValueError, "threshold must be"),
            ({"threshold": 1.5}, ValueError, "threshold must be"),
        ],
        "Generalization(antecedent=Proposition('a'),"
        " consequent=Proposition('a -> b'), threshold=2)",
    ),
    "KnowledgeBase": (
        {"signature": SIG, "rules": (RULE,)},
        {"rules": (RULE, RULE)},
        [
            (
                {"rules": (threshgen.Generalization(OTHER, OTHER, 1),)},
                threshgen.SignatureError,
                "differs from knowledge base",
            ),
        ],
        "KnowledgeBase(signature=Signature(['a', 'b']),"
        " rules=(Generalization(antecedent=Proposition('a'),"
        " consequent=Proposition('a -> b'), threshold=2),))",
    ),
    "DepthProfile": (
        {
            "kb": KB,
            "chain": PROFILE.chain,
            "fired": PROFILE.fired,
            "fixpoint": PROFILE.fixpoint,
            "window": PROFILE.window,
        },
        {
            "kb": threshgen.KnowledgeBase(SIG, ()),
            "chain": PROFILE.chain[:1],
            "fired": PROFILE.fired[:1],
            "fixpoint": 0,
            "window": 1,
        },
        [],
        "DepthProfile(kb=KnowledgeBase(signature=Signature(['a', 'b']),"
        " rules=(Generalization(antecedent=Proposition('a'),"
        " consequent=Proposition('a -> b'), threshold=2),)),"
        " chain=(Proposition('true'), Proposition('a & ~b'),"
        " Proposition('a & ~b'), Proposition('false')),"
        " fired=((), (0,), (0,), ()), fixpoint=3, window=2)",
    ),
    "ZPlusRule": (
        {"antecedent": A_IMPLIES_B, "consequent": A, "strength": 0},
        {"antecedent": A, "consequent": A_IMPLIES_B, "strength": 3},
        [
            ({"antecedent": OTHER}, threshgen.SignatureError, "different signatures"),
            ({"strength": -1}, ValueError, "strength must be"),
            ({"strength": "1"}, ValueError, "strength must be"),
        ],
        "ZPlusRule(antecedent=Proposition('a -> b'),"
        " consequent=Proposition('a'), strength=0)",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_behave_as_frozen_dataclasses(name):
    cls = getattr(threshgen, name)
    fields, changes, errors, text = RECORDS[name]
    record = cls(*fields.values())
    assert record == cls(**fields)
    assert cls.__match_args__ == tuple(fields)
    assert {key: getattr(record, key) for key in fields} == fields
    assert repr(record) == text

    # Equal by class and field values, and hashed alike.
    twin = cls(**fields)
    assert twin is not record and twin == record and hash(twin) == hash(record)
    for key, value in changes.items():
        assert cls(**{**fields, key: value}) != record
    stranger = type("Stranger", (), dict.fromkeys(fields))()
    assert record != stranger and (record == stranger) is False

    for bad, error, message in errors:
        with pytest.raises(error, match=message):
            cls(**{**fields, **bad})

    for key in fields:
        with pytest.raises(AttributeError):
            setattr(record, key, fields[key])
        with pytest.raises(AttributeError):
            delattr(record, key)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == twin

    for clone in (
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        assert type(clone) is cls and clone == record and hash(clone) == hash(record)
        assert repr(clone) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_reject_a_bad_field_list(name):
    cls = getattr(threshgen, name)
    fields = RECORDS[name][0]
    values = list(fields.values())
    for args, named in (
        (values[:-1], {}),  # a field missing
        (values + values[:1], {}),  # an extra positional value
        (values, {"extra": 1}),  # an unknown keyword
        (values[:1], fields),  # the first field given twice
    ):
        with pytest.raises(TypeError):
            cls(*args, **named)


def test_records_of_different_classes_differ():
    rule = threshgen.Generalization(A, A_IMPLIES_B, 1)
    default = threshgen.ZPlusRule(A, A_IMPLIES_B, 1)
    assert rule != default and default != rule
