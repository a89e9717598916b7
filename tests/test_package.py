"""The package namespace: every public name, with the numerical route's
names resolved on first access."""

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
