"""Reasoning with thresholded generalizations.

A knowledge base of rules ``antecedent => consequent @ k`` supports or
rejects further such rules. The symbolic route compiles the base into an
exception chain and decides queries by comparing depths; the numerical
route samples probability models from the base's constraint polytope and
checks how exception quantiles scale. Both live here, with a bridge to
System-Z+ default rules and a command-line front end (``threshgen``).

Only the numerical route uses NumPy and SciPy. Its modules, polytope and
sampling, are imported on the first access to one of their names, so
``import threshgen`` and the symbolic commands load neither library. The
System-Z+ bridge, zplus, also loads on first use: query and depthmap
never call it.

Typical use:

    >>> import threshgen as tg
    >>> kb = tg.load_kb("t => a @ 1\\n~a => b @ 1\\n")
    >>> profile = tg.compile_kb(kb)
    >>> profile.max_entailed_threshold(*[tg.parse(s, kb.signature) for s in ("true", "a | b")])
    2
"""

from importlib import import_module as _import_module

from .depth import (
    INFINITY,
    Depth,
    DepthProfile,
    Generalization,
    KnowledgeBase,
    StabilizationError,
    compile_kb,
    depth_text,
)
from .logic import (
    ParseError,
    Proposition,
    Signature,
    SignatureError,
    UnknownNameError,
    parse,
    scan_names,
)
from .rulefile import (
    RuleFileError,
    file_signature,
    format_defaults,
    format_kb,
    load_defaults,
    load_kb,
    parse_query,
    query_names,
)

__version__ = "0.1.0"

# The public names of the modules a symbolic query does not need, the
# numerical route and the System-Z+ bridge; __getattr__ imports a module on
# the first access to one of its names.
_LAZY_NAMES = {
    "InfeasiblePolytopeError": "polytope",
    "NumericalError": "polytope",
    "ParameterAssignment": "polytope",
    "PolytopeSystem": "polytope",
    "build_polytope": "polytope",
    "indicator": "polytope",
    "is_feasible": "polytope",
    "max_violation": "polytope",
    "PSI_SWEEP": "sampling",
    "ScalingReport": "sampling",
    "UniformSample": "sampling",
    "conclusion_quantile": "sampling",
    "empirical_quantile": "sampling",
    "exception_rate": "sampling",
    "sample_uniform": "sampling",
    "scaling_verdict": "sampling",
    "SideConditionError": "zplus",
    "TranslationError": "zplus",
    "ZPlusRule": "zplus",
    "check_side_conditions": "zplus",
    "from_zplus": "zplus",
    "to_zplus": "zplus",
    "zplus_consequence": "zplus",
}

# The names imported above, then every lazy name.
__all__ = [
    "INFINITY",
    "Depth",
    "DepthProfile",
    "Generalization",
    "KnowledgeBase",
    "ParseError",
    "Proposition",
    "RuleFileError",
    "Signature",
    "SignatureError",
    "StabilizationError",
    "UnknownNameError",
    "compile_kb",
    "depth_text",
    "file_signature",
    "format_defaults",
    "format_kb",
    "load_defaults",
    "load_kb",
    "parse",
    "parse_query",
    "query_names",
    "scan_names",
    "__version__",
    *_LAZY_NAMES,
]


def __getattr__(name):
    if name in _LAZY_NAMES.values():  # threshgen.polytope, .sampling, .zplus
        return _import_module(f".{name}", __name__)
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY_NAMES, *_LAZY_NAMES.values()})
