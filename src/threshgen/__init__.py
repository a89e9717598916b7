"""Reasoning with thresholded generalizations.

A knowledge base of rules ``antecedent => consequent @ k`` supports or
rejects further such rules. The symbolic route compiles the base into an
exception chain and decides queries by comparing depths; the numerical
route samples probability models from the base's constraint polytope and
checks how exception quantiles scale. Both live here, with a bridge to
System-Z+ default rules and a command-line front end (``threshgen``).

Typical use:

    >>> import threshgen as tg
    >>> kb = tg.load_kb("t => a @ 1\\n~a => b @ 1\\n")
    >>> profile = tg.compile_kb(kb)
    >>> profile.max_entailed_threshold(*[tg.parse(s, kb.signature) for s in ("true", "a | b")])
    2
"""

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
from .polytope import (
    InfeasiblePolytopeError,
    NumericalError,
    ParameterAssignment,
    PolytopeSystem,
    build_polytope,
    indicator,
    is_feasible,
    max_violation,
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
from .sampling import (
    PSI_SWEEP,
    ScalingReport,
    UniformSample,
    conclusion_quantile,
    empirical_quantile,
    exception_rate,
    sample_uniform,
    scaling_verdict,
)
from .zplus import (
    SideConditionError,
    TranslationError,
    ZPlusRule,
    check_side_conditions,
    from_zplus,
    to_zplus,
    zplus_consequence,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITY",
    "PSI_SWEEP",
    "Depth",
    "DepthProfile",
    "Generalization",
    "InfeasiblePolytopeError",
    "KnowledgeBase",
    "NumericalError",
    "ParameterAssignment",
    "ParseError",
    "PolytopeSystem",
    "Proposition",
    "RuleFileError",
    "ScalingReport",
    "SideConditionError",
    "Signature",
    "SignatureError",
    "StabilizationError",
    "TranslationError",
    "UniformSample",
    "UnknownNameError",
    "ZPlusRule",
    "build_polytope",
    "check_side_conditions",
    "compile_kb",
    "conclusion_quantile",
    "depth_text",
    "empirical_quantile",
    "exception_rate",
    "file_signature",
    "format_defaults",
    "format_kb",
    "from_zplus",
    "indicator",
    "is_feasible",
    "load_defaults",
    "load_kb",
    "max_violation",
    "parse",
    "parse_query",
    "query_names",
    "sample_uniform",
    "scaling_verdict",
    "scan_names",
    "to_zplus",
    "zplus_consequence",
    "__version__",
]
