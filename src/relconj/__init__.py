"""Algorithmic conjugacy for relatively hyperbolic groups: curve-shortening
word problem, hyperbolic/parabolic classification, conjugacy decision and
search with verified witnesses, and bounded conjugacy classes, over
presentations whose parabolic subgroups are free, free abelian, or finite.
"""

from .conjugacy import (
    Classification,
    ConjugacyCertificate,
    ConjugacyEngine,
    bounded_class,
    classify,
    decide,
    search,
)
from .errors import (
    BudgetExceededError,
    NotConjugateError,
    OracleUnavailableError,
    ParseError,
    RelconjError,
    UnknownLetterError,
)
from .presentation import (
    ParabolicDescriptor,
    RelativePresentation,
    load_presentation,
    parse_presentation,
    presentation_hash,
    serialize_presentation,
)
from .shortening import (
    CyclicShorteningResult,
    ShorteningResult,
    cyclic_shorten,
    shorten,
    word_problem,
)
from .tables import (
    ConstantsProfile,
    PrecomputedTables,
    load_tables,
    precompute,
    profile_for,
    save_tables,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "Classification",
    "ConjugacyCertificate",
    "ConjugacyEngine",
    "ConstantsProfile",
    "CyclicShorteningResult",
    "NotConjugateError",
    "OracleUnavailableError",
    "ParabolicDescriptor",
    "ParseError",
    "PrecomputedTables",
    "RelativePresentation",
    "RelconjError",
    "ShorteningResult",
    "UnknownLetterError",
    "bounded_class",
    "classify",
    "cyclic_shorten",
    "decide",
    "load_presentation",
    "load_tables",
    "parse_presentation",
    "precompute",
    "presentation_hash",
    "profile_for",
    "save_tables",
    "search",
    "serialize_presentation",
    "shorten",
    "word_problem",
    "__version__",
]
