"""Binary cross Z-complementary pairs: exact correlation, verification,
Turyn composition, catalog of known optimal pairs, and exhaustive seed search."""

from . import catalog, reproduce
from .correlation import aacs_profile, accs_profile
from .sequences import (
    BinarySequence,
    SequenceFormatError,
    SequencePair,
    parse_pair,
    parse_sequence,
    read_pair,
)
from .search import (
    LargeSearchError,
    SearchResult,
    SearchSpec,
    SearchSpecError,
    canonicalize,
    equivalents,
    run_search,
    run_search_parallel,
)
from .turyn import (
    ConstructionError,
    ConstructionReport,
    condition_eq4_holds,
    construct_gcp,
    construct_lemma8,
    construct_theorem1,
    turyn_compose,
)
from .verify import (
    GolayFactorization,
    PairVerdict,
    classify,
    czc_ratio,
    czcp_width,
    golay_factorization,
    is_gcp,
    lemma5_structure_holds,
    lemma9_condition_holds,
    zcp_width,
)

__all__ = [name for name in dir() if not name.startswith("_")]
