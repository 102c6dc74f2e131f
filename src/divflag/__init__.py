"""Exact intersection-lattice computations and freeness certification for
central hyperplane arrangements: divisional flags, remainder tests, Ziegler
restrictions, and an exact rank-3 freeness decision."""

from .arrangement import (
    Arrangement,
    ArrangementError,
    Flat,
    Triple,
    cone,
    deletion,
    essentialize,
    localization,
    make_arrangement,
    rank_of,
    restriction,
    restrict_to_hyperplane,
    triple,
)
from .catalog import (
    CatalogEntry,
    RootSystemSpec,
    boolean,
    braid,
    edelman_reiner_restriction,
    intermediate,
    pentagon_cone,
    shi,
    weyl_b,
    weyl_d,
    xyzw_example,
    xyzw_restriction,
)
from .exactalg import PrimeField, QQ, normalize_covector
from .freeness import (
    DivisionalFlag,
    IFCertificate,
    IFResult,
    df_via_b2,
    division_addition_check,
    division_check,
    division_equivalences,
    divisional_flag_search,
    flag_b2_bound,
    hereditarily_df,
    inductively_free,
    rank3_division_remainder,
    rank3_triple_conditions,
)
from .lattice import (
    BadPrimeError,
    CharData,
    IntersectionLattice,
    build_lattice,
    char_data,
    point_count_oracle,
    whitney_oracle,
)
from .multi import (
    Exponents2,
    MultiArrangement,
    Multiplicity,
    Rank3FreenessReport,
    RemainderReport,
    b2_gap,
    b2_multi,
    euler_mult_rank2,
    exp2,
    free3_decide,
    local_codim3_division_check,
    remainder_division,
    ziegler_restriction,
)

__version__ = "0.1.0"
