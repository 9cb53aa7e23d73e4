"""Exact braided-dimension computations for line bundles on perfectoid
projective space: graded cohomology dimensions, Euler characteristics,
Bezout identities, Veronese towers, intersection multiplicities and
blow-up charts, all in exact arithmetic."""

from .braided import (
    INFINITE_RANK,
    BraidedDim,
    LineBundle,
    bundle_cohomology,
    euler,
    h0,
    hn_top,
    kunneth,
    line_bundle,
    middle_vanishing,
    tuple_arith,
)
from .cech import (
    CechComplex,
    CechReport,
    WeightVector,
    build_complex,
    classify_weight,
    cohomology_ranks,
    verify_theorems,
)
from .enumeration import (
    GradedPiece,
    count_h0_monomials,
    count_hn_monomials,
    enumerate_h0_monomials,
    enumerate_hn_monomials,
    iter_h0_monomials,
    iter_hn_monomials,
)
from .errors import (
    ComputationDiagnostic,
    DomainError,
    FuelExhausted,
    HorizonError,
    IndeterminateForm,
    ParseError,
    PerfprojError,
    QuotientCapExceeded,
)
from .exponents import PAdicFrac, arith, cmp, is_prime, normalize
from .fracpoly import FracMonomial, FracPoly, monomial_string
from .fracpoly import parse as parse_poly
from .geometry import (
    BlowupChart,
    ExceptionalLocus,
    MonomialMap,
    PlaneBlowupAtlas,
    VeroneseMap,
    bezout_chi,
    bezout_line,
    blowup_origin,
    blowup_plane_charts,
    veronese,
    veronese_tower_inclusion,
)
from .intersect import (
    MultiplicityTuple,
    braided_multiplicity,
    local_multiplicity,
    quotient_dim_oracle,
)

__version__ = "0.1.0"
