"""Exact arithmetic invariants of number fields.

Prime decomposition types, local Dedekind zeta factors, integral trace
forms with their p-adic invariants, normalized local root numbers, and
verdicts on weak arithmetic equivalence, genus/spinor-genus equality and
trace-form isometry.
"""

from nftrace.exact import (
    Factorization,
    IntPoly,
    count_real_roots,
    factor_integer,
    factor_integers,
    factor_poly,
    factor_poly_mod,
    poly_discriminant,
)
from nftrace.numberfield import (
    FieldConstructionError,
    GaloisScanExceeded,
    GramMatrix,
    NumberField,
    is_fundamental_disc,
    is_galois,
    new_field,
    trace_gram,
)
from nftrace.splitting import (
    DecompositionType,
    PrimeSplitting,
    decomposition_type,
    is_tame,
    is_tame_field,
    ramified_primes,
    split_prime,
)
from nftrace.zeta import LocalLFactor, WeakAEResult, local_l_factor, weakly_equivalent
from nftrace.quadform import (
    DiagonalForm,
    GenusComparison,
    HasseProfile,
    JordanForm,
    diagonalize_rational,
    hasse_invariant,
    hasse_profile,
    hilbert_symbol,
    jordan_form_odd,
    rational_equivalent,
    same_genus_trace,
    trace_hasse_profile,
)
from nftrace.rootnum import (
    DetCharacter,
    NormalizedRootNumber,
    RootNumberComparison,
    compare_root_numbers,
    det_rho_discriminant,
    stiefel_whitney_local,
)
from nftrace.cli import ComparisonReport, compare, inspect_field, parse_polynomial

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "DecompositionType",
    "DetCharacter",
    "DiagonalForm",
    "Factorization",
    "FieldConstructionError",
    "GaloisScanExceeded",
    "GenusComparison",
    "GramMatrix",
    "HasseProfile",
    "IntPoly",
    "JordanForm",
    "LocalLFactor",
    "NormalizedRootNumber",
    "NumberField",
    "PrimeSplitting",
    "RootNumberComparison",
    "WeakAEResult",
    "compare",
    "compare_root_numbers",
    "count_real_roots",
    "decomposition_type",
    "det_rho_discriminant",
    "diagonalize_rational",
    "factor_integer",
    "factor_integers",
    "factor_poly",
    "factor_poly_mod",
    "hasse_invariant",
    "hasse_profile",
    "hilbert_symbol",
    "inspect_field",
    "is_fundamental_disc",
    "is_galois",
    "is_tame",
    "is_tame_field",
    "jordan_form_odd",
    "local_l_factor",
    "new_field",
    "parse_polynomial",
    "poly_discriminant",
    "ramified_primes",
    "rational_equivalent",
    "same_genus_trace",
    "split_prime",
    "stiefel_whitney_local",
    "trace_gram",
    "trace_hasse_profile",
    "weakly_equivalent",
]
