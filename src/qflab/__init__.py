"""Exact p-adic densities of quadratic forms, local Whittaker derivatives,
intersection multiplicities, and the supporting quaternion/Clifford checks.

Everything is exact rational arithmetic; no floats anywhere.
"""

from .padic import INFINITE_PLACE, Place, chi, hilbert, is_local_square, valuation
from .quadform import (
    JordanDiagonal,
    SymMat,
    base_diagonal,
    base_space,
    diff_set,
    frac_str,
    hasse_invariant,
    jordan_diagonalize,
    least_nonsquare,
    rational_diagonalization,
    represents_local,
    represents_one_over_Zp,
    signature,
    split_diagonal,
    twisted_complement_diagonal,
    twisted_diagonal,
    twisted_space,
)
from .counting import (
    CountJob,
    DensityResult,
    OracleError,
    count_solutions,
    density_oracle,
    density_value,
    normalization_exponent,
    state_budget,
)
from .densities import (
    DensityPolynomial,
    assemble_A,
    chi_tilde,
    derivative_at_1,
    kitaoka_ternary_poly,
    twisted_density,
)
from .gkmult import (
    GKNormalForm,
    GKTriple,
    e_p,
    e_p_of_form,
    gk_table_csv,
    gross_keating_exponents,
    transversal,
)
from .whittaker import (
    LogPMultiple,
    RatioReport,
    ratio_audit_constant,
    verify_ratio_identity,
    whittaker_derivative,
    whittaker_twisted_value,
    whittaker_value,
)
from .cycles import (
    ComponentClassification,
    FiniteFieldQuadSpace,
    IncidenceCounts,
    classify_component,
    incidence_counts,
    is_isolated,
    reduced_distinguished_space,
    reduced_superspecial_space,
)
from .clifford import (
    IncoherentCollection,
    QuaternionAlgebra,
    check_spin_compatibility,
    discriminant,
    involution_tensor_type,
    positive_involution_criterion,
    quaternion_with_discriminant,
    ramified_places,
    vb_space,
    witt_index_rank5,
)

__version__ = "0.1.0"
