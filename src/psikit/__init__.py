"""Exact computational toolkit for the two-parameter sequence psi(a, b, n):
recurrence, closed-form and symbolic evaluation, a fast modular doubling
ladder, expansions of power sums in binary quadratic forms, a Mersenne
primality test battery, and verified bridges to classical sequences.
"""

from .errors import CapacityError
from .exactmath import (
    GOLDEN_RATIO,
    SQRT2,
    SQRT3,
    SQRT5,
    MersenneMod,
    QuadExt,
    RadicandMismatchError,
)
from .multipoly import (
    DegreeCapExceeded,
    SparsePoly,
    variables,
)
from .psicore import (
    psi_explicit,
    psi_mod_ladder,
    psi_product_identity_check,
    psi_recurrence,
    psi_sequence,
    psi_symbolic,
)
from .eightlevels import (
    coeff_values,
    eight_level_coeff,
    expand_powersum_basis,
    verify_expansion,
)
from .powersums import bracket, quintic_parametric_check, verify_special_case
from .mersenne import (
    TestReport,
    ab_ratio_test,
    composite_criterion,
    enhanced_sum_test,
    ll_classic,
    mu_pattern_test,
    necessary_condition,
    psi_test,
)
from .bridges import default_bridges, detect_period

__version__ = "0.1.0"
