"""Toolkit for primes in quadratic progressions n^2 + k.

Counts psi(x; k) = sum_{n <= x} Lambda(n^2 + k), evaluates the singular
series S(k) by several routes that must agree, decomposes the underlying
exponential sums exactly at rational points, and runs error-moment sweeps.
"""

__version__ = "0.1.0"

from .arith import jacobi, mobius_phi, von_mangoldt
from .errors import VerificationError
from .expsum import (
    ArcPoint,
    CharacterTable,
    build_character_table,
    circle_psi_oracle,
    decompose_s1,
    decompose_s2,
    g_quadratic,
    gauss_sum,
    pv_check,
    s1,
    s2,
    weyl_ratio,
)
from .moments import (
    MomentSummary,
    phi_moment,
    psi_value,
    run_sweep,
)
from .sieve import (
    LambdaTable,
    PrimeTable,
    build_lambda_table,
    build_mobius_phi_tables,
    build_prime_table,
    build_squarefree_table,
)
from .singular import (
    SingularCfg,
    class_number,
    dirichlet_partial,
    l_value,
    sandwich_bounds,
    sandwich_violations,
    sigma_q,
    singular_series,
    singular_series_euler,
    singular_series_lmethod,
    sl_product,
    tail_phi,
)
