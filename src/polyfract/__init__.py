"""Exact arithmetic for binomial-basis polynomials with modular
coefficients, and the classification of maps between finite commutative
groups that such polynomials induce."""

from .calculus import (
    DiffOp,
    FiniteFn,
    apply_diff,
    delta_power,
    divisibility_check,
    hrycaj_periodicity,
    map_degree,
    periodic_degree_bound,
    taylor_expand,
    taylor_expand_multi,
    value_sum,
)
from .classify import (
    ClassificationResult,
    Counterexample,
    Witness,
    brute_force_polyfractal,
    count_polyfractal,
    counterexample_is_valid,
    is_polyfractal,
    represent,
    represent_univariate,
)
from .errors import (
    ArityMismatch,
    BadCodomain,
    BadDomain,
    BadVariableIndex,
    CoprimalityViolation,
    InfiniteGroup,
    LengthMismatch,
    MixedPrimes,
    ModulusMismatch,
    NotADivisor,
    NotAnnihilated,
    NotCyclic,
    NotIntegerValued,
    NotPeriodic,
    NotPolyfractal,
    NotPrime,
    ParseError,
    PolyfractError,
    PreconditionError,
    PreconditionFailed,
    TooLarge,
    ValidationError,
    ZeroInput,
)
from .exactnum import (
    Residue,
    balanced_lift,
    binom,
    is_prime,
    mod_project,
    padic_valuation,
    prime_factors,
    prime_part,
)
from .groups import (
    CRTMap,
    Splitting,
    crt_map,
    split_group,
    split_variable,
    wavelength_reduce,
)
from .lagrange import (
    cofract,
    degree_bound,
    extend_information_coeffs,
    interpolate_prime_power,
    lagrange_polyfract,
)
from .multi import (
    MultiPolyfract,
    RationalPolyMulti,
    compose,
    grid_vanish_equiv,
    merge_variables,
)
from .uni import RationalPoly, UniPolyfract, binom_poly, coeffs_from_values

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
