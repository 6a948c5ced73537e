"""Weakly infinitely divisible laws on the circle, the p-adic integers,
and the p-adic solenoid: exact constructions from real random variables,
closed-form Fourier transforms, and Monte-Carlo verification."""

from .groups import (
    PadicInt,
    PadicIntegers,
    PadicSubgroup,
    Solenoid,
    SolenoidPoint,
    SolenoidSubgroup,
    Torus,
    TorusPoint,
    TorusSubgroup,
    canonical_angle,
    circular_distance,
    is_prime,
    padic_add,
    padic_from_ints,
    padic_in_subgroup,
    padic_mul_nat,
    padic_neg,
    solenoid_from_lift,
    solenoid_inverse,
    solenoid_lift,
    solenoid_mul,
    solenoid_project,
    torus_inverse,
    torus_mul,
)
from .characters import (
    PadicCharacter,
    SolenoidCharacter,
    TorusCharacter,
    angle_cutoff,
)
from .measures import (
    EMPTY_LEVY,
    LatticeMeasure,
    LevyMeasure,
    Quadruplet,
    ft_compound_poisson,
    ft_dirac,
    ft_gauss,
    ft_gen_poisson,
    ft_haar,
    ft_quadruplet,
    pushforward_padic,
    pushforward_solenoid,
    pushforward_torus,
    trivial_quadruplet,
)
from .sampling import (
    Samples,
    char_mean,
    combine_samples,
    make_rng,
    quadruplet_sampler,
    sample_compound_poisson,
)
from .verification import (
    ComparisonRow,
    VerificationReport,
    check_compare_inequality,
    check_compatibility,
    check_divisibility,
    oracle_padic_arithmetic,
    run_suite,
)

__version__ = "0.1.0"
