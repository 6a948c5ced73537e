"""Monte-Carlo and exact verification of the sampled laws.

The central object is the comparison of an empirical characteristic
function (the mean of a character over N independent draws) against the
closed-form transform of the target law, one row per character, with
tolerance c/sqrt(N) (default c=4, about a 4-sigma test per row: each
summand has modulus one, so either component of the empirical mean has
standard deviation at most 1/sqrt(N) and the per-row false-failure
probability sits below 1e-4).

One engine builds every report: run_suite, check_compatibility and
check_divisibility only choose the rows.  Every row of a report that
reads the same sampler reads one shared batch: run_suite and haar-demo
draw one batch, check_compatibility two (depth n and depth n+1) and
check_divisibility one n-fold product.  The k-th batch of a report draws
from RNG stream k of the seed, so a report is bit-reproducible for a
fixed seed.  Rows that share a batch are correlated, not independent;
each row still keeps its own c/sqrt(N) bound, and the family-wise bound
(at most K times the per-row false-failure probability for K rows) is a
union bound, which needs no independence.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import groups
from .groups import canonical_angle
from .measures import Quadruplet, ft_quadruplet
from .sampling import char_mean, combine_samples, make_rng, quadruplet_sampler


# The c of a row's bound c/sqrt(N) when the config names none.
TOLERANCE_C = 4.0


# ---------------------------------------------------------------------------
# reports

def _char_key(chi):
    return (chi.d, chi.ell)


@dataclass(frozen=True)
class ComparisonRow:
    label: str
    theory: complex
    empirical: complex
    abs_error: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    config: dict
    rows: list
    overall_pass: bool
    wall_time: float


def _compare(q: Quadruplet, runs, samples: int, seed: int, tolerance_c: float, **config):
    """The comparison engine behind every report.

    runs holds one (draw, characters, label_suffix) per batch: run k
    draws its batch as draw(rng, samples) from RNG stream k of the seed,
    and its characters read it in (d, ell) order, so that the batch's
    mean cache works each depth once.  The row chi.label + label_suffix
    passes when chi's empirical mean lies within tolerance_c /
    sqrt(samples) of the closed form of q.  config holds the caller's
    extra report keys.  A run with no characters raises ValueError: a
    verdict over no rows would pass vacuously.
    """
    start = time.perf_counter()
    runs = [(draw, sorted(chars, key=_char_key), suffix) for draw, chars, suffix in runs]
    if not all(chars for _, chars, _ in runs):
        raise ValueError("no rows: a verdict over no rows would pass vacuously")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not (math.isfinite(tolerance_c) and tolerance_c > 0):
        raise ValueError(f"tolerance_c must be finite and positive, got {tolerance_c!r}")
    tol = tolerance_c / math.sqrt(samples)
    config.update(
        quadruplet=q.group.describe(q), samples=samples, seed=seed, tolerance_c=tolerance_c
    )
    rows = []
    for stream, (draw, chars, suffix) in enumerate(runs):
        batch = draw(make_rng(seed, stream=stream), samples)
        for chi in chars:
            theory = ft_quadruplet(q, chi)
            # |theory| = 1: the character is constant on the law's draws
            # (a point mass, or a Haar layer it annihilates), so the row
            # takes the direct evaluation and stays exact
            exact = abs(abs(theory) - 1.0) <= 1e-12
            empirical = char_mean(batch, chi, exact)
            err = abs(theory - empirical)
            rows.append(ComparisonRow(chi.label + suffix, theory, empirical, err, tol, err <= tol))
        # the next run's batch is drawn without this one beside it
        del batch
    passed = all(r.passed for r in rows)
    return VerificationReport(config, rows, passed, time.perf_counter() - start)


def run_suite(
    q: Quadruplet,
    characters,
    samples: int,
    seed: int,
    tolerance_c: float = TOLERANCE_C,
    depth: int | None = None,
) -> VerificationReport:
    """Empirical-vs-closed-form comparison, one row per character.

    Every row reads one batch of `samples` draws from RNG stream 0 and
    is accepted when |theory - empirical| <= tolerance_c / sqrt(samples).
    """
    runs = [(quadruplet_sampler(q, depth), characters, "")]
    if depth is None:
        depth = q.shift.depth
    extra = {} if depth is None else {"depth": depth}
    return _compare(q, runs, samples, seed, tolerance_c, **extra)


def check_compatibility(q: Quadruplet, n: int, samples: int, seed: int) -> VerificationReport:
    """Marginal agreement between the depth-n and depth-(n+1) samplers.

    One batch per depth (streams 0 and 1) is compared, at every stock
    character of depth <= n-1, against the shared closed form; the
    deeper batch must reproduce the shallower marginals, with
    tolerance_c = TOLERANCE_C.
    """
    if q.group.retained is None:
        raise ValueError("compatibility check applies to the p-adic and solenoid samplers")
    if n < 1:
        raise ValueError("n must be >= 1")
    chars = q.group.default_characters(n - 1)
    runs = [(quadruplet_sampler(q, depth=d), chars, f" @depth={d}") for d in (n, n + 1)]
    return _compare(q, runs, samples, seed, TOLERANCE_C, check="compatibility", n=n)


def check_divisibility(
    q: Quadruplet,
    n: int,
    samples: int,
    seed: int,
    depth: int | None = None,
    characters=None,
) -> VerificationReport:
    """n-th convolution root realized by parameter scaling.

    Draws n independent batches with parameters (b/n, eta/n) in turn
    from RNG stream 0, multiplies them in the group, and compares the
    empirical CF of the product against the unscaled closed form, with
    tolerance_c = TOLERANCE_C.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if depth is None:
        depth = q.shift.depth
    if not (q.group.subgroup_is_trivial(q.subgroup, depth) and q.shift.is_identity()):
        raise ValueError("divisibility check requires centered measure")
    scaled = Quadruplet(q.group, q.subgroup, q.shift, q.gauss_b / n, q.levy.scaled(1.0 / n))
    sampler = quadruplet_sampler(scaled, depth)

    def draw(rng, size):
        # each factor is carried into the first batch in place, so the
        # product holds one batch beside the factor being drawn
        batch = sampler(rng, size)
        for _ in range(n - 1):
            combine_samples(batch, sampler(rng, size))
        return batch

    if characters is None:
        characters = q.group.default_characters(depth)
    runs = [(draw, characters, "")]
    return _compare(q, runs, samples, seed, TOLERANCE_C, check="divisibility", n=n)


# The points of check_compare_inequality's grid, per character.
CENTERING_GRID = 1000


def check_compare_inequality(group, characters):
    """Pointwise grid check of the two-sided centering bound
    (1/4)g^2 <= 1 - Re(chi) <= (1/2)g^2 near the identity.

    The grid spans the neighborhood chosen so the pairing g stays within
    pi/4 and, on the solenoid, so that the base coordinate does not wrap
    (|arg y_0| < pi/2, keeping the cutoff linear).  The circle is the
    solenoid case with p**d = 1.  1 - Re(chi) is evaluated as
    2*sin(u/2)**2 (no cancellation at tiny angles), and the lower bound
    is tested with an absolute 1e-12 slack.  Returns a list of
    (character label, passed) pairs.
    """
    if not group.real_coordinate:
        raise ValueError("the centering bound is checked on the circle and the solenoid only")
    results = []
    for chi in sorted(characters, key=_char_key):
        if not isinstance(chi, group.character_type):
            raise TypeError("character/group mismatch")
        ell, pd = chi.ell, group.scale(chi)
        theta_max = min(math.pi / (4 * (abs(ell) + 1)), math.pi / (2 * pd))
        theta = np.linspace(-theta_max, theta_max, CENTERING_GRID)
        g = group.centering(canonical_angle(pd * theta), chi)
        one_minus_re = 2.0 * np.sin(canonical_angle(ell * theta) / 2.0) ** 2
        lower_ok = np.all(0.25 * g**2 <= one_minus_re + 1e-12)
        upper_ok = np.all(one_minus_re <= 0.5 * g**2)
        results.append((chi.label, bool(lower_ok and upper_ok)))
    return results


# k in the oracle's k*x trials is drawn from 0.._ORACLE_K_BOUND-1, so its
# expected digits are exact in int64 while _ORACLE_K_BOUND * p**(depth+1) < 2**63.
# Trials are checked in blocks of _ORACLE_BLOCK: about 1.4 kB of Python
# objects per trial, so about 0.18 MB whatever the trial count.
_ORACLE_K_BOUND = 1000
_ORACLE_BLOCK = 128


def _expected_digits(p: int, depth: int, xs, ys, ks) -> np.ndarray:
    """Base-p digits of x+y, -x and k*x modulo p**(depth+1): an int64
    array of shape (3, trials, depth+1), x+y first; xs and ys hold
    digit rows, ks the k.  Each value v gives ((v mod p**(depth+1)) // p**j)
    mod p in int64 numpy, never through the carries under test."""
    modulus = p ** (depth + 1)
    powers = p ** np.arange(depth + 1, dtype=np.int64)
    xv, yv = xs @ powers, ys @ powers
    values = np.mod(np.stack([xv + yv, -xv, ks * xv]), modulus)
    return values[..., None] // powers % p


def oracle_padic_arithmetic(trials: int, seed: int, primes=(2, 3, 5), depth: int = 15) -> bool:
    """Cross-check the digit arithmetic against exact integer arithmetic.

    For `trials` random pairs per prime, the entrywise x+y, -x and k*x
    of the digit rows must carry, bit-exactly, to the digits of those
    values modulo p**(depth+1) through both carries the verdict runs:
    padic_digit_matrix (every draw) and _carry_digits, the digit loop of
    _carry (every config point).  On the first block of each prime,
    padic_add, padic_neg and padic_mul_nat must agree too, with
    x + (-x) = 0 and digit 0 of p*x = 0.  The expected digits come from
    _expected_digits, exact in int64 only: a prime with
    _ORACLE_K_BOUND * p**(depth+1) >= 2**63 raises ValueError.
    """
    for p in primes:
        groups.validate_prime(p)
        if _ORACLE_K_BOUND * p ** (depth + 1) >= 2**63:
            raise ValueError(f"{_ORACLE_K_BOUND} * {p}**{depth + 1} >= 2**63: k*x passes int64")
    rng = make_rng(seed, stream=0)
    for p in primes:
        xs = rng.integers(0, p, size=(trials, depth + 1))
        ys = rng.integers(0, p, size=(trials, depth + 1))
        ks = rng.integers(0, _ORACLE_K_BOUND, size=trials)
        for lo in range(0, trials, _ORACLE_BLOCK):
            block = slice(lo, lo + _ORACLE_BLOCK)
            if not _oracle_block(p, depth, xs[block], ys[block], ks[block], lo == 0):
                return False
        # the next prime's trials are drawn without these beside them
        del xs, ys, ks
    return True


def _oracle_block(p: int, depth: int, xb, yb, kb, scalar_law: bool) -> bool:
    """The oracle's checks on one block of trials, the scalar law's too when
    scalar_law is set; all the block builds is freed before the next one."""
    expected = _expected_digits(p, depth, xb, yb, kb).reshape(-1, depth + 1)
    # the entrywise x+y, -x and k*x through both carries the verdict runs:
    # the batched one of the samplers and the scalar one of config points
    values = np.concatenate([xb + yb, -xb, kb[:, None] * xb])
    if not np.array_equal(groups.padic_digit_matrix(p, values), expected):
        return False
    rows = list(map(tuple, expected.tolist()))
    if [groups._carry_digits(p, row) for row in values.tolist()] != rows:
        return False
    if not scalar_law:
        return True
    # the scalar law; rng.integers(0, p) digits of a checked prime need no re-check
    n = len(xb)
    sums, negs, mults = rows[:n], rows[n : 2 * n], rows[2 * n :]
    x = [groups.PadicInt._normalized(p, tuple(d)) for d in xb.tolist()]
    y = [groups.PadicInt._normalized(p, tuple(d)) for d in yb.tolist()]
    neg = list(map(groups.padic_neg, x))
    if [z.digits for z in map(groups.padic_add, x, y)] != sums:
        return False
    if [z.digits for z in neg] != negs:
        return False
    if not all(z.is_identity() for z in map(groups.padic_add, x, neg)):
        return False
    if [z.digits for z in map(groups.padic_mul_nat, kb.tolist(), x)] != mults:
        return False
    return not any(groups.padic_mul_nat(p, z).digits[0] for z in x)
