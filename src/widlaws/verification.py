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

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import groups
from .groups import PadicIntegers, Torus, canonical_angle
from .measures import Quadruplet, ft_quadruplet
from .sampling import char_mean, combine_samples, make_rng, quadruplet_sampler


def empirical_cf(sampler, chi, n: int, rng) -> complex:
    """(1/n) * sum of chi over n fresh draws from the sampler."""
    if n < 1:
        raise ValueError("need at least one sample")
    return char_mean(sampler(rng, n), chi)


# ---------------------------------------------------------------------------
# character sets and reports

def default_characters(group, depth: int = 3):
    """The stock verification character set.

    Circle: frequencies -8..8.  p-adic integers: every (d, ell) with
    d <= min(3, depth), refused above 10**5 characters.  Solenoid:
    d <= min(3, depth) and |ell| <= 8.  The depth cap keeps every
    character evaluable on depth-limited samples; the stock set covers
    every annihilator regime (divisible and indivisible frequencies) at
    desk-scale cost.
    """
    return group.default_characters(depth)


def _char_key(chi):
    return (getattr(chi, "d", 0), chi.ell)


@dataclass(frozen=True)
class ComparisonRow:
    label: str
    theory: complex
    empirical: complex
    abs_error: float
    tolerance: float
    passed: bool


@dataclass
class VerificationReport:
    config: dict
    rows: list = field(default_factory=list)
    overall_pass: bool = True
    wall_time: float = 0.0


def _compare(q: Quadruplet, rows, samples: int, seed: int, tolerance_c: float, **config):
    """The comparison engine behind every report.

    rows is a list of (label, character, draw) triples, where
    draw(rng, samples) returns a batch.  Each run of consecutive rows
    with the same draw reads one batch; the k-th run draws it from RNG
    stream k of the seed.  A row passes when its empirical character
    mean lies within tolerance_c / sqrt(samples) of the closed form of
    q.  config holds the caller's extra report keys.
    """
    start = time.perf_counter()
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not (math.isfinite(tolerance_c) and tolerance_c > 0):
        raise ValueError(f"tolerance_c must be finite and positive, got {tolerance_c!r}")
    tol = tolerance_c / math.sqrt(samples)
    config.update(
        quadruplet=q.group.describe(q), samples=samples, seed=seed, tolerance_c=tolerance_c
    )
    report = VerificationReport(config=config)
    runs = itertools.groupby(rows, key=lambda row: row[2])
    for stream, (draw, run) in enumerate(runs):
        batch = draw(make_rng(seed, stream=stream), samples)
        for label, chi, _ in run:
            theory = ft_quadruplet(q, chi)
            # |theory| = 1: the character is constant on the law's draws
            # (a point mass, or a Haar layer it annihilates), so the row
            # takes the direct evaluation and stays exact
            exact = abs(abs(theory) - 1.0) <= 1e-12
            empirical = char_mean(batch, chi, exact)
            err = abs(theory - empirical)
            report.rows.append(ComparisonRow(label, theory, empirical, err, tol, err <= tol))
    report.overall_pass = all(r.passed for r in report.rows)
    report.wall_time = time.perf_counter() - start
    return report


def run_suite(
    q: Quadruplet,
    characters,
    samples: int,
    seed: int,
    tolerance_c: float = 4.0,
    depth: int | None = None,
) -> VerificationReport:
    """Empirical-vs-closed-form comparison, one row per character.

    Every row reads one batch of `samples` draws from RNG stream 0 and
    is accepted when |theory - empirical| <= tolerance_c / sqrt(samples).
    """
    sampler = quadruplet_sampler(q, depth)
    rows = [(chi.label, chi, sampler) for chi in sorted(characters, key=_char_key)]
    if depth is None:
        depth = q.shift.depth
    extra = {} if depth is None else {"depth": depth}
    return _compare(q, rows, samples, seed, tolerance_c, **extra)


def check_compatibility(q: Quadruplet, n: int, samples: int, seed: int) -> VerificationReport:
    """Marginal agreement between the depth-n and depth-(n+1) samplers.

    One batch per depth (streams 0 and 1) is compared, at every stock
    character of depth <= n-1, against the shared closed form; the
    deeper batch must reproduce the shallower marginals, with
    tolerance_c = 4.
    """
    if isinstance(q.group, Torus):
        raise ValueError("compatibility check applies to the p-adic and solenoid samplers")
    if n < 1:
        raise ValueError("n must be >= 1")
    chars = sorted(default_characters(q.group, depth=n - 1), key=_char_key)
    rows = []
    for d in (n, n + 1):
        sampler = quadruplet_sampler(q, depth=d)
        rows += [(f"{chi.label} @depth={d}", chi, sampler) for chi in chars]
    return _compare(q, rows, samples, seed, 4.0, check="compatibility", n=n)


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
    tolerance_c = 4.
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
        batch = sampler(rng, size)
        for _ in range(n - 1):
            batch = combine_samples(batch, sampler(rng, size))
        return batch

    if characters is None:
        characters = default_characters(q.group, depth=depth)
    rows = [(chi.label, chi, draw) for chi in sorted(characters, key=_char_key)]
    return _compare(q, rows, samples, seed, 4.0, check="divisibility", n=n)


def check_compare_inequality(group, characters, grid_size: int = 1000):
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
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    if isinstance(group, PadicIntegers):
        raise ValueError("the centering bound is checked on the circle and the solenoid only")
    results = []
    for chi in sorted(characters, key=_char_key):
        if not isinstance(chi, group.character_type):
            raise TypeError("character/group mismatch")
        ell, pd = chi.ell, group.scale(chi)
        theta_max = min(math.pi / (4 * (abs(ell) + 1)), math.pi / (2 * pd))
        theta = np.linspace(-theta_max, theta_max, grid_size)
        g = group.centering(canonical_angle(pd * theta), chi)
        one_minus_re = 2.0 * np.sin(canonical_angle(ell * theta) / 2.0) ** 2
        lower_ok = np.all(0.25 * g**2 <= one_minus_re + 1e-12)
        upper_ok = np.all(one_minus_re <= 0.5 * g**2)
        results.append((chi.label, bool(lower_ok and upper_ok)))
    return results


# k in the oracle's k*x trials is drawn from 0.._ORACLE_K_BOUND-1; trials
# are checked in blocks of _ORACLE_BLOCK so the expected-digit matrices
# stay a few hundred kB whatever the trial count.
_ORACLE_K_BOUND = 1000
_ORACLE_BLOCK = 512


def _expected_digits(p: int, depth: int, xs, ys, ks):
    """Base-p digits of x+y, -x and k*x modulo p**(depth+1), one tuple per
    trial in each of three lists; xs and ys hold digit rows, ks the k.

    Each value v gives digits ((v mod p**(depth+1)) // p**j) mod p, from
    int64 numpy while k*x stays inside int64 and from Python ints beyond,
    never through the carry normalization under test.
    """
    modulus = p ** (depth + 1)
    if _ORACLE_K_BOUND * modulus < 2**63:
        powers = p ** np.arange(depth + 1, dtype=np.int64)
        xv, yv = xs @ powers, ys @ powers
        values = np.mod(np.stack([xv + yv, -xv, ks * xv]), modulus)
        digits = values[..., None] // powers % p
        return [list(map(tuple, block)) for block in digits.tolist()]
    powers = [p**j for j in range(depth + 1)]

    def expected(v):
        v %= modulus
        return tuple(v // pj % p for pj in powers)

    xv = [sum(d * pj for d, pj in zip(row, powers)) for row in xs.tolist()]
    yv = [sum(d * pj for d, pj in zip(row, powers)) for row in ys.tolist()]
    return (
        [expected(a + b) for a, b in zip(xv, yv)],
        [expected(-a) for a in xv],
        [expected(k * a) for k, a in zip(ks.tolist(), xv)],
    )


def oracle_padic_arithmetic(trials: int, seed: int, primes=(2, 3, 5), depth: int = 15) -> bool:
    """Cross-check the digit arithmetic against exact integer arithmetic.

    For `trials` random pairs per prime, addition, negation, and natural
    multiples must agree bit-exactly with integer arithmetic modulo
    p**(depth+1) expanded in base p; additionally x + (-x) = 0 and the
    p-th multiple always has leading digit 0.  The batched carry
    padic_digit_matrix must give the same digits on the entrywise sums,
    negations and multiples of the digit rows.  The expected digits come
    from _expected_digits, which shares no code with the carry
    normalizations under test.
    """
    rng = make_rng(seed, stream=0)
    for p in primes:
        groups.validate_prime(p)
        xs = rng.integers(0, p, size=(trials, depth + 1))
        ys = rng.integers(0, p, size=(trials, depth + 1))
        ks = rng.integers(0, _ORACLE_K_BOUND, size=trials)
        for lo in range(0, trials, _ORACLE_BLOCK):
            block = slice(lo, lo + _ORACLE_BLOCK)
            xb, yb, kb = xs[block], ys[block], ks[block]
            sums, negs, mults = _expected_digits(p, depth, xb, yb, kb)
            # the batched carry the samplers use, on the entrywise x+y, -x, k*x
            for values, want in ((xb + yb, sums), (-xb, negs), (kb[:, None] * xb, mults)):
                if list(map(tuple, groups.padic_digit_matrix(p, values).tolist())) != want:
                    return False
            # the scalar arithmetic, one whole block per check;
            # rng.integers(0, p) digits of a checked prime need no re-check
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
            if any(groups.padic_mul_nat(p, z).digits[0] for z in x):
                return False
    return True
