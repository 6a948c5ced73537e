"""Finite-precision models of three compact abelian groups and their
characters, with each group's share of the math behind the laws.

The three groups are the circle group (unit complex numbers under
multiplication, stored as angles), the p-adic integers (base-p digit
vectors under carry addition), and the p-adic solenoid (coherent towers
of circle points).  A solenoid point, and each row of a batch of
draws, is stored as the quotient (R x Delta_p)/Z stores it: a base
angle in [-pi, pi) plus base-p digits, carried by the same digit
normalization as the p-adic integers.
Alongside the group arithmetic this module provides the homomorphisms
that present the two profinite-flavored groups as quotients of products
of subgroups of the real line, the canonical compact subgroups, and the
characters of each group.

The group descriptors (Torus, PadicIntegers, Solenoid) own, as methods,
everything that differs between the groups; the circle shares the
solenoid's formulas with p**d = 1.

All values are immutable after construction and all operations are pure
functions, so everything here is safe to share across threads.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .measures import pushforward_padic, pushforward_solenoid, pushforward_torus

TWO_PI = 2.0 * math.pi


def is_prime(p) -> bool:
    """True iff p is a prime integer; False for bools and non-integers.
    Raises ValueError for an integer at or above MILLER_RABIN_BOUND."""
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)):
        return False
    return _is_prime_int(int(p))


# The first 13 primes as Miller-Rabin bases decide primality exactly for
# every n below MILLER_RABIN_BOUND, the least strong pseudoprime to all
# of them (Sorenson and Webster, 2017).  The first 12 alone are not
# enough above 318665857834031151167461, a strong pseudoprime to each.
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


@functools.lru_cache(maxsize=256)
def _is_prime_int(p: int) -> bool:
    """Deterministic Miller-Rabin test over MILLER_RABIN_BASES, memoized:
    every carry normalization checks its prime.  Only ever called with a
    Python int, so one cache key is one question."""
    if p >= MILLER_RABIN_BOUND:
        raise ValueError(f"primality is decided only below {MILLER_RABIN_BOUND}, got {p}")
    if p < 2:
        return False
    for a in MILLER_RABIN_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def validate_prime(p):
    """Raise ValueError unless p is a prime integer below 2**32: no p-adic
    character exists once p**2 >= 2**63 (see check_padic_character)."""
    if isinstance(p, (int, np.integer)) and p >= 2**32:
        raise ValueError(f"p must be below 2**32, got {p}")
    if not is_prime(p):
        raise ValueError(f"p must be a prime integer, got {p!r}")


def canonical_angle(x):
    """Reduce an angle in radians to the canonical interval [-pi, pi).

    Accepts a scalar or an ndarray and returns the same shape (a Python
    float for a scalar).  The reduction is ((x + pi) mod 2pi) - pi with a
    final fold of the boundary value pi down to -pi (the mod can land
    exactly on 2pi in floating point); inputs already in [-pi, pi) come
    back bitwise unchanged.

    A float, int or numpy-scalar input takes a plain-float path with
    the same steps in Python's float arithmetic, skipping numpy's
    per-call overhead.  It is bit-identical to the array path:
    both convert to a double first, the sums and differences are the
    same IEEE operations, and Python's float % is C fmod followed by
    adding the divisor when the remainder's sign differs from it (a zero
    remainder taking the divisor's sign), which is how np.mod reduces
    doubles.
    """
    if isinstance(x, (float, int, np.floating, np.integer)):
        a = float(x)
        if not math.isfinite(a):
            raise ValueError("non-finite angle")
        if -math.pi <= a < math.pi:
            return a
        out = (a + math.pi) % TWO_PI - math.pi
        return out - TWO_PI if out >= math.pi else out
    arr = np.asarray(x, dtype=float)
    # a non-finite entry is never inside, so an all-inside array is finite
    inside = (arr >= -np.pi) & (arr < np.pi)
    if inside.all():
        out = arr.copy()
    else:
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite angle")
        # ((x + pi) mod 2pi) - pi and the fold of pi, in one buffer
        out = np.empty_like(arr)
        np.add(arr, np.pi, out=out)
        np.mod(out, TWO_PI, out=out)
        np.subtract(out, np.pi, out=out)
        np.subtract(out, TWO_PI, out=out, where=out >= np.pi)
        # keep already-canonical inputs bitwise unchanged (makes the map
        # idempotent instead of round-tripping through the mod)
        np.copyto(out, arr, where=inside)
    if np.ndim(x) == 0:
        return float(out)
    return out


def circular_distance(a, b):
    """Absolute distance between two angles measured around the circle."""
    return np.abs(canonical_angle(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))


def angle_cutoff(x):
    """Piecewise-linear cutoff: identity on [-pi/2, pi/2), folded linearly
    to zero toward +-pi, and zero outside [-pi, pi).

    Scalar or ndarray input.  Near the identity the circle characters
    satisfy chi(y) = exp(i * ell * cutoff(arg y)), which is what makes
    this the centering function for Poisson jumps.
    """
    arr = np.asarray(x, dtype=float)
    out = np.where(
        arr < -np.pi,
        0.0,
        np.where(
            arr < -np.pi / 2,
            -arr - np.pi,
            np.where(arr < np.pi / 2, arr, np.where(arr < np.pi, -arr + np.pi, 0.0)),
        ),
    )
    if np.ndim(x) == 0:
        return float(out)
    return out


def config_int(value, minimum=None) -> int:
    """A JSON config integer (bools rejected), at least minimum if given."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"must be >= {minimum}")
    return value


def config_real(value) -> float:
    """A JSON config number (bools rejected), as a float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# elements

@dataclass(frozen=True)
class TorusPoint:
    """A circle element, stored via its canonical angle in [-pi, pi)."""

    angle: float
    depth = None  # a circle point has no tower of coordinates
    digits = ()  # and lifts to R alone

    def __post_init__(self):
        object.__setattr__(self, "angle", canonical_angle(self.angle))

    @staticmethod
    def identity() -> "TorusPoint":
        return TorusPoint(0.0)

    def is_identity(self) -> bool:
        return self.angle == 0.0


def torus_mul(a: TorusPoint, b: TorusPoint) -> TorusPoint:
    return TorusPoint(a.angle + b.angle)


def torus_inverse(a: TorusPoint) -> TorusPoint:
    return TorusPoint(-a.angle)


@dataclass(frozen=True)
class PadicInt:
    """A p-adic integer truncated to its first len(digits) coordinates.

    digits[j] is the base-p digit of index j; all arithmetic is carried
    out modulo p**len(digits) (carry out of the last digit is dropped).
    """

    p: int
    digits: tuple

    def __post_init__(self):
        validate_prime(self.p)
        # operator.index refuses a float instead of truncating it
        digits = tuple(map(operator.index, self.digits))
        if len(digits) == 0:
            raise ValueError("p-adic element needs at least one digit")
        for d in digits:
            if not 0 <= d < self.p:
                raise ValueError(f"digit {d} outside 0..{self.p - 1}")
        object.__setattr__(self, "digits", digits)

    @classmethod
    def _normalized(cls, p, digits: tuple) -> "PadicInt":
        """The element with these digits, built without __post_init__.

        Only for callers that have already checked p and made digits a
        nonempty tuple of Python ints in 0..p-1, such as _carry.
        """
        x = object.__new__(cls)
        x.__dict__.update(p=p, digits=digits)
        return x

    @property
    def depth(self) -> int:
        """Highest retained digit index."""
        return len(self.digits) - 1

    @staticmethod
    def zero(p: int, depth: int) -> "PadicInt":
        return PadicInt(p, (0,) * (depth + 1))

    @staticmethod
    def from_int(p: int, value: int, depth: int) -> "PadicInt":
        """Digit expansion of value mod p**(depth+1) (value may be negative)."""
        return padic_from_ints(p, [value if j == 0 else 0 for j in range(depth + 1)])

    def to_int(self) -> int:
        """The integer sum(digits[j] * p**j), exact (Horner's rule)."""
        p, acc = int(self.p), 0
        for d in reversed(self.digits):
            acc = acc * p + d
        return acc

    def is_identity(self) -> bool:
        return not any(self.digits)


def _check_same(x, y):
    """Raise ValueError unless x and y share their prime and digit count."""
    if x.p != y.p:
        raise ValueError(f"mismatched primes: {x.p} vs {y.p}")
    if len(x.digits) != len(y.digits):
        raise ValueError(f"mismatched digit lengths: depth {x.depth} vs {y.depth}")


def padic_add(x: PadicInt, y: PadicInt) -> PadicInt:
    """Carry addition base p, truncated at the last digit."""
    _check_same(x, y)
    return _carry(x.p, map(operator.add, x.digits, y.digits))


def padic_neg(x: PadicInt) -> PadicInt:
    """Additive inverse, truncated at the last digit."""
    return _carry(x.p, map(operator.neg, x.digits))


def padic_mul_nat(k: int, x: PadicInt) -> PadicInt:
    """k-fold sum of x with itself, for a nonnegative integer k.

    k is read once through operator.index, so a float raises TypeError
    and a numpy integer becomes an exact Python int before it multiplies
    a digit (no int64 wraparound).
    """
    k = operator.index(k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _carry(x.p, [k * d for d in x.digits])


def padic_from_ints(p: int, entries) -> PadicInt:
    """Digit vector determined by the prefix congruences.

    For every d, sum(out[j] * p**j, j<=d) is congruent to
    sum(entries[j] * p**j, j<=d) mod p**(d+1).  Entries may be negative;
    the map is a homomorphism from integer sequences under entrywise
    addition onto the p-adic integers.  entries may be any iterable of
    integers (numpy integers included), read once.  p is checked and
    every entry converted with operator.index here, so a float raises
    TypeError; the carry itself is _carry, which padic_add, padic_neg
    and padic_mul_nat share.
    """
    validate_prime(p)
    return _carry(p, map(operator.index, entries))


def _carry(p, entries) -> PadicInt:
    """The carry of padic_from_ints, trusting its input: p is a prime
    already checked and entries an iterable of Python ints, read once."""
    return PadicInt._normalized(p, _carry_digits(p, entries))


def _carry_digits(p, entries) -> tuple:
    """The digits of _carry(p, entries), as a tuple of Python ints, with
    no element built around them."""
    base = int(p)
    out = []
    carry = 0
    for t in entries:
        t += carry
        carry = t // base
        out.append(t - carry * base)
    if not out:
        raise ValueError("p-adic element needs at least one digit")
    # floor division by the checked prime leaves every digit in 0..p-1
    return tuple(out)


def padic_digit_matrix(p: int, values: np.ndarray, carry=0, out=None) -> np.ndarray:
    """Row-wise digit normalization of an integer matrix.

    Vectorized counterpart of padic_from_ints: values has shape
    (n, depth+1) with arbitrary-sign int64 entries; the result holds the
    base-p digits of each row under the same prefix congruences.  carry,
    a scalar or one int64 per row, is added to digit 0, so the caller
    need not copy values to add it (the solenoid lift's whole turns).
    The digits go to out when given, which may be values itself: column
    j is read before digit j is written.  Otherwise they go to a new
    column-major matrix, so each digit column is contiguous for this
    sweep and for every later reader of one digit (residues, towers).

    Each column takes t = value + carry, carry = t // p and digit
    t - p * carry, the floor quotient and remainder of divmod, in two
    work vectors of n entries reused across the columns.
    """
    values = np.asarray(values, dtype=np.int64)
    n, width = values.shape
    if out is None:
        out = np.empty((n, width), dtype=np.int64, order="F")
    total, quotient = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    for j in range(width):
        np.add(values[:, j], carry, out=total)
        carry = np.floor_divide(total, p, out=quotient)
        digit = out[:, j]
        np.multiply(carry, p, out=digit)
        np.subtract(total, digit, out=digit)
    return out


def padic_in_subgroup(x: PadicInt, r: int) -> bool:
    """True iff the first r digits of x vanish (x lies in the depth-r
    zero-prefix subgroup)."""
    if r < 0 or r > len(x.digits):
        raise ValueError(f"r must be in 0..{len(x.digits)}")
    return all(d == 0 for d in x.digits[:r])


@dataclass(frozen=True, init=False)
class SolenoidPoint:
    """A solenoid element truncated at coordinate index depth, stored as a
    batch row: a base angle in [-pi, pi) and depth base-p digits (Python
    ints).  SolenoidPoint(p, depth, deep_angle) is the image of the real
    p**depth * deep_angle, whose coordinate depth has angle deep_angle.
    """

    p: int
    base: float
    digits: tuple

    def __init__(self, p: int, depth: int, deep_angle: float):
        validate_prime(p)
        # the real p**depth * deep_angle is a finite float while
        # p**depth * pi < 2**1023; depth >= 1021 needs no power built
        if depth >= 1021 or p**depth >= 2**1021:
            raise ValueError(
                f"p**depth = {p}**{depth} is 2**1021 or more: coordinate 0 of a "
                "deep angle, p**depth * deep_angle, is not a finite float"
            )
        y0 = p**depth * canonical_angle(deep_angle)
        self.__dict__.update(vars(solenoid_from_lift(p, depth, y0, [0] * depth)))

    @property
    def depth(self) -> int:
        return len(self.digits)

    @property
    def deep_angle(self) -> float:
        return self.coordinate_angle(self.depth)

    @staticmethod
    def identity(p: int, depth: int) -> "SolenoidPoint":
        return SolenoidPoint(p, depth, 0.0)

    def coordinate_angle(self, j: int) -> float:
        """(base + 2pi*(x mod p**j)) / p**j, a Python float: the point
        sweeps as the batch row it is, through solenoid_tower."""
        if not 0 <= j <= self.depth:
            raise ValueError(f"coordinate index {j} outside 0..{self.depth}")
        return solenoid_coordinate(self.p, self.base, self.digits, j)

    def is_identity(self) -> bool:
        return self.base == 0.0 and not any(self.digits)


def solenoid_mul(a: SolenoidPoint, b: SolenoidPoint) -> SolenoidPoint:
    """Group product: add the base angles and the digits, then wrap and carry."""
    _check_same(a, b)
    return solenoid_from_lift(a.p, a.depth, a.base + b.base, map(operator.add, a.digits, b.digits))


def solenoid_inverse(a: SolenoidPoint) -> SolenoidPoint:
    return solenoid_from_lift(a.p, a.depth, -a.base, map(operator.neg, a.digits))


def solenoid_project(x: SolenoidPoint, d: int) -> TorusPoint:
    """Coordinate d of the tower as a circle point."""
    return TorusPoint(x.coordinate_angle(d))


def solenoid_lift_matrix(p, y0, ints):
    """Batch form of the rows (y0, k0, k1, ...) of R x Z^depth under the
    covering map: y0 shape (n,), ints an int64 matrix of shape (n, depth),
    into which the digits are carried in place.

    Coordinate j of a row is (y0 + 2pi*(k0 + k1*p + ... + k(j-1)*p**(j-1)))
    / p**j.  The row is stored as S_p = (R x Delta_p)/Z stores it: the
    base angle theta0 = y0 - 2pi*n in [-pi, pi), with n moved into k0
    through (t, x) ~ (t - n, x + n), and the base-p digits of the carried
    integers.  Returns (theta0 shape (n,), digits shape (n, depth)); the
    map is a homomorphism in (y0, ints) under entrywise addition.
    """
    y0 = np.asarray(y0, dtype=float)
    base = canonical_angle(y0)
    turns = np.rint((y0 - base) / TWO_PI).astype(np.int64)
    return base, padic_digit_matrix(p, ints, turns, ints)


def solenoid_tower(p: int, base, digits):
    """Yield the coordinates 0, 1, ..., depth of the batch (base, digits)
    as canonical angle columns.

    Coordinate j is (theta0 + 2pi*(x mod p**j)) / p**j.  One Horner sweep
    f <- (f + x_j) / p keeps f = (x mod p**j) / p**j in [0, 1), so
    coordinate j = theta0 / p**j + 2pi*f adds two terms of size O(2pi)
    and its error stays a few ulps at any depth.

    A float base with a digit tuple, one SolenoidPoint, sweeps in the
    same float operations as its batch row and yields Python floats.
    """
    frac = np.zeros_like(base)
    yield base
    for column in np.asarray(digits).T:
        base = base / p
        frac = (frac + column) / p
        yield canonical_angle(base + TWO_PI * frac)


def solenoid_coordinate(p: int, base, digits, j: int):
    """Coordinate j of the batch or point (base, digits), swept through
    digit j-1."""
    for column in solenoid_tower(p, base, np.asarray(digits)[..., :j]):
        pass
    return column


def solenoid_from_lift(p: int, depth: int, y0: float, ints) -> SolenoidPoint:
    """The point with the single lift (y0, ints) under the covering map of
    solenoid_lift_matrix; entries of ints past the first depth are
    ignored.  The turns of y0 are carried as Python ints: nothing wraps."""
    validate_prime(p)
    ints = [int(k) for k in ints][:depth]
    if not 0 <= depth == len(ints):
        raise ValueError(f"need depth >= 0 and {depth} integer entries, got {len(ints)}")
    base = canonical_angle(y0)
    if depth:
        ints[0] += round((y0 - base) / TWO_PI)
    x = object.__new__(SolenoidPoint)
    x.__dict__.update(p=p, base=base, digits=_carry_digits(p, ints) if depth else ())
    return x


def solenoid_lift(x: SolenoidPoint):
    """Canonical preimage of x in R x Z^depth: (arg x_0, then the integer
    winding increments (p*arg x_{k} - arg x_{k-1}) / 2pi).

    Reconstructing through solenoid_from_lift returns x.  The increments
    are integers up to float rounding; a residual above 1e-6 means the
    angles do not form a coherent tower.  Only tests call it, as a reference.
    """
    angles = [x.coordinate_angle(j) for j in range(x.depth + 1)]
    ints = []
    for k in range(1, x.depth + 1):
        raw = (x.p * angles[k] - angles[k - 1]) / TWO_PI
        n = round(raw)
        if abs(raw - n) > 1e-6:
            raise ValueError(f"not a solenoid point (winding residual {raw - n:.3g})")
        ints.append(int(n))
    return angles[0], tuple(ints)


# ---------------------------------------------------------------------------
# canonical compact subgroups

@dataclass(frozen=True)
class TorusSubgroup:
    """order=None is the whole circle; order=k the k-th roots of unity,
    for an integer k in 1..2**63 (the Haar layer draws one of k int64
    indices)."""

    order: int | None = None
    first_digit = None  # the circle's lift has no digits

    def __post_init__(self):
        if self.order is not None:
            # operator.index refuses a float instead of truncating it
            order = operator.index(self.order)
            if not 1 <= order <= 2**63:
                raise ValueError(f"cyclic subgroup order must be in 1..2**63, got {order}")
            object.__setattr__(self, "order", order)

    @staticmethod
    def full() -> "TorusSubgroup":
        return TorusSubgroup(None)

    @staticmethod
    def cyclic(order: int) -> "TorusSubgroup":
        return TorusSubgroup(order)

    @staticmethod
    def trivial() -> "TorusSubgroup":
        return TorusSubgroup(1)


@dataclass(frozen=True)
class PadicSubgroup:
    """Elements whose first zero_digits digits vanish (zero_digits=0 is
    the whole group; larger values are nested open subgroups)."""

    zero_digits: int = 0

    def __post_init__(self):
        if self.zero_digits < 0:
            raise ValueError("zero_digits must be >= 0")

    @property
    def first_digit(self) -> int:
        """The Haar layer's first uniform digit: digits 0..r-1 vanish."""
        return self.zero_digits


@dataclass(frozen=True)
class SolenoidSubgroup:
    """whole=False is the trivial subgroup {e}; whole=True the full
    solenoid (its only compact subgroups used here).  As Haar layers,
    in the circle's TorusSubgroup convention, {e} is cyclic of order 1
    and the whole solenoid has order None and uniform digits from 0 on."""

    whole: bool = False

    @property
    def order(self):
        return None if self.whole else 1

    @property
    def first_digit(self):
        return 0 if self.whole else None

    @staticmethod
    def trivial() -> "SolenoidSubgroup":
        return SolenoidSubgroup(False)

    @staticmethod
    def full() -> "SolenoidSubgroup":
        return SolenoidSubgroup(True)


# ---------------------------------------------------------------------------
# characters

@dataclass(frozen=True)
class TorusCharacter:
    """y -> y**ell on the circle, for |ell| <= 2**31
    (check_angle_frequency)."""

    ell: int
    d = 0  # the circle is its own coordinate 0

    def __post_init__(self):
        # operator.index refuses a float instead of truncating it
        object.__setattr__(self, "ell", operator.index(self.ell))
        check_angle_frequency(self.ell)

    @property
    def label(self) -> str:
        return f"l={self.ell}"

    def __call__(self, y: TorusPoint) -> complex:
        return cmath.exp(1j * canonical_angle(self.ell * y.angle))


@dataclass(frozen=True)
class _DepthCharacter:
    """A character indexed by a depth d >= 0 and a frequency ell."""

    d: int
    ell: int

    def __post_init__(self):
        object.__setattr__(self, "d", operator.index(self.d))
        object.__setattr__(self, "ell", operator.index(self.ell))
        if self.d < 0:
            raise ValueError("character depth must be >= 0")

    @property
    def label(self) -> str:
        return f"d={self.d},l={self.ell}"

    def _check_depth(self, depth: int):
        if self.d > depth:
            raise ValueError("character depth exceeds element depth")


@dataclass(frozen=True)
class PadicCharacter(_DepthCharacter):
    """x -> exp(2*pi*i*ell*(x_0 + p*x_1 + ... + p**d*x_d) / p**(d+1)).

    Canonical indexing takes 0 <= ell < p**(d+1); the range is checked
    where p is known (evaluation and annihilator tests).
    """

    def __post_init__(self):
        super().__post_init__()
        if self.ell < 0:
            raise ValueError("p-adic character frequency must be >= 0")

    def check_frequency(self, p: int) -> int:
        """The modulus p**(d+1), after checking 0 <= ell < p**(d+1)."""
        modulus = p ** (self.d + 1)
        if not 0 <= self.ell < modulus:
            raise ValueError(f"character frequency {self.ell} outside 0..{modulus - 1}")
        return modulus

    def __call__(self, x: PadicInt) -> complex:
        """Exact evaluation through integer arithmetic: the phase numerator is
        reduced mod p**(d+1) before exponentiation."""
        self._check_depth(x.depth)
        modulus = self.check_frequency(x.p)
        acc = 0
        for j in range(self.d + 1):
            acc += x.digits[j] * x.p ** j
        num = (self.ell * acc) % modulus
        return cmath.exp(2j * math.pi * num / modulus)


@dataclass(frozen=True)
class SolenoidCharacter(_DepthCharacter):
    """y -> (coordinate d of y)**ell on the solenoid, for |ell| <= 2**31
    (check_angle_frequency)."""

    def __post_init__(self):
        super().__post_init__()
        check_angle_frequency(self.ell)

    def __call__(self, y: SolenoidPoint) -> complex:
        self._check_depth(y.depth)
        return cmath.exp(1j * canonical_angle(self.ell * y.coordinate_angle(self.d)))


def check_padic_character(p: int, chi: PadicCharacter) -> int:
    """The modulus p**(d+1) of the character (d, ell), after checking
    0 <= ell < p**(d+1) and the exact envelope p**(d+2) < 2**63.

    A batched p-adic mean reads x mod p**(d+1) off the digits by Horner's
    rule in int64, which is exact while p**(d+1) <= 2**63; the envelope
    keeps one more factor p of headroom.  parse_config refuses every
    character outside it, so an accepted config never reaches a mean
    that could wrap.
    """
    modulus = chi.check_frequency(p)
    if p * modulus >= 2**63:
        raise ValueError(
            f"character depth {chi.d} too large for exact batched evaluation at p={p} "
            "(needs p**(d+2) < 2**63)"
        )
    return modulus


# The largest |ell| a circle or solenoid character may have.
MAX_ANGLE_FREQUENCY = 2**31


def check_angle_frequency(ell: int):
    """Raise ValueError unless |ell| <= MAX_ANGLE_FREQUENCY = 2**31.

    A circle or solenoid character is evaluated, in its closed form and
    in its empirical mean alike, as exp(i * canonical_angle(ell * theta))
    with theta a float in [-pi, pi).  Up to 2**31 that phase is off
    from the exact one by less than 2e-6 radians, far below any
    Monte-Carlo tolerance: the rounding of ell * theta and of its sum
    with pi each add at most |ell| * pi * 2**-53 < 7.5e-7, and the float
    2pi's error over at most 2**30 turns adds 2.6e-7.  Beyond it the
    rounding error grows with |ell| (at |ell| = 1e20 it spans whole
    turns); both sides share it, so the gate would pass a wrong value
    unseen, and the character refuses to be built instead.
    """
    if abs(ell) > MAX_ANGLE_FREQUENCY:
        raise ValueError(
            f"character frequency {ell} outside -2**31..2**31: its float phase "
            "ell * theta would be inexact"
        )


# The largest |ell| read off cached powers; a larger one goes direct, so
# the cost and the rounding of a row stay within MAX_POWER products.
MAX_POWER = 64


def _unit_phases(theta: np.ndarray) -> np.ndarray:
    """exp(1j * theta), built in one complex buffer: the product, then
    the exponential in place, bit for bit np.exp(1j * theta)."""
    z = np.multiply(theta, 1j)
    return np.exp(z, out=z)


def _angle_char_mean(column: np.ndarray, means: list, ell: int, exact: bool) -> complex:
    """Mean of exp(i ell theta) over the canonical angles theta in column.

    means holds the means of z**1 ... z**k, z = exp(i theta), taken so
    far; a row with exact=False and 1 <= |ell| <= MAX_POWER reads entry
    |ell| of it, extending it by one sweep of products from z when |ell|
    > k.  Only z and the current power are alive during a sweep.
    """
    k = abs(ell)
    if k == 0:
        # the mean of N exact ones is exactly 1, on either path
        return 1 + 0j
    if exact or k > MAX_POWER:
        return complex(_unit_phases(canonical_angle(ell * column)).mean())
    if k > len(means):
        z = _unit_phases(column)
        power = z.copy()
        for j in range(1, k + 1):
            if j > 1:
                power *= z
            if j > len(means):
                means.append(complex(power.mean()))
    return means[k - 1] if ell > 0 else means[k - 1].conjugate()


# ---------------------------------------------------------------------------
# group descriptors: the per-group backends

# The depth of the stock character set: every descriptor's default depth,
# and the cap min(STOCK_DEPTH, depth) on the character depth of the p-adic
# and solenoid stock sets, which keeps each stock character readable on
# draws of any depth.
STOCK_DEPTH = 3


class _Group:
    """What every group descriptor provides.

    Each descriptor sets name, point_type, subgroup_type, character_type
    and retained (what a depth counts: None on the circle, which ignores
    depth), and implements quadratic_form(b, chi), pairing(x, chi)
    (the centering pairing g), drift(eta) (the local-mean drift),
    _annihilates, point_mass(depth) (the trivial subgroup and the
    identity), subgroup_is_trivial, default_characters(depth=STOCK_DEPTH)
    (the stock verification character set, which covers every
    annihilator regime at desk-scale cost), describe_subgroup,
    describe_point and the config parsers parse_point(raw, depth, subgroup),
    parse_subgroup(kind, order) and parse_character(raw, depth).  The
    parsers raise ValueError and leave naming the config field to the
    caller; parse_subgroup returns None for a kind the group lacks and
    calls order(minimum) to read the kind's integer parameter.

    The sampler's share (see the sampling module) presents the group as
    the image of its lift R x Z^k: real_coordinate with base_angle(x),
    lift_width(depth, shift) (k, once the shift reaches depth),
    pushforward(eta, depth), digit_dtype (the dtype its batches store
    digits in) and the covering map cover(real, digits), in place on one
    block of lifts.  The subgroup's order and first_digit give the Haar
    layer.  A batch, sampling.Samples, is the covered (real, digits),
    and the descriptor reads it: coordinate(real, digits, d), the angle
    column of coordinate d (circle and solenoid), dump_columns(real,
    digits), the sample dump's columns, and record(row), one dumped
    draw's JSON object.  Its character means take two hooks:
    mean_work(real, digits, d), the work every mean of depth d shares,
    which the batch keeps for the depth it read last, and read_mean(work,
    chi, exact), one character's mean off that work.
    """

    def annihilates(self, subgroup, chi) -> bool:
        """True iff chi is identically 1 on the subgroup."""
        if not isinstance(subgroup, self.subgroup_type):
            raise TypeError("subgroup/group mismatch")
        return self._annihilates(subgroup, chi)

    def validate_quadruplet(self, q):
        """The group half of quadruplet validation: the subgroup and every
        element belong to this group."""
        if not isinstance(q.subgroup, self.subgroup_type):
            raise ValueError(f"subgroup must be a {self.subgroup_type.__name__}")
        kind = self.point_type.__name__
        if not isinstance(q.shift, self.point_type):
            raise ValueError(f"shift must be a {kind}")
        for pt, _ in q.levy.atoms:
            if not isinstance(pt, self.point_type):
                raise ValueError(f"Levy atom must be a {kind}")
            self._check_element(q.shift, pt)
        self._check_element(q.shift, q.shift)

    def _check_element(self, shift, x):
        """Raise ValueError unless x shares the group's p and the shift's depth."""

    def describe(self, q) -> dict:
        """JSON-ready echo of a quadruplet; the shift echoes its fields but p."""
        return {
            "group": self.name,
            **dataclasses.asdict(self),
            "H": self.describe_subgroup(q.subgroup),
            "a": {k: v for k, v in dataclasses.asdict(q.shift).items() if k != "p"},
            "b": q.gauss_b,
            "eta": [{"point": self.describe_point(pt), "mass": m} for pt, m in q.levy.atoms],
        }


class _CircleTower(_Group):
    """Math the circle shares with the solenoid.

    The circle is the solenoid formula with p**d = 1 and its own angle as
    the base coordinate; multiplying or dividing by 1 is exact, so the
    shared formulas give the circle's values bit for bit.  Subgroups are
    the whole group (order None) or finite cyclic of the given order.
    """

    real_coordinate = True

    def quadratic_form(self, b: float, chi) -> float:
        """b*ell**2 / p**(2d)."""
        return b * chi.ell ** 2 / self.scale(chi) ** 2

    def centering(self, base_angle, chi):
        """g at a point whose base coordinate has angle base_angle:
        ell*cutoff(base_angle) / p**d.  Scalar or ndarray input."""
        return chi.ell * angle_cutoff(base_angle) / self.scale(chi)

    def pairing(self, x, chi) -> float:
        return self.centering(self.base_angle(x), chi)

    def drift(self, eta) -> float:
        """The scalar drift s realizing the local mean of eta: the sum of
        mass * cutoff(base angle) over its atoms.

        Subtracting s from the real coordinate of a compound-Poisson draw
        turns it into the centered (generalized) Poisson draw: at
        transform level the drift enters as exp(i*ell*s) on the circle and
        exp(i*ell*s / p**d) on the solenoid.  It vanishes identically on
        the p-adic integers (PadicIntegers.drift).
        """
        return sum(m * angle_cutoff(self.base_angle(pt)) for pt, m in eta.atoms)

    def _annihilates(self, subgroup, chi) -> bool:
        if subgroup.order is None:
            return chi.ell == 0
        return chi.ell % subgroup.order == 0

    def subgroup_is_trivial(self, subgroup, depth) -> bool:
        return subgroup.order == 1

    def mean_work(self, real, digits, d):
        """The angle column of coordinate d, swept through digit d-1, with
        the list of its power means taken so far (see _angle_char_mean)."""
        if d > digits.shape[1]:
            raise ValueError("character depth exceeds sample depth")
        return self.coordinate(real, digits, d), []

    def read_mean(self, work, chi, exact: bool) -> complex:
        """The mean of exp(i ell theta) over the column; ell = 0 gives
        exactly 1 + 0j.  With exact=False, 1 <= |ell| <= MAX_POWER reads
        the mean of z**|ell| off the power list (the conjugate for ell <
        0), so it depends only on (batch, d, |ell|), never on which rows
        asked first.  exact=True (the engine's choice for rows whose
        closed form has modulus one) and |ell| > MAX_POWER take the direct
        exp(1j * canonical_angle(ell * theta)), so a point-mass row stays
        exactly 1 + 0j."""
        return _angle_char_mean(*work, chi.ell, exact)


@dataclass(frozen=True)
class Torus(_CircleTower):
    """The circle group."""

    name = "torus"
    point_type = TorusPoint
    subgroup_type = TorusSubgroup
    character_type = TorusCharacter
    retained = None  # a circle depth retains nothing
    digit_dtype = np.dtype(np.uint8)  # the circle's lift has no digits

    def scale(self, chi) -> int:
        return 1

    def base_angle(self, x) -> float:
        return x.angle

    def lift_width(self, depth, shift) -> int:
        """The circle lifts to R alone; depth is ignored."""
        return 0

    def pushforward(self, eta, depth):
        return pushforward_torus(eta)

    def cover(self, real, digits):
        real[...] = canonical_angle(real)

    def coordinate(self, real, digits, d):
        return real

    def dump_columns(self, real, digits) -> list:
        return [real]

    @staticmethod
    def record(row) -> dict:
        return {"angle": row[0]}

    def point_mass(self, depth=None):
        return TorusSubgroup.trivial(), TorusPoint.identity()

    def default_characters(self, depth=STOCK_DEPTH) -> list:
        """Frequencies -8..8; depth is ignored."""
        return [TorusCharacter(ell) for ell in range(-8, 9)]

    def describe_subgroup(self, subgroup) -> dict:
        if subgroup.order is None:
            return {"kind": "full"}
        return {"kind": "cyclic", "r": subgroup.order}

    def describe_point(self, x) -> float:
        return x.angle

    def parse_point(self, raw, depth, subgroup) -> TorusPoint:
        return TorusPoint(config_real(raw))

    def parse_subgroup(self, kind, order):
        if kind == "cyclic":
            return TorusSubgroup.cyclic(order(1))
        return {"full": TorusSubgroup.full(), "trivial": TorusSubgroup.trivial()}.get(kind)

    def parse_character(self, raw, depth) -> TorusCharacter:
        return TorusCharacter(config_int(raw))


@dataclass(frozen=True)
class _PrimeGroup(_Group):
    """A group descriptor for a fixed prime p."""

    p: int

    def __post_init__(self):
        validate_prime(self.p)

    @property
    def digit_dtype(self) -> np.dtype:
        """The narrowest unsigned dtype that holds every digit 0..p-1
        (uint8 for p <= 256), the dtype batches store digits in.  It
        holds the digits alone: cast before any arithmetic on them."""
        return np.min_scalar_type(self.p - 1)

    def _check_element(self, shift, x):
        if x.p != self.p:
            raise ValueError("element prime does not match the group")
        _check_same(shift, x)

    def lift_width(self, depth, shift) -> int:
        """The shift's digits cut to depth, once 0 <= depth <= shift.depth."""
        if depth < 0:
            raise ValueError("depth must be >= 0")
        if shift.depth < depth:
            raise ValueError(f"shift carries {self.retained} 0..{shift.depth}, need 0..{depth}")
        return len(shift.digits) - shift.depth + depth

    def _parse_digits(self, raw, count) -> list:
        """A list of at most count digits in 0..p-1, zero-padded to count."""
        if not isinstance(raw, list):
            raise ValueError("expected a list of digits")
        digits = [config_int(d) for d in raw]
        if len(digits) > count:
            raise ValueError(f"more than {count} digits")
        if any(not 0 <= d < self.p for d in digits):
            raise ValueError(f"digits {raw} not all in 0..{self.p - 1}")
        return digits + [0] * (count - len(digits))

    def parse_character(self, raw, depth):
        if not (isinstance(raw, list) and len(raw) == 2):
            raise ValueError("expected a [d, ell] pair")
        d, ell = config_int(raw[0], 0), config_int(raw[1])
        if d > depth:
            raise ValueError(f"character depth {d} exceeds configured depth {depth}")
        return self.character_type(d, ell)


@dataclass(frozen=True)
class PadicIntegers(_PrimeGroup):
    """The group of p-adic integers for a fixed prime p.

    The group is totally disconnected: the quadratic form, the pairing g
    and the drift vanish identically, and no nontrivial Gauss measure
    exists.  The subgroups are the zero-prefix subgroups Lambda(r).
    """

    name = "padic"
    point_type = PadicInt
    subgroup_type = PadicSubgroup
    character_type = PadicCharacter

    real_coordinate = False
    retained = "digits"  # what a depth counts

    def quadratic_form(self, b: float, chi) -> float:
        return 0.0

    def pairing(self, x, chi) -> float:
        return 0.0

    def drift(self, eta) -> float:
        return 0.0

    def pushforward(self, eta, depth):
        return pushforward_padic(eta, depth)

    def cover(self, real, digits):
        padic_digit_matrix(self.p, digits, out=digits)

    def dump_columns(self, real, digits) -> list:
        """Digits 0..depth, one column per digit."""
        return list(digits.T)

    @staticmethod
    def record(row) -> dict:
        return {"digits": list(row)}

    def mean_work(self, real, digits, d):
        """The distinct residues r = x mod p**(d+1) of the batch, as a
        list of ints in increasing order, and their counts, bit for bit
        np.unique's.  Horner's rule runs in the narrowest unsigned dtype
        that holds p**(d+1) - 1, exact inside check_padic_character's
        envelope, which is checked first, so no residue is built for a
        depth outside it.  The fresh residue column is sorted in place,
        stably at 8 and 16 bits, where numpy radix-sorts (its default sort
        of 8-bit values is off its fast path), and counted by the runs of
        equal values."""
        if d >= digits.shape[1]:
            raise ValueError("character depth exceeds sample depth")
        check_padic_character(self.p, PadicCharacter(d, 0))
        p = int(self.p)
        dtype = np.min_scalar_type(p ** (d + 1) - 1)
        residues = digits[:, d].astype(dtype)
        for j in range(d - 1, -1, -1):
            residues *= p
            residues += digits[:, j].astype(dtype, copy=False)
        residues.sort(kind="stable" if residues.itemsize <= 2 else None)
        bounds = np.concatenate(([0], np.flatnonzero(np.diff(residues)) + 1, [len(residues)]))
        return residues[bounds[:-1]].tolist(), np.diff(bounds)

    def read_mean(self, work, chi, exact: bool) -> complex:
        """The sum of counts * exp(2 pi i ell r / p**(d+1)) over the
        residues r, each phase ell * r mod p**(d+1) taken exactly in
        Python ints.  exact is ignored: every mean is taken this one way."""
        modulus = check_padic_character(self.p, chi)
        residues, counts = work
        phase = np.array([chi.ell * r % modulus for r in residues], dtype=np.int64)
        return complex(counts @ np.exp(2j * np.pi * phase / modulus) / counts.sum())

    def _annihilates(self, subgroup, chi) -> bool:
        """chi.d < r or p**(d+1-r) | ell, for the depth-r zero-prefix subgroup."""
        chi.check_frequency(self.p)
        r = subgroup.zero_digits
        return chi.d < r or chi.ell % self.p ** (chi.d + 1 - r) == 0

    def validate_quadruplet(self, q):
        super().validate_quadruplet(q)
        if q.gauss_b != 0:
            raise ValueError(
                "no nontrivial Gauss measure exists on the p-adic integers (gauss_b must be 0)"
            )

    def point_mass(self, depth: int):
        return PadicSubgroup(depth + 1), PadicInt.zero(self.p, depth)

    def subgroup_is_trivial(self, subgroup, depth) -> bool:
        return subgroup.zero_digits >= depth + 1

    def default_characters(self, depth: int = STOCK_DEPTH) -> list:
        """Every (d, ell) with d <= min(STOCK_DEPTH, depth).  The set grows
        as p**4, so it is counted first and refused above 10**5 characters."""
        depths = range(min(STOCK_DEPTH, depth) + 1)
        count = sum(self.p ** (d + 1) for d in depths)
        if count > 10**5:
            raise ValueError(
                f"the default set at p={self.p} has {count} characters, more than 10**5; "
                "list the characters instead"
            )
        return [PadicCharacter(d, ell) for d in depths for ell in range(self.p ** (d + 1))]

    def describe_subgroup(self, subgroup) -> dict:
        return {"kind": "lambda", "r": subgroup.zero_digits}

    def describe_point(self, x) -> list:
        return list(x.digits)

    def parse_point(self, raw, depth, subgroup) -> PadicInt:
        """A digit list, zero-padded to depth+1 digits."""
        return PadicInt(self.p, tuple(self._parse_digits(raw, depth + 1)))

    def parse_subgroup(self, kind, order):
        return PadicSubgroup(order(0)) if kind == "lambda" else None

    def parse_character(self, raw, depth) -> PadicCharacter:
        chi = super().parse_character(raw, depth)
        check_padic_character(self.p, chi)
        return chi


@dataclass(frozen=True)
class Solenoid(_PrimeGroup, _CircleTower):
    """The p-adic solenoid for a fixed prime p."""

    name = "solenoid"
    point_type = SolenoidPoint
    subgroup_type = SolenoidSubgroup
    character_type = SolenoidCharacter
    retained = "coordinates"  # what a depth counts

    def scale(self, chi) -> int:
        """p**d, after checking p**(2d) < 2**1023: the Gauss form
        b*ell**2 / p**(2d) divides by the float p**(2d)."""
        if chi.d >= 512 or self.p ** (2 * chi.d) >= 2**1023:
            raise ValueError(f"character depth {chi.d} at p={self.p}: needs p**(2d) below 2**1023")
        return self.p ** chi.d

    def base_angle(self, x) -> float:
        return x.base

    def pushforward(self, eta, depth):
        return pushforward_solenoid(eta, depth)

    def cover(self, real, digits):
        real[...], _ = solenoid_lift_matrix(self.p, real, digits)

    def coordinate(self, real, digits, d):
        return solenoid_coordinate(self.p, real, digits, d)

    def dump_columns(self, real, digits) -> list:
        """The deepest angle, then coordinates 0..depth; the first column
        is the object of the last."""
        coords = list(solenoid_tower(self.p, real, digits))
        return [coords[-1], *coords]

    @staticmethod
    def record(row) -> dict:
        return {"deep_angle": row[0], "coordinates": list(row[1:])}

    def point_mass(self, depth: int):
        return SolenoidSubgroup.trivial(), SolenoidPoint.identity(self.p, depth)

    def default_characters(self, depth: int = STOCK_DEPTH) -> list:
        """d <= min(STOCK_DEPTH, depth) and |ell| <= 8."""
        depths = range(min(STOCK_DEPTH, depth) + 1)
        return [SolenoidCharacter(d, ell) for d in depths for ell in range(-8, 9)]

    def describe_subgroup(self, subgroup) -> dict:
        return {"kind": "full" if subgroup.whole else "trivial"}

    def describe_point(self, x) -> dict:
        return {"base": x.base, "digits": list(x.digits)}

    def parse_point(self, raw, depth, subgroup) -> SolenoidPoint:
        """{"base": a finite real, "digits": at most depth digits}, or a
        deep angle phi, the image of the real p**depth * phi.  Unless the
        whole subgroup's Haar layer absorbs the point, phi is refused once
        its rounding, half an ulp, can exceed 1e-6 turns."""
        if isinstance(raw, dict):
            if set(raw) != {"base", "digits"}:
                raise ValueError("expected an object with the keys 'base' and 'digits' only")
            digits = self._parse_digits(raw["digits"], depth)
            return solenoid_from_lift(self.p, depth, config_real(raw["base"]), digits)
        phi = canonical_angle(config_real(raw))
        x = SolenoidPoint(self.p, depth, phi)
        if not subgroup.whole and math.ulp(self.p**depth * phi) > 4e-6 * math.pi:
            raise ValueError(f"ulp(p**depth * phi) > 4pi*1e-6 at depth {depth}; give base, digits")
        return x

    def parse_subgroup(self, kind, order):
        return {"trivial": SolenoidSubgroup.trivial(), "full": SolenoidSubgroup.full()}.get(kind)

    def parse_character(self, raw, depth) -> SolenoidCharacter:
        """A [d, ell] pair inside check_angle_frequency and scale."""
        chi = super().parse_character(raw, depth)
        self.scale(chi)
        return chi
