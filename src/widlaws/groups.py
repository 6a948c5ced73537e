"""Finite-precision models of three compact abelian groups.

The three groups are the circle group (unit complex numbers under
multiplication, stored as angles), the p-adic integers (base-p digit
vectors under carry addition), and the p-adic solenoid (coherent towers
of circle points, stored through their deepest retained coordinate).
Alongside the group arithmetic this module provides the homomorphisms
that present the two profinite-flavored groups as quotients of products
of subgroups of the real line, plus the canonical compact subgroups of
each group.

All values are immutable after construction and all operations are pure
functions, so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def is_prime(p) -> bool:
    """Trial-division primality check (fine for the small p used here)."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def validate_prime(p):
    if not isinstance(p, (int, np.integer)) or isinstance(p, bool) or not is_prime(p):
        raise ValueError(f"p must be a prime integer, got {p!r}")


def canonical_angle(x):
    """Reduce an angle in radians to the canonical interval [-pi, pi).

    Accepts a scalar or an ndarray and returns the same shape.  The
    reduction is ((x + pi) mod 2pi) - pi with a final fold of the
    boundary value pi down to -pi (the mod can land exactly on 2pi in
    floating point).
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite angle")
    out = np.mod(arr + np.pi, TWO_PI) - np.pi
    out = np.where(out >= np.pi, out - TWO_PI, out)
    # keep already-canonical inputs bitwise unchanged (makes the map
    # idempotent instead of round-tripping through the mod)
    out = np.where((arr >= -np.pi) & (arr < np.pi), arr, out)
    if np.ndim(x) == 0:
        return float(out)
    return out


def circular_distance(a, b):
    """Absolute distance between two angles measured around the circle."""
    return np.abs(canonical_angle(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))


# ---------------------------------------------------------------------------
# group descriptors

@dataclass(frozen=True)
class Torus:
    """The circle group."""


@dataclass(frozen=True)
class PadicIntegers:
    """The group of p-adic integers for a fixed prime p."""

    p: int

    def __post_init__(self):
        validate_prime(self.p)


@dataclass(frozen=True)
class Solenoid:
    """The p-adic solenoid for a fixed prime p."""

    p: int

    def __post_init__(self):
        validate_prime(self.p)


# ---------------------------------------------------------------------------
# elements

@dataclass(frozen=True)
class TorusPoint:
    """A circle element, stored via its canonical angle in [-pi, pi)."""

    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", canonical_angle(self.angle))

    @staticmethod
    def identity() -> "TorusPoint":
        return TorusPoint(0.0)

    def is_identity(self) -> bool:
        return self.angle == 0.0


def torus_from_angle(x) -> TorusPoint:
    """Canonical circle point of the real angle x (radians)."""
    return TorusPoint(float(x))


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
        digits = tuple(int(d) for d in self.digits)
        if len(digits) == 0:
            raise ValueError("p-adic element needs at least one digit")
        for d in digits:
            if not 0 <= d < self.p:
                raise ValueError(f"digit {d} outside 0..{self.p - 1}")
        object.__setattr__(self, "digits", digits)

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
        """The integer sum(digits[j] * p**j), exact."""
        return sum(d * self.p ** j for j, d in enumerate(self.digits))

    def is_identity(self) -> bool:
        return all(d == 0 for d in self.digits)


def _check_same_padic(x: PadicInt, y: PadicInt):
    if x.p != y.p:
        raise ValueError(f"mismatched primes: {x.p} vs {y.p}")
    if len(x.digits) != len(y.digits):
        raise ValueError(f"mismatched digit lengths: {len(x.digits)} vs {len(y.digits)}")


def padic_add(x: PadicInt, y: PadicInt) -> PadicInt:
    """Carry addition base p, truncated at the last digit."""
    _check_same_padic(x, y)
    return padic_from_ints(x.p, [a + b for a, b in zip(x.digits, y.digits)])


def padic_neg(x: PadicInt) -> PadicInt:
    """Additive inverse, truncated at the last digit."""
    return padic_from_ints(x.p, [-d for d in x.digits])


def padic_mul_nat(k: int, x: PadicInt) -> PadicInt:
    """k-fold sum of x with itself, for a nonnegative integer k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return padic_from_ints(x.p, [k * d for d in x.digits])


def padic_from_ints(p: int, entries) -> PadicInt:
    """Digit vector determined by the prefix congruences.

    For every d, sum(out[j] * p**j, j<=d) is congruent to
    sum(entries[j] * p**j, j<=d) mod p**(d+1).  Entries may be negative;
    the map is a homomorphism from integer sequences under entrywise
    addition onto the p-adic integers.
    """
    validate_prime(p)
    out = []
    carry = 0
    for e in entries:
        carry, d = divmod(int(e) + carry, p)
        out.append(d)
    return PadicInt(p, tuple(out))


def padic_digit_matrix(p: int, values: np.ndarray) -> np.ndarray:
    """Row-wise digit normalization of an integer matrix.

    Vectorized counterpart of padic_from_ints: values has shape
    (n, depth+1) with arbitrary-sign int64 entries; the result holds the
    base-p digits of each row under the same prefix congruences.
    """
    values = np.asarray(values, dtype=np.int64)
    out = np.empty_like(values)
    carry = np.zeros(values.shape[0], dtype=np.int64)
    for j in range(values.shape[1]):
        t = values[:, j] + carry
        d = np.mod(t, p)
        out[:, j] = d
        carry = (t - d) // p
    return out


def padic_in_subgroup(x: PadicInt, r: int) -> bool:
    """True iff the first r digits of x vanish (x lies in the depth-r
    zero-prefix subgroup)."""
    if r < 0 or r > len(x.digits):
        raise ValueError(f"r must be in 0..{len(x.digits)}")
    return all(d == 0 for d in x.digits[:r])


def solenoid_coordinates(p: int, depth: int, deep_angles, j: int):
    """Canonical angle of coordinate j of the tower whose coordinate
    `depth` has angle deep_angles: p**(depth-j) * deep_angles mod 2pi.

    Scalar or ndarray input, like canonical_angle.
    """
    return canonical_angle(p ** (depth - j) * deep_angles)


@dataclass(frozen=True)
class SolenoidPoint:
    """A solenoid element truncated at coordinate index `depth`.

    Only the deepest retained coordinate's angle is stored; coordinate j
    (0 <= j <= depth) is recovered as p**(depth-j) * deep_angle mod 2pi,
    so the tower relation (coordinate j) = (coordinate j+1)**p holds by
    construction.
    """

    p: int
    depth: int
    deep_angle: float

    def __post_init__(self):
        validate_prime(self.p)
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")
        object.__setattr__(self, "deep_angle", canonical_angle(self.deep_angle))

    @staticmethod
    def identity(p: int, depth: int) -> "SolenoidPoint":
        return SolenoidPoint(p, depth, 0.0)

    def coordinate_angle(self, j: int) -> float:
        if not 0 <= j <= self.depth:
            raise ValueError(f"coordinate index {j} outside 0..{self.depth}")
        return solenoid_coordinates(self.p, self.depth, self.deep_angle, j)

    def is_identity(self) -> bool:
        return self.deep_angle == 0.0


def _check_same_solenoid(a: SolenoidPoint, b: SolenoidPoint):
    if a.p != b.p:
        raise ValueError(f"mismatched primes: {a.p} vs {b.p}")
    if a.depth != b.depth:
        raise ValueError(f"mismatched depths: {a.depth} vs {b.depth}")


def solenoid_mul(a: SolenoidPoint, b: SolenoidPoint) -> SolenoidPoint:
    """Componentwise product; it suffices to add the deepest angles."""
    _check_same_solenoid(a, b)
    return SolenoidPoint(a.p, a.depth, a.deep_angle + b.deep_angle)


def solenoid_inverse(a: SolenoidPoint) -> SolenoidPoint:
    return SolenoidPoint(a.p, a.depth, -a.deep_angle)


def solenoid_project(x: SolenoidPoint, d: int) -> TorusPoint:
    """Coordinate d of the tower as a circle point."""
    return TorusPoint(x.coordinate_angle(d))


def solenoid_from_lift(p: int, depth: int, y0: float, ints) -> SolenoidPoint:
    """Image of (y0, k1, k2, ...) in R x Z^depth under the covering map.

    Coordinate j gets the angle
    (y0 + 2pi*(k1 + k2*p + ... + kj*p**(j-1))) / p**j; storing the
    j = depth case determines the rest.  The map is a homomorphism in
    (y0, ints) under entrywise addition.
    """
    validate_prime(p)
    ints = tuple(int(k) for k in ints)
    if len(ints) < depth:
        raise ValueError(f"need at least {depth} integer entries, got {len(ints)}")
    total = float(y0)
    for j in range(depth):
        total += TWO_PI * ints[j] * p ** j
    return SolenoidPoint(p, depth, total / p ** depth)


def solenoid_lift_matrix(p, depth, y0, ints):
    """Vectorized solenoid_from_lift: y0 shape (n,), ints shape (n, depth).

    Returns canonical deepest angles, shape (n,).
    """
    y0 = np.asarray(y0, dtype=float)
    total = y0.copy()
    if depth > 0:
        ints = np.asarray(ints, dtype=np.int64)
        powers = p ** np.arange(depth, dtype=np.int64)
        total = total + TWO_PI * (ints @ powers.astype(float))
    return canonical_angle(total / p ** depth)


def solenoid_lift(x: SolenoidPoint, tol: float = 1e-6):
    """Canonical preimage of x in R x Z^depth: (arg x_0, then the integer
    winding increments (p*arg x_{k} - arg x_{k-1}) / 2pi).

    Reconstructing through solenoid_from_lift returns x.  The increments
    are integers up to float rounding; a residual above tol means the
    stored angles do not form a coherent tower.
    """
    angles = [x.coordinate_angle(j) for j in range(x.depth + 1)]
    ints = []
    for k in range(1, x.depth + 1):
        raw = (x.p * angles[k] - angles[k - 1]) / TWO_PI
        n = round(raw)
        if abs(raw - n) > tol:
            raise ValueError(f"not a solenoid point (winding residual {raw - n:.3g})")
        ints.append(int(n))
    return angles[0], tuple(ints)


# ---------------------------------------------------------------------------
# canonical compact subgroups

@dataclass(frozen=True)
class TorusSubgroup:
    """order=None is the whole circle; order=k the k-th roots of unity."""

    order: int | None = None

    def __post_init__(self):
        if self.order is not None and self.order < 1:
            raise ValueError("cyclic subgroup order must be >= 1")

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


@dataclass(frozen=True)
class SolenoidSubgroup:
    """whole=False is the trivial subgroup {e}; whole=True the full
    solenoid (its only compact subgroups used here)."""

    whole: bool = False

    @staticmethod
    def trivial() -> "SolenoidSubgroup":
        return SolenoidSubgroup(False)

    @staticmethod
    def full() -> "SolenoidSubgroup":
        return SolenoidSubgroup(True)
