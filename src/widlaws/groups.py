"""Finite-precision models of three compact abelian groups and their
characters, with each group's share of the math behind the laws.

The three groups are the circle group (unit complex numbers under
multiplication, stored as angles), the p-adic integers (base-p digit
vectors under carry addition), and the p-adic solenoid (coherent towers
of circle points, stored through their deepest retained coordinate).
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

TWO_PI = 2.0 * math.pi


def is_prime(p) -> bool:
    """True iff p is a prime integer; False for bools and non-integers."""
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)):
        return False
    return _is_prime_int(int(p))


@functools.lru_cache(maxsize=256)
def _is_prime_int(p: int) -> bool:
    """Trial-division primality check (fine for the small p used here),
    memoized: every carry normalization checks its prime.  Only ever
    called with a Python int, so one cache key is one question."""
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

    @classmethod
    def _normalized(cls, p, digits: tuple) -> "PadicInt":
        """The element with these digits, built without __post_init__.

        Only for callers that have already checked p and made digits a
        nonempty tuple of Python ints in 0..p-1, such as padic_from_ints.
        """
        x = object.__new__(cls)
        object.__setattr__(x, "p", p)
        object.__setattr__(x, "digits", digits)
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
        return all(d == 0 for d in self.digits)


def _check_same_padic(x: PadicInt, y: PadicInt):
    if x.p != y.p:
        raise ValueError(f"mismatched primes: {x.p} vs {y.p}")
    if len(x.digits) != len(y.digits):
        raise ValueError(f"mismatched digit lengths: {len(x.digits)} vs {len(y.digits)}")


def padic_add(x: PadicInt, y: PadicInt) -> PadicInt:
    """Carry addition base p, truncated at the last digit."""
    _check_same_padic(x, y)
    return padic_from_ints(x.p, map(operator.add, x.digits, y.digits))


def padic_neg(x: PadicInt) -> PadicInt:
    """Additive inverse, truncated at the last digit."""
    return padic_from_ints(x.p, map(operator.neg, x.digits))


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
    addition onto the p-adic integers.  entries may be any iterable of
    integers, read once.
    """
    validate_prime(p)
    base = int(p)
    out = []
    carry = 0
    for t in map(int, entries):
        t += carry
        carry = t // base
        out.append(t - carry * base)
    if not out:
        raise ValueError("p-adic element needs at least one digit")
    # floor division by the checked prime leaves every digit in 0..p-1
    return PadicInt._normalized(p, tuple(out))


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


def solenoid_lift_matrix(p, depth, y0, ints):
    """Image of rows (y0, k1, k2, ...) of R x Z^depth under the covering
    map: y0 shape (n,), ints shape (n, depth).

    Coordinate j gets the angle
    (y0 + 2pi*(k1 + k2*p + ... + kj*p**(j-1))) / p**j; the j = depth
    case determines the rest, and is returned as canonical deepest
    angles, shape (n,).  The map is a homomorphism in (y0, ints) under
    entrywise addition.
    """
    y0 = np.asarray(y0, dtype=float)
    total = y0.copy()
    if depth > 0:
        ints = np.asarray(ints, dtype=np.int64)
        powers = p ** np.arange(depth, dtype=np.int64)
        total = total + TWO_PI * (ints @ powers.astype(float))
    return canonical_angle(total / p ** depth)


def solenoid_from_lift(p: int, depth: int, y0: float, ints) -> SolenoidPoint:
    """The point solenoid_lift_matrix gives the single lift (y0, ints);
    entries of ints past the first depth are ignored."""
    validate_prime(p)
    ints = tuple(int(k) for k in ints)
    if len(ints) < depth:
        raise ValueError(f"need at least {depth} integer entries, got {len(ints)}")
    row = np.array(ints[:depth], dtype=np.int64).reshape(1, depth)
    return SolenoidPoint(p, depth, float(solenoid_lift_matrix(p, depth, [float(y0)], row)[0]))


def solenoid_lift(x: SolenoidPoint):
    """Canonical preimage of x in R x Z^depth: (arg x_0, then the integer
    winding increments (p*arg x_{k} - arg x_{k-1}) / 2pi).

    Reconstructing through solenoid_from_lift returns x.  The increments
    are integers up to float rounding; a residual above 1e-6 means the
    stored angles do not form a coherent tower.
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

    @property
    def order(self):
        """None for the whole solenoid; the trivial subgroup is cyclic of
        order 1 (the circle's TorusSubgroup convention)."""
        return None if self.whole else 1

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
    """y -> y**ell on the circle."""

    ell: int

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
    """y -> (coordinate d of y)**ell on the solenoid."""

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


# The largest |ell| a circle or solenoid character may have in a config.
MAX_ANGLE_FREQUENCY = 2**31


def check_angle_frequency(ell: int) -> int:
    """ell, after checking |ell| <= MAX_ANGLE_FREQUENCY = 2**31.

    A circle or solenoid character is evaluated, in its closed form and
    in its empirical mean alike, as exp(i * canonical_angle(ell * theta))
    with theta a float in [-pi, pi).  Up to 2**31 that phase is off
    from the exact one by less than 2e-6 radians, far below any
    Monte-Carlo tolerance: the rounding of ell * theta and of its sum
    with pi each add at most |ell| * pi * 2**-53 < 7.5e-7, and the float
    2pi's error over at most 2**30 turns adds 2.6e-7.  Beyond it the
    rounding error grows with |ell| (at |ell| = 1e20 it spans whole
    turns); both sides share it, so the gate would pass a wrong value
    unseen, and parse_config refuses the character instead.
    """
    if abs(ell) > MAX_ANGLE_FREQUENCY:
        raise ValueError(
            f"character frequency {ell} outside -2**31..2**31: its float phase "
            "ell * theta would be inexact"
        )
    return ell


# ---------------------------------------------------------------------------
# group descriptors: the per-group backends

class _Group:
    """What every group descriptor provides.

    Each descriptor sets name, point_type, subgroup_type, character_type
    and shift_key (the report's key for the shift, also the point field
    it echoes), and implements quadratic_form(b, chi), pairing(x, chi)
    (the centering pairing g), drift(eta) (the local-mean drift),
    _annihilates, point_mass(depth) (the trivial subgroup and the
    identity), subgroup_is_trivial, default_characters, describe_subgroup
    and the config parsers parse_point(raw, depth, subgroup),
    parse_subgroup(kind, order) and parse_character(raw, depth).  The
    parsers raise ValueError and leave naming the config field to the
    caller; parse_subgroup returns None for a kind the group lacks and
    calls order(minimum) to read the kind's integer parameter.
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

    def describe_point(self, x):
        return getattr(x, self.shift_key)

    def describe(self, q) -> dict:
        """JSON-ready echo of a quadruplet on this group."""
        return {
            "group": self.name,
            **dataclasses.asdict(self),
            "H": self.describe_subgroup(q.subgroup),
            "a": {self.shift_key: self.describe_point(q.shift)},
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
        """sum of mass * cutoff(base angle) over the atoms of eta."""
        return sum(m * angle_cutoff(self.base_angle(pt)) for pt, m in eta.atoms)

    def _annihilates(self, subgroup, chi) -> bool:
        if subgroup.order is None:
            return chi.ell == 0
        return chi.ell % subgroup.order == 0

    def subgroup_is_trivial(self, subgroup, depth) -> bool:
        return subgroup.order == 1


@dataclass(frozen=True)
class Torus(_CircleTower):
    """The circle group."""

    name = "torus"
    point_type = TorusPoint
    subgroup_type = TorusSubgroup
    character_type = TorusCharacter
    shift_key = "angle"

    def scale(self, chi) -> int:
        return 1

    def base_angle(self, x) -> float:
        return x.angle

    def point_mass(self, depth=None):
        return TorusSubgroup.trivial(), TorusPoint.identity()

    def default_characters(self, depth) -> list:
        """Frequencies -8..8; depth is ignored."""
        return [TorusCharacter(ell) for ell in range(-8, 9)]

    def describe_subgroup(self, subgroup) -> dict:
        if subgroup.order is None:
            return {"kind": "full"}
        return {"kind": "cyclic", "r": subgroup.order}

    def parse_point(self, raw, depth, subgroup) -> TorusPoint:
        return TorusPoint(config_real(raw))

    def parse_subgroup(self, kind, order):
        if kind == "cyclic":
            return TorusSubgroup.cyclic(order(1))
        return {"full": TorusSubgroup.full(), "trivial": TorusSubgroup.trivial()}.get(kind)

    def parse_character(self, raw, depth) -> TorusCharacter:
        return TorusCharacter(check_angle_frequency(config_int(raw)))


@dataclass(frozen=True)
class _PrimeGroup(_Group):
    """A group descriptor for a fixed prime p."""

    p: int

    def __post_init__(self):
        """p must be a prime below 2**32: no p-adic character exists once
        p**2 >= 2**63 (see check_padic_character), and the trial division
        behind the primality test takes at most 2**15 steps below 2**32."""
        if isinstance(self.p, (int, np.integer)) and self.p >= 2**32:
            raise ValueError(f"p must be below 2**32, got {self.p}")
        validate_prime(self.p)

    def _check_element(self, shift, x):
        if shift.p != self.p or x.p != self.p:
            raise ValueError("element prime does not match the group")
        if x.depth != shift.depth:
            raise ValueError(self._depth_mismatch)

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
    shift_key = "digits"
    _depth_mismatch = "p-adic elements must share their digit length"

    def quadratic_form(self, b: float, chi) -> float:
        return 0.0

    def pairing(self, x, chi) -> float:
        return 0.0

    def drift(self, eta) -> float:
        return 0.0

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

    def default_characters(self, depth: int) -> list:
        """Every (d, ell) with d <= min(3, depth).  The set grows as p**4,
        so it is counted first and refused above 10**5 characters."""
        depths = range(min(3, depth) + 1)
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
        if not isinstance(raw, list):
            raise ValueError("expected a list of digits")
        digits = [config_int(d) for d in raw]
        if len(digits) > depth + 1:
            raise ValueError(f"more than depth+1 = {depth + 1} digits")
        return PadicInt(self.p, tuple(digits + [0] * (depth + 1 - len(digits))))

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
    shift_key = "deep_angle"
    _depth_mismatch = "solenoid elements must share their depth"

    def scale(self, chi) -> int:
        return self.p ** chi.d

    def base_angle(self, x) -> float:
        return x.coordinate_angle(0)

    def point_mass(self, depth: int):
        return SolenoidSubgroup.trivial(), SolenoidPoint.identity(self.p, depth)

    def default_characters(self, depth: int) -> list:
        """d <= min(3, depth) and |ell| <= 8."""
        depths = range(min(3, depth) + 1)
        return [SolenoidCharacter(d, ell) for d in depths for ell in range(-8, 9)]

    def describe_subgroup(self, subgroup) -> dict:
        return {"kind": "full" if subgroup.whole else "trivial"}

    def parse_point(self, raw, depth, subgroup) -> SolenoidPoint:
        """A deepest angle.  Below the whole subgroup the sampler lifts the
        point to R x Z^depth, so the lift is checked here."""
        x = SolenoidPoint(self.p, depth, config_real(raw))
        if not subgroup.whole:
            try:
                solenoid_lift(x)
            except ValueError as exc:
                raise ValueError(f"no exact lift at p={self.p}, depth={depth}: {exc}") from exc
        return x

    def parse_subgroup(self, kind, order):
        return {"trivial": SolenoidSubgroup.trivial(), "full": SolenoidSubgroup.full()}.get(kind)

    def parse_character(self, raw, depth) -> SolenoidCharacter:
        chi = super().parse_character(raw, depth)
        check_angle_frequency(chi.ell)
        return chi
