"""Deterministic, seedable exact samplers and the batches they return.

Randomness comes from numpy Generators over the counter-based Philox
bit generator, keyed by a 64-bit seed plus a stream index through
SeedSequence(seed, spawn_key=(stream,)): the same pair always replays
the same sequence and distinct stream indices give statistically
independent streams.  Poisson counts use the generator's exact routine
(inversion for small means, transformed rejection for large ones) and
normal draws its exact ziggurat, so every sampler below realizes its
target law exactly, never through a normal approximation.

Each sampler draws `size` elements at once and consumes randomness in a
fixed documented order (Haar layer, then Gauss, then jump count, then
jump selection); degenerate layers (trivial subgroup, zero variance,
empty jump measure) consume nothing.  A compound-Poisson layer picks
every jump's atom at once and sums the jump vectors per draw on
R x Z^k: each integer coordinate by its own weighted bincount, cast to
int64 and added into the caller's matrix, exact while a sum stays below
2**53; the real coordinates by one weighted bincount over the jumps, in
jump order, or not at all when every atom's real part is 0, as on the
p-adic integers.  A p-adic draw builds its batch in one column-major
digit matrix: the uniform digits, the shift's digits, the jump sums,
then the carry in place.  The samplers
return the raw array form: angles on the circle, a digit matrix on the
p-adic integers, and on the solenoid a pair of base angles in [-pi, pi)
and base-p digits, wrapped and carried by solenoid_lift_matrix through
the p-adic carry padic_digit_matrix.  quadruplet_sampler wraps the raw
form in the group's batch type, which owns the
batch's group product, its character means and its column reader for
the sample dump: columns(lo, hi) returns the dump's fields for draws
lo..hi-1 as numpy columns computed on that slice only, so the dump can
be written in chunks without a per-draw form of the whole batch.

A batch is read by many characters (one verification suite draws one
batch), so every batch keeps the per-depth work of its character means
in a private cache.  A p-adic batch caches the distinct residues of
x mod p**(d+1) with their counts; a mean sums
counts * exp(2 pi i ell r / p**(d+1)) over them, with each phase
ell * r mod p**(d+1) taken exactly in Python ints, at every depth and
batch size.  A circle batch caches, and a solenoid batch caches per
depth d (a column of one Horner sweep over the digits, solenoid_tower),
its angle column theta with the list of the means of z**1 ...
z**k taken so far, z = exp(i theta).  A row with ell = 0 is exactly
1 + 0j on either path and touches nothing.  Asked with exact=False, a
row with 1 <= |ell| <= MAX_POWER reads the mean of z**|ell| from that
list (the conjugate for ell < 0); an |ell| beyond the
list re-sweeps z, z*z, ... from z up to |ell|, so the mean depends only
on (batch, d, |ell|), never on which rows asked first.  Rows asked with
exact=True (the default, and the engine's choice for rows whose closed
form has modulus one) and rows with |ell| > MAX_POWER take the direct
exp(1j * canonical_angle(ell * theta)), so a point-mass row stays
exactly 1 + 0j.  The cache is filled on first use and never changes a
result, so batches behave as immutable values; their arrays must not be
written to after the first mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .groups import (
    PadicCharacter,
    PadicIntegers,
    Solenoid,
    SolenoidCharacter,
    Torus,
    TorusCharacter,
    TWO_PI,
    canonical_angle,
    check_padic_character,
    padic_digit_matrix,
    solenoid_coordinate,
    solenoid_lift_matrix,
    solenoid_tower,
)
from .measures import (
    LatticeMeasure,
    Quadruplet,
    pushforward_padic,
    pushforward_solenoid,
    pushforward_torus,
)


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator for the (seed, stream) pair."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss))


# The most Poisson jumps one batch may hold.  At most three 8-byte
# arrays per jump are alive at once: its uniform and its atom index while
# the atoms are picked, then its atom index, its owner and one column of
# its weights at a time while the sums are taken, so the cap keeps one
# batch's jump layer near 0.24 GB; the stock fixtures draw about 1e5
# jumps per batch.
MAX_JUMPS = 10**7


# The most base-p digits one p-adic or solenoid batch may hold, counted
# as draws * (depth + 1).  A digit costs 8 bytes in the batch and as much
# again in each working array of the draw and the carry, so the cap keeps
# one batch near 0.3 GB; the stock configs and demos hold under 6e6.
MAX_DIGITS = 10**7


def check_digit_budget(depth: int, draws: int):
    """Raise ValueError when `draws` draws of depth + 1 digits each hold
    more than MAX_DIGITS digits in total."""
    digits = draws * (depth + 1)
    if digits > MAX_DIGITS:
        raise ValueError(
            f"{draws} draws of depth + 1 = {depth + 1} digits hold {digits} digits, "
            f"above the cap of {MAX_DIGITS}"
        )


def check_jump_budget(levy, draws: int):
    """Raise ValueError when `draws` draws of a law with Levy measure levy
    expect more than MAX_JUMPS Poisson jumps in total (mass * draws)."""
    expected = levy.total_mass * draws
    if expected > MAX_JUMPS:
        raise ValueError(
            f"total mass {levy.total_mass:.6g} over {draws} draws expects {expected:.3g} "
            f"Poisson jumps, above the cap of {MAX_JUMPS}"
        )


def sample_compound_poisson(rng, measure: LatticeMeasure, size: int, ints=None):
    """Poisson(total mass) many jumps, each an atom picked with
    probability mass/total, summed coordinatewise on R x Z^k.

    Atom selection walks a precomputed cumulative mass table by binary
    search over uniforms.  Returns (real part, integer part): floats of
    shape (n,) and an int64 matrix of shape (n, k).  Each draw's jump sum
    is added into ints when given, in place, so a sampler can pass the
    matrix it carries; otherwise into a new column-major zero matrix, one
    contiguous column per coordinate, like the digit matrices it is
    carried into.  A measure whose atoms all have real part 0 returns
    zeros for the real part without summing it.  The empty measure
    yields the origin and consumes nothing.  Raises ValueError, before
    anything per jump is allocated, when the drawn jump total exceeds
    MAX_JUMPS.
    """
    n = int(size)
    k = measure.int_dim
    if ints is None:
        ints = np.zeros((n, k), dtype=np.int64, order="F")
    if len(measure.atoms) == 0:
        return np.zeros(n), ints
    atom_real = np.array([x for x, _, _ in measure.atoms])
    # float, the type bincount sums its weights in, so the gather of a
    # column is its one per-jump copy
    atom_ints = np.array([ki for _, ki, _ in measure.atoms], dtype=np.int64).reshape(
        len(measure.atoms), k
    ).astype(float)
    masses = np.array([m for _, _, m in measure.atoms])
    total = masses.sum()
    counts = rng.poisson(total, size=n)
    # summed in float: huge per-draw counts must not wrap int64
    jumps = counts.sum(dtype=float)
    if jumps > MAX_JUMPS:
        raise ValueError(f"{jumps:.3g} Poisson jumps drawn, above the cap of {MAX_JUMPS}")
    jumps = int(jumps)
    if jumps == 0:
        return np.zeros(n), ints
    cum = np.cumsum(masses) / total
    picks = np.searchsorted(cum, rng.random(jumps), side="right")
    np.minimum(picks, len(masses) - 1, out=picks)
    owner = np.repeat(np.arange(n), counts)
    del counts
    for j in range(k):
        # the float sums cast first, so the add is the int64 loop
        ints[:, j] += np.bincount(owner, weights=atom_ints[picks, j], minlength=n).astype(np.int64)
    if not atom_real.any():
        return np.zeros(n), ints
    return np.bincount(owner, weights=atom_real[picks], minlength=n), ints


# ---------------------------------------------------------------------------
# full quadruplet samplers

def sample_torus_wid(rng, q: Quadruplet, size: int) -> np.ndarray:
    """Draw canonical angles from a circle quadruplet: exp(i(U + arg a +
    X + Y)) with U the Haar layer of the subgroup, X the Gauss layer, Y
    the centered compound-Poisson layer."""
    if not isinstance(q.group, Torus):
        raise ValueError("quadruplet is not on the circle")
    angles = np.zeros(size)
    order = q.subgroup.order
    if order is None:
        angles += rng.uniform(0.0, TWO_PI, size=size)
    elif order > 1:
        angles += rng.integers(0, order, size=size) * (TWO_PI / order)
    angles += q.shift.angle
    if q.gauss_b > 0:
        angles += rng.normal(0.0, math.sqrt(q.gauss_b), size=size)
    if not q.levy.is_empty():
        jumps, _ = sample_compound_poisson(rng, pushforward_torus(q.levy), size)
        angles += jumps - q.group.drift(q.levy)
    return canonical_angle(angles)


def sample_padic_wid(rng, q: Quadruplet, depth: int, size: int) -> np.ndarray:
    """Draw digits 0..depth from a p-adic quadruplet, shape (size, depth+1).

    Uniform digits above the subgroup's zero prefix, plus the shift's
    digits, plus one compound-Poisson draw of digit-prefix jump vectors,
    all pushed through the carry normalization; the law of the retained
    digits is exact.
    """
    if not isinstance(q.group, PadicIntegers):
        raise ValueError("quadruplet is not on the p-adic integers")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    p = q.group.p
    width = depth + 1
    if q.shift.depth < depth:
        raise ValueError(f"shift carries digits 0..{q.shift.depth}, need 0..{depth}")
    # column-major for the carry; the draw keeps the C order that fixes
    # which digit gets which random number, and is copied in
    totals = np.zeros((size, width), dtype=np.int64, order="F")
    start = min(q.subgroup.zero_digits, width)
    if start < width:
        totals[:, start:] = rng.integers(0, p, size=(size, width - start), dtype=np.int64)
    totals += np.array(q.shift.digits[:width], dtype=np.int64)
    if not q.levy.is_empty():
        sample_compound_poisson(rng, pushforward_padic(q.levy, depth), size, totals)
    # carried in place: the batch is the one matrix of the draw
    return padic_digit_matrix(p, totals, out=totals)


def sample_solenoid_wid(rng, q: Quadruplet, depth: int, size: int):
    """Draw solenoid elements truncated at coordinate index depth, as the
    pair (base angles shape (size,), base-p digits shape (size, depth)).

    With the trivial subgroup: broadcast the shift's (base, digits), add
    the Gauss layer to the real coordinate and a centered compound-Poisson
    draw to the whole lift, then wrap and carry.  With the full subgroup
    the Haar layer absorbs everything and the draw is pure Haar: a uniform
    angle at the top of the tower refined by uniform base-p digits down
    to the requested depth.
    """
    if not isinstance(q.group, Solenoid):
        raise ValueError("quadruplet is not on the solenoid")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    p = q.group.p
    if q.subgroup.whole:
        u0 = rng.uniform(0.0, TWO_PI, size=size)
        digits = rng.integers(0, p, size=(size, depth), dtype=np.int64)
        return solenoid_lift_matrix(p, depth, u0, digits)
    if q.shift.depth < depth:
        raise ValueError(f"shift carries coordinates 0..{q.shift.depth}, need 0..{depth}")
    # the Gauss and jump layers add into y0 in place, rounded as y0 + x is
    y0 = np.full(size, q.shift.base)
    ints = np.broadcast_to(np.array(q.shift.digits[:depth], dtype=np.int64), (size, depth))
    if q.gauss_b > 0:
        y0 += rng.normal(0.0, math.sqrt(q.gauss_b), size=size)
    if not q.levy.is_empty():
        jr, ji = sample_compound_poisson(rng, pushforward_solenoid(q.levy, depth), size)
        y0 += jr
        y0 -= q.group.drift(q.levy)
        ji += ints  # in place: one (size, depth) matrix alive into the lift
        ints = ji
    return solenoid_lift_matrix(p, depth, y0, ints)


# ---------------------------------------------------------------------------
# sample batches: combine, char_mean, and the sample dump's columns(lo, hi)
# (the CSV fields of draws lo..hi-1, one column each) and record(row) (one
# draw's JSON object)

# The largest |ell| read off cached powers; a larger one goes direct, so
# the cost and the rounding of a row stay within MAX_POWER products.
MAX_POWER = 64


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
        return complex(np.exp(1j * canonical_angle(ell * column)).mean())
    if k > len(means):
        z = np.exp(1j * column)
        power = z.copy()
        for j in range(1, k + 1):
            if j > 1:
                power *= z
            if j > len(means):
                means.append(complex(power.mean()))
    return means[k - 1] if ell > 0 else means[k - 1].conjugate()


@dataclass(frozen=True)
class TorusSamples:
    """Circle draws, stored as canonical angles."""

    angles: np.ndarray
    _means: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __len__(self):
        return len(self.angles)

    def columns(self, lo: int, hi: int) -> list:
        return [self.angles[lo:hi]]

    @staticmethod
    def record(row) -> dict:
        return {"angle": row[0]}

    def combine(self, other: "TorusSamples") -> "TorusSamples":
        return TorusSamples(canonical_angle(self.angles + other.angles))

    def char_mean(self, chi, exact: bool = True) -> complex:
        if not isinstance(chi, TorusCharacter):
            raise TypeError("character/batch mismatch")
        return _angle_char_mean(self.angles, self._means, chi.ell, exact)


@dataclass(frozen=True)
class PadicSamples:
    """p-adic draws, stored as base-p digit rows, shape (n, depth+1)."""

    p: int
    digits: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __len__(self):
        return len(self.digits)

    def columns(self, lo: int, hi: int) -> list:
        """Digits 0..depth of draws lo..hi-1, one column per digit."""
        return list(self.digits[lo:hi].T)

    @staticmethod
    def record(row) -> dict:
        return {"digits": list(row)}

    def combine(self, other: "PadicSamples") -> "PadicSamples":
        if self.p != other.p or self.digits.shape != other.digits.shape:
            raise ValueError("mismatched p-adic batches")
        # carried in place: one new digit matrix beside the two batches
        digits = self.digits + other.digits
        return PadicSamples(self.p, padic_digit_matrix(self.p, digits, out=digits))

    def char_mean(self, chi, exact: bool = True) -> complex:
        """exact is accepted for the common signature: every p-adic mean
        is taken one exact way."""
        if not isinstance(chi, PadicCharacter):
            raise TypeError("character/batch mismatch")
        if chi.d > self.digits.shape[1] - 1:
            raise ValueError("character depth exceeds sample depth")
        modulus = check_padic_character(self.p, chi)
        residues, counts = self._residues(chi.d)
        # ell * r in Python ints: exact at any depth inside the envelope
        phase = np.array([chi.ell * r % modulus for r in residues], dtype=np.int64)
        return complex(counts @ np.exp(2j * np.pi * phase / modulus) / len(self.digits))

    def _residues(self, d: int):
        """The distinct residues r = x mod p**(d+1) of the batch, as a
        list of ints in increasing order, and their counts.  Horner's rule
        in int64 is exact inside check_padic_character's envelope."""
        if d not in self._cache:
            residues = self.digits[:, d].astype(np.int64)
            for j in range(d - 1, -1, -1):
                residues *= self.p
                residues += self.digits[:, j]
            distinct, counts = np.unique(residues, return_counts=True)
            self._cache[d] = (distinct.tolist(), counts)
        return self._cache[d]


@dataclass(frozen=True)
class SolenoidSamples:
    """Solenoid draws as (R x Delta_p)/Z stores them: base angles theta0
    in [-pi, pi), shape (n,), and base-p digits x, shape (n, depth).
    Coordinate j is (theta0 + 2pi*(x mod p**j)) / p**j."""

    p: int
    depth: int
    base: np.ndarray
    digits: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if np.ndim(self.base) != 1 or np.shape(self.digits) != (len(self.base), self.depth):
            raise ValueError(f"need a 1-D base and digits of shape (len(base), {self.depth})")

    def __len__(self):
        return len(self.base)

    @property
    def deep_angles(self) -> np.ndarray:
        """Coordinate depth of every draw, shape (n,)."""
        return self._column(self.depth)[0]

    def _column(self, d: int):
        """Coordinate d's angle column with its list of power means."""
        if d not in self._cache:
            self._cache[d] = (solenoid_coordinate(self.p, self.base, self.digits, d), [])
        return self._cache[d]

    def columns(self, lo: int, hi: int) -> list:
        """Deepest angle, then coordinates 0..depth, of draws lo..hi-1;
        the first column is the object of the last."""
        coords = list(solenoid_tower(self.p, self.base[lo:hi], self.digits[lo:hi]))
        return [coords[-1], *coords]

    @staticmethod
    def record(row) -> dict:
        return {"deep_angle": row[0], "coordinates": list(row[1:])}

    def combine(self, other: "SolenoidSamples") -> "SolenoidSamples":
        if self.p != other.p or self.depth != other.depth:
            raise ValueError("mismatched solenoid batches")
        # carried in place: one new digit matrix beside the two batches
        digits = self.digits + other.digits
        pair = solenoid_lift_matrix(self.p, self.depth, self.base + other.base, digits, digits)
        return SolenoidSamples(self.p, self.depth, *pair)

    def char_mean(self, chi, exact: bool = True) -> complex:
        if not isinstance(chi, SolenoidCharacter):
            raise TypeError("character/batch mismatch")
        if chi.d > self.depth:
            raise ValueError("character depth exceeds sample depth")
        return _angle_char_mean(*self._column(chi.d), chi.ell, exact)


def combine_samples(a, b):
    """Group product of two equally sized batches, elementwise."""
    if type(a) is not type(b):
        raise TypeError(f"cannot combine {type(a).__name__} with {type(b).__name__}")
    return a.combine(b)


def char_mean(batch, chi, exact: bool = True) -> complex:
    """Mean of the character over the batch — the empirical CF.

    exact=False lets a circle or solenoid batch read the mean off its
    cached powers (see the module docstring); the default keeps the
    direct evaluation.
    """
    return batch.char_mean(chi, exact)


_SAMPLERS = {
    Torus: lambda q, depth, rng, n: TorusSamples(sample_torus_wid(rng, q, n)),
    PadicIntegers: lambda q, depth, rng, n: PadicSamples(
        q.group.p, sample_padic_wid(rng, q, depth, n)
    ),
    Solenoid: lambda q, depth, rng, n: SolenoidSamples(
        q.group.p, depth, *sample_solenoid_wid(rng, q, depth, n)
    ),
}


def quadruplet_sampler(q: Quadruplet, depth: int | None = None):
    """Batch sampler (rng, n) -> samples for the quadruplet's group.

    depth defaults to the depth of the quadruplet's shift element; it is
    ignored on the circle.
    """
    if depth is None:
        depth = q.shift.depth
    draw = _SAMPLERS[type(q.group)]
    return lambda rng, n: draw(q, depth, rng, n)
