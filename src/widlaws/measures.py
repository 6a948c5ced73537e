"""Quadruplet data model and closed-form Fourier transforms.

Every weakly infinitely divisible law handled by this library is the
convolution of four blocks: the Haar measure of a compact subgroup, a
point mass, a symmetric Gauss measure, and a centered (generalized)
Poisson measure driven by a finite atomic Levy measure.  This module
owns the container for those four parameters (checked when it is
built, so a Quadruplet that exists is a valid law), the finite lattice
measures obtained by pushing a Levy measure forward to products
of subgroups of the real line, and the exact Fourier transform of every
block and of the full convolution.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

_IDENTITY_MESSAGE = "Levy measure must satisfy η({e})=0: atom at the identity"


class AtomError(ValueError):
    """A refused Levy atom: its index as given and its part, point or mass."""

    def __init__(self, index: int, part: str, message: str):
        super().__init__(message)
        self.index, self.part = index, part


@dataclass(frozen=True)
class LevyMeasure:
    """Finite atomic Levy measure: a tuple of (point, mass) atoms.

    Duplicate points are merged by summing masses at construction; atoms
    at the identity are rejected (η({e})=0) and masses must be positive
    and finite (an AtomError names a refused atom).  Finiteness of the
    atom list makes both Levy-measure integrability conditions automatic.
    """

    atoms: tuple = field(default=())

    def __post_init__(self):
        merged = {}
        for i, (point, mass) in enumerate(self.atoms):
            mass = float(mass)
            if not math.isfinite(mass) or mass <= 0:
                raise AtomError(i, "mass", f"atom mass must be positive and finite, got {mass}")
            if point.is_identity():
                raise AtomError(i, "point", _IDENTITY_MESSAGE)
            merged[point] = merged.get(point, 0.0) + mass
        object.__setattr__(self, "atoms", tuple(merged.items()))

    @property
    def total_mass(self) -> float:
        return sum(m for _, m in self.atoms)

    def scaled(self, factor: float) -> "LevyMeasure":
        """Same atoms with every mass multiplied by factor > 0."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return LevyMeasure(tuple((pt, m * factor) for pt, m in self.atoms))


EMPTY_LEVY = LevyMeasure(())


@dataclass(frozen=True)
class Quadruplet:
    """Parameters (subgroup, shift, gauss_b, levy) of one law.

    The law itself is Haar(subgroup) * point-mass(shift) *
    Gauss(gauss_b) * centered-Poisson(levy); see ft_quadruplet for its
    transform and the sampling module for exact draws.  Haar(H) is the
    quadruplet (H, identity, 0, no atoms).  The law is checked when it is
    built: a nonnegative finite gauss_b, then the group's own half
    (component/group agreement, shared p and depth, gauss_b = 0 on Z_p).
    """

    group: object
    subgroup: object
    shift: object
    gauss_b: float
    levy: LevyMeasure

    def __post_init__(self):
        b = self.gauss_b
        if not (isinstance(b, (int, float)) and math.isfinite(b)) or b < 0:
            raise ValueError(f"gauss_b must be a finite nonnegative real, got {b!r}")
        self.group.validate_quadruplet(self)


def trivial_quadruplet(group, depth: int = 0) -> Quadruplet:
    """The point mass at the identity, as a quadruplet."""
    return Quadruplet(group, *group.point_mass(depth), 0.0, EMPTY_LEVY)


# ---------------------------------------------------------------------------
# closed-form Fourier transforms of the four blocks

def ft_haar(group, subgroup, chi) -> complex:
    """Indicator of the annihilator: 1 if chi is trivial on the subgroup,
    else 0."""
    return 1.0 + 0.0j if group.annihilates(subgroup, chi) else 0.0 + 0.0j


def ft_dirac(a, chi) -> complex:
    """Transform of the point mass at a: just chi(a)."""
    return chi(a)


def ft_gauss(group, b: float, chi) -> complex:
    """exp(-Q_b(chi)/2) for the group's quadratic form Q_b, b >= 0."""
    if b < 0:
        raise ValueError("quadratic form scale must be >= 0")
    return complex(math.exp(-group.quadratic_form(b, chi) / 2.0))


def ft_compound_poisson(eta: LevyMeasure, chi) -> complex:
    """exp( sum_atoms mass * (chi(point) - 1) )."""
    acc = 0.0 + 0.0j
    for pt, m in eta.atoms:
        acc += m * (chi(pt) - 1.0)
    return cmath.exp(acc)


def ft_gen_poisson(group, eta: LevyMeasure, chi) -> complex:
    """exp( sum_atoms mass * (chi(point) - 1 - i*g(point, chi)) ).

    On the p-adic integers g vanishes, so this coincides with
    ft_compound_poisson there.
    """
    acc = 0.0 + 0.0j
    for pt, m in eta.atoms:
        acc += m * (chi(pt) - 1.0 - 1j * group.pairing(pt, chi))
    return cmath.exp(acc)


def ft_quadruplet(q: Quadruplet, chi) -> complex:
    """Product of the four block transforms."""
    return (
        ft_haar(q.group, q.subgroup, chi)
        * ft_dirac(q.shift, chi)
        * ft_gauss(q.group, q.gauss_b, chi)
        * ft_gen_poisson(q.group, q.levy, chi)
    )


# ---------------------------------------------------------------------------
# pushforwards to lattice measures on R x Z^n

@dataclass(frozen=True)
class LatticeMeasure:
    """Finite atomic measure on R x Z^n.

    Atoms are (real coordinate, integer tuple, mass); the origin is
    excluded by construction.  int_dim is the length of every integer
    tuple (0 gives a measure on R alone).  The p-adic pushforward puts
    every atom at real coordinate 0.0.
    """

    int_dim: int
    atoms: tuple = field(default=())

    def __post_init__(self):
        merged = {}
        for x, ints, mass in self.atoms:
            x = float(x)
            ints = tuple(int(k) for k in ints)
            mass = float(mass)
            if len(ints) != self.int_dim:
                raise ValueError(f"integer tuple must have length {self.int_dim}")
            if mass <= 0 or not math.isfinite(mass):
                raise ValueError(f"atom mass must be positive and finite, got {mass}")
            if x == 0.0 and all(k == 0 for k in ints):
                raise ValueError("lattice measure carries no atom at the origin")
            merged[x, ints] = merged.get((x, ints), 0.0) + mass
        object.__setattr__(self, "atoms", tuple((x, ints, m) for (x, ints), m in merged.items()))

    @property
    def total_mass(self) -> float:
        return sum(m for _, _, m in self.atoms)


def pushforward_torus(eta: LevyMeasure) -> LatticeMeasure:
    """Image on R under the angle map: atoms (arg point, mass)."""
    return LatticeMeasure(0, tuple((pt.angle, (), m) for pt, m in eta.atoms))


def _prefixes(eta: LevyMeasure, n: int, width: int, real) -> LatticeMeasure:
    """Image on R x Z^width under x -> (real(x), first width digits of x)
    of atoms of depth n or more, less the atoms it maps to the origin."""
    if n < 0:
        raise ValueError("prefix depth must be >= 0")
    atoms = []
    for pt, m in eta.atoms:
        if n > pt.depth:
            raise ValueError(f"prefix depth {n} exceeds atom depth {pt.depth}")
        x, prefix = real(pt), pt.digits[:width]
        if x != 0.0 or any(prefix):
            atoms.append((x, prefix, m))
    return LatticeMeasure(width, tuple(atoms))


def pushforward_padic(eta: LevyMeasure, n: int) -> LatticeMeasure:
    """Image on Z^(n+1) under the digit-prefix map x -> (x_0, ..., x_n);
    its mass is the mass outside the depth-(n+1) zero-prefix subgroup."""
    return _prefixes(eta, n, n + 1, lambda pt: 0.0)


def pushforward_solenoid(eta: LevyMeasure, n: int) -> LatticeMeasure:
    """Image on R x Z^n under x -> (base angle, first n digits of x)."""
    return _prefixes(eta, n, n, lambda pt: pt.base)
