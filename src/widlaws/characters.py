"""Character evaluation and the duality-side data of the three groups.

Characters are indexed by an integer frequency ell (circle) or by a
depth/frequency pair (d, ell) (p-adic integers and solenoid).  The
character types and the angle cutoff live in groups, next to their
groups, and are re-exported here.  The functions below are the public
entry points: each evaluates a character or asks the group descriptor
for its quadratic form, its centering pairing or its annihilator test.
Everything is a pure function of immutable values.
"""

from __future__ import annotations

from .groups import (  # noqa: F401  (re-exported)
    PadicCharacter,
    SolenoidCharacter,
    TorusCharacter,
    angle_cutoff,
)


def character_label(chi) -> str:
    return chi.label


def eval_char(chi, x) -> complex:
    """Evaluate any of the three character kinds on a matching element
    (p-adic characters exactly, through integer arithmetic)."""
    return chi(x)


eval_torus_char = eval_padic_char = eval_solenoid_char = eval_char


def quadratic_form(group, b: float, chi) -> float:
    """The nonneg. dual-group quadratic form with scale b.

    Circle: b*ell**2.  Solenoid: b*ell**2 / p**(2d).  p-adic integers:
    identically zero (the group is totally disconnected), so b is
    ignored here and forced to zero at quadruplet validation.
    """
    if b < 0:
        raise ValueError("quadratic form scale must be >= 0")
    return group.quadratic_form(b, chi)


def local_inner_product(group, x, chi) -> float:
    """Centering pairing g(x, chi): ell*cutoff(arg x) on the circle,
    identically 0 on the p-adic integers, ell*cutoff(arg x_0)/p**d on the
    solenoid."""
    return group.pairing(x, chi)


def annihilates(group, subgroup, chi) -> bool:
    """True iff chi is identically 1 on the subgroup.

    Circle, k-th roots of unity: k | ell; whole circle: ell == 0.
    p-adic integers, zero-prefix subgroup of depth r: chi.d < r or
    p**(d+1-r) | ell.  Solenoid: trivial subgroup annihilated by every
    character; whole solenoid only by ell == 0.
    """
    return group.annihilates(subgroup, chi)
