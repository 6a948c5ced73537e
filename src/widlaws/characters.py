"""The character types of the three groups and the angle cutoff.

Characters are indexed by an integer frequency ell (circle) or by a
depth/frequency pair (d, ell) (p-adic integers and solenoid).  They live
in groups, next to their groups, and are re-exported here.  A character
is evaluated by calling it, chi(x); the quadratic form, the centering
pairing and the annihilator test are methods of the group descriptor.
This module stays as a stable import path: perfbench's sample-solenoid
checker imports widlaws.characters.SolenoidCharacter.
"""

from .groups import (  # noqa: F401  (re-exported)
    PadicCharacter,
    SolenoidCharacter,
    TorusCharacter,
    angle_cutoff,
)
