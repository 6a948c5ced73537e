"""Compound vs generalized Poisson: the local-mean drift.

For a finite jump measure eta the compound Poisson law e(eta) and the
centered (generalized) Poisson law differ by a deterministic shift, the
local mean of eta: e(eta) = centered * point-mass(local mean).  The
centering pairing g enters the transform as the -i*g term; on the
circle g(y, chi_l) = l * cutoff(arg y) with the piecewise-linear cutoff
that is the identity near 1 and folds to zero at the antipode.

This script verifies the identity twice: exactly at transform level,
and in distribution through the samplers.
"""

import cmath
import math

from widlaws import (
    LevyMeasure,
    Quadruplet,
    Torus,
    TorusCharacter,
    TorusPoint,
    TorusSubgroup,
    char_mean,
    ft_compound_poisson,
    ft_gen_poisson,
    make_rng,
    quadruplet_sampler,
)

N = 50_000
T = Torus()
eta = LevyMeasure(((TorusPoint(2.1), 0.7), (TorusPoint(-0.6), 0.5), (TorusPoint(1.3), 0.3)))
s = T.drift(eta)
print(f"jump measure with 3 atoms, total mass {eta.total_mass:.2f}; local mean drift s = {s:.6f}\n")

print("transform-level identity  gen(chi_l) * exp(i*l*s) = compound(chi_l):")
for ell in (-3, -1, 1, 2, 5):
    chi = TorusCharacter(ell)
    lhs = ft_gen_poisson(T, eta, chi) * cmath.exp(1j * ell * s)
    rhs = ft_compound_poisson(eta, chi)
    print(f"  l={ell:>3}: |difference| = {abs(lhs - rhs):.2e}")

print("\nsampling: the centered law shifted by s IS the compound law;")
print("empirical transforms of the shifted sampler vs the compound closed form:")
shifted = Quadruplet(T, TorusSubgroup.trivial(), TorusPoint(s), 0.0, eta)
sampler = quadruplet_sampler(shifted)
tol = 4 / math.sqrt(N)
for stream, ell in enumerate((-3, 1, 2, 5)):
    chi = TorusCharacter(ell)
    emp = char_mean(sampler(make_rng(512, stream), N), chi)
    err = abs(emp - ft_compound_poisson(eta, chi))
    print(f"  l={ell:>3}: error {err:.5f}   (tolerance {tol:.5f})")

print("\nwhy center at all: for infinite jump activity only the centered sums")
print("converge, so the centered block is the natural primitive and the")
print("compound law is the special case obtained by adding the local mean back.")
