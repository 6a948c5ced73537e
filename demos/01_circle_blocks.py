"""Building blocks on the circle.

Every weakly infinitely divisible law on the circle is a convolution of
four blocks: Haar measure of a closed subgroup, a point mass, a wrapped
Gauss measure, and a centered Poisson part.  Each block is realized by
an explicit real random variable pushed through exp(i * .): uniform
angles for Haar, a normal for Gauss, a compound Poisson sum for jumps.
This script draws each block and compares empirical characteristic
functions against the closed-form transforms.
"""

import math

from widlaws import (
    EMPTY_LEVY,
    LevyMeasure,
    Quadruplet,
    Torus,
    TorusCharacter,
    TorusPoint,
    TorusSubgroup,
    char_mean,
    ft_quadruplet,
    make_rng,
    quadruplet_sampler,
)

N = 50_000
TOL = 4 / math.sqrt(N)


def show(title, quad, frequencies=range(-4, 5)):
    print(f"\n{title}")
    print(f"{'freq':>5} {'theory':>22} {'empirical':>22} {'err':>9}")
    sampler = quadruplet_sampler(quad)
    for stream, ell in enumerate(frequencies):
        chi = TorusCharacter(ell)
        theory = ft_quadruplet(quad, chi)
        emp = char_mean(sampler(make_rng(2024, stream), N), chi)
        err = abs(theory - emp)
        flag = "" if err <= TOL else "  <-- outside 4/sqrt(N)!"
        print(f"{ell:>5} {theory:>22.4f} {emp:>22.4f} {err:>9.5f}{flag}")


T = Torus()

# Haar on the 3rd roots of unity: transform is the indicator of 3 | freq
show(
    "Haar measure on the cube roots of unity",
    Quadruplet(T, TorusSubgroup.cyclic(3), TorusPoint.identity(), 0.0, EMPTY_LEVY),
)

# wrapped Gauss: transform exp(-b * freq^2 / 2)
show(
    "wrapped Gauss measure, variance 0.8",
    Quadruplet(T, TorusSubgroup.trivial(), TorusPoint.identity(), 0.8, EMPTY_LEVY),
)

# centered Poisson jumps at two angles
eta = LevyMeasure(((TorusPoint(2.1), 1.1), (TorusPoint(-0.6), 0.5)))
show(
    "centered compound Poisson with two jump angles",
    Quadruplet(T, TorusSubgroup.trivial(), TorusPoint.identity(), 0.0, eta),
)

# everything at once: the transforms simply multiply
show(
    "all four blocks convolved",
    Quadruplet(T, TorusSubgroup.cyclic(3), TorusPoint(0.7), 0.4, eta),
)

print("\nEach empirical value sits within 4/sqrt(N) of the closed form.")
