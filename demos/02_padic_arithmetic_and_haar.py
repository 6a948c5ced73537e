"""The p-adic integers: carry arithmetic and a Haar construction.

A p-adic integer is a digit sequence (x_0, x_1, ...) base p added with
carries.  Two small experiments:

1. Point masses need not be infinitely divisible here: multiplying any
   element by p always produces leading digit 0, so the element
   (1, 0, 0, ...) has no p-th convolution root.
2. Independent uniform digits through the carry map give exactly the
   normalized Haar measure: every nontrivial character averages to ~0.
"""

import math

from widlaws import (
    EMPTY_LEVY,
    PadicCharacter,
    PadicInt,
    PadicIntegers,
    PadicSubgroup,
    Quadruplet,
    char_mean,
    make_rng,
    padic_add,
    padic_mul_nat,
    quadruplet_sampler,
)

p, depth = 3, 3
N = 50_000
TOL = 4 / math.sqrt(N)

print(f"working in the {p}-adic integers, digits 0..{depth}\n")

x = PadicInt(p, (2, 1, 0, 2))
y = PadicInt(p, (2, 2, 2, 0))
print(f"carry addition: {x.digits} + {y.digits} = {padic_add(x, y).digits}")
print(f"  (as integers: {x.to_int()} + {y.to_int()} = "
      f"{(x.to_int() + y.to_int()) % p**(depth + 1)} mod {p}^{depth + 1})")

print("\nmultiplying by p always clears digit 0:")
for digits in ((1, 0, 0, 0), (2, 1, 2, 1), (1, 2, 0, 2)):
    px = padic_mul_nat(p, PadicInt(p, digits))
    print(f"  {p} * {digits} = {px.digits}")
print("so the point mass at (1,0,0,...) has no p-th convolution root:")
print("its transform would need |root transform| = 1, forcing the root to be")
print("a point mass, and no point mass multiplied by p gives leading digit 1.")

print("\nuniform digits give Haar measure; empirical character means:")
# Haar is the law (whole group Λ(0), identity, b = 0, no jumps)
haar = Quadruplet(PadicIntegers(p), PadicSubgroup(0), PadicInt.zero(p, depth), 0.0, EMPTY_LEVY)
batch = quadruplet_sampler(haar)(make_rng(7), N)
print(f"{'(d, l)':>8} {'|empirical|':>12}   (tolerance {TOL:.4f})")
worst = 0.0
for d in range(depth + 1):
    for ell in range(p ** (d + 1)):
        m = abs(char_mean(batch, PadicCharacter(d, ell)))
        if ell == 0:
            assert m == 1.0
        else:
            worst = max(worst, m)
            if ell <= 2:
                print(f"  ({d},{ell:>2}) {m:>12.5f}")
print(f"worst nontrivial |mean| over all {sum(p**(d+1) for d in range(depth+1))} "
      f"characters: {worst:.5f}")
