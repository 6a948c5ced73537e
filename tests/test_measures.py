"""Quadruplet validation, closed-form transforms, pushforwards."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from widlaws import (
    EMPTY_LEVY,
    LatticeMeasure,
    LevyMeasure,
    PadicCharacter,
    PadicInt,
    PadicIntegers,
    PadicSubgroup,
    Quadruplet,
    Solenoid,
    SolenoidCharacter,
    SolenoidPoint,
    SolenoidSubgroup,
    Torus,
    TorusCharacter,
    TorusPoint,
    TorusSubgroup,
    angle_cutoff,
    ft_compound_poisson,
    ft_dirac,
    ft_gauss,
    ft_gen_poisson,
    ft_haar,
    ft_quadruplet,
    pushforward_padic,
    pushforward_solenoid,
    pushforward_torus,
    solenoid_from_lift,
    trivial_quadruplet,
)

PI = math.pi


# ---------------------------------------------------------------------------
# Levy measures and quadruplet validation

def test_levy_measure_rejects_identity_atom():
    with pytest.raises(ValueError, match=r"η\(\{e\}\)=0"):
        LevyMeasure(((TorusPoint(0.0), 1.0),))
    with pytest.raises(ValueError, match=r"η\(\{e\}\)=0"):
        LevyMeasure(((PadicInt(2, (0, 0)), 0.5),))
    with pytest.raises(ValueError, match=r"η\(\{e\}\)=0"):
        LevyMeasure(((SolenoidPoint(2, 1, 0.0), 0.5),))


def test_levy_measure_rejects_bad_mass():
    for mass in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="mass"):
            LevyMeasure(((TorusPoint(1.0), mass),))


def test_levy_measure_merges_duplicates():
    eta = LevyMeasure(((TorusPoint(1.0), 0.5), (TorusPoint(2.0), 1.0), (TorusPoint(1.0), 0.25)))
    assert len(eta.atoms) == 2
    assert eta.atoms[0] == (TorusPoint(1.0), 0.75)
    assert eta.total_mass == pytest.approx(1.75)
    half = eta.scaled(0.5)
    assert half.total_mass == pytest.approx(0.875)
    with pytest.raises(ValueError):
        eta.scaled(0.0)
    # three duplicates keep their first-seen place and add left to right
    x, y = TorusPoint(0.5), TorusPoint(-0.5)
    eta = LevyMeasure(((x, 0.1), (y, 1.0), (TorusPoint(0.5), 0.2), (TorusPoint(0.5), 0.3)))
    assert eta.atoms == ((x, 0.6000000000000001), (y, 1.0))
    assert eta.atoms[0][0] is x


def test_quadruplet_accepts_point_mass():
    # a law is checked when it is built: these must not raise
    trivial_quadruplet(Torus())
    trivial_quadruplet(PadicIntegers(3), depth=2)
    trivial_quadruplet(Solenoid(2), depth=2)


def test_quadruplet_rejects_padic_gauss():
    with pytest.raises(ValueError, match="Gauss"):
        Quadruplet(PadicIntegers(2), PadicSubgroup(0), PadicInt.zero(2, 3), 0.5, EMPTY_LEVY)


def test_quadruplet_rejects_mismatches():
    with pytest.raises(ValueError, match="TorusSubgroup"):
        Quadruplet(Torus(), PadicSubgroup(0), TorusPoint(0.0), 0.0, EMPTY_LEVY)
    with pytest.raises(ValueError, match="prime"):
        Quadruplet(PadicIntegers(2), PadicSubgroup(0), PadicInt.zero(3, 2), 0.0, EMPTY_LEVY)
    eta = LevyMeasure(((PadicInt(2, (1, 0)), 1.0),))
    with pytest.raises(ValueError, match="digit length"):
        Quadruplet(PadicIntegers(2), PadicSubgroup(0), PadicInt.zero(2, 3), 0.0, eta)
    eta = LevyMeasure(((SolenoidPoint(2, 1, 0.4), 1.0),))
    with pytest.raises(ValueError, match="depth"):
        Quadruplet(Solenoid(2), SolenoidSubgroup.trivial(), SolenoidPoint.identity(2, 3), 0.0, eta)
    with pytest.raises(ValueError, match="gauss_b"):
        Quadruplet(Torus(), TorusSubgroup.full(), TorusPoint(0.0), -0.5, EMPTY_LEVY)


def test_quadruplet_replaced_field_is_checked_again():
    # dataclasses.replace builds a new law through the same checks
    q = Quadruplet(Torus(), TorusSubgroup.full(), TorusPoint(0.0), 0.5, EMPTY_LEVY)
    with pytest.raises(ValueError, match="gauss_b"):
        dataclasses.replace(q, gauss_b=-1.0)


# ---------------------------------------------------------------------------
# Fourier transforms of the blocks

def test_ft_haar_values():
    assert ft_haar(Torus(), TorusSubgroup.cyclic(2), TorusCharacter(4)) == 1
    assert ft_haar(Torus(), TorusSubgroup.full(), TorusCharacter(1)) == 0
    # chi_{0,1} is identically 1 on the even 2-adics, so its Haar value is 1
    assert ft_haar(PadicIntegers(2), PadicSubgroup(1), PadicCharacter(0, 1)) == 1
    assert ft_haar(PadicIntegers(2), PadicSubgroup(1), PadicCharacter(1, 1)) == 0
    assert ft_haar(PadicIntegers(2), PadicSubgroup(0), PadicCharacter(0, 1)) == 0


def test_ft_haar_idempotent():
    cases = [
        (Torus(), TorusSubgroup.cyclic(3), TorusCharacter(5)),
        (Torus(), TorusSubgroup.cyclic(3), TorusCharacter(6)),
        (PadicIntegers(2), PadicSubgroup(1), PadicCharacter(2, 4)),
        (Solenoid(2), SolenoidSubgroup.full(), SolenoidCharacter(1, 2)),
    ]
    for group, sub, chi in cases:
        v = ft_haar(group, sub, chi)
        assert v in (0, 1)
        assert v * v == v


def test_ft_dirac_examples():
    assert ft_dirac(TorusPoint(0.0), TorusCharacter(7)) == 1 + 0j
    assert ft_dirac(TorusPoint(PI / 2), TorusCharacter(1)) == pytest.approx(1j, abs=1e-15)
    assert ft_dirac(SolenoidPoint.identity(5, 2), SolenoidCharacter(2, 9)) == 1 + 0j


def test_ft_gauss_examples():
    assert ft_gauss(Torus(), 0.0, TorusCharacter(5)) == 1
    assert ft_gauss(Torus(), 2.0, TorusCharacter(3)) == pytest.approx(math.exp(-9.0), rel=1e-15)
    got = ft_gauss(Solenoid(2), 1.0, SolenoidCharacter(2, 3))
    assert got == pytest.approx(math.exp(-9 / 32), rel=1e-15)


def test_solenoid_gauss_form_past_the_float_range_is_a_value_error():
    # p**(2d) >= 2**1023 used to raise OverflowError from the float division
    with pytest.raises(ValueError, match="2\\*\\*1023"):
        ft_gauss(Solenoid(3), 0.1, SolenoidCharacter(400, 1))
    with pytest.raises(ValueError, match="2\\*\\*1023"):
        Solenoid(3).pairing(SolenoidPoint(3, 3, 0.5), SolenoidCharacter(700, 1))
    assert Solenoid(2).scale(SolenoidCharacter(511, 1)) == 2**511


def test_ft_compound_poisson_examples():
    assert ft_compound_poisson(EMPTY_LEVY, TorusCharacter(3)) == 1
    theta, lam = 0.8, 1.7
    eta = LevyMeasure(((TorusPoint(theta), lam),))
    for ell in (-3, 1, 5):
        want = cmath.exp(lam * (cmath.exp(1j * ell * theta) - 1))
        assert ft_compound_poisson(eta, TorusCharacter(ell)) == pytest.approx(want, abs=1e-14)
    two = LevyMeasure(((TorusPoint(0.8), 1.7), (TorusPoint(-1.1), 0.4)))
    one_a = LevyMeasure(((TorusPoint(0.8), 1.7),))
    one_b = LevyMeasure(((TorusPoint(-1.1), 0.4),))
    for ell in (-2, 4):
        chi = TorusCharacter(ell)
        assert ft_compound_poisson(two, chi) == pytest.approx(
            ft_compound_poisson(one_a, chi) * ft_compound_poisson(one_b, chi), abs=1e-14
        )


def test_ft_gen_poisson_examples():
    assert ft_gen_poisson(Torus(), EMPTY_LEVY, TorusCharacter(2)) == 1
    # with the zero pairing the generalized and plain compound forms coincide
    eta_p = LevyMeasure(((PadicInt(3, (1, 2, 0)), 0.9), (PadicInt(3, (0, 1, 1)), 0.4)))
    for d in range(3):
        for ell in range(3 ** (d + 1)):
            chi = PadicCharacter(d, ell)
            assert ft_gen_poisson(PadicIntegers(3), eta_p, chi) == ft_compound_poisson(eta_p, chi)
    # circle, one atom at pi/4 where the cutoff is the identity
    eta_t = LevyMeasure(((TorusPoint(PI / 4), 1.0),))
    want = cmath.exp(cmath.exp(1j * PI / 4) - 1 - 1j * PI / 4)
    assert ft_gen_poisson(Torus(), eta_t, TorusCharacter(1)) == pytest.approx(want, abs=1e-14)


def test_ft_quadruplet_is_product_of_factors():
    eta = LevyMeasure(((TorusPoint(2.1), 1.1), (TorusPoint(-0.6), 0.5)))
    q = Quadruplet(Torus(), TorusSubgroup.cyclic(3), TorusPoint(0.7), 0.4, eta)
    for ell in range(-8, 9):
        chi = TorusCharacter(ell)
        want = (
            ft_haar(q.group, q.subgroup, chi)
            * ft_dirac(q.shift, chi)
            * ft_gauss(q.group, q.gauss_b, chi)
            * ft_gen_poisson(q.group, q.levy, chi)
        )
        assert ft_quadruplet(q, chi) == want
    # trivial quadruplet is 1 everywhere; a full Haar factor kills ell != 0
    for ell in range(-5, 6):
        assert ft_quadruplet(trivial_quadruplet(Torus()), TorusCharacter(ell)) == 1
        full = Quadruplet(Torus(), TorusSubgroup.full(), TorusPoint(0.7), 0.4, eta)
        if ell != 0:
            assert ft_quadruplet(full, TorusCharacter(ell)) == 0


def test_drift_examples():
    assert Torus().drift(EMPTY_LEVY) == 0.0
    assert Torus().drift(LevyMeasure(((TorusPoint(0.3), 1.0),))) == pytest.approx(0.3)
    eta_p = LevyMeasure(((PadicInt(2, (1, 0)), 2.0),))
    assert PadicIntegers(2).drift(eta_p) == 0.0


def test_drift_identity_at_transform_level():
    # compound = centered * point mass at the local mean, as transforms
    T = Torus()
    eta = LevyMeasure(((TorusPoint(2.1), 1.1), (TorusPoint(-0.6), 0.5)))
    s = T.drift(eta)
    for ell in range(-8, 9):
        chi = TorusCharacter(ell)
        lhs = ft_gen_poisson(T, eta, chi) * cmath.exp(1j * ell * s)
        assert abs(lhs - ft_compound_poisson(eta, chi)) <= 1e-12

    S = Solenoid(3)
    eta_s = LevyMeasure(((SolenoidPoint(3, 3, 0.9), 0.7), (SolenoidPoint(3, 3, -1.3), 0.4)))
    ss = S.drift(eta_s)
    for d in range(4):
        for ell in range(-8, 9):
            chi = SolenoidCharacter(d, ell)
            lhs = ft_gen_poisson(S, eta_s, chi) * cmath.exp(1j * ell * ss / 3**d)
            assert abs(lhs - ft_compound_poisson(eta_s, chi)) <= 1e-12


def test_gauss_and_poisson_divisibility_of_transforms():
    T = Torus()
    eta = LevyMeasure(((TorusPoint(1.9), 0.8), (TorusPoint(-0.4), 0.6)))
    for n in (2, 4, 7):
        for ell in (-5, 1, 3):
            chi = TorusCharacter(ell)
            assert abs(ft_gauss(T, 1.3, chi) - ft_gauss(T, 1.3 / n, chi) ** n) <= 1e-12
            assert abs(ft_gen_poisson(T, eta, chi) - ft_gen_poisson(T, eta.scaled(1 / n), chi) ** n) <= 1e-12


# ---------------------------------------------------------------------------
# pushforwards

def test_pushforward_torus():
    assert pushforward_torus(EMPTY_LEVY).atoms == ()
    eta = LevyMeasure(((TorusPoint(0.8), 1.7), (TorusPoint(-1.1), 0.4)))
    m = pushforward_torus(eta)
    assert m.int_dim == 0
    assert m.atoms == ((0.8, (), 1.7), (-1.1, (), 0.4))


def test_pushforward_padic_drops_zero_prefix_and_merges():
    eta = LevyMeasure(((PadicInt(2, (0, 1, 0)), 1.0),))
    assert pushforward_padic(eta, 0).atoms == ()
    eta = LevyMeasure(((PadicInt(2, (1, 0, 0)), 2.0), (PadicInt(2, (1, 1, 0)), 3.0)))
    m = pushforward_padic(eta, 0)
    assert m.atoms == ((0.0, (1,), 5.0),)
    deeper = pushforward_padic(eta, 1)
    assert deeper.atoms == ((0.0, (1, 0), 2.0), (0.0, (1, 1), 3.0))
    # total mass is the mass outside the zero-prefix subgroup
    assert m.total_mass == pytest.approx(5.0)
    with pytest.raises(ValueError, match="depth"):
        pushforward_padic(eta, 3)
    # three atoms with one prefix keep its first-seen place and add left to right
    eta = LevyMeasure(
        (
            (PadicInt(2, (1, 0, 0)), 0.1),
            (PadicInt(2, (0, 1, 0)), 1.0),
            (PadicInt(2, (1, 1, 0)), 0.2),
            (PadicInt(2, (1, 0, 1)), 0.3),
        )
    )
    assert pushforward_padic(eta, 0).atoms == ((0.0, (1,), 0.6000000000000001),)
    assert pushforward_padic(eta, 1).atoms == (
        (0.0, (1, 0), 0.1 + 0.3),
        (0.0, (0, 1), 1.0),
        (0.0, (1, 1), 0.2),
    )


def test_pushforward_solenoid():
    assert pushforward_solenoid(EMPTY_LEVY, 1).atoms == ()
    # p=3 so the lift (0.2, 1, 0, ...) is canonical (every coordinate's
    # angle already lies in [-pi, pi)) and the atom's lift recovers it
    pt = solenoid_from_lift(3, 3, 0.2, (1, 0, 0))
    m = pushforward_solenoid(LevyMeasure(((pt, 1.0),)), 1)
    assert m.int_dim == 1
    ((x, ints, mass),) = m.atoms
    assert x == pytest.approx(0.2, abs=1e-12)
    assert ints == (1,)
    assert mass == 1.0
    # an atom whose truncated lift is the origin is dropped
    deep_only = solenoid_from_lift(2, 3, 0.0, (0, 0, 1))
    assert not deep_only.is_identity()
    assert pushforward_solenoid(LevyMeasure(((deep_only, 1.0),)), 1).atoms == ()


def test_pushforward_compatibility_in_closed_form():
    # the transform of the (n+1)-level image, with the last coordinate's
    # frequency set to zero, equals the transform of the n-level image
    def lattice_cf(m, t, ws):
        acc = 0j
        for x, ints, mass in m.atoms:
            phase = t * x + sum(w * k for w, k in zip(ws, ints))
            acc += mass * (cmath.exp(1j * phase) - 1)
        return cmath.exp(acc)

    rng = np.random.default_rng(5150)
    eta_p = LevyMeasure(
        ((PadicInt(2, (1, 0, 1, 0)), 0.8), (PadicInt(2, (0, 1, 1, 0)), 0.5))
    )
    for n in (0, 1, 2):
        shallow = pushforward_padic(eta_p, n)
        deep = pushforward_padic(eta_p, n + 1)
        for _ in range(20):
            ws = list(rng.uniform(-PI, PI, size=n + 1))
            assert abs(
                lattice_cf(deep, 0.0, ws + [0.0]) - lattice_cf(shallow, 0.0, ws)
            ) <= 1e-12

    eta_s = LevyMeasure(
        ((SolenoidPoint(2, 4, 0.7), 0.6), (SolenoidPoint(2, 4, -1.2), 0.4))
    )
    for n in (0, 1, 2):
        shallow = pushforward_solenoid(eta_s, n)
        deep = pushforward_solenoid(eta_s, n + 1)
        for _ in range(20):
            t = float(rng.uniform(-3, 3))
            ws = list(rng.uniform(-PI, PI, size=n))
            assert abs(
                lattice_cf(deep, t, ws + [0.0]) - lattice_cf(shallow, t, ws)
            ) <= 1e-12


def test_lattice_measure_validation():
    with pytest.raises(ValueError, match="origin"):
        LatticeMeasure(1, ((0.0, (0,), 1.0),))
    with pytest.raises(ValueError, match="length"):
        LatticeMeasure(2, ((0.5, (1,), 1.0),))
    m = LatticeMeasure(0, ((0.5, (), 1.0), (0.5, (), 0.25)))
    assert m.atoms == ((0.5, (), 1.25),)


# ---------------------------------------------------------------------------
# the p-adic closed forms against the group algebra of Z/p**(d+1)

def _group_algebra_law(q, modulus):
    """The law of x mod modulus under q, as a probability vector built in
    the group algebra of Z/modulus with no transform: the point mass at
    a, the uniform law on p**r Z/modulus, and exp(-|eta|) * sum of
    eta**(*k) / k! over k < 80, each convolution taken directly."""
    p, r = q.group.p, q.subgroup.zero_digits
    law = np.zeros(modulus)
    law[q.shift.to_int() % modulus] = 1.0
    if p**r < modulus:
        # each coset of p**r Z/modulus spreads evenly over itself
        law = np.tile(law.reshape(-1, p**r).mean(axis=0), modulus // p**r)
    atoms = [(x.to_int() % modulus, m) for x, m in q.levy.atoms]
    term, series = law, law.copy()
    for k in range(1, 80):
        term = sum(m * np.roll(term, x) for x, m in atoms) / k
        series += term
    return math.exp(-q.levy.total_mass) * series


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_padic_closed_form_is_the_transform_of_the_group_algebra_law(p):
    # two random laws at every depth d with p**(d+1) <= 2500: the
    # transform of the law on Z/p**(d+1) at every depth-d character is
    # ft_quadruplet, with no sampler involved
    rng = np.random.default_rng(7000 + p)
    for d in range(int(math.log(2500, p))):
        for _ in range(2):
            _check_group_algebra_law(p, d, rng)


def _check_group_algebra_law(p, d, rng):
    """One random law on Delta_p at depth d against its group algebra law."""
    modulus = p ** (d + 1)
    atoms = tuple(
        (PadicInt.from_int(p, int(rng.integers(1, modulus)), d), float(rng.uniform(0.1, 1.5)))
        for _ in range(int(rng.integers(1, 4)))
    )
    a = PadicInt.from_int(p, int(rng.integers(0, modulus)), d)
    r = int(rng.integers(0, d + 2))
    q = Quadruplet(PadicIntegers(p), PadicSubgroup(r), a, 0.0, LevyMeasure(atoms))
    # the transform at character (d, ell) is sum_x law[x] exp(2 pi i ell x / modulus)
    want = np.fft.ifft(_group_algebra_law(q, modulus)) * modulus
    got = np.array([ft_quadruplet(q, PadicCharacter(d, ell)) for ell in range(modulus)])
    assert np.max(np.abs(got - want)) <= 1e-12, (p, d)


# ---------------------------------------------------------------------------
# closed forms against closed forms: the image of a law under a
# continuous homomorphism to the circle, with the centering shift that
# the homomorphism does not commute with

def _random_solenoid_law(rng, p, depth=None):
    """A law on S_p at depth (by default a random depth 0..5): trivial or
    full H, an exact shift and two or three jump atoms given as (base,
    digits)."""
    if depth is None:
        depth = int(rng.integers(0, 6))

    def point():
        return solenoid_from_lift(p, depth, rng.uniform(-PI, PI), rng.integers(0, p, size=depth))

    subgroup = SolenoidSubgroup.full() if rng.random() < 0.25 else SolenoidSubgroup.trivial()
    atoms = tuple((point(), rng.uniform(0.1, 1.5)) for _ in range(int(rng.integers(2, 4))))
    return Quadruplet(Solenoid(p), subgroup, point(), rng.uniform(0.0, 2.0), LevyMeasure(atoms))


def _project_solenoid_law(q, d):
    """pi_d q = (pi_d H, pi_d a - c, b / p**(2d), pi_d eta) on the circle,
    with c = sum of m * (h(theta_0(x)) / p**d - h(x_d)) and h the angle
    cutoff; an atom that pi_d maps to the identity is dropped."""
    scale = q.group.p**d
    images = [(TorusPoint(x.coordinate_angle(d)), m) for x, m in q.levy.atoms]
    c = sum(
        m * (angle_cutoff(x.base) / scale - angle_cutoff(y.angle))
        for (x, m), (y, _) in zip(q.levy.atoms, images)
    )
    subgroup = TorusSubgroup.full() if q.subgroup.whole else TorusSubgroup.trivial()
    eta = LevyMeasure(tuple((y, m) for y, m in images if not y.is_identity()))
    shift = TorusPoint(q.shift.coordinate_angle(d) - c)
    return Quadruplet(Torus(), subgroup, shift, q.gauss_b / scale**2, eta)


def test_solenoid_transform_is_the_circle_transform_of_the_projected_law():
    # chi_(d, ell) = chi_ell o pi_d; over 600 such laws the largest
    # difference was 7.3e-15
    rng = np.random.default_rng(41)
    worst = 0.0
    for p in (2, 3, 5):
        for _ in range(8):
            q = _random_solenoid_law(rng, p)
            for d in range(q.shift.depth + 1):
                image = _project_solenoid_law(q, d)
                for ell in range(-8, 9):
                    got = ft_quadruplet(q, SolenoidCharacter(d, ell))
                    worst = max(worst, abs(got - ft_quadruplet(image, TorusCharacter(ell))))
    assert worst <= 1e-12


@pytest.mark.parametrize("p,depth", [(2, 500), (3, 320), (5, 220)])
def test_projection_to_the_circle_holds_at_the_deepest_scalable_depths(p, depth):
    # Solenoid.scale refuses d once p**(2d) reaches 2**1023: p = 2 past
    # 511, p = 3 past 322 and p = 5 past 220.  pi_d of a law at that depth
    # still has the circle transform, at the first, middle and last depths
    rng = np.random.default_rng(depth)
    worst = 0.0
    for _ in range(2):
        q = _random_solenoid_law(rng, p, depth)
        for d in (0, 1, depth // 2, depth - 1, depth):
            image = _project_solenoid_law(q, d)
            for ell in (-7, -1, 1, 2, 8):
                got = ft_quadruplet(q, SolenoidCharacter(d, ell))
                worst = max(worst, abs(got - ft_quadruplet(image, TorusCharacter(ell))))
    assert worst <= 1e-12


def _embed_padic_point(x):
    """iota x: the point of S_p at depth x.depth + 1 with base 0 and the
    digits of x; it lies in Delta_p, the kernel of pi_0."""
    return solenoid_from_lift(x.p, x.depth + 1, 0.0, x.digits)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_solenoid_characters_restrict_to_the_padic_characters_on_the_kernel_of_pi_0(p):
    # Delta_p sits in S_p as the points of base 0, where coordinate d is
    # 2 pi (x mod p**d) / p**d: chi_(d, ell) restricts to the p-adic
    # character (d - 1, ell mod p**d) for d >= 1 and to 1 for d = 0.  At
    # base 0 the solenoid's centering vanishes, so the transform of the
    # embedded law is the p-adic transform, row by row
    rng = np.random.default_rng(9000 + p)
    worst = 0.0
    for depth in range(1, 9):
        modulus = p ** (depth + 1)

        def point():
            return PadicInt.from_int(p, int(rng.integers(1, modulus)), depth)

        atoms = tuple((point(), float(rng.uniform(0.1, 1.5))) for _ in range(int(rng.integers(1, 4))))
        q = Quadruplet(PadicIntegers(p), PadicSubgroup(depth + 1), point(), 0.0, LevyMeasure(atoms))
        embedded = Quadruplet(
            Solenoid(p),
            SolenoidSubgroup.trivial(),
            _embed_padic_point(q.shift),
            0.0,
            LevyMeasure(tuple((_embed_padic_point(x), m) for x, m in atoms)),
        )
        ells = [*range(-8, 9), *rng.integers(-100, 100, size=8).tolist()]
        for ell in ells:
            assert ft_quadruplet(embedded, SolenoidCharacter(0, ell)) == 1
            for d in range(1, depth + 2):
                got = ft_quadruplet(embedded, SolenoidCharacter(d, ell))
                want = ft_quadruplet(q, PadicCharacter(d - 1, ell % p**d))
                worst = max(worst, abs(got - want))
    assert worst <= 1e-12


def _random_circle_law(rng):
    """A law on the circle: full, cyclic or trivial H and two or three
    jump atoms, one of them at -pi, which x -> kx maps to the identity
    for even k."""
    order = int(rng.integers(1, 13))
    subgroup = TorusSubgroup.full() if rng.random() < 0.25 else TorusSubgroup.cyclic(order)
    atoms = [(TorusPoint(rng.uniform(-PI, PI)), rng.uniform(0.1, 1.5)) for _ in range(2)]
    atoms.append((TorusPoint(-PI), rng.uniform(0.1, 1.5)))
    shift = TorusPoint(rng.uniform(-PI, PI))
    return Quadruplet(Torus(), subgroup, shift, rng.uniform(0.0, 2.0), LevyMeasure(tuple(atoms)))


def _push_circle_law(q, k):
    """k_* q = (k H, k a - c_k, k**2 b, k_* eta) for x -> kx, with c_k = sum
    of m * (k h(x) - h(kx)).  A cyclic H of order r maps to order
    r / gcd(r, k); an atom that k maps to the identity is dropped."""
    images = [(TorusPoint(k * x.angle), m) for x, m in q.levy.atoms]
    c = sum(
        m * (k * angle_cutoff(x.angle) - angle_cutoff(y.angle))
        for (x, m), (y, _) in zip(q.levy.atoms, images)
    )
    order = q.subgroup.order
    subgroup = TorusSubgroup(None if order is None else order // math.gcd(order, k))
    eta = LevyMeasure(tuple((y, m) for y, m in images if not y.is_identity()))
    return Quadruplet(Torus(), subgroup, TorusPoint(k * q.shift.angle - c), k * k * q.gauss_b, eta)


def test_circle_transform_at_k_ell_is_the_transform_of_the_law_pushed_by_k():
    # chi_(k ell) = chi_ell o k; over 1000 such laws and k = +-2..6 the
    # largest difference was 2.6e-15
    rng = np.random.default_rng(43)
    worst, dropped = 0.0, 0
    for _ in range(15):
        q = _random_circle_law(rng)
        for k in (-3, -2, 2, 3, 4, 6):
            image = _push_circle_law(q, k)
            dropped += len(image.levy.atoms) < len(q.levy.atoms)
            for ell in range(-8, 9):
                got = ft_quadruplet(q, TorusCharacter(k * ell))
                worst = max(worst, abs(got - ft_quadruplet(image, TorusCharacter(ell))))
    assert worst <= 1e-12
    assert dropped == 4 * 15
