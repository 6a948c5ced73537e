"""Characters, the angle cutoff, and the descriptors' quadratic forms,
centering pairings and annihilator tests."""

import cmath
import math
import struct

import numpy as np
import pytest

from widlaws import (
    LevyMeasure,
    PadicCharacter,
    PadicInt,
    PadicIntegers,
    PadicSubgroup,
    Solenoid,
    SolenoidCharacter,
    SolenoidPoint,
    SolenoidSubgroup,
    Torus,
    TorusCharacter,
    TorusPoint,
    TorusSubgroup,
    angle_cutoff,
    ft_gauss,
    padic_add,
    solenoid_mul,
    torus_mul,
)

PI = math.pi


def test_angle_cutoff_piecewise_values():
    assert angle_cutoff(PI / 4) == PI / 4
    assert angle_cutoff(3 * PI / 4) == pytest.approx(PI / 4, abs=1e-15)
    assert angle_cutoff(4.0) == 0.0
    assert angle_cutoff(-4.0) == 0.0
    assert angle_cutoff(-PI) == 0.0
    assert angle_cutoff(-3 * PI / 4) == pytest.approx(-PI / 4, abs=1e-15)
    assert angle_cutoff(PI / 2) == PI / 2
    assert angle_cutoff(-PI / 2) == -PI / 2
    assert angle_cutoff(PI) == 0.0  # x >= pi branch


def test_angle_cutoff_array_matches_scalar():
    xs = np.linspace(-4, 4, 101)
    arr = angle_cutoff(xs)
    for x, v in zip(xs, arr):
        assert angle_cutoff(float(x)) == v
    assert np.all(np.abs(arr) <= PI / 2)


def test_eval_torus_char_examples():
    y = TorusPoint(PI / 2)
    assert TorusCharacter(0)(y) == 1 + 0j
    assert TorusCharacter(3)(y) == pytest.approx(-1j, abs=1e-15)
    got = TorusCharacter(-2)(TorusPoint(1.0))
    assert got == pytest.approx(cmath.exp(-2j), abs=1e-15)


def test_eval_padic_char_examples():
    assert PadicCharacter(0, 0)(PadicInt(2, (1, 1))) == 1 + 0j
    got = PadicCharacter(1, 1)(PadicInt(2, (1, 0)))
    assert got == pytest.approx(1j, abs=1e-15)
    # modular exponent reduction: e^{2 pi i * 4/3} = e^{2 pi i/3}
    got = PadicCharacter(0, 2)(PadicInt(3, (2, 0)))
    assert got == pytest.approx(cmath.exp(2j * PI / 3), abs=1e-15)


def test_eval_padic_char_depth_error():
    with pytest.raises(ValueError, match="depth exceeds"):
        PadicCharacter(2, 1)(PadicInt(2, (1, 0)))
    with pytest.raises(ValueError, match="frequency"):
        PadicCharacter(0, 2)(PadicInt(2, (1, 0)))


def test_eval_solenoid_char_examples():
    e = SolenoidPoint.identity(2, 2)
    assert SolenoidCharacter(1, 0)(e) == 1 + 0j
    assert SolenoidCharacter(0, 1)(e) == 1 + 0j
    got = SolenoidCharacter(1, 2)(SolenoidPoint(2, 1, PI / 2))
    assert got == pytest.approx(-1, abs=1e-15)
    with pytest.raises(ValueError, match="depth exceeds"):
        SolenoidCharacter(3, 1)(SolenoidPoint(2, 1, 0.1))


def test_angle_characters_refuse_a_frequency_past_2_to_31_when_built():
    # past 2**31 the float phase ell * theta is inexact on both sides of
    # a verdict alike; the refusal used to sit in the config parser only
    for ell in (2**31 + 1, -(2**31 + 1), 10**20 + 7):
        with pytest.raises(ValueError, match="2\\*\\*31"):
            TorusCharacter(ell)
        with pytest.raises(ValueError, match="2\\*\\*31"):
            SolenoidCharacter(1, ell)
    for ell in (2**31, -(2**31)):
        assert TorusCharacter(ell).ell == ell
        assert SolenoidCharacter(1, ell).ell == ell


_NON_INTEGER_INDICES = {
    "torus-ell": lambda: TorusCharacter(70.5),
    "torus-half": lambda: TorusCharacter(0.5),
    "padic-ell": lambda: PadicCharacter(0, 1.5),
    "padic-d": lambda: PadicCharacter(1.0, 1),
    "solenoid-ell": lambda: SolenoidCharacter(1, 0.5),
    "solenoid-d": lambda: SolenoidCharacter(0.5, 1),
}


@pytest.mark.parametrize("build", _NON_INTEGER_INDICES.values(), ids=_NON_INTEGER_INDICES.keys())
def test_characters_refuse_non_integer_indices_when_built(build):
    # a float index used to be kept: TorusCharacter(70.5) passed a verdict
    # on Haar measure of the circle (theory 0), and TorusCharacter(0.5)
    # raised inside the batched mean instead of where it was built
    with pytest.raises(TypeError):
        build()


def test_characters_read_numpy_indices_as_python_ints():
    chars = [TorusCharacter(np.int64(-3)), PadicCharacter(np.int64(1), np.uint8(2))]
    chars.append(SolenoidCharacter(np.int32(2), np.int64(5)))
    assert chars == [TorusCharacter(-3), PadicCharacter(1, 2), SolenoidCharacter(2, 5)]
    for chi in chars:
        assert type(chi.d) is int and type(chi.ell) is int


def test_characters_have_unit_modulus():
    rng = np.random.default_rng(321)
    for _ in range(300):
        y = TorusPoint(float(rng.uniform(-PI, PI)))
        assert abs(abs(TorusCharacter(int(rng.integers(-20, 20)))(y)) - 1) <= 1e-12
        p = int(rng.choice([2, 3, 5]))
        x = PadicInt(p, tuple(int(d) for d in rng.integers(0, p, size=4)))
        d = int(rng.integers(0, 4))
        ell = int(rng.integers(0, p ** (d + 1)))
        assert abs(abs(PadicCharacter(d, ell)(x)) - 1) <= 1e-12
        s = SolenoidPoint(p, 3, float(rng.uniform(-PI, PI)))
        assert abs(abs(SolenoidCharacter(d, int(rng.integers(-9, 9)))(s)) - 1) <= 1e-12


def test_characters_multiplicative():
    rng = np.random.default_rng(98765)
    for _ in range(1000):
        # circle
        a = TorusPoint(float(rng.uniform(-PI, PI)))
        b = TorusPoint(float(rng.uniform(-PI, PI)))
        chi = TorusCharacter(int(rng.integers(-8, 9)))
        lhs = chi(torus_mul(a, b))
        rhs = chi(a) * chi(b)
        assert abs(lhs - rhs) <= 1e-10
        # p-adic
        p = int(rng.choice([2, 3, 5]))
        x = PadicInt(p, tuple(int(v) for v in rng.integers(0, p, size=4)))
        y = PadicInt(p, tuple(int(v) for v in rng.integers(0, p, size=4)))
        d = int(rng.integers(0, 4))
        chp = PadicCharacter(d, int(rng.integers(0, p ** (d + 1))))
        lhs = chp(padic_add(x, y))
        rhs = chp(x) * chp(y)
        assert abs(lhs - rhs) <= 1e-10
        # solenoid
        u = SolenoidPoint(p, 3, float(rng.uniform(-PI, PI)))
        v = SolenoidPoint(p, 3, float(rng.uniform(-PI, PI)))
        chs = SolenoidCharacter(d, int(rng.integers(-8, 9)))
        lhs = chs(solenoid_mul(u, v))
        rhs = chs(u) * chs(v)
        assert abs(lhs - rhs) <= 1e-10


def test_quadratic_form_examples():
    assert Torus().quadratic_form(2.0, TorusCharacter(3)) == 18.0
    assert Solenoid(2).quadratic_form(1.0, SolenoidCharacter(2, 3)) == 9 / 16
    assert PadicIntegers(5).quadratic_form(0.0, PadicCharacter(2, 7)) == 0.0
    # the b >= 0 check sits in the Gauss transform, the form's only caller
    with pytest.raises(ValueError):
        ft_gauss(Torus(), -1.0, TorusCharacter(1))


def test_quadratic_form_parallelogram_torus():
    rng = np.random.default_rng(13)
    b = 0.7
    for _ in range(500):
        l1, l2 = (int(v) for v in rng.integers(-20, 20, size=2))
        # index arithmetic is exact in integers
        assert (l1 + l2) ** 2 + (l1 - l2) ** 2 == 2 * (l1**2 + l2**2)
        Q = lambda ell: Torus().quadratic_form(b, TorusCharacter(ell))
        lhs = Q(l1 + l2) + Q(l1 - l2)
        rhs = 2 * (Q(l1) + Q(l2))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_quadratic_form_parallelogram_solenoid_common_depth():
    # characters at depths d1, d2 lift to depth D: (d, ell) = (D, ell * p**(D-d))
    rng = np.random.default_rng(17)
    p, b = 3, 1.3
    for _ in range(500):
        d1, d2 = (int(v) for v in rng.integers(0, 4, size=2))
        l1, l2 = (int(v) for v in rng.integers(-8, 9, size=2))
        big = max(d1, d2)
        e1 = l1 * p ** (big - d1)
        e2 = l2 * p ** (big - d2)
        Q = lambda d, ell: Solenoid(p).quadratic_form(b, SolenoidCharacter(d, ell))
        lifted1 = Q(big, e1)
        assert lifted1 == pytest.approx(Q(d1, l1), rel=1e-12)
        lhs = Q(big, e1 + e2) + Q(big, e1 - e2)
        rhs = 2 * (lifted1 + Q(d2, l2))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_local_inner_product_examples():
    assert Torus().pairing(TorusPoint(PI / 4), TorusCharacter(2)) == pytest.approx(
        PI / 2, abs=1e-15
    )
    assert PadicIntegers(3).pairing(PadicInt(3, (2, 1)), PadicCharacter(1, 4)) == 0.0
    # arg y_0 = pi/4 at depth 1, p=5: choose deep angle so that 5*deep = pi/4
    y = SolenoidPoint(5, 1, PI / 20)
    assert y.coordinate_angle(0) == pytest.approx(PI / 4, abs=1e-15)
    got = Solenoid(5).pairing(y, SolenoidCharacter(1, 2))
    assert got == pytest.approx(PI / 10, abs=1e-15)


def test_local_inner_product_additive_and_odd():
    rng = np.random.default_rng(2023)
    for _ in range(1000):
        y = TorusPoint(float(rng.uniform(-PI, PI)))
        l1, l2 = (int(v) for v in rng.integers(-8, 9, size=2))
        g = lambda ell, pt: Torus().pairing(pt, TorusCharacter(ell))
        assert g(l1 + l2, y) == pytest.approx(g(l1, y) + g(l2, y), abs=1e-12)
        assert g(l1, TorusPoint(-y.angle)) == pytest.approx(-g(l1, y), abs=1e-12)

        p = int(rng.choice([2, 3, 5]))
        s = SolenoidPoint(p, 3, float(rng.uniform(-PI, PI)))
        d = int(rng.integers(0, 4))
        gs = lambda ell, pt: Solenoid(p).pairing(pt, SolenoidCharacter(d, ell))
        assert gs(l1 + l2, s) == pytest.approx(gs(l1, s) + gs(l2, s), abs=1e-12)
        assert gs(l1, SolenoidPoint(p, 3, -s.deep_angle)) == pytest.approx(-gs(l1, s), abs=1e-12)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize(
    "b,ell,angle", [(0.37, 3, 1.1), (2.0, -5, -2.9), (0.05, 7, 3.0), (1.3, 0, 0.4), (0.8, 1, -1.7)]
)
def test_circle_is_the_solenoid_at_depth_zero(p, b, ell, angle):
    # the circle shares the solenoid's formulas with p**d = 1: at d = 0 the
    # quadratic form, g, the drift and the whole-subgroup annihilator agree
    # bit for bit
    bits = lambda x: struct.pack("<d", x)
    T, S = Torus(), Solenoid(p)
    tchi, schi = TorusCharacter(ell), SolenoidCharacter(0, ell)
    x, y = TorusPoint(angle), SolenoidPoint(p, 0, angle)
    assert bits(T.quadratic_form(b, tchi)) == bits(S.quadratic_form(b, schi))
    assert bits(T.pairing(x, tchi)) == bits(S.pairing(y, schi))
    t_drift = T.drift(LevyMeasure(((x, b),)))
    assert bits(t_drift) == bits(S.drift(LevyMeasure(((y, b),))))
    assert T.annihilates(TorusSubgroup.full(), tchi) == S.annihilates(SolenoidSubgroup.full(), schi)


def test_annihilates_torus():
    T = Torus()
    assert T.annihilates(TorusSubgroup.cyclic(3), TorusCharacter(6))
    assert not T.annihilates(TorusSubgroup.cyclic(3), TorusCharacter(4))
    assert T.annihilates(TorusSubgroup.full(), TorusCharacter(0))
    assert not T.annihilates(TorusSubgroup.full(), TorusCharacter(1))
    assert T.annihilates(TorusSubgroup.trivial(), TorusCharacter(5))


def test_annihilates_padic():
    P = PadicIntegers(2)
    assert P.annihilates(PadicSubgroup(1), PadicCharacter(2, 4))
    assert not P.annihilates(PadicSubgroup(1), PadicCharacter(2, 2))
    # shallow characters are trivial on deep subgroups
    assert P.annihilates(PadicSubgroup(1), PadicCharacter(0, 1))
    # the whole group is annihilated only by the trivial character
    assert P.annihilates(PadicSubgroup(0), PadicCharacter(2, 0))
    assert not P.annihilates(PadicSubgroup(0), PadicCharacter(2, 4))


def test_annihilates_agrees_with_direct_character_sums():
    # brute force: chi annihilates H iff chi is 1 on every element of H
    p = 2
    P = PadicIntegers(p)
    depth = 3
    for r in range(0, 4):
        members = []
        for value in range(p ** (depth + 1)):
            x = PadicInt.from_int(p, value, depth)
            if all(d == 0 for d in x.digits[:r]):
                members.append(x)
        for d in range(depth + 1):
            for ell in range(p ** (d + 1)):
                chi = PadicCharacter(d, ell)
                brute = all(abs(chi(m) - 1) < 1e-9 for m in members)
                assert P.annihilates(PadicSubgroup(r), chi) == brute


def test_annihilates_solenoid():
    S = Solenoid(3)
    assert S.annihilates(SolenoidSubgroup.trivial(), SolenoidCharacter(2, 5))
    assert S.annihilates(SolenoidSubgroup.full(), SolenoidCharacter(2, 0))
    assert not S.annihilates(SolenoidSubgroup.full(), SolenoidCharacter(2, 5))
