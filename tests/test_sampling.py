"""Seeded samplers: determinism, exact laws, Monte-Carlo agreement."""

import bisect
import cmath
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import widlaws.sampling
from widlaws import (
    EMPTY_LEVY,
    LatticeMeasure,
    LevyMeasure,
    PadicCharacter,
    PadicInt,
    PadicIntegers,
    PadicSamples,
    PadicSubgroup,
    Quadruplet,
    Solenoid,
    SolenoidCharacter,
    SolenoidPoint,
    SolenoidSamples,
    SolenoidSubgroup,
    Torus,
    TorusCharacter,
    TorusPoint,
    TorusSamples,
    TorusSubgroup,
    canonical_angle,
    char_mean,
    circular_distance,
    empirical_cf,
    ft_quadruplet,
    make_rng,
    pushforward_padic,
    pushforward_solenoid,
    pushforward_torus,
    quadruplet_sampler,
    sample_compound_poisson,
    sample_padic_wid,
    sample_solenoid_wid,
    sample_torus_wid,
    trivial_quadruplet,
)
from widlaws.groups import solenoid_coordinate

N = 100_000


def mc_tol(n, c=4.0):
    return c / math.sqrt(n)


def _padic_haar(rng, p, depth, size):
    """Digits 0..depth of `size` Haar draws on Z_p: the law Haar(Λ(0)),
    drawn by sample_padic_wid."""
    q = Quadruplet(PadicIntegers(p), PadicSubgroup(0), PadicInt.zero(p, depth), 0.0, EMPTY_LEVY)
    return sample_padic_wid(rng, q, depth, size)


# ---------------------------------------------------------------------------
# rng streams

def test_streams_are_reproducible_and_distinct():
    a = make_rng(123, 0).uniform(size=64)
    b = make_rng(123, 0).uniform(size=64)
    c = make_rng(123, 1).uniform(size=64)
    d = make_rng(124, 0).uniform(size=64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# ---------------------------------------------------------------------------
# single layers

def test_uniform_real_contract():
    # the circle's Haar layer: uniform angles, reported in [-pi, pi)
    q = Quadruplet(Torus(), TorusSubgroup.full(), TorusPoint.identity(), 0.0, EMPTY_LEVY)
    xs = sample_torus_wid(make_rng(1), q, size=N)
    assert np.all((xs >= -math.pi) & (xs < math.pi))
    # CLT: uniform std dev is (hi-lo)/sqrt(12)
    assert abs(xs.mean()) <= 4 * (2 * math.pi / math.sqrt(12)) / math.sqrt(N)
    again = sample_torus_wid(make_rng(1), q, size=N)
    assert np.array_equal(xs, again)


def test_uniform_digit_frequencies():
    ds = _padic_haar(make_rng(3), 2, 0, size=N)[:, 0]
    assert set(np.unique(ds)) <= {0, 1}
    assert abs(ds.mean() - 0.5) <= 4 * 0.5 / math.sqrt(N)
    ds5 = _padic_haar(make_rng(4), 5, 0, size=N)[:, 0]
    assert ds5.min() >= 0 and ds5.max() <= 4
    counts = np.bincount(ds5, minlength=5)
    chi2_stat = float(((counts - N / 5) ** 2 / (N / 5)).sum())
    assert chi2_stat < stats.chi2.ppf(0.999, df=4)


def test_normal_moments():
    # the circle's Gauss layer; at b = 0.04 an angle never wraps (pi is 15 sd)
    def gauss(b):
        return Quadruplet(Torus(), TorusSubgroup.trivial(), TorusPoint.identity(), b, EMPTY_LEVY)

    assert np.all(sample_torus_wid(make_rng(5), gauss(0.0), size=10) == 0.0)
    xs = sample_torus_wid(make_rng(6), gauss(0.04), size=N)
    assert abs(xs.mean()) <= 4 * 0.2 / math.sqrt(N)
    # var of the sample variance of N(0, s2) is ~ 2 s2^2 / n
    assert abs(xs.var(ddof=1) - 0.04) <= 4 * 0.04 * math.sqrt(2) / math.sqrt(N)
    with pytest.raises(ValueError):
        sample_torus_wid(make_rng(8), gauss(-0.1), size=1)


def test_poisson_counts():
    # one unit atom of mass lam: the real coordinate is the Poisson count
    def counts(seed, lam):
        unit = LatticeMeasure(0, ((1.0, (), lam),))
        return sample_compound_poisson(make_rng(seed), unit, size=N)[0]

    ks = counts(10, 3.0)
    assert abs(ks.mean() - 3.0) <= 4 * math.sqrt(3) / math.sqrt(N)
    k1 = counts(11, 1.0)
    p0 = float((k1 == 0).mean())
    assert abs(p0 - math.exp(-1)) <= 4 * 0.5 / math.sqrt(N)
    with pytest.raises(ValueError):
        counts(12, -1.0)


def test_compound_poisson_refuses_a_jump_total_over_the_cap(monkeypatch):
    # 1e13 expected jumps would need about 0.4 PB of working arrays
    huge = LatticeMeasure(3, ((0.0, (1, 0, 0), 1e12),))
    with pytest.raises(ValueError, match="cap"):
        sample_compound_poisson(make_rng(16), huge, size=10)
    # the cap applies to the drawn total, not the expectation
    unit = LatticeMeasure(0, ((1.0, (), 1.0),))
    total = int(sample_compound_poisson(make_rng(17), unit, size=50)[0].sum())
    monkeypatch.setattr(widlaws.sampling, "MAX_JUMPS", total)
    assert sample_compound_poisson(make_rng(17), unit, size=50)[0].sum() == total
    monkeypatch.setattr(widlaws.sampling, "MAX_JUMPS", total - 1)
    with pytest.raises(ValueError, match="cap"):
        sample_compound_poisson(make_rng(17), unit, size=50)


def test_compound_poisson_empty_measure_is_origin():
    empty = LatticeMeasure(2, ())
    reals, ints = sample_compound_poisson(make_rng(13), empty, size=50)
    assert np.all(reals == 0.0) and np.all(ints == 0)
    assert reals.shape == (50,) and ints.shape == (50, 2)


def test_compound_poisson_single_atom_matches_closed_form():
    lam = 1.3
    m = LatticeMeasure(0, ((1.0, (), lam),))
    reals, _ = sample_compound_poisson(make_rng(14), m, size=N)
    # single unit jump: the real coordinate is the Poisson count itself
    assert np.allclose(reals, np.round(reals))
    for t in (0.7, 2.0):
        emp = np.exp(1j * t * reals).mean()
        want = cmath.exp(lam * (cmath.exp(1j * t) - 1))
        assert abs(emp - want) <= mc_tol(N)


def test_compound_poisson_two_atoms_product_form():
    m = LatticeMeasure(1, ((0.5, (2,), 0.8), (-1.0, (1,), 0.4)))
    reals, ints = sample_compound_poisson(make_rng(15), m, size=N)
    for t, w in ((0.9, 1.1), (-0.3, 2.0)):
        emp = np.exp(1j * (t * reals + w * ints[:, 0])).mean()
        want = cmath.exp(
            0.8 * (cmath.exp(1j * (t * 0.5 + w * 2)) - 1)
            + 0.4 * (cmath.exp(1j * (t * -1.0 + w * 1)) - 1)
        )
        assert abs(emp - want) <= mc_tol(N)


def _compound_poisson_reference(seed, measure, size):
    """Per-jump pure-Python sums over the same random stream: the draws'
    Poisson counts, then one uniform per jump picking an atom."""
    rng = make_rng(seed)
    masses = np.array([m for _, _, m in measure.atoms])
    counts = rng.poisson(masses.sum(), size=size).tolist()
    uniforms = iter(rng.random(sum(counts)).tolist())
    cum = (np.cumsum(masses) / masses.sum()).tolist()
    reals, ints = [], []
    for count in counts:
        real, vec = 0.0, [0] * measure.int_dim
        for _ in range(count):
            x, ki, _ = measure.atoms[min(bisect.bisect_right(cum, next(uniforms)), len(cum) - 1)]
            real += x
            vec = [a + b for a, b in zip(vec, ki)]
        reals.append(real)
        ints.append(vec)
    return reals, ints


def _solenoid_eta(p, depth):
    return LevyMeasure(
        ((SolenoidPoint(p, depth, 2.5), 0.6), (SolenoidPoint(p, depth, -2.9), 0.4))
    )


_JUMP_MEASURES = {
    "torus": lambda: pushforward_torus(
        LevyMeasure(((TorusPoint(2.1), 1.1), (TorusPoint(-0.6), 0.5)))
    ),
    "padic": lambda: pushforward_padic(
        LevyMeasure(
            ((PadicInt(2, (1, 0, 1, 0, 0, 0)), 0.8), (PadicInt(2, (0, 1, 1, 0, 0, 0)), 0.5))
        ),
        3,
    ),
    "solenoid-depth-1": lambda: pushforward_solenoid(_solenoid_eta(3, 2), 1),
    "solenoid-depth-3": lambda: pushforward_solenoid(_solenoid_eta(3, 3), 3),
    "many-atoms": lambda: LatticeMeasure(
        2, tuple((0.1 * i, (i % 3, -i), 0.2) for i in range(1, 8))
    ),
}


@pytest.mark.parametrize("name", _JUMP_MEASURES)
def test_compound_poisson_matches_a_per_jump_reference_bit_for_bit(name):
    measure = _JUMP_MEASURES[name]()
    reals, ints = sample_compound_poisson(make_rng(21), measure, size=3000)
    want_reals, want_ints = _compound_poisson_reference(21, measure, 3000)
    assert reals.dtype == np.float64 and reals.shape == (3000,)
    assert ints.dtype == np.int64 and ints.shape == (3000, measure.int_dim)
    assert reals.view(np.int64).tolist() == np.array(want_reals).view(np.int64).tolist()
    assert ints.tolist() == want_ints


def test_compound_poisson_without_jumps_is_origin_with_the_full_shape():
    tiny = LatticeMeasure(3, ((0.5, (1, 0, 2), 1e-12),))
    reals, ints = sample_compound_poisson(make_rng(22), tiny, size=40)
    assert reals.dtype == np.float64 and reals.shape == (40,) and not reals.any()
    assert ints.dtype == np.int64 and ints.shape == (40, 3) and not ints.any()


@pytest.mark.parametrize("name", _JUMP_MEASURES)
def test_compound_poisson_adds_into_a_given_matrix_bit_for_bit(name):
    measure = _JUMP_MEASURES[name]()
    reals, ints = sample_compound_poisson(make_rng(23), measure, size=3000)
    start = np.random.default_rng(5).integers(-9, 9, size=(3000, measure.int_dim))
    given = start.copy(order="F")
    got_reals, got = sample_compound_poisson(make_rng(23), measure, 3000, given)
    assert got is given
    assert got.tolist() == (start + ints).tolist()
    assert got_reals.view(np.int64).tolist() == reals.view(np.int64).tolist()


def test_compound_poisson_with_zero_real_parts_keeps_the_integer_sums():
    # the real parts take no randomness, so zeroing them leaves the stream
    measure = _JUMP_MEASURES["many-atoms"]()
    flat = LatticeMeasure(measure.int_dim, tuple((0.0, ki, m) for _, ki, m in measure.atoms))
    _, ints = sample_compound_poisson(make_rng(24), measure, size=3000)
    flat_reals, flat_ints = sample_compound_poisson(make_rng(24), flat, size=3000)
    assert flat_reals.dtype == np.float64 and flat_reals.shape == (3000,)
    assert not flat_reals.any()
    assert flat_ints.tolist() == ints.tolist()


# ---------------------------------------------------------------------------
# circle quadruplets

def test_torus_trivial_quadruplet_is_identity():
    q = trivial_quadruplet(Torus())
    assert np.all(sample_torus_wid(make_rng(16), q, size=100) == 0.0)


def test_torus_haar_kills_nontrivial_characters():
    q = Quadruplet(Torus(), TorusSubgroup.full(), TorusPoint.identity(), 0.0, EMPTY_LEVY)
    sampler = quadruplet_sampler(q)
    for stream, ell in enumerate((1, -3, 8)):
        emp = empirical_cf(sampler, TorusCharacter(ell), N, make_rng(17, stream))
        assert abs(emp) <= mc_tol(N)


def test_torus_gauss_block():
    q = Quadruplet(Torus(), TorusSubgroup.trivial(), TorusPoint.identity(), 1.0, EMPTY_LEVY)
    emp = empirical_cf(quadruplet_sampler(q), TorusCharacter(1), N, make_rng(18))
    assert abs(emp - math.exp(-0.5)) <= mc_tol(N)


# ---------------------------------------------------------------------------
# p-adic quadruplets

def test_padic_haar_block():
    q = Quadruplet(PadicIntegers(3), PadicSubgroup(0), PadicInt.zero(3, 3), 0.0, EMPTY_LEVY)
    sampler = quadruplet_sampler(q, depth=3)
    for stream, (d, ell) in enumerate(((0, 1), (1, 5), (3, 40))):
        emp = empirical_cf(sampler, PadicCharacter(d, ell), N, make_rng(19, stream))
        assert abs(emp) <= mc_tol(N)
    digits = _padic_haar(make_rng(20), 3, 3, size=1000)
    assert digits.shape == (1000, 4) and digits.min() >= 0 and digits.max() <= 2


def test_padic_deterministic_when_subgroup_below_depth():
    a = PadicInt(2, (1, 0, 1, 1))
    q = Quadruplet(PadicIntegers(2), PadicSubgroup(4), a, 0.0, EMPTY_LEVY)
    out = sample_padic_wid(make_rng(21), q, 3, size=200)
    assert out.shape == (200, 4) and np.all(out == np.array(a.digits))


def test_padic_gen_poisson_block():
    eta = LevyMeasure(((PadicInt(2, (1, 0, 1, 0)), 0.8),))
    q = Quadruplet(PadicIntegers(2), PadicSubgroup(4), PadicInt.zero(2, 3), 0.0, eta)
    sampler = quadruplet_sampler(q, depth=3)
    for stream, (d, ell) in enumerate(((0, 1), (2, 3), (3, 5))):
        chi = PadicCharacter(d, ell)
        emp = empirical_cf(sampler, chi, N, make_rng(22, stream))
        assert abs(emp - ft_quadruplet(q, chi)) <= mc_tol(N)


def test_padic_draw_holds_one_digit_matrix_beside_the_random_draws():
    # the jump sums go into the draw's totals and the carry runs in place,
    # so the traced peak is about 2.15 batches; a separate jump matrix and
    # carry output make it about 3.95
    p, depth, n = 3, 3, 100_000
    eta = LevyMeasure(((PadicInt(p, (2, 1, 0, 0)), 1.2),))
    q = Quadruplet(PadicIntegers(p), PadicSubgroup(0), PadicInt(p, (1, 2, 0, 1)), 0.0, eta)
    sample_padic_wid(make_rng(25), q, depth, size=100)
    tracemalloc.start()
    try:
        out = sample_padic_wid(make_rng(25), q, depth, size=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (n, depth + 1)
    assert peak < 3.0 * out.nbytes


# ---------------------------------------------------------------------------
# solenoid quadruplets

def test_solenoid_trivial_quadruplet_is_identity():
    q = trivial_quadruplet(Solenoid(2), depth=3)
    base, digits = sample_solenoid_wid(make_rng(23), q, 3, size=100)
    assert np.all(base == 0.0) and digits.shape == (100, 3) and np.all(digits == 0)


def test_solenoid_gauss_block():
    p = 2
    q = Quadruplet(Solenoid(p), SolenoidSubgroup.trivial(), SolenoidPoint.identity(p, 3), 1.0, EMPTY_LEVY)
    sampler = quadruplet_sampler(q, depth=3)
    for stream, (d, ell) in enumerate(((0, 1), (2, 3), (3, -5))):
        chi = SolenoidCharacter(d, ell)
        emp = empirical_cf(sampler, chi, N, make_rng(24, stream))
        want = math.exp(-(ell**2) / (2 * p ** (2 * d)))
        assert abs(emp - want) <= mc_tol(N)


def test_solenoid_shift_only_reproduces_the_point():
    p = 2
    a = SolenoidPoint(p, 3, 1.234)
    q = Quadruplet(Solenoid(p), SolenoidSubgroup.trivial(), a, 0.0, EMPTY_LEVY)
    batch = SolenoidSamples(p, 3, *sample_solenoid_wid(make_rng(25), q, 3, size=50))
    assert np.all(circular_distance(batch.deep_angles, a.deep_angle) <= 1e-12)
    for j in range(4):
        coords = solenoid_coordinate(p, batch.base, batch.digits, j)
        assert np.all(circular_distance(coords, a.coordinate_angle(j)) <= 1e-12)


def _solenoid_haar_batch(rng, p, depth, n):
    """n Haar draws on the solenoid, through the full-subgroup sampler."""
    q = Quadruplet(
        Solenoid(p), SolenoidSubgroup.full(), SolenoidPoint.identity(p, depth), 0.0, EMPTY_LEVY
    )
    return SolenoidSamples(p, depth, *sample_solenoid_wid(rng, q, depth, n))


def test_solenoid_haar_block():
    p, depth = 2, 3
    sampler = lambda rng, n: _solenoid_haar_batch(rng, p, depth, n)
    for stream, (d, ell) in enumerate(((0, 1), (1, 2), (3, 3), (0, 2), (0, 3))):
        emp = empirical_cf(sampler, SolenoidCharacter(d, ell), N, make_rng(26, stream))
        assert abs(emp) <= mc_tol(N)
    # trivial characters are exactly 1 for every sample
    batch = sampler(make_rng(27), 5000)
    for d in range(depth + 1):
        assert char_mean(batch, SolenoidCharacter(d, 0)) == 1 + 0j


def test_solenoid_full_subgroup_dispatches_to_haar():
    p = 2
    eta = LevyMeasure(((SolenoidPoint(p, 3, 0.9), 0.7),))
    q = Quadruplet(Solenoid(p), SolenoidSubgroup.full(), SolenoidPoint(p, 3, 0.5), 0.3, eta)
    sampler = quadruplet_sampler(q, depth=3)
    for stream, (d, ell) in enumerate(((0, 1), (2, 4))):
        chi = SolenoidCharacter(d, ell)
        emp = empirical_cf(sampler, chi, N, make_rng(28, stream))
        assert ft_quadruplet(q, chi) == 0
        assert abs(emp) <= mc_tol(N)


# ---------------------------------------------------------------------------
# cross-block properties

def test_convolution_property():
    eta = LevyMeasure(((TorusPoint(2.1), 0.6),))
    q1 = Quadruplet(Torus(), TorusSubgroup.cyclic(2), TorusPoint(0.4), 0.2, EMPTY_LEVY)
    q2 = Quadruplet(Torus(), TorusSubgroup.trivial(), TorusPoint(-0.9), 0.0, eta)
    s1 = quadruplet_sampler(q1)
    s2 = quadruplet_sampler(q2)
    rng = make_rng(29)
    a = s1(rng, N)
    b = s2(rng, N)
    from widlaws import combine_samples

    both = combine_samples(a, b)
    for ell in (0, 1, 2, -3):
        chi = TorusCharacter(ell)
        want = ft_quadruplet(q1, chi) * ft_quadruplet(q2, chi)
        assert abs(char_mean(both, chi) - want) <= mc_tol(N)


def test_sampler_requires_matching_group():
    q = trivial_quadruplet(Torus())
    with pytest.raises(ValueError):
        sample_padic_wid(make_rng(0), q, 2, size=1)
    with pytest.raises(ValueError):
        sample_solenoid_wid(make_rng(0), q, 2, size=1)
    qp = trivial_quadruplet(PadicIntegers(2), depth=2)
    with pytest.raises(ValueError):
        sample_torus_wid(make_rng(0), qp, size=1)


def test_shift_depth_must_cover_requested_depth():
    qp = trivial_quadruplet(PadicIntegers(2), depth=2)
    with pytest.raises(ValueError, match="digits"):
        sample_padic_wid(make_rng(0), qp, 5, size=1)
    qs = trivial_quadruplet(Solenoid(2), depth=2)
    with pytest.raises(ValueError, match="coordinates"):
        sample_solenoid_wid(make_rng(0), qs, 5, size=1)


# ---------------------------------------------------------------------------
# batched character means

def test_padic_char_mean_is_exact_at_large_depth():
    # ell * x passes int64 here; the mean must still match the exact
    # big-integer evaluation draw by draw
    for p, d in ((3, 30), (5, 25), (2, 60), (3, 37)):
        digits = _padic_haar(make_rng(0), p, d, size=200)
        for ell in (12345678901234 % p ** (d + 1), p ** (d + 1) - 1):
            chi = PadicCharacter(d, ell)
            want = sum(chi(PadicInt(p, tuple(row))) for row in digits.tolist())
            assert abs(char_mean(PadicSamples(p, digits), chi) - want / 200) <= 1e-12


def test_padic_char_mean_rejects_depth_beyond_int64_envelope():
    # exact while p**(d+2) < 2**63: d = 37 is the last such depth at p = 3
    digits = _padic_haar(make_rng(0), 3, 38, size=10)
    char_mean(PadicSamples(3, digits), PadicCharacter(37, 5))
    with pytest.raises(ValueError, match="2\\*\\*63"):
        char_mean(PadicSamples(3, digits), PadicCharacter(38, 5))


def _direct_char_mean(p, digits, chi):
    """Reference: the draw-by-draw mean of exp(2 pi i ell x / p**(d+1)),
    with x = sum(x_j p**j, j <= d) evaluated per draw."""
    modulus = p ** (chi.d + 1)
    x = digits[:, : chi.d + 1] @ (p ** np.arange(chi.d + 1))
    return complex(np.exp(2j * np.pi * (chi.ell * x % modulus) / modulus).mean())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_padic_char_mean_histogram_matches_direct_evaluation_on_one_batch(p):
    # every (d, ell) with p**(d+1) <= n reads the batch's residue histogram
    n = 700
    batch = PadicSamples(p, _padic_haar(make_rng(41 + p), p, 8, size=n))
    d = 0
    while p ** (d + 1) <= n:
        for ell in range(p ** (d + 1)):
            chi = PadicCharacter(d, ell)
            assert abs(char_mean(batch, chi) - _direct_char_mean(p, batch.digits, chi)) <= 1e-12
        assert d in batch._cache
        d += 1


@pytest.mark.parametrize("p,d", [(2, 9), (3, 5), (5, 3)])
def test_padic_char_mean_above_batch_size_reads_at_most_n_residues(p, d):
    # p**(d+1) > n: the mean is the same, read off at most n distinct residues
    n = 300
    batch = PadicSamples(p, _padic_haar(make_rng(43), p, d, size=n))
    for ell in (1, p + 1, p ** (d + 1) - 2):
        chi = PadicCharacter(d, ell)
        assert abs(char_mean(batch, chi) - _direct_char_mean(p, batch.digits, chi)) <= 1e-12
    residues, counts = batch._cache[d]
    assert len(residues) <= n < p ** (d + 1) and counts.sum() == n


@pytest.mark.parametrize("p,d", [(2, 6), (3, 3), (5, 2)])
def test_padic_char_mean_is_bit_equal_on_a_batch_stacked_twice(p, d):
    # n < p**(d+1) < 2n: the same draws, once and twice over, straddle the
    # batch size p**(d+1) and must still give the same bits
    n = p ** (d + 1) // 2 + 1
    digits = _padic_haar(make_rng(59), p, d, size=n)
    once, twice = PadicSamples(p, digits), PadicSamples(p, np.vstack([digits, digits]))
    for ell in make_rng(61).integers(0, p ** (d + 1), size=8).tolist():
        chi = PadicCharacter(d, ell)
        assert char_mean(once, chi) == char_mean(twice, chi), ell


def test_solenoid_char_mean_on_a_shared_batch_matches_a_fresh_batch():
    # the cached coordinate column gives the bits a fresh batch gives
    p, depth = 3, 3
    shared = _solenoid_haar_batch(make_rng(47), p, depth, 1000)
    for d in range(depth + 1):
        for ell in (-4, 1, 5):
            chi = SolenoidCharacter(d, ell)
            fresh = SolenoidSamples(p, depth, shared.base, shared.digits)
            assert char_mean(shared, chi) == char_mean(fresh, chi)
    assert sorted(shared._cache) == list(range(depth + 1))


# ---------------------------------------------------------------------------
# circle and solenoid means from cached powers of z = exp(i theta)

def _power_cases():
    """(batch, character type, [(d, angle column of depth d), ...]) for a
    freshly drawn torus batch and p=3, depth-3 solenoid batch."""
    eta = LevyMeasure(((TorusPoint(2.1), 0.7),))
    q = Quadruplet(Torus(), TorusSubgroup.trivial(), TorusPoint(0.5), 0.3, eta)
    torus = TorusSamples(sample_torus_wid(make_rng(71), q, size=5000))
    p, depth = 3, 3
    solenoid = _solenoid_haar_batch(make_rng(73), p, depth, 5000)
    columns = [
        (d, solenoid_coordinate(p, solenoid.base, solenoid.digits, d)) for d in range(depth + 1)
    ]
    return [
        (torus, TorusCharacter, [(0, torus.angles)]),
        (solenoid, SolenoidCharacter, columns),
    ]


def _direct(column, ell):
    return complex(np.exp(1j * canonical_angle(ell * column)).mean())


def _character(kind, d, ell):
    return kind(ell) if kind is TorusCharacter else kind(d, ell)


def test_power_path_matches_the_direct_formula_up_to_max_power():
    for batch, kind, columns in _power_cases():
        for d, column in columns:
            assert char_mean(batch, _character(kind, d, 0), exact=False) == 1 + 0j
            for ell in range(-64, 65):
                if ell == 0:
                    continue
                got = char_mean(batch, _character(kind, d, ell), exact=False)
                assert abs(got - _direct(column, ell)) <= 1e-13, (kind, d, ell)


def test_zero_frequency_rows_are_exactly_one_and_leave_the_power_cache_empty():
    for batch, kind, columns in _power_cases():
        for d, _ in columns:
            chi = _character(kind, d, 0)
            for exact in (True, False):
                got = char_mean(batch, chi, exact=exact)
                assert got == 1 + 0j and math.copysign(1.0, got.imag) == 1.0
        means = [batch._means] if kind is TorusCharacter else [m for _, m in batch._cache.values()]
        assert means and all(m == [] for m in means)


def test_exact_rows_and_large_frequencies_take_the_direct_path_bit_for_bit():
    for batch, kind, columns in _power_cases():
        for d, column in columns:
            char_mean(batch, _character(kind, d, 8), exact=False)  # fills the power cache
            for ell in (65, -65, 200):
                chi = _character(kind, d, ell)
                assert char_mean(batch, chi, exact=False) == _direct(column, ell)
            for ell in (1, -3, 8, 64, 65):
                chi = _character(kind, d, ell)
                assert char_mean(batch, chi, exact=True) == _direct(column, ell)
                assert char_mean(batch, chi) == _direct(column, ell)
                assert batch.char_mean(chi) == _direct(column, ell)


def test_power_path_mean_does_not_depend_on_which_row_asked_first():
    # two fresh copies of each batch: ell = 3 then 8 on one, 8 then 3 on the other
    for (up, kind, columns), (down, _, _) in zip(_power_cases(), _power_cases()):
        for d, _ in columns:
            small, big = _character(kind, d, 3), _character(kind, d, 8)
            first = (char_mean(up, small, exact=False), char_mean(up, big, exact=False))
            second = (char_mean(down, big, exact=False), char_mean(down, small, exact=False))
            assert first == second[::-1], (kind, d)
