"""Seeded samplers: determinism, exact laws, Monte-Carlo agreement."""

import bisect
import cmath
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import widlaws.sampling
import widlaws.verification
from widlaws import (
    EMPTY_LEVY,
    LatticeMeasure,
    LevyMeasure,
    PadicCharacter,
    PadicInt,
    PadicIntegers,
    PadicSubgroup,
    Quadruplet,
    Samples,
    Solenoid,
    SolenoidCharacter,
    SolenoidPoint,
    SolenoidSubgroup,
    Torus,
    TorusCharacter,
    TorusPoint,
    TorusSubgroup,
    canonical_angle,
    char_mean,
    circular_distance,
    combine_samples,
    ft_quadruplet,
    make_rng,
    pushforward_padic,
    pushforward_solenoid,
    pushforward_torus,
    quadruplet_sampler,
    sample_compound_poisson,
    trivial_quadruplet,
)
from widlaws.groups import (
    _AngleMeans,
    padic_add,
    solenoid_coordinate,
    solenoid_from_lift,
    solenoid_mul,
)
from widlaws.sampling import BLOCK, _level_search, _level_table, poisson_counts

N = 100_000


def mc_tol(n, c=4.0):
    return c / math.sqrt(n)


def _padic_haar(rng, p, depth, size):
    """Digits 0..depth of `size` Haar draws on Z_p: the law Haar(Λ(0))."""
    q = Quadruplet(PadicIntegers(p), PadicSubgroup(0), PadicInt.zero(p, depth), 0.0, EMPTY_LEVY)
    return quadruplet_sampler(q, depth)(rng, size).digits


def _padic_batch(p, digits):
    """The batch of Delta_p draws with these digit rows."""
    return Samples(PadicIntegers(p), None, digits)


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
    xs = quadruplet_sampler(q)(make_rng(1), N).real
    assert np.all((xs >= -math.pi) & (xs < math.pi))
    # CLT: uniform std dev is (hi-lo)/sqrt(12)
    assert abs(xs.mean()) <= 4 * (2 * math.pi / math.sqrt(12)) / math.sqrt(N)
    again = quadruplet_sampler(q)(make_rng(1), N).real
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

    assert np.all(quadruplet_sampler(gauss(0.0))(make_rng(5), 10).real == 0.0)
    xs = quadruplet_sampler(gauss(0.04))(make_rng(6), N).real
    assert abs(xs.mean()) <= 4 * 0.2 / math.sqrt(N)
    # var of the sample variance of N(0, s2) is ~ 2 s2^2 / n
    assert abs(xs.var(ddof=1) - 0.04) <= 4 * 0.04 * math.sqrt(2) / math.sqrt(N)
    with pytest.raises(ValueError):
        quadruplet_sampler(gauss(-0.1))(make_rng(8), 1)


def _whole_batch_jumps(seed, measure, size):
    """The whole-batch jump sums (real part, integer part) of `size`
    draws: poisson_counts, then one sample_compound_poisson call adding
    into a column-major zero matrix."""
    rng = make_rng(seed)
    counts = poisson_counts(rng, measure, size)
    ints = np.zeros((size, measure.int_dim), dtype=np.int64, order="F")
    return sample_compound_poisson(rng, measure, counts, ints), ints


def test_poisson_counts():
    # one unit atom of mass lam: the real coordinate is the Poisson count
    def counts(seed, lam):
        unit = LatticeMeasure(0, ((1.0, (), lam),))
        return _whole_batch_jumps(seed, unit, N)[0]

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
        _whole_batch_jumps(16, huge, 10)
    # the cap applies to the drawn total, not the expectation
    unit = LatticeMeasure(0, ((1.0, (), 1.0),))
    total = int(_whole_batch_jumps(17, unit, 50)[0].sum())
    monkeypatch.setattr(widlaws.sampling, "MAX_JUMPS", total)
    assert _whole_batch_jumps(17, unit, 50)[0].sum() == total
    monkeypatch.setattr(widlaws.sampling, "MAX_JUMPS", total - 1)
    with pytest.raises(ValueError, match="cap"):
        _whole_batch_jumps(17, unit, 50)


def test_compound_poisson_integer_sums_are_exact_past_2_53():
    # about 2.2e16 per draw: a float sum would round off the low bits
    atom = 2**40 + 1
    measure = LatticeMeasure(1, ((0.0, (atom,), 20000.0),))
    _, ints = _whole_batch_jumps(0, measure, 2)
    counts = make_rng(0).poisson(20000.0, size=2).tolist()
    assert ints[:, 0].tolist() == [c * atom for c in counts]
    assert max(counts) * atom > 2**53


def test_compound_poisson_refuses_jump_sums_that_could_wrap_int64():
    # make_rng(1) draws 4 jumps: 4 * 2**62 reaches 2**63, 4 * (2**61 - 1)
    # does not
    wide = LatticeMeasure(1, ((0.0, (2**62,), 3.0),))
    with pytest.raises(ValueError, match="int64"):
        _whole_batch_jumps(1, wide, 1)
    below = LatticeMeasure(1, ((0.0, (2**61 - 1,), 3.0),))
    _, ints = _whole_batch_jumps(1, below, 1)
    assert ints.tolist() == [[4 * (2**61 - 1)]]


def test_compound_poisson_empty_measure_is_origin():
    empty = LatticeMeasure(2, ())
    reals, ints = _whole_batch_jumps(13, empty, 50)
    assert np.all(reals == 0.0) and np.all(ints == 0)
    assert reals.shape == (50,) and ints.shape == (50, 2)


def test_compound_poisson_single_atom_matches_closed_form():
    lam = 1.3
    m = LatticeMeasure(0, ((1.0, (), lam),))
    reals, _ = _whole_batch_jumps(14, m, N)
    # single unit jump: the real coordinate is the Poisson count itself
    assert np.allclose(reals, np.round(reals))
    for t in (0.7, 2.0):
        emp = np.exp(1j * t * reals).mean()
        want = cmath.exp(lam * (cmath.exp(1j * t) - 1))
        assert abs(emp - want) <= mc_tol(N)


def test_compound_poisson_two_atoms_product_form():
    m = LatticeMeasure(1, ((0.5, (2,), 0.8), (-1.0, (1,), 0.4)))
    reals, ints = _whole_batch_jumps(15, m, N)
    for t, w in ((0.9, 1.1), (-0.3, 2.0)):
        emp = np.exp(1j * (t * reals + w * ints[:, 0])).mean()
        want = cmath.exp(
            0.8 * (cmath.exp(1j * (t * 0.5 + w * 2)) - 1)
            + 0.4 * (cmath.exp(1j * (t * -1.0 + w * 1)) - 1)
        )
        assert abs(emp - want) <= mc_tol(N)


def _compound_poisson_reference(seed, measure, size, restart_every=None):
    """Per-jump pure-Python sums over the same random stream: the draws'
    Poisson counts, then one uniform per jump picking an atom.

    With restart_every, a draw's real sum restarts from 0.0 at each jump
    whose index in the batch is a multiple of it, and its pieces are then
    added: the rounding of chunked sums that carry nothing across."""
    rng = make_rng(seed)
    masses = np.array([m for _, _, m in measure.atoms])
    counts = rng.poisson(masses.sum(), size=size).tolist()
    uniforms = iter(rng.random(sum(counts)).tolist())
    cum = (np.cumsum(masses) / masses.sum()).tolist()
    reals, ints, index = [], [], 0
    for count in counts:
        done, real, vec = 0.0, 0.0, [0] * measure.int_dim
        for _ in range(count):
            if restart_every and index % restart_every == 0:
                done, real = done + real, 0.0
            x, ki, _ = measure.atoms[min(bisect.bisect_right(cum, next(uniforms)), len(cum) - 1)]
            real += x
            vec = [a + b for a, b in zip(vec, ki)]
            index += 1
        reals.append(done + real)
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
    # about 15 jumps a draw: in chunks of 5 a draw spans three chunks or
    # more, and a chunk can lie wholly inside one draw
    "heavy": lambda: LatticeMeasure(
        2, ((0.7, (1, -2), 8.0), (-1.3, (2, 1), 5.0), (0.05, (0, 3), 2.0))
    ),
    # tables of 63 and 999 bounds for the level search, 1.6 and 2.0 jumps
    # a draw; the 64 atoms' middle integer column is all zeros
    "64-atoms": lambda: LatticeMeasure(
        3, tuple((0.01 * i - 0.3, (i % 5 - 2, 0, i // 8), 0.01 * (1 + i % 4)) for i in range(64))
    ),
    "1000-atoms": lambda: LatticeMeasure(
        2, tuple((0.003 * i - 1.5, (i % 7 - 3, i // 100), 0.001 * (1 + i % 3)) for i in range(1000))
    ),
}


@pytest.mark.parametrize("bounds", [0, 1, 2, 4, 999])
def test_level_search_counts_the_bounds_as_searchsorted(bounds):
    masses = np.random.default_rng(bounds).uniform(0.01, 1.0, size=bounds + 1)
    cum = np.cumsum(masses)[:-1] / masses.sum()
    near = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0)])
    u = np.concatenate([near, [0.0, 1.0 - 2.0**-53]])
    picks = _level_search(_level_table(cum), u)
    want = np.searchsorted(cum, u, side="right")
    assert picks.dtype == want.dtype and picks.tolist() == want.tolist()


@pytest.mark.parametrize("name", _JUMP_MEASURES)
def test_compound_poisson_matches_a_per_jump_reference_bit_for_bit(name):
    measure = _JUMP_MEASURES[name]()
    reals, ints = _whole_batch_jumps(21, measure, 3000)
    want_reals, want_ints = _compound_poisson_reference(21, measure, 3000)
    assert reals.dtype == np.float64 and reals.shape == (3000,)
    assert ints.dtype == np.int64 and ints.shape == (3000, measure.int_dim)
    assert reals.view(np.int64).tolist() == np.array(want_reals).view(np.int64).tolist()
    assert ints.tolist() == want_ints


def test_compound_poisson_without_jumps_is_origin_with_the_full_shape():
    tiny = LatticeMeasure(3, ((0.5, (1, 0, 2), 1e-12),))
    reals, ints = _whole_batch_jumps(22, tiny, 40)
    assert reals.dtype == np.float64 and reals.shape == (40,) and not reals.any()
    assert ints.dtype == np.int64 and ints.shape == (40, 3) and not ints.any()


@pytest.mark.parametrize("name", _JUMP_MEASURES)
def test_compound_poisson_adds_into_a_given_matrix_bit_for_bit(name):
    measure = _JUMP_MEASURES[name]()
    reals, ints = _whole_batch_jumps(23, measure, 3000)
    start = np.random.default_rng(5).integers(-9, 9, size=(3000, measure.int_dim))
    given = start.copy(order="F")
    rng = make_rng(23)
    got_reals = sample_compound_poisson(rng, measure, poisson_counts(rng, measure, 3000), given)
    assert given.tolist() == (start + ints).tolist()
    assert got_reals.view(np.int64).tolist() == reals.view(np.int64).tolist()


@pytest.mark.parametrize("name", _JUMP_MEASURES)
def test_compound_poisson_blocks_hold_the_whole_batch_bit_for_bit(name):
    # consecutive row blocks of counts give the bits of one call: 3000
    # draws in blocks of 700, four full blocks and a short one, each
    # added into the first rows of one work matrix
    measure = _JUMP_MEASURES[name]()
    reals, ints = _whole_batch_jumps(26, measure, 3000)
    work = np.ones((700, measure.int_dim), dtype=np.int64, order="F")
    rng = make_rng(26)
    counts = poisson_counts(rng, measure, 3000)
    got_reals, got_ints = [], []
    for lo in range(0, 3000, 700):
        block = work[: len(counts[lo : lo + 700])]
        got_reals.append(sample_compound_poisson(rng, measure, counts[lo : lo + 700], block))
        got_ints.append(block - 1)
        work[...] = 1
    assert [len(r) for r in got_reals] == [700, 700, 700, 700, 200]
    assert np.concatenate(got_reals).view(np.int64).tolist() == reals.view(np.int64).tolist()
    assert np.concatenate(got_ints).tolist() == ints.tolist()


def _chunks_touched(seed, measure, size, chunk):
    """How many chunks of `chunk` jumps hold some jump of each draw (0
    for a draw without jumps), read off the Poisson counts the sampler
    draws first."""
    total = sum(m for _, _, m in measure.atoms)
    counts = make_rng(seed).poisson(total, size=size)
    ends = np.cumsum(counts)
    starts = ends - counts
    return np.where(counts > 0, (ends - 1) // chunk - starts // chunk + 1, 0)


def _straddling_draws(seed, measure, size, chunk):
    """The draws whose jumps fall in two or more chunks of `chunk` jumps."""
    return np.flatnonzero(_chunks_touched(seed, measure, size, chunk) > 1)


@pytest.mark.parametrize("name", _JUMP_MEASURES)
def test_compound_poisson_in_jump_chunks_matches_one_chunk_bit_for_bit(name, monkeypatch):
    # chunks of 5 jumps: many draws straddle two or more chunks, and each
    # continues its real sum in jump order
    measure = _JUMP_MEASURES[name]()
    whole_reals, whole_ints = _whole_batch_jumps(27, measure, 300)
    monkeypatch.setattr(widlaws.sampling, "JUMP_BLOCK", 5)
    reals, ints = _whole_batch_jumps(27, measure, 300)
    assert reals.view(np.int64).tolist() == whole_reals.view(np.int64).tolist()
    assert ints.tolist() == whole_ints.tolist()
    want_reals, _ = _compound_poisson_reference(27, measure, 300)
    assert reals.view(np.int64).tolist() == np.array(want_reals).view(np.int64).tolist()
    assert len(_straddling_draws(27, measure, 300, 5)) > 20


def test_heavy_draws_in_chunks_of_five_span_three_chunks():
    # the chunked tests on seed 27 see draws over three chunks or more:
    # each holds a whole chunk, whose jumps one row owns alone
    touched = _chunks_touched(27, _JUMP_MEASURES["heavy"](), 300, 5)
    assert (touched >= 3).sum() > 100


@pytest.mark.parametrize("name", ["torus", "many-atoms", "heavy"])
def test_jump_chunks_carry_the_real_sum_across_a_chunk_boundary(name, monkeypatch):
    # summing each chunk's share from 0.0 and adding the pieces would
    # round differently on some straddling draw; the chunked sampler
    # keeps the one-chunk bits there
    measure = _JUMP_MEASURES[name]()
    whole_reals, _ = _whole_batch_jumps(27, measure, 300)
    monkeypatch.setattr(widlaws.sampling, "JUMP_BLOCK", 5)
    reals, _ = _whole_batch_jumps(27, measure, 300)
    pieces, _ = _compound_poisson_reference(27, measure, 300, restart_every=5)
    moved = [i for i in _straddling_draws(27, measure, 300, 5) if pieces[i] != whole_reals[i]]
    assert moved
    for i in moved:
        assert reals[i] == whole_reals[i] and reals[i] != 0.0


_CHUNKED_LAWS = {
    "torus": Quadruplet(
        Torus(), TorusSubgroup.trivial(), TorusPoint(0.4), 0.3,
        LevyMeasure(((TorusPoint(2.1), 2.6), (TorusPoint(-0.6), 1.9))),
    ),
    "padic": Quadruplet(
        PadicIntegers(3), PadicSubgroup(1), PadicInt(3, (1, 2, 0, 1)), 0.0,
        LevyMeasure(((PadicInt(3, (2, 1, 0, 0)), 2.5), (PadicInt(3, (0, 1, 2, 2)), 2.0))),
    ),
    "solenoid": Quadruplet(
        Solenoid(3), SolenoidSubgroup.trivial(), SolenoidPoint(3, 3, 1.1), 0.2,
        LevyMeasure(((SolenoidPoint(3, 3, 2.5), 2.6), (SolenoidPoint(3, 3, -2.9), 1.9))),
    ),
}


@pytest.mark.parametrize("q", _CHUNKED_LAWS.values(), ids=_CHUNKED_LAWS.keys())
def test_draws_in_jump_chunks_equal_the_unsplit_draws_bit_for_bit(q, monkeypatch):
    # 500 draws of about 4.5 jumps each in chunks of 7: most draws straddle
    sampler = quadruplet_sampler(q, 3)
    whole = sampler(make_rng(29), 500)
    monkeypatch.setattr(widlaws.sampling, "JUMP_BLOCK", 7)
    chunked = sampler(make_rng(29), 500)
    for name in ("real", "digits"):
        a, b = getattr(whole, name), getattr(chunked, name)
        if a is None:
            assert b is None, name
            continue
        assert a.dtype == b.dtype and np.array_equal(a, b), name
        if a.dtype == np.float64:
            assert a.view(np.int64).tolist() == b.view(np.int64).tolist(), name


@pytest.mark.parametrize("p", [2, 3, 251, 65521, 4294967291])
def test_integer_draws_cut_at_any_points_equal_one_call(p):
    # the Haar layer draws its digits one row block at a time and claims
    # the bits of one whole-batch call: the generator's bounded int64
    # draws take the stream draw by draw, however the calls cut it
    n = 1000
    whole = make_rng(37).integers(0, p, size=n, dtype=np.int64)
    cuts = sorted(make_rng(p, stream=1).integers(0, n + 1, size=12).tolist())
    rng = make_rng(37)
    pieces = [rng.integers(0, p, size=hi - lo, dtype=np.int64) for lo, hi in zip([0, *cuts], [*cuts, n])]
    assert np.array_equal(np.concatenate(pieces), whole)


_HAAR_LAWS = {
    "solenoid-whole": Quadruplet(
        Solenoid(2), SolenoidSubgroup.full(), SolenoidPoint.identity(2, 5), 0.0, EMPTY_LEVY
    ),
    "padic-lambda-1": Quadruplet(
        PadicIntegers(3), PadicSubgroup(1), PadicInt.zero(3, 5), 0.0, EMPTY_LEVY
    ),
}


@pytest.mark.parametrize("q", _HAAR_LAWS.values(), ids=_HAAR_LAWS.keys())
def test_haar_draws_in_row_blocks_of_seven_equal_the_default_draw_bit_for_bit(q, monkeypatch):
    sampler = quadruplet_sampler(q)
    whole = sampler(make_rng(41), 100)
    monkeypatch.setattr(widlaws.sampling, "BLOCK", 7)
    blocked = sampler(make_rng(41), 100)
    assert whole.digits.dtype == blocked.digits.dtype
    assert np.array_equal(whole.digits, blocked.digits)
    if q.group.real_coordinate:
        assert whole.real.view(np.int64).tolist() == blocked.real.view(np.int64).tolist()


def test_a_draw_sums_each_row_block_of_jumps_in_one_call(monkeypatch):
    # one atom, so a draw's integer jump sum is its count times the atom:
    # each call must have added exactly that into its rows when it returns
    p, depth, n = 3, 3, 2 * BLOCK + 100
    eta = LevyMeasure(((PadicInt(p, (2, 1, 0, 1)), 3.0),))
    q = Quadruplet(PadicIntegers(p), PadicSubgroup(0), PadicInt(p, (1, 2, 0, 1)), 0.0, eta)
    atom = np.array(pushforward_padic(eta, depth).atoms[0][1])
    original, calls = widlaws.sampling.sample_compound_poisson, []

    def traced(rng, measure, counts, ints):
        before = ints.copy()
        real = original(rng, measure, counts, ints)
        calls.append(len(counts))
        assert counts.sum() > 0
        assert (ints - before).tolist() == (counts[:, None] * atom).tolist()
        return real

    monkeypatch.setattr(widlaws.sampling, "sample_compound_poisson", traced)
    batch = quadruplet_sampler(q, depth)(make_rng(31), n)
    assert calls == [BLOCK, BLOCK, 100]
    monkeypatch.undo()
    want = quadruplet_sampler(q, depth)(make_rng(31), n)
    assert np.array_equal(batch.digits, want.digits)


def test_few_draws_with_many_jumps_hold_one_jump_chunk():
    # 100 draws of Delta_3 with 10**6 jumps between them: three 8-byte
    # arrays per jump of the whole block took about 24 MB; one chunk's
    # take 3 * 8 * JUMP_BLOCK bytes, about 6.3 MB
    eta = LevyMeasure(((PadicInt(3, (2, 1, 0, 0)), 6000.0), (PadicInt(3, (0, 1, 2, 0)), 4000.0)))
    q = Quadruplet(PadicIntegers(3), PadicSubgroup(0), PadicInt(3, (1, 2, 0, 1)), 0.0, eta)
    batch, peak = _traced_draw(quadruplet_sampler(q, 3), 100)
    assert batch.digits.shape == (100, 4)
    assert peak < 4 * 8 * widlaws.sampling.JUMP_BLOCK


def test_compound_poisson_with_zero_real_parts_keeps_the_integer_sums():
    # the real parts take no randomness, so zeroing them leaves the stream
    measure = _JUMP_MEASURES["many-atoms"]()
    flat = LatticeMeasure(measure.int_dim, tuple((0.0, ki, m) for _, ki, m in measure.atoms))
    _, ints = _whole_batch_jumps(24, measure, 3000)
    flat_reals, flat_ints = _whole_batch_jumps(24, flat, 3000)
    assert flat_reals.dtype == np.float64 and flat_reals.shape == (3000,)
    assert not flat_reals.any()
    assert flat_ints.tolist() == ints.tolist()


# ---------------------------------------------------------------------------
# circle quadruplets

def test_torus_trivial_quadruplet_is_identity():
    q = trivial_quadruplet(Torus())
    assert np.all(quadruplet_sampler(q)(make_rng(16), 100).real == 0.0)


def test_torus_haar_kills_nontrivial_characters():
    q = Quadruplet(Torus(), TorusSubgroup.full(), TorusPoint.identity(), 0.0, EMPTY_LEVY)
    sampler = quadruplet_sampler(q)
    for stream, ell in enumerate((1, -3, 8)):
        emp = char_mean(sampler(make_rng(17, stream), N), TorusCharacter(ell))
        assert abs(emp) <= mc_tol(N)


def test_torus_gauss_block():
    q = Quadruplet(Torus(), TorusSubgroup.trivial(), TorusPoint.identity(), 1.0, EMPTY_LEVY)
    emp = char_mean(quadruplet_sampler(q)(make_rng(18), N), TorusCharacter(1))
    assert abs(emp - math.exp(-0.5)) <= mc_tol(N)


# ---------------------------------------------------------------------------
# p-adic quadruplets

def test_padic_haar_block():
    q = Quadruplet(PadicIntegers(3), PadicSubgroup(0), PadicInt.zero(3, 3), 0.0, EMPTY_LEVY)
    sampler = quadruplet_sampler(q, depth=3)
    for stream, (d, ell) in enumerate(((0, 1), (1, 5), (3, 40))):
        emp = char_mean(sampler(make_rng(19, stream), N), PadicCharacter(d, ell))
        assert abs(emp) <= mc_tol(N)
    digits = _padic_haar(make_rng(20), 3, 3, size=1000)
    assert digits.shape == (1000, 4) and digits.min() >= 0 and digits.max() <= 2


def test_padic_deterministic_when_subgroup_below_depth():
    a = PadicInt(2, (1, 0, 1, 1))
    q = Quadruplet(PadicIntegers(2), PadicSubgroup(4), a, 0.0, EMPTY_LEVY)
    out = quadruplet_sampler(q, 3)(make_rng(21), 200).digits
    assert out.shape == (200, 4) and np.all(out == np.array(a.digits))


def test_padic_gen_poisson_block():
    eta = LevyMeasure(((PadicInt(2, (1, 0, 1, 0)), 0.8),))
    q = Quadruplet(PadicIntegers(2), PadicSubgroup(4), PadicInt.zero(2, 3), 0.0, eta)
    sampler = quadruplet_sampler(q, depth=3)
    for stream, (d, ell) in enumerate(((0, 1), (2, 3), (3, 5))):
        chi = PadicCharacter(d, ell)
        emp = char_mean(sampler(make_rng(22, stream), N), chi)
        assert abs(emp - ft_quadruplet(q, chi)) <= mc_tol(N)


def _traced_draw(sampler, n):
    """The batch of n draws and the traced peak of drawing it."""
    sampler(make_rng(25), 100)
    tracemalloc.start()
    try:
        batch = sampler(make_rng(25), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return batch, peak


def test_padic_draw_holds_one_digit_matrix_beside_the_random_draws():
    # in units of one (n, depth+1) int64 matrix: the narrow batch, the n
    # Poisson counts and one row block of scratch make the traced peak
    # about 0.58; full-size int64 digits, jump sums and a C-order Haar
    # copy made it about 2.16
    p, depth, n = 3, 3, 100_000
    eta = LevyMeasure(((PadicInt(p, (2, 1, 0, 0)), 1.2),))
    q = Quadruplet(PadicIntegers(p), PadicSubgroup(0), PadicInt(p, (1, 2, 0, 1)), 0.0, eta)
    batch, peak = _traced_draw(quadruplet_sampler(q, depth), n)
    assert batch.digits.shape == (n, depth + 1) and batch.digits.dtype == np.uint8
    assert peak < 0.75 * n * (depth + 1) * 8


def test_solenoid_draw_holds_one_narrow_digit_matrix_beside_the_random_draws():
    # the same units: the base column, the narrow digits, the counts and
    # one row block make about 0.76; a jump matrix beside the lift's new
    # output made about 3.00
    p, depth, n = 3, 3, 100_000
    q = Quadruplet(
        Solenoid(p), SolenoidSubgroup.trivial(), SolenoidPoint(p, depth, 1.1), 0.2,
        _solenoid_eta(p, depth),
    )
    batch, peak = _traced_draw(quadruplet_sampler(q, depth), n)
    assert batch.digits.shape == (n, depth) and batch.digits.dtype == np.uint8
    assert peak < 1.0 * n * (depth + 1) * 8


@pytest.mark.parametrize("p,dtype", [(2, np.uint8), (251, np.uint8), (257, np.uint16)])
def test_batches_store_digits_in_the_narrowest_unsigned_dtype(p, dtype):
    padic = _padic_haar(make_rng(30), p, 2, size=10)
    solenoid = _solenoid_haar_batch(make_rng(31), p, 2, 10).digits
    for digits in (padic, solenoid):
        assert digits.dtype == dtype and digits.flags.f_contiguous
        assert 0 <= digits.min() and digits.max() <= p - 1


# ---------------------------------------------------------------------------
# solenoid quadruplets

def test_solenoid_trivial_quadruplet_is_identity():
    q = trivial_quadruplet(Solenoid(2), depth=3)
    batch = quadruplet_sampler(q, 3)(make_rng(23), 100)
    base, digits = batch.real, batch.digits
    assert np.all(base == 0.0) and digits.shape == (100, 3) and np.all(digits == 0)


def test_solenoid_gauss_block():
    p = 2
    q = Quadruplet(Solenoid(p), SolenoidSubgroup.trivial(), SolenoidPoint.identity(p, 3), 1.0, EMPTY_LEVY)
    sampler = quadruplet_sampler(q, depth=3)
    for stream, (d, ell) in enumerate(((0, 1), (2, 3), (3, -5))):
        chi = SolenoidCharacter(d, ell)
        emp = char_mean(sampler(make_rng(24, stream), N), chi)
        want = math.exp(-(ell**2) / (2 * p ** (2 * d)))
        assert abs(emp - want) <= mc_tol(N)


def test_solenoid_shift_only_reproduces_the_point():
    p = 2
    a = SolenoidPoint(p, 3, 1.234)
    q = Quadruplet(Solenoid(p), SolenoidSubgroup.trivial(), a, 0.0, EMPTY_LEVY)
    batch = quadruplet_sampler(q, 3)(make_rng(25), 50)
    deep = batch.group.coordinate(batch.real, batch.digits, 3)
    assert np.all(circular_distance(deep, a.deep_angle) <= 1e-12)
    for j in range(4):
        coords = solenoid_coordinate(p, batch.real, batch.digits, j)
        assert np.all(circular_distance(coords, a.coordinate_angle(j)) <= 1e-12)


def _solenoid_haar_batch(rng, p, depth, n):
    """n Haar draws on the solenoid: the law Haar(S_p)."""
    q = Quadruplet(
        Solenoid(p), SolenoidSubgroup.full(), SolenoidPoint.identity(p, depth), 0.0, EMPTY_LEVY
    )
    return quadruplet_sampler(q, depth)(rng, n)


def test_solenoid_haar_block():
    p, depth = 2, 3
    sampler = lambda rng, n: _solenoid_haar_batch(rng, p, depth, n)
    for stream, (d, ell) in enumerate(((0, 1), (1, 2), (3, 3), (0, 2), (0, 3))):
        emp = char_mean(sampler(make_rng(26, stream), N), SolenoidCharacter(d, ell))
        assert abs(emp) <= mc_tol(N)
    # trivial characters are exactly 1 for every sample
    batch = sampler(make_rng(27), 5000)
    for d in range(depth + 1):
        assert char_mean(batch, SolenoidCharacter(d, 0)) == 1 + 0j


def test_solenoid_full_subgroup_dispatches_to_haar():
    # the whole subgroup's Haar layer absorbs the shift, Gauss and jump layers
    p = 2
    eta = LevyMeasure(((SolenoidPoint(p, 3, 0.9), 0.7),))
    q = Quadruplet(Solenoid(p), SolenoidSubgroup.full(), SolenoidPoint(p, 3, 0.5), 0.3, eta)
    sampler = quadruplet_sampler(q, depth=3)
    for stream, (d, ell) in enumerate(((0, 1), (2, 4))):
        chi = SolenoidCharacter(d, ell)
        emp = char_mean(sampler(make_rng(28, stream), N), chi)
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


def test_combine_at_p_251_carries_digit_sums_past_the_narrow_dtype():
    # uint8 holds the digit 250, and a digit sum reaches 500; the batches
    # span two row blocks
    p, depth, n = 251, 3, BLOCK + 5
    a, b = (_padic_haar(make_rng(seed), p, depth, size=n) for seed in (32, 33))
    # the product is carried into the first batch: a copy, as a is read below
    both = combine_samples(_padic_batch(p, a.copy(order="F")), _padic_batch(p, b))
    assert both.digits.dtype == np.uint8 and (a.astype(int) + b).max() > 255
    pairs = zip(a.tolist(), b.tolist())
    want = [padic_add(PadicInt(p, x), PadicInt(p, y)).digits for x, y in pairs]
    assert list(map(tuple, both.digits.tolist())) == want


def test_solenoid_combine_at_p_251_is_the_group_product_row_by_row():
    p, depth, n = 251, 2, BLOCK + 5
    x, y = (_solenoid_haar_batch(make_rng(seed), p, depth, n) for seed in (34, 35))
    both = combine_samples(_copy(x), y)
    assert both.digits.dtype == np.uint8 and (x.digits.astype(int) + y.digits).max() > 255

    def point(batch, i):
        return solenoid_from_lift(p, depth, batch.real[i], batch.digits[i].tolist())

    for i in (0, 1, BLOCK - 1, BLOCK, n - 1):
        want = solenoid_mul(point(x, i), point(y, i))
        assert (both.real[i], tuple(both.digits[i].tolist())) == (want.base, want.digits), i


_COMBINE_GROUPS = {"torus": Torus(), "padic": PadicIntegers(3), "solenoid": Solenoid(3)}


def _copy(batch):
    """A batch of the same group holding copies of batch's arrays."""
    real = None if batch.real is None else batch.real.copy()
    return Samples(batch.group, real, batch.digits.copy(order="F"))


def _haar_batch(group, n=5, depth=2, stream=0):
    """n Haar draws on the whole group, at depth on Delta_p and S_p, from
    RNG stream `stream` of seed 0."""
    subgroup = {
        "torus": TorusSubgroup.full(), "padic": PadicSubgroup(0), "solenoid": SolenoidSubgroup.full()
    }[group.name]
    shift = group.point_mass(depth)[1]
    q = Quadruplet(group, subgroup, shift, 0.0, EMPTY_LEVY)
    return quadruplet_sampler(q, depth)(make_rng(0, stream), n)


@pytest.mark.parametrize("group", _COMBINE_GROUPS.values(), ids=_COMBINE_GROUPS.keys())
def test_combine_samples_refuses_another_size_group_p_or_depth(group):
    # a circle batch of one draw used to broadcast against one of five
    batch = _haar_batch(group)
    others = [_haar_batch(group, n=4), _haar_batch(group, n=1)]
    others += [_haar_batch(g) for g in _COMBINE_GROUPS.values() if g != group]
    if group.name != "torus":
        others += [_haar_batch(type(group)(5)), _haar_batch(group, depth=3)]
    for other in others:
        for a, b in ((batch, other), (other, batch)):
            with pytest.raises(ValueError, match="mismatched"):
                combine_samples(a, b)
    assert len(combine_samples(batch, _haar_batch(group))) == 5


def test_circle_combine_across_row_blocks_is_the_wrapped_sum_bit_for_bit():
    n = BLOCK + 5
    a, b = _haar_batch(Torus(), n), _haar_batch(Torus(), n)
    both = combine_samples(_copy(a), b)
    assert both.digits.shape == (n, 0)
    assert both.real.view(np.int64).tolist() == canonical_angle(a.real + b.real).view(np.int64).tolist()


def _bits(batch):
    """The real column's and the digits' bytes, with their dtypes."""
    real = None if batch.real is None else (batch.real.dtype, batch.real.tobytes())
    return real, batch.digits.dtype, batch.digits.tobytes()


def _whole_cover_bits(a, b):
    """The bits of the product of copies of a and b, covered as one block
    of the summed lift, without combine_samples's row blocks."""
    real = None if a.real is None else a.real + b.real
    lift = a.digits.astype(np.int64) + b.digits
    a.group.cover(real, lift)
    return _bits(Samples(a.group, real, lift.astype(a.group.digit_dtype)))


@pytest.mark.parametrize("group", _COMBINE_GROUPS.values(), ids=_COMBINE_GROUPS.keys())
def test_combine_into_the_first_batch_is_the_product_of_copies_bit_for_bit(group):
    # the in-place product of check_divisibility, across two row blocks
    n = BLOCK + 5
    a, b = _haar_batch(group, n, stream=1), _haar_batch(group, n, stream=2)
    want, b_before = _whole_cover_bits(a, b), _bits(b)
    assert combine_samples(a, b) is a
    assert _bits(a) == want
    assert _bits(b) == b_before


@pytest.mark.parametrize("group", _COMBINE_GROUPS.values(), ids=_COMBINE_GROUPS.keys())
def test_combine_refuses_a_batch_of_another_group_or_shape_or_with_means_read(group):
    # a refusal writes nothing into either batch
    a, b = _haar_batch(group, stream=1), _haar_batch(group, stream=2)
    others = [_haar_batch(group, n=4), _haar_batch(group, n=6)]
    others += [_haar_batch(g) for g in _COMBINE_GROUPS.values() if g != group]
    if group.name != "torus":
        others += [_haar_batch(type(group)(5)), _haar_batch(group, depth=3)]
    for other in others:
        for x, y in ((a, other), (other, b)):
            before = _bits(x), _bits(y)
            with pytest.raises(ValueError, match="mismatched"):
                combine_samples(x, y)
            assert (_bits(x), _bits(y)) == before
    # a batch whose mean was read keeps that mean in its cache
    char_mean(a, group.default_characters(2)[-1])
    before = _bits(a), _bits(b)
    with pytest.raises(ValueError, match="cached character means"):
        combine_samples(a, b)
    assert (_bits(a), _bits(b)) == before


def test_shift_depth_must_cover_requested_depth():
    qp = trivial_quadruplet(PadicIntegers(2), depth=2)
    with pytest.raises(ValueError, match="digits"):
        quadruplet_sampler(qp, 5)(make_rng(0), 1)
    qs = trivial_quadruplet(Solenoid(2), depth=2)
    with pytest.raises(ValueError, match="coordinates"):
        quadruplet_sampler(qs, 5)(make_rng(0), 1)


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
            assert abs(char_mean(_padic_batch(p, digits), chi) - want / 200) <= 1e-12


def test_padic_char_mean_on_narrow_digits_equals_the_int64_batch_bit_for_bit():
    # p**38 - 1 needs uint64 residues: the last depth inside the envelope
    digits = _padic_haar(make_rng(2), 3, 37, size=500)
    narrow, wide = _padic_batch(3, digits), _padic_batch(3, digits.astype(np.int64))
    assert narrow.digits.dtype == np.uint8
    for ell in (1, 3**37 + 5, 3**38 - 1):
        chi = PadicCharacter(37, ell)
        assert char_mean(narrow, chi) == char_mean(wide, chi), ell


def test_padic_char_mean_rejects_depth_beyond_int64_envelope():
    # exact while p**(d+2) < 2**63: d = 37 is the last such depth at p = 3
    digits = _padic_haar(make_rng(0), 3, 38, size=10)
    char_mean(_padic_batch(3, digits), PadicCharacter(37, 5))
    with pytest.raises(ValueError, match="2\\*\\*63"):
        char_mean(_padic_batch(3, digits), PadicCharacter(38, 5))


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
    batch = _padic_batch(p, _padic_haar(make_rng(41 + p), p, 8, size=n))
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
    batch = _padic_batch(p, _padic_haar(make_rng(43), p, d, size=n))
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
    once, twice = _padic_batch(p, digits), _padic_batch(p, np.vstack([digits, digits]))
    for ell in make_rng(61).integers(0, p ** (d + 1), size=8).tolist():
        chi = PadicCharacter(d, ell)
        assert char_mean(once, chi) == char_mean(twice, chi), ell


def test_padic_char_mean_keeps_only_the_residues_of_the_depth_read_last():
    # depths 1, 2 and 1 again: each read gives the bits of a fresh batch
    p = 3
    digits = _padic_haar(make_rng(48), p, 4, size=1000)
    shared = _padic_batch(p, digits)
    for d in (1, 2, 1):
        for ell in (1, 5, p ** (d + 1) - 1):
            chi = PadicCharacter(d, ell)
            assert char_mean(shared, chi) == char_mean(_padic_batch(p, digits), chi), (d, ell)
            assert list(shared._cache) == [d]


@pytest.mark.parametrize("p", [2, 3, 251])
def test_padic_residue_counts_equal_np_unique_bit_for_bit(p):
    # mean_work sorts the residues in place and counts the runs of equal
    # values; on both sides of the uint8, uint16 and uint32 residue dtypes
    # its (distinct, counts) must be np.unique's, repeats and all
    rng = make_rng(67)
    group = PadicIntegers(p)
    for bits in (8, 16, 32):
        last = max(d for d in range(64) if p ** (d + 1) <= 2**bits)
        for d in (last, last + 1):
            width = np.min_scalar_type(p ** (d + 1) - 1).itemsize * 8
            assert (width == bits) == (d == last)
            pool = rng.integers(0, p, size=(40, d + 1))
            fresh = rng.integers(0, p, size=(2000, d + 1))
            rows = np.vstack([pool[rng.integers(0, 40, size=2000)], fresh])
            digits = np.asfortranarray(rows.astype(group.digit_dtype))
            values = [sum(x * p**j for j, x in enumerate(row)) for row in rows.tolist()]
            want, want_counts = np.unique(np.array(values, dtype=np.uint64), return_counts=True)
            distinct, counts = group.mean_work(None, digits, d)
            assert distinct == want.tolist(), (p, d)
            assert counts.dtype == want_counts.dtype and np.array_equal(counts, want_counts)


def test_solenoid_char_mean_on_a_shared_batch_matches_a_fresh_batch():
    # the cached coordinate column gives the bits a fresh batch gives, and
    # the batch keeps only the column of the depth it last read
    p, depth = 3, 3
    shared = _solenoid_haar_batch(make_rng(47), p, depth, 1000)
    for d in range(depth + 1):
        for ell in (-4, 1, 5):
            chi = SolenoidCharacter(d, ell)
            fresh = Samples(shared.group, shared.real, shared.digits)
            assert char_mean(shared, chi) == char_mean(fresh, chi)
            assert list(shared._cache) == [d]
    # a depth read again is swept again, to the same bits
    for d in (1, 0):
        chi = SolenoidCharacter(d, 5)
        for exact in (True, False):
            fresh = Samples(shared.group, shared.real, shared.digits)
            assert char_mean(shared, chi, exact) == char_mean(fresh, chi, exact)
        assert list(shared._cache) == [d]


# One law per group with every layer it has: a Haar layer of a nontrivial
# subgroup, a shift, a Gauss layer (none on the p-adic integers) and jumps.
_EVERY_LAYER = {
    "torus": Quadruplet(
        Torus(),
        TorusSubgroup.cyclic(3),
        TorusPoint(0.4),
        0.3,
        LevyMeasure(((TorusPoint(2.1), 0.7), (TorusPoint(-1.3), 0.5))),
    ),
    "padic": Quadruplet(
        PadicIntegers(3),
        PadicSubgroup(2),
        PadicInt(3, (1, 2, 0, 0)),
        0.0,
        LevyMeasure(((PadicInt(3, (2, 1, 0, 0)), 0.9), (PadicInt(3, (0, 2, 2, 1)), 0.4))),
    ),
    "solenoid": Quadruplet(
        Solenoid(3),
        SolenoidSubgroup.full(),
        SolenoidPoint(3, 3, 0.2),
        0.4,
        LevyMeasure(((SolenoidPoint(3, 3, -0.5), 0.6), (SolenoidPoint(3, 3, 2.9), 0.3))),
    ),
}


def _rows_as_points(batch) -> list:
    """Each row of the batch as the scalar point it stores."""
    group, real, digits = batch.group, batch.real, batch.digits.tolist()
    if group.name == "torus":
        return [TorusPoint(angle) for angle in real.tolist()]
    if group.name == "padic":
        return [PadicInt(group.p, tuple(row)) for row in digits]
    return [solenoid_from_lift(group.p, len(row), base, row) for base, row in zip(real.tolist(), digits)]


@pytest.mark.parametrize("q", _EVERY_LAYER.values(), ids=_EVERY_LAYER.keys())
def test_batched_char_mean_is_the_mean_of_the_scalar_characters(q):
    batch = quadruplet_sampler(q)(make_rng(83), 50)
    points = _rows_as_points(batch)
    for chi in q.group.default_characters(3):
        want = sum(chi(x) for x in points) / 50
        for exact in (True, False):
            assert abs(char_mean(batch, chi, exact) - want) <= 1e-12, (chi, exact)


@pytest.mark.parametrize("q", _EVERY_LAYER.values(), ids=_EVERY_LAYER.keys())
def test_batches_compare_and_hash_as_distinct_objects(q):
    # the generated __eq__ compared the arrays and raised ValueError, and
    # the generated __hash__ raised TypeError on them
    sampler = quadruplet_sampler(q)
    a, b = sampler(make_rng(89), 5), sampler(make_rng(89), 5)
    assert a == a and a != b and not a == b
    assert hash(a) == hash(a)
    assert {a, b, a} == {a, b} and len({a, b}) == 2
    assert a in {a} and a not in {b}


@pytest.mark.parametrize("q", _EVERY_LAYER.values(), ids=_EVERY_LAYER.keys())
def test_an_empty_batch_has_no_character_mean(q):
    # a draw of 0 is a batch, but no character has a mean over it: numpy
    # gave nan after a "Mean of empty slice" or a divide warning
    batch = quadruplet_sampler(q)(make_rng(97), 0)
    assert len(batch) == 0
    for chi in q.group.default_characters():
        for exact in (True, False):
            with pytest.raises(ValueError, match="empty batch"):
                char_mean(batch, chi, exact)


@pytest.mark.parametrize("group", _COMBINE_GROUPS.values(), ids=_COMBINE_GROUPS.keys())
def test_char_mean_refuses_a_character_of_another_group(group):
    batch = _haar_batch(group)
    for other in _COMBINE_GROUPS.values():
        if other.character_type is not group.character_type:
            with pytest.raises(TypeError, match="character/batch mismatch"):
                char_mean(batch, other.default_characters(2)[-1])
    assert not batch._cache


# ---------------------------------------------------------------------------
# circle and solenoid means from cached powers of z = exp(i theta)

def _power_cases():
    """(batch, character type, [(d, angle column of depth d), ...]) for a
    freshly drawn torus batch and p=3, depth-3 solenoid batch."""
    eta = LevyMeasure(((TorusPoint(2.1), 0.7),))
    q = Quadruplet(Torus(), TorusSubgroup.trivial(), TorusPoint(0.5), 0.3, eta)
    torus = quadruplet_sampler(q)(make_rng(71), 5000)
    p, depth = 3, 3
    solenoid = _solenoid_haar_batch(make_rng(73), p, depth, 5000)
    columns = [
        (d, solenoid_coordinate(p, solenoid.real, solenoid.digits, d)) for d in range(depth + 1)
    ]
    return [
        (torus, TorusCharacter, [(0, torus.real)]),
        (solenoid, SolenoidCharacter, columns),
    ]


def _direct(column, ell):
    return complex(np.exp(1j * canonical_angle(ell * column)).mean())


def _character(kind, d, ell):
    return kind(ell) if kind is TorusCharacter else kind(d, ell)


def _reference_power_means(column, k):
    """The means of z**1 ... z**k with z = np.exp(1j * column): the sweep
    the single-buffer kernel must match bit for bit."""
    z = np.exp(1j * column)
    power, means = z.copy(), []
    for j in range(1, k + 1):
        if j > 1:
            power *= z
        means.append(complex(power.mean()))
    return means


def test_angle_char_mean_matches_np_exp_bit_for_bit_on_both_paths():
    for _, _, columns in _power_cases():
        for _, column in columns:
            before = column.copy()
            for ell in (1, -2, 7, 64, 65, -300, 2**31 - 1):
                got = _AngleMeans(lambda: column).mean(ell, exact=True)
                assert got == complex(np.exp(1j * canonical_angle(ell * column)).mean())
            work = _AngleMeans(lambda: column)
            for ell in (3, -1, 12):
                got = work.mean(ell, exact=False)
                want = _reference_power_means(column, abs(ell))[-1]
                assert got == (want if ell > 0 else want.conjugate())
            assert work.means == _reference_power_means(column, 12)
            assert np.array_equal(column, before)


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
        means = [work.means for work in batch._cache.values()]
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
                assert widlaws.verification.char_mean(batch, chi, True) == _direct(column, ell)


def test_power_path_mean_does_not_depend_on_which_row_asked_first():
    # two fresh copies of each batch: ell = 3 then 8 on one, 8 then 3 on the other
    for (up, kind, columns), (down, _, _) in zip(_power_cases(), _power_cases()):
        for d, _ in columns:
            small, big = _character(kind, d, 3), _character(kind, d, 8)
            first = (char_mean(up, small, exact=False), char_mean(up, big, exact=False))
            second = (char_mean(down, big, exact=False), char_mean(down, small, exact=False))
            assert first == second[::-1], (kind, d)


def _released_cases():
    """(draw(n), character type, depths, period) for an S_2 batch of
    depth 3 and a circle batch of Haar(C_3) and a shift.  On the circle
    the rows at multiples of the period 3 have |theory| = 1, so the
    engine reads them on the direct path between power-path rows."""
    cyclic = Quadruplet(Torus(), TorusSubgroup.cyclic(3), TorusPoint(0.4), 0.0, EMPTY_LEVY)
    return [
        (lambda n: _solenoid_haar_batch(make_rng(74), 2, 3, n), SolenoidCharacter, (1, 2, 3), None),
        (lambda n: quadruplet_sampler(cyclic)(make_rng(75), n), TorusCharacter, (0,), 3),
    ]


def test_direct_rows_after_a_sweep_equal_a_fresh_batch_bit_for_bit():
    # the sweep drops the angle column; exact rows and |ell| > MAX_POWER
    # rows after it re-read the column from the batch, to the bits of a
    # batch that never swept
    for draw, kind, depths, period in _released_cases():
        batch = draw(5000)
        for d in depths:
            for ell in range(-9, 10):
                chi = _character(kind, d, ell)
                exact = ell % period == 0 if period else ell in (-7, 2, 5)
                assert char_mean(batch, chi, exact) == char_mean(draw(5000), chi, exact), (kind, d, ell)
            for ell in (65, -100, 2**31 - 1):
                chi = _character(kind, d, ell)
                want = char_mean(draw(5000), chi)
                assert char_mean(batch, chi, exact=False) == want, (kind, d, ell)
                assert char_mean(batch, chi) == want, (kind, d, ell)


def test_direct_rows_read_the_column_once_until_a_sweep(monkeypatch):
    # every default-flag row takes the direct path, as a point-mass law's
    # rows do: the column of a depth is read by its first row and kept
    # for the rest, and only the first power sweep makes the next row
    # read it again; that second read is kept, so a depth reads its
    # column at most twice however its rows interleave
    reads, coordinate = [], Solenoid.coordinate

    def counted(self, real, digits, d):
        reads.append(d)
        return coordinate(self, real, digits, d)

    monkeypatch.setattr(Solenoid, "coordinate", counted)
    batch = _solenoid_haar_batch(make_rng(77), 2, 3, 1000)
    for d in (1, 2):
        for ell in (-3, 1, 2, 65):
            char_mean(batch, SolenoidCharacter(d, ell))
    assert reads == [1, 2]
    # the sweep takes the held column and drops it
    char_mean(batch, SolenoidCharacter(2, 5), exact=False)
    assert reads == [1, 2]
    char_mean(batch, SolenoidCharacter(2, 3))
    char_mean(batch, SolenoidCharacter(2, 100))
    assert reads == [1, 2, 2]
    char_mean(batch, SolenoidCharacter(2, 8), exact=False)
    char_mean(batch, SolenoidCharacter(2, -7))
    assert reads == [1, 2, 2]
    # rows of rising |ell| each extend the power means
    for ell in range(1, 9):
        char_mean(batch, SolenoidCharacter(3, ell), exact=False)
        char_mean(batch, SolenoidCharacter(3, ell + 64), exact=False)
    assert reads == [1, 2, 2, 3, 3]


def test_a_power_sweep_keeps_no_angle_column():
    # at 100,000 draws an angle column is 0.8 MB and z and the running
    # power 1.6 MB each: a sweep holds z and the power at its peak, and
    # the batch keeps only the power means after it (the cached column
    # made these 0.8 MB and 4.0 MB at coordinates d >= 1 of S_2)
    for draw, kind, depths, _ in _released_cases():
        batch = draw(100_000)
        for d in depths:
            tracemalloc.start()
            try:
                char_mean(batch, _character(kind, d, 8), exact=False)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert kept < 1e5 and peak < 3.5e6, (kind, d, kept, peak)
