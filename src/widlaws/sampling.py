"""Deterministic, seedable exact samplers and the batches they return.

Randomness comes from numpy Generators over the counter-based Philox
bit generator, keyed by a 64-bit seed plus a stream index through
SeedSequence(seed, spawn_key=(stream,)): the same pair always replays
the same sequence and distinct stream indices give statistically
independent streams.  Poisson counts use the generator's exact routine
(inversion for small means, transformed rejection for large ones) and
normal draws its exact ziggurat, so every sampler below realizes its
target law exactly, never through a normal approximation.

One sampler, quadruplet_sampler, draws every law on every group as the
image of a draw on its lift R x Z^k under the group's covering map: the
circle lifts to R and covers by reducing the angle, the p-adic integers
lift to Z^(depth+1) and cover by the carry, and S_p = (R x Delta_p)/Z
lifts to R x Z^depth and covers by solenoid_lift_matrix.  Each group's
share sits on its descriptor (groups._Group), so the draw has no branch
on the group.  It fills one float column (none on the p-adic integers)
and one column-major digit matrix in the narrowest unsigned dtype that
holds p - 1 (the descriptor's digit_dtype: uint8 for p <= 256), consuming
randomness in this order:

- the real column starts at the shift's base angle, so each layer adds
  into it as y0 + x rounds; the digits start at 0;
- the Haar layer of H: a uniform, cyclic or no real coordinate, added
  into the real column, then uniform digits from the subgroup's first
  digit on, in C order straight into the narrow matrix;
- the Gauss layer, added into the real column;
- the Poisson counts of every draw, as int32 (poisson_counts).

Each of these layers is drawn BLOCK draws at a time, in row order: the
generator's uniform, bounded integer, normal and Poisson draws take
the stream draw by draw, so the blocks hold the bits of one whole-batch
call while only one block of random numbers exists at a time.

Then each row block of BLOCK draws runs the six steps in one int64 work
block: (1) it takes the block's Haar digits, (2) adds the shift's digits,
(3) adds the sums of the block's jumps of eta's pushforward to the lift
into it, in one call of sample_compound_poisson on the block's counts,
which draws one uniform per jump in row order, (4) adds their real parts
to the block's real column, (5) subtracts the drift, and (6) covers the
block in place, writing its digits back narrow.  The blocks draw their
uniforms in row order, so the stream, and every bit of the batch, is
that of one whole-batch draw, while the draw's scratch is O(BLOCK) rows
and O(JUMP_BLOCK) jumps beside the batch and the counts (4 bytes a
draw).

Degenerate layers (trivial subgroup, zero variance, empty jump measure)
consume nothing, and the whole solenoid is no special case:
Haar(S_p) * mu = Haar(S_p) comes out of the same steps.  A row block's
jumps are taken in chunks of at most JUMP_BLOCK jumps, however few draws
carry them.  Each chunk stands alone: it draws its uniforms in row
order, picks their atoms at once by a branch-free level search of the
cumulative mass table, finds the rows that own its jumps off the
running jump count, and np.add.at adds every jump, in jump order, into
its row on R x Z^k.  The integer coordinates go straight into the work
block, exact, except those that are 0 in every atom; the real
coordinate goes into a column zeroed once per row block, or nowhere
when every atom's real part is 0, as on the p-adic integers.  So a
draw's real sum runs from 0.0 in jump order wherever the chunk
boundaries fall, and only then is added into the block's real column.

quadruplet_sampler returns the covered arrays as one batch type for
every group, Samples(group, real, digits): the real column (None on
the p-adic integers) and the narrow digit matrix (no columns on the
circle).  combine_samples(a, b) adds b's real column into a's and
carries the digit sum into a's digits block by block in the same way,
so a product of many factors holds one batch beside the factor; a
batch's columns(lo, hi) hands the group's dump columns of draws
lo..hi-1, computed on that slice only, so the dump can be written in
chunks without a per-draw form of the whole batch.  Batch digits are
stored narrow: cast them before any arithmetic, as the product, the
residues and the tower sweep do.

A batch is read by many characters (one verification suite draws one
batch), so it keeps the per-depth work of its character means in a
private cache, under one rule: only the work of the depth read last is
kept (the engine reads rows sorted by depth, so no depth's work is done
twice; a depth read again is worked again, to the same bits).  The
group builds that work and reads each mean off it (groups._Group's
mean_work and read_mean): the residues of x mod p**(d+1) with their
counts on the p-adic integers; on the circle and the solenoid, the
cached power means of coordinate d with its angle column, which is read
from the batch when a row first needs it and dropped by the first power
sweep once z is built (a later row reads it again and keeps it).  The
cache never changes a result, but it would go stale if a batch's arrays
changed, so combine_samples refuses a batch whose means were read.
"""

from __future__ import annotations

import math
import random
import sys
import types
from dataclasses import dataclass, field

import numpy as np

from .groups import TWO_PI
from .measures import LatticeMeasure, Quadruplet


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator for the (seed, stream) pair."""
    if "numpy.random" not in sys.modules and "secrets" not in sys.modules:
        _import_numpy_random()
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss))


def _import_numpy_random() -> None:
    """Import numpy.random without loading OpenSSL.

    numpy.random.bit_generator runs `from secrets import randbits` at
    import, and secrets imports hmac, which loads _hashlib and with it
    OpenSSL's libcrypto, resident for the rest of the process although a
    seeded draw never calls randbits.  While numpy.random is imported,
    sys.modules holds a stand-in secrets whose randbits is CPython's own
    (secrets.randbits is SystemRandom().getrandbits), so SeedSequence()
    without entropy still draws OS entropy.  The stand-in is removed
    afterwards, so a later `import secrets` loads the real module.
    """
    stand_in = types.ModuleType("secrets")
    stand_in.randbits = random.SystemRandom().getrandbits
    sys.modules["secrets"] = stand_in
    try:
        import numpy.random  # noqa: F401
    finally:
        if sys.modules.get("secrets") is stand_in:
            del sys.modules["secrets"]


# The most Poisson jumps one batch may hold.  The jump layer holds at
# most three 8-byte arrays per jump of one chunk of JUMP_BLOCK jumps
# (its uniforms and atom picks, then its picks, owners and the one
# coordinate of the picked atoms that np.add.at is adding), so its
# scratch stays near 6 MB however the jumps fall on the draws: a verify
# at the cap peaks at about 39 MB RSS with 10**7 jumps over 100,000
# draws and at about 38.5 MB with every jump on 100 draws.
# The stock fixtures draw about 1e5 jumps per batch.
MAX_JUMPS = 10**7
# The most jumps one chunk of the jump layer draws and sums at once.
JUMP_BLOCK = 2**18


# The most base-p digits one batch may hold, counted as
# draws * (depth + 1) on the p-adic integers and the solenoid and as
# draws on the circle, whose draw counts as one digit.  A digit costs
# 1 byte in the batch at p <= 256 (at most 4, _PrimeGroup.digit_dtype),
# so the cap keeps one batch at 10 MB to 40 MB, and 8 bytes in the int64
# work block of the draw and the carry, which holds one row block of
# BLOCK draws at the full width.  So the cap bounds the batch, not the
# work block: a verify at the cap peaks at 48 MB RSS with 100,000 draws
# at depth 99 (p = 2), but at 122-135 MB with 50 draws at depth 199,999
# (p = 3), whose one 50-row block is 80 MB.  On the circle it bounds the
# draws: a Gauss-only verify of 10**7 circle draws takes about 1.8 s and
# peaks at 414 MB RSS in the power sweep, which holds the real column
# and two complex columns.  The stock configs and demos hold under 6e6.
MAX_DIGITS = 10**7


def check_digit_budget(depth: int | None, draws: int):
    """Raise ValueError when `draws` draws of depth + 1 digits each hold
    more than MAX_DIGITS digits in total.  depth None is the circle,
    whose draw holds no digit and counts as one: the cap bounds its draws."""
    if depth is None:
        if draws > MAX_DIGITS:
            raise ValueError(f"{draws} circle draws, above the cap of {MAX_DIGITS} draws")
        return
    digits = draws * (depth + 1)
    if digits > MAX_DIGITS:
        raise ValueError(
            f"{draws} draws of depth + 1 = {depth + 1} digits hold {digits} digits, "
            f"above the cap of {MAX_DIGITS}"
        )


def check_jump_budget(levy, draws: int):
    """Raise ValueError when `draws` draws of a law with Levy measure levy
    expect more than MAX_JUMPS Poisson jumps in total (mass * draws)."""
    expected = levy.total_mass * draws
    if expected > MAX_JUMPS:
        raise ValueError(
            f"total mass {levy.total_mass:.6g} over {draws} draws expects {expected:.3g} "
            f"Poisson jumps, above the cap of {MAX_JUMPS}"
        )


def poisson_counts(rng, measure: LatticeMeasure, n: int) -> np.ndarray:
    """The Poisson(total mass) jump counts of n draws, as int32, drawn
    one row block at a time: the generator takes its stream draw by
    draw, so the counts are the bits of one whole call.  The empty
    measure draws no counts and consumes nothing.

    Raises ValueError, before anything per jump is allocated, when the
    drawn jump total exceeds MAX_JUMPS or, times the largest |integer
    entry| of an atom, reaches 2**63, where an int64 jump sum could wrap.
    A block is stored only while the running total is at most
    MAX_JUMPS < 2**31, so no stored count wraps; past it the remaining
    blocks are drawn and summed, so the refusal names the whole total.
    """
    masses = [m for _, _, m in measure.atoms]
    counts = np.zeros(n, dtype=np.int32)
    # summed in float: huge per-draw counts must not wrap int64
    jumps = 0.0
    if masses:
        mean = np.array(masses).sum()
        for rows in _row_blocks(n):
            block = rng.poisson(mean, size=rows.stop - rows.start)
            jumps += block.sum(dtype=float)
            if jumps <= MAX_JUMPS:
                counts[rows] = block
    if jumps > MAX_JUMPS:
        raise ValueError(f"{jumps:.3g} Poisson jumps drawn, above the cap of {MAX_JUMPS}")
    entry = max((abs(c) for _, ki, _ in measure.atoms for c in ki), default=0)
    if entry * int(jumps) >= 2**63:
        raise ValueError(
            f"{int(jumps)} Poisson jumps of integer entries up to {entry} may sum "
            "past the int64 range"
        )
    return counts


def _level_table(bounds) -> np.ndarray:
    """The sorted bounds padded with +inf to 2**L - 1 entries, for the
    least L with 2**L > len(bounds): the table _level_search reads."""
    size = 1 << len(bounds).bit_length()
    return np.concatenate([bounds, np.full(size - 1 - len(bounds), np.inf)])


def _level_search(table, u) -> np.ndarray:
    """How many bounds of a _level_table are <= each entry of u, as
    np.searchsorted(bounds, u, side="right") counts them, one bit per
    level from the top: a level adds step where u >= table[picks + step
    - 1].  Each level is a few branch-free numpy passes over u, where
    searchsorted's branchy search costs about 6 ns a key, most of a
    jump's cost on the one- or two-bound tables of the stock laws."""
    step = (len(table) + 1) // 2
    if not step:
        return np.zeros(len(u), dtype=np.intp)
    # the first level compares every u with one bound
    picks = step * (u >= table[step - 1])
    while step > 1:
        step //= 2
        picks += step * (u >= table[picks + (step - 1)])
    return picks


def sample_compound_poisson(rng, measure: LatticeMeasure, counts, ints) -> np.ndarray:
    """Adds the jump sums of draws with the given Poisson counts into the
    int64 matrix ints, one row per draw and one column per integer
    coordinate of R x Z^k, in place and exactly; returns their real
    parts, floats of shape (len(counts),).

    Each jump is an atom picked with probability mass/total by one
    uniform, in draw order: the atom's index is the number of cumulative
    mass bounds at or below the uniform, counted by _level_search.  The
    jumps are taken in chunks of at most JUMP_BLOCK, each drawing its
    uniforms in draw order and standing alone: it finds the rows that
    own its jumps and np.add.at adds each jump, in jump order, into its
    row of ints (but for a coordinate that is 0 in every atom) and of a
    real column zeroed once per call.  So each draw's real sum runs from
    0.0 in jump order wherever the chunks split it, and consecutive row
    blocks of counts, called in order with nothing else drawn from rng
    in between, give the bits of one call.
    A measure whose atoms all have real part 0 returns zeros for the
    real part without summing it; draws without jumps consume nothing.
    """
    n, k = len(counts), measure.int_dim
    masses = np.array([m for _, _, m in measure.atoms])
    # every bound but the last, which rounds near 1.0: a uniform past
    # every bound kept picks the last atom
    table = _level_table(np.cumsum(masses)[:-1] / masses.sum())
    atom_real = np.array([x for x, _, _ in measure.atoms])
    # one row per coordinate; a coordinate that is 0 in every atom adds nothing
    atom_ints = np.array([ki for _, ki, _ in measure.atoms], dtype=np.int64).reshape(
        len(measure.atoms), k
    ).T
    columns = [(j, column) for j, column in enumerate(atom_ints) if column.any()]
    # row i owns jumps ends[i] - counts[i] .. ends[i] - 1
    ends = np.cumsum(counts)
    real = np.zeros(n) if atom_real.any() else None
    jumps = int(ends[-1]) if n else 0
    for lo in range(0, jumps, JUMP_BLOCK):
        hi = min(lo + JUMP_BLOCK, jumps)
        picks = _level_search(table, rng.random(hi - lo))
        first, last = np.searchsorted(ends, [lo, hi - 1], side="right")
        end = ends[first : last + 1]
        share = np.minimum(end, hi) - np.maximum(end - counts[first : last + 1], lo)
        owner = np.repeat(np.arange(first, last + 1), share)
        for j, column in columns:
            np.add.at(ints[:, j], owner, column[picks])
        if real is not None:
            np.add.at(real, owner, atom_real[picks])
        # the next chunk's uniforms are drawn without these beside them
        del picks, owner
    # the zero column of the p-adic integers is made after the chunks:
    # made before them, a verify of 10**7 jumps over 100,000 draws
    # peaked 2 MB higher in RSS
    return np.zeros(n) if real is None else real


# The draws in one row block of a draw or of a product of batches: each
# block is lifted, covered and written back narrow in one int64 work
# block, so the scratch is O(BLOCK) rows whatever the batch size.
BLOCK = 8192


def _row_blocks(n: int) -> list:
    """Consecutive row slices of at most BLOCK rows covering 0..n-1."""
    return [slice(lo, min(lo + BLOCK, n)) for lo in range(0, n, BLOCK)]


def _add_in_blocks(column, draw) -> None:
    """Adds draw(m) into each row block of m rows of column, in row
    order, so the draws take the stream of one whole-column call while
    one block of them is held at a time."""
    for rows in _row_blocks(len(column)):
        part = column[rows]
        part += draw(len(part))


def _work_matrix(n: int, width: int) -> np.ndarray:
    """The int64 column-major work block that a draw or a product of n
    rows reuses for each row block; a block of m rows is work[:m]."""
    return np.empty((min(n, BLOCK), width), dtype=np.int64, order="F")


# ---------------------------------------------------------------------------
# the batch, its product and its character means

@dataclass(frozen=True, eq=False)
class Samples:
    """n draws on a group as its covered lift: real, the (n,) column of
    base angles in [-pi, pi) (None on the p-adic integers), and digits,
    the (n, width) narrow digit matrix (width 0 on the circle).  group
    is the descriptor that reads them (groups._Group).  Two batches are
    equal only when they are the same object, as their arrays are not
    compared."""

    group: object
    real: np.ndarray | None
    digits: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        want = (len(self.digits),) if self.group.real_coordinate else None
        real = None if self.real is None else np.shape(self.real)
        if np.ndim(self.digits) != 2 or real != want:
            raise ValueError(
                "need digits of shape (n, width) and a real column of shape (n,) "
                "exactly when the group has a real coordinate"
            )

    def __len__(self):
        return len(self.digits)

    def columns(self, lo: int, hi: int) -> list:
        """The group's dump columns of draws lo..hi-1."""
        real = None if self.real is None else self.real[lo:hi]
        return self.group.dump_columns(real, self.digits[lo:hi])


def combine_samples(a: Samples, b: Samples) -> Samples:
    """The group product of two batches of one group and shape, draw by
    draw, carried into a's arrays in place; returns a.  Each row block of
    the digit sum is covered in one int64 work block by group.cover, with
    the block's rows of the summed real column.  A batch a whose means
    were read is refused, as its cache would go stale."""
    if a.group != b.group or a.digits.shape != b.digits.shape:
        raise ValueError("mismatched batches: need one group and one shape")
    if a._cache:
        raise ValueError("a has cached character means: its arrays must not change")
    if a.real is not None:
        np.add(a.real, b.real, out=a.real)
    work = _work_matrix(*a.digits.shape)
    for rows in _row_blocks(len(a)):
        lift = work[: rows.stop - rows.start]
        np.add(a.digits[rows], b.digits[rows], out=lift, dtype=np.int64)
        a.group.cover(None if a.real is None else a.real[rows], lift)
        a.digits[rows] = lift
    return a


def char_mean(batch: Samples, chi, exact: bool = True) -> complex:
    """Mean of the character over the batch — the empirical CF — read by
    the group off the work of chi's depth, which the batch keeps until
    another depth is read (see the module docstring).  exact=False lets
    a circle or solenoid batch read the mean off its cached powers (see
    the descriptor's read_mean); the default keeps the direct
    evaluation.  An empty batch has no mean and raises ValueError."""
    if not isinstance(chi, batch.group.character_type):
        raise TypeError("character/batch mismatch")
    if not len(batch):
        raise ValueError("an empty batch has no character mean")
    if chi.d not in batch._cache:
        # the old depth's work is freed before the new one is built
        batch._cache.clear()
        batch._cache[chi.d] = batch.group.mean_work(batch.real, batch.digits, chi.d)
    return batch.group.read_mean(batch._cache[chi.d], chi, exact)


def quadruplet_sampler(q: Quadruplet, depth: int | None = None):
    """Batch sampler (rng, n) -> Samples for the quadruplet's group.

    depth defaults to the depth of the quadruplet's shift element; it is
    ignored on the circle.  Raises ValueError when depth is negative or
    deeper than the shift.
    """
    if depth is None:
        depth = q.shift.depth
    width = q.group.lift_width(depth, q.shift)
    return lambda rng, n: _draw(q, depth, width, rng, n)


def _draw(q: Quadruplet, depth, width: int, rng, size: int) -> Samples:
    """The six steps of the module docstring on `size` lifts of `width`
    digits each; returns the covered batch."""
    group, subgroup = q.group, q.subgroup
    real = np.full(size, group.base_angle(q.shift)) if group.real_coordinate else None
    digits = np.zeros((size, width), dtype=group.digit_dtype, order="F")
    if real is not None and subgroup.order is None:
        _add_in_blocks(real, lambda m: rng.uniform(0.0, TWO_PI, size=m))
    elif real is not None and subgroup.order > 1:
        k = subgroup.order
        _add_in_blocks(real, lambda m: rng.integers(0, k, size=m) * (TWO_PI / k))
    first = subgroup.first_digit
    if first is not None and first < width:
        for rows in _row_blocks(size):
            # each block keeps the C order that fixes which digit gets
            # which random number
            shape = (rows.stop - rows.start, width - first)
            digits[rows, first:] = rng.integers(0, group.p, size=shape, dtype=np.int64)
    if q.gauss_b > 0:
        sigma = math.sqrt(q.gauss_b)
        _add_in_blocks(real, lambda m: rng.normal(0.0, sigma, size=m))
    work = _work_matrix(size, width)
    counts = None
    if q.levy.atoms:
        measure = group.pushforward(q.levy, depth)
        counts = poisson_counts(rng, measure, size)
        drift = group.drift(q.levy)
    shift = np.array(q.shift.digits[:width], dtype=np.int64)
    for rows in _row_blocks(size):
        lift = work[: rows.stop - rows.start]
        np.add(digits[rows], shift, out=lift)
        part = None if real is None else real[rows]
        if counts is not None:
            jump_real = sample_compound_poisson(rng, measure, counts[rows], lift)
            if part is not None:
                part += jump_real
                part -= drift
        group.cover(part, lift)
        digits[rows] = lift
    return Samples(group, real, digits)
