"""Signal model for a receiver served through an N-element binary-phase surface.

The transmit signal reaches the receiver over a direct link h_d and over a
cascaded link: g into the surface, a per-element reflection coefficient
w_n = e^{j theta_n}, and h_r out of the surface. With 1-bit control each
theta_n is 0 or pi, so w_n is +1 or -1. The received amplitude is

    h_r^H diag(w) g + h_d^H = sum_n w_n * conj(h_r_n) * g_n + conj(h_d)

which motivates the composite per-element coefficient phi_n = conj(h_r_n) * g_n.
Appending conj(h_d) to phi and a fixed +1 to w homogenizes the objective so
that every quantity of interest is a function of one complex vector phi_bar.
"""

from __future__ import annotations

import cmath
import csv
import functools
import io
import math
import operator
from dataclasses import dataclass

import numpy as np

CHANNEL_CSV_HEADER = ("idx", "g_re", "g_im", "hr_re", "hr_im")
CHANNEL_CSV_FOOTER_TAG = "hd"


class ChannelFormatError(ValueError):
    """Raised when a channel CSV file does not match the declared layout."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _check_positive(name: str, value: float) -> None:
    # written so that NaN fails: every comparison with NaN is false
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0")


def _check_powers(noise_power: float, tx_power: float) -> None:
    _check_positive("noise_power", noise_power)
    _check_positive("tx_power", tx_power)


@dataclass(frozen=True)
class ChannelParams:
    """Statistical parameters for drawing random channel realizations.

    beta_* are per-entry variances of the circularly-symmetric complex
    Gaussian entries. With los=False the direct link is exactly zero; los
    must be a Python or numpy bool.
    """

    beta_g: float = 1.0
    beta_r: float = 1.0
    beta_d: float = 1.0
    los: bool = True
    noise_power: float = 1.0
    tx_power: float = 1.0

    def __post_init__(self):
        for name in ("beta_g", "beta_r", "beta_d"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0")
        # an int would draw 2 * los normals for h_d, and another type fail later
        if not isinstance(self.los, (bool, np.bool_)):
            raise ValueError(f"los must be a bool, not {self.los!r}")
        _check_powers(self.noise_power, self.tx_power)


@dataclass(frozen=True)
class ChannelRealization:
    """One realization of the links around the surface.

    g and h_r are stored unconjugated; every consumer applies the conjugation
    it needs. h_d is the scalar direct link (0 when there is none).
    """

    g: np.ndarray
    h_r: np.ndarray
    h_d: complex
    noise_power: float
    tx_power: float = 1.0

    def __post_init__(self):
        g = np.atleast_1d(np.asarray(self.g, dtype=complex))
        h_r = np.atleast_1d(np.asarray(self.h_r, dtype=complex))
        if g.ndim != 1 or h_r.ndim != 1:
            raise ValueError("g and h_r must be one-dimensional")
        if g.shape[0] != h_r.shape[0]:
            raise ValueError(
                f"g has {g.shape[0]} elements but h_r has {h_r.shape[0]}"
            )
        if g.shape[0] < 1:
            raise ValueError("channel needs at least one surface element")
        # a NaN or inf coefficient would make every power NaN and the optimum meaningless
        if not (np.isfinite(g).all() and np.isfinite(h_r).all()):
            raise ValueError("g and h_r must be finite")
        h_d = complex(self.h_d)
        if not cmath.isfinite(h_d):
            raise ValueError("h_d must be finite")
        _check_powers(self.noise_power, self.tx_power)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h_r", h_r)
        object.__setattr__(self, "h_d", h_d)

    @property
    def n(self) -> int:
        return int(self.g.shape[0])


@dataclass(frozen=True)
class PhaseConfig:
    """A binary reflection pattern, one +1/-1 entry per surface element."""

    w: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.w))
        if w.ndim != 1 or w.shape[0] < 1:
            raise ValueError("w must be a non-empty vector")
        if not np.all((w == 1) | (w == -1)):
            raise ValueError("w entries must be +1 or -1")
        object.__setattr__(self, "w", w.astype(np.int64))

    @classmethod
    def _trusted(cls, w: np.ndarray) -> "PhaseConfig":
        """Wrap an int64 +-1 vector that the library built as such: no check, no copy."""
        config = object.__new__(cls)
        object.__setattr__(config, "w", w)
        return config

    @property
    def n(self) -> int:
        return int(self.w.shape[0])


@dataclass(frozen=True)
class Solution:
    """A solver's configuration, its received power and its objective evaluations.

    power is received_power's value for (channel, config), bit for bit, so
    results from different solvers compare exactly. evaluations counts the
    candidates a solver scored: N + 1 prefix scores for das_solve, 2^N for
    exhaustive_search, its single-flip probes for greedy_bitflip, and k for
    random_best_of_k.
    """

    config: PhaseConfig
    power: float
    evaluations: int


# the same test catches a NaN or inf input: it reaches the composite's top
_OVERFLOW = ("composite coefficient conj(h_r) * g overflows a float, "
             "or g, h_r or h_d holds a NaN or inf")


# a decorator sets numpy's error state per call, so threads may run what it
# wraps at once: a shared with-block object raises TypeError on a second entry
_overflow_quiet = np.errstate(over="ignore", invalid="ignore")


@_overflow_quiet
def _product(h_r: np.ndarray, g: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The composite product conj(h_r) * g; an overflow gives inf or nan, not a warning.

    A 1-D out of two or more entries takes conj(h_r) and is multiplied in
    place, with no temporary: the same bits as through one. Every other
    out keeps the temporary, as numpy's in-place loop differs there by an
    ulp. It multiplies a lone entry without a fused multiply-add (9 of 60
    one-entry rows differed), and a (T, 1) block's strided column by
    another loop than a channel alone (15 of the 40 rows of
    draw_channels(1, range(100, 140), beta_g=2) differed).
    """
    if out is not None and out.ndim == 1 and len(out) > 1:
        np.conjugate(h_r, out)
        return np.multiply(out, g, out)
    return np.multiply(np.conj(h_r), g, out)


def _composite(g: np.ndarray, h_r: np.ndarray, h_d) -> np.ndarray:
    """phi_bar = (conj(h_r) * g, conj(h_d)) along the last axis, each row rescaled.

    g and h_r are (..., N) and h_d is (...); the result is (..., N+1). Each
    row is multiplied by its own power of two, chosen so that the row's
    largest real or imaginary part lies in [0.5, 1); an all-zero row is left
    unchanged. Raises ValueError when a product conj(h_r) * g overflows, or
    when g, h_r or h_d holds a NaN or inf.
    This is the composite of a short row and of a block: das builds a long
    row's composite in parts (das._long_composite), with the same bits.
    """
    # the product goes straight into phi_bar, so phi needs no copy of its
    # own, and an overflow shows as a non-finite top below; out by position:
    # a keyword costs the decorator's wrapper a dict per call. ldexp, not a
    # multiply by 2.0**-e, which overflows for a subnormal top; frexp(0)
    # gives exponent 0, so an all-zero row keeps its values
    if g.ndim == 1:
        # das_solve 11.6% faster than with the block form below (median of
        # per-round ratios, A/B, 41 of 41 rounds);
        # one row: shapes and slices without an Ellipsis, and the exponent of
        # a Python float, not of a (1,) array, which halves the rescale's
        # cost (3.3 against 6.7 us at N = 64, timeit best of 5); math.frexp
        # and np.frexp agree down to the smallest subnormal
        phi_bar = np.empty(len(g) + 1, dtype=complex)
        _product(h_r, g, phi_bar[:-1])
        phi_bar[-1] = h_d.conjugate()
        floats = phi_bar.view(np.float64)
        top = float(np.maximum.reduce(np.abs(floats)))
        if not top < math.inf:  # written so that NaN fails too
            raise ValueError(_OVERFLOW)
        np.ldexp(floats, -math.frexp(top)[1], floats)
        return phi_bar
    phi_bar = np.empty(g.shape[:-1] + (g.shape[-1] + 1,), dtype=complex)
    _product(h_r, g, phi_bar[..., :-1])
    phi_bar[..., -1] = h_d.conjugate()
    floats = phi_bar.view(np.float64)
    top = np.abs(floats).max(-1, keepdims=True)
    if not top.max() < math.inf:
        raise ValueError(_OVERFLOW)
    np.ldexp(floats, -np.frexp(top)[1], out=floats)
    return phi_bar


def composite_phi(ch: ChannelRealization) -> np.ndarray:
    """The composite vector phi_bar = (conj(h_r) * g, conj(h_d)), exactly rescaled.

    Every entry is multiplied by one power of two, chosen so that the largest
    real or imaginary part lies in [0.5, 1). The scaling is exact for every
    entry it leaves normal, so it moves no angle, sign or comparison there;
    an entry it makes subnormal is rounded, and its angle can move: g =
    [1e300, 3e-20+7e-21j, -2e-20+5e-21j] with h_r = ones moves the second
    entry's angle from 0.229232 to 0.229295. The solvers' optimum is exact
    over this function's output. Amplitudes built from the result can be
    squared without overflow or underflow. An
    all-zero vector is returned unchanged. Raises ValueError when a product
    conj(h_r) * g overflows a float, as it can for finite g and h_r.
    """
    return _composite(ch.g, ch.h_r, ch.h_d)


_POWER_OVERFLOW = "received power overflows a float, or an input holds a NaN or inf ({})"


def _amp_power(amp: complex, tx_power: float) -> float:
    # Python floats: an overflow gives inf rather than a numpy warning
    power = (amp.real * amp.real + amp.imag * amp.imag) * tx_power
    if not math.isfinite(power):
        raise ValueError(_POWER_OVERFLOW.format(power))
    return power


@_overflow_quiet
def _block_powers(amps: np.ndarray, tx_power: float) -> list[float]:
    """_amp_power of every amplitude in amps, as a list: the same IEEE operations, unfused.

    Raises _amp_power's ValueError for the first power that is not finite.
    """
    re, im = amps.real, amps.imag
    powers = re * re
    powers += im * im
    powers *= tx_power
    finite = np.isfinite(powers)
    if not finite.all():
        raise ValueError(_POWER_OVERFLOW.format(float(powers[finite.argmin()])))
    return powers.tolist()


# the entries of one BLAS call in a long power's dot product: OpenBLAS
# splits a zdotc of more than 10,000 entries across its threads, and the
# sum's bits then follow their count
_DOT_CHUNK = 8192


def _power(h_r: np.ndarray, wg: np.ndarray, h_d, tx_power: float):
    """tx_power * |h_r^H wg + conj(h_d)|^2 along the last axis, wg = w * g.

    The one power formula. received_power passes one channel, (N,) vectors
    and a complex h_d, and gets a float; das_solve_block passes a block,
    (T, N) and (T,), and gets a list of T floats from one np.vecdot. Both
    np.vdot on one row and np.vecdot on a block run the BLAS conjugated dot
    product (zdotc) row by row, so a row of a block gets the same bits as
    its channel on its own; on one row np.vdot costs about 0.4 us less
    (timeit, 2-vCPU VM): das_solve 2.9% faster than with np.vecdot (median
    of per-round ratios, A/B, 33 of 41 rounds). A row of more than
    _DOT_CHUNK entries is summed as whole chunks of _DOT_CHUNK, one zdotc
    each, added left to right, then its remainder: the same bits for any
    number of BLAS threads, on one row and as a row of a block. A block's
    amplitudes become powers as one float64 array (_block_powers), the same
    operations as _amp_power's on each, with one finiteness check and one
    tolist(): a (100, 64) block's _power took 12 against 27 us with one
    _amp_power call a row (timeit, 2-vCPU VM).
    Raises ValueError when a power overflows a float or is NaN; in a block,
    for its first such row.
    """
    # the short row first, through len(): 2.32 against 2.47 us a call with
    # the length read from shape[-1] first (timeit at N = 64, median of 21
    # interleaved rounds)
    if h_r.ndim == 1 and len(h_r) <= _DOT_CHUNK:
        return _amp_power(complex(np.vdot(h_r, wg)) + h_d.conjugate(), tx_power)
    amps = _amplitudes(h_r, wg, h_d)
    if h_r.ndim == 1:
        return _amp_power(complex(amps), tx_power)
    return _block_powers(amps, tx_power)


@_overflow_quiet  # np.vecdot is a ufunc: an overflow would warn, not give inf
def _amplitudes(h_r: np.ndarray, wg: np.ndarray, h_d) -> np.ndarray:
    """h_r^H wg + conj(h_d) along the last axis, as _power sums it with np.vecdot.

    A row is summed as its whole chunks of _DOT_CHUNK, added left to right,
    then its remainder; a row of _DOT_CHUNK entries or fewer is all
    remainder.
    """
    n = h_r.shape[-1]
    whole = n - n % _DOT_CHUNK
    dots = np.vecdot(h_r[..., whole:], wg[..., whole:])
    if whole:
        chunks = h_r.shape[:-1] + (-1, _DOT_CHUNK)
        sums = np.vecdot(h_r[..., :whole].reshape(chunks), wg[..., :whole].reshape(chunks))
        # accumulate adds in order, where a reduce would add pairwise
        np.add.accumulate(sums, axis=-1, out=sums)
        dots = sums[..., -1] + dots
    return dots + h_d.conjugate()


def received_power(ch: ChannelRealization, config: PhaseConfig) -> float:
    """Received signal power |h_r^H diag(w) g + h_d^H|^2 * tx_power.

    Raises ValueError when the power is not finite, that is when it
    overflows a float; every solver's returned power comes from here.
    """
    # shapes, not the n properties: two fewer Python calls on every solve
    if config.w.shape != ch.g.shape:
        raise ValueError(
            f"config has {config.n} elements but channel has {ch.n}"
        )
    return _power(ch.h_r, config.w * ch.g, ch.h_d, ch.tx_power)


def snr_db(power: float, noise_power: float) -> float:
    """SNR in dB for a given received power; 0 power maps to -inf.

    Raises ValueError for a noise power that is not finite and > 0, and for
    a power that is not finite and >= 0. A positive power gives a finite
    SNR even where power / noise_power underflows to 0 or overflows to inf.
    """
    _check_positive("noise_power", noise_power)
    # written so that NaN fails: every comparison with NaN is false
    if not (math.isfinite(power) and power >= 0):
        raise ValueError("power must be finite and >= 0")
    if power == 0.0:
        return float("-inf")
    ratio = power / noise_power
    if 0.0 < ratio < math.inf:
        return 10.0 * math.log10(ratio)
    # the quotient left the double range: the difference of logs does not
    return 10.0 * (math.log10(power) - math.log10(noise_power))


def _complex_gaussian(re: np.ndarray, im: np.ndarray, variance: float) -> np.ndarray:
    # (re + 1j * im) * scale, in place on one buffer: the same bits, one allocation
    z = 1j * im
    z += re
    z *= math.sqrt(variance / 2.0)
    return z


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx), for
# reproducing it column by column
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# a group of fewer rows than this is seeded by numpy itself, one row at a
# time: there numpy's cost per row (about 15-20 us a SeedSequence, 20-25 us
# a row's draw at n = 16) undercuts the fixed cost of the column-wise
# routine (about 65-90 us a seed block, 70-80 us a block draw of 2 to 5
# rows at n = 16; 2-vCPU VM); one row's seeds 74% and its draw 56% cheaper
# (median of per-round ratios, A/B, 21 of 21 rounds); seeds and draw of 6
# rows at n = 16 took 0.146 against 0.157 ms row by row (best of 5 runs)
_BLOCK_ROWS = 6


def _hash_stream(init: int, mult: int, count: int) -> list[int]:
    """The first count values of a SeedSequence running hash constant."""
    values = [init]
    for _ in range(count - 1):
        values.append(values[-1] * mult & _MASK32)  # Python ints: no overflow warning
    return values


def _columns(*rows: list[int]) -> tuple[np.ndarray, ...]:
    return tuple(np.array(row, dtype=np.uint32)[:, None] for row in rows)


@functools.cache
def _pool_constants() -> list[tuple[np.ndarray, np.ndarray]]:
    """(xor, multiplier) columns for each pool stage of SeedSequence.

    numpy calls hashmix once per pool word, then once per ordered pair of
    pool words; an entropy of at most _POOL_SIZE words makes no other call.
    Call k xors hash constant k and multiplies by constant k + 1. The calls
    are grouped into stages that run at once over the pool's rows; in a
    pair stage the source row's own slot holds 0s and is not used.
    """
    stream = _hash_stream(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE + 1)
    stages = [_columns(stream[:_POOL_SIZE], stream[1:_POOL_SIZE + 1])]
    at = _POOL_SIZE
    for src in range(_POOL_SIZE):
        xor, mult = [0] * _POOL_SIZE, [0] * _POOL_SIZE
        for dst in range(_POOL_SIZE):
            if dst != src:
                xor[dst], mult[dst] = stream[at], stream[at + 1]
                at += 1
        stages.append(_columns(xor, mult))
    return stages


@functools.lru_cache(maxsize=None)
def _state_constants(words: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """generate_state's pool rows (it cycles the pool), xors and multipliers for words output words."""
    stream = _hash_stream(_INIT_B, _MULT_B, words + 1)
    return (np.arange(words) % _POOL_SIZE, *_columns(stream[:-1], stream[1:]))


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    # uint32 arrays wrap without a warning, unlike numpy scalars
    value = value ^ xor
    value *= mult
    value ^= value >> np.uint32(16)
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L)
    result -= y * np.uint32(_MIX_MULT_R)
    result ^= result >> np.uint32(16)
    return result


def _seed_state(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence(words).generate_state(n_words, np.uint64) for every column of entropy.

    entropy is an (L, T) uint32 array, L <= _POOL_SIZE, whose column t holds
    the L entropy words of one seed, as numpy assembles them (low word
    first, one word for 0). Runs numpy's pool hash, its all-pairs mix and
    generate_state, each step over all T columns at once. Returns an
    (n_words, T) uint64 array whose column t is bit for bit numpy's output
    for column t alone. A longer entropy raises ValueError: numpy mixes its
    extra words in a loop that this does not run.
    """
    first, *stages = _pool_constants()
    pool = np.zeros((_POOL_SIZE, entropy.shape[1]), dtype=np.uint32)
    # a missing word hashes as 0; a fifth word has no row and fails to broadcast
    pool[:len(entropy)] = entropy
    pool = _hashmix(pool, *first)
    for src, consts in enumerate(stages):
        keep = pool[src].copy()  # mixes into every other row, not its own
        pool = _mix(pool, _hashmix(keep, *consts))
        pool[src] = keep
    rows, xor, mult = _state_constants(2 * n_words)
    state = _hashmix(pool[rows], xor, mult).astype(np.uint64)
    return state[0::2] | state[1::2] << np.uint64(32)  # little-endian word pairs


@functools.cache
def _row_seed_type() -> type:
    """An ISeedSequence whose generate_state hands out one row's precomputed words.

    Built on first use, not at import: the base class lives in numpy.random,
    which import numpy alone does not load, and loading it costs every
    process that never draws a block about 12 ms.
    """
    from numpy.random.bit_generator import ISeedSequence

    class RowSeed(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks once for its four words and reads the buffer raw
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError(f"a row seed holds 4 uint64 words, not {n_words} {dtype}")
            return self.words

    return RowSeed


def _seed_block(head: tuple, tails, n_words: int) -> np.ndarray:
    """SeedSequence((*head, tails[t])).generate_state(n_words, np.uint64) as row t.

    Returns a C-contiguous (T, n_words) uint64 block, T = len(tails); with
    an empty head, row t is SeedSequence(tails[t])'s. The one rule for the
    column-wise replica: at least _BLOCK_ROWS tails, every head entry and
    tail an int or numpy integer >= 0, every tail below 2^64, and the
    head's words and the widest tail's fit the pool. numpy gives an int one
    uint32 word per 32 bits, low word first and one word for 0, and hashes
    a missing last word as 0, so a one-word tail shares its block with
    two-word ones. Every other block is built by numpy's SeedSequence, row
    by row, with numpy's own errors.
    """
    tails = tuple(tails)
    values = head + tails
    if len(tails) >= _BLOCK_ROWS and all(
            kind is int or issubclass(kind, np.integer) for kind in set(map(type, values))
    ) and min(values) >= 0:
        words = [value >> shift & _MASK32 for value in map(int, head)
                 for shift in range(0, value.bit_length() or 1, 32)]
        top = int(max(tails))
        width = 1 if top <= _MASK32 else 2
        if top < 1 << 64 and len(words) + width <= _POOL_SIZE:
            entropy = np.empty((len(words) + width, len(tails)), dtype=np.uint32)
            entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
            # a little-endian uint64 read as two uint32s: low word, then high
            entropy[len(words):] = np.array(tails, "<u8").view("<u4").reshape(-1, 2).T[:width]
            # C order: PCG64 reads a row's buffer raw
            return _seed_state(entropy, n_words).T.copy()
    return np.array(
        [np.random.SeedSequence((*head, tail) if head else tail).generate_state(n_words, np.uint64)
         for tail in tails], dtype=np.uint64).reshape(len(tails), n_words)


def draw_channels(
    n: int, seeds, params: ChannelParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one i.i.d. Rayleigh-faded channel per seed, as rows of blocks.

    Returns g and h_r as (T, n) blocks and h_d as a (T,) block, T = len(seeds).
    Row t comes from np.random.default_rng(seeds[t]) alone, drawn in the fixed
    order g, h_r, h_d (real parts, then imaginary parts), so a row does not
    depend on the other seeds. Each entry is circularly-symmetric complex
    Gaussian with the per-entry variance from params; h_d is exactly 0 when
    params.los is false. The block is checked once: every entry is finite.

    A seed is what np.random.SeedSequence takes: an int of any size, a
    numpy integer or a sequence of ints; a negative seed or 1.5 raises
    numpy's own error. A SeedSequence, BitGenerator or Generator object is
    not a seed here. The seeds' SeedSequence words come from one
    _seed_block call, which mixes a large block of ints column-wise, and
    each row is drawn by a PCG64 seeded with its own four words through
    numpy's public ISeedSequence interface: PCG64 runs its own 128-bit
    seeding on exactly the words default_rng(seed) would give it.
    Raises ValueError unless n is an integer >= 1.
    """
    try:  # operator.index takes ints and numpy integers, not 4.7 or 4.0
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"n must be an integer, not {n!r}") from None
    if n < 1:
        raise ValueError("n must be >= 1")
    normals = np.empty((len(seeds), 4 * n + 2 * params.los))
    row_seed = _row_seed_type()
    pcg64, generator = np.random.PCG64, np.random.Generator
    for row, state in zip(normals, _seed_block((), seeds, 4)):
        generator(pcg64(row_seed(state))).standard_normal(out=row)
    g = _complex_gaussian(normals[:, :n], normals[:, n:2 * n], params.beta_g)
    h_r = _complex_gaussian(normals[:, 2 * n:3 * n], normals[:, 3 * n:4 * n], params.beta_r)
    if params.los:
        h_d = _complex_gaussian(normals[:, -2], normals[:, -1], params.beta_d)
    else:
        h_d = np.zeros(len(seeds), dtype=complex)
    if not (np.isfinite(g).all() and np.isfinite(h_r).all() and np.isfinite(h_d).all()):
        raise ValueError("drawn channel coefficients must be finite")
    return g, h_r, h_d


def generate_channel(n: int, seed: int, params: ChannelParams | None = None) -> ChannelRealization:
    """Draw an i.i.d. Rayleigh-faded channel realization.

    Deterministic for a given (n, seed, params): the one-row case of
    draw_channels, so entries are drawn bit for bit as from
    np.random.default_rng(seed), in the fixed order g, h_r, h_d, and seed
    is any seed draw_channels takes: an int of any size, a numpy integer
    or a sequence of ints. Each entry is circularly-symmetric complex
    Gaussian with the per-entry variance from params; h_d is exactly 0 when
    params.los is false.

    Args:
        n: number of surface elements, an integer >= 1.
        seed: seed for the generator; numpy's error for a negative one or 1.5.
        params: channel statistics; defaults to ChannelParams().

    Returns:
        A ChannelRealization with noise_power and tx_power copied from params.
    """
    if params is None:
        params = ChannelParams()
    g, h_r, h_d = draw_channels(n, (seed,), params)
    return ChannelRealization(
        g=g[0],
        h_r=h_r[0],
        h_d=h_d[0],
        noise_power=params.noise_power,
        tx_power=params.tx_power,
    )


def _fmt(x: float) -> str:
    # shortest decimal that round-trips the double exactly (<= 17 significant digits)
    return repr(float(x))


def write_channel_csv(ch: ChannelRealization, fp: io.TextIOBase) -> None:
    """Write a channel to CSV: an indexed row per element, then the footer.

    Layout:
        idx,g_re,g_im,hr_re,hr_im
        1,<g1.re>,<g1.im>,<hr1.re>,<hr1.im>
        ...
        hd,<re>,<im>,<noise_power>,<tx_power>
    """
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(CHANNEL_CSV_HEADER)
    for i in range(ch.n):
        writer.writerow(
            [i + 1, _fmt(ch.g[i].real), _fmt(ch.g[i].imag),
             _fmt(ch.h_r[i].real), _fmt(ch.h_r[i].imag)]
        )
    writer.writerow(
        [CHANNEL_CSV_FOOTER_TAG, _fmt(ch.h_d.real), _fmt(ch.h_d.imag),
         _fmt(ch.noise_power), _fmt(ch.tx_power)]
    )


def _parse_float(token: str, line: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ChannelFormatError(line, f"cannot parse {what} from {token!r}") from None
    if not math.isfinite(value):
        raise ChannelFormatError(line, f"{what} must be finite, got {token!r}")
    return value


def read_channel_csv(fp: io.TextIOBase) -> ChannelRealization:
    """Parse a channel CSV written by write_channel_csv.

    Raises ChannelFormatError with a 1-based line number on any deviation
    from the layout, including a missing 'hd' footer row.
    """
    rows = list(csv.reader(fp))
    if not rows or tuple(rows[0]) != CHANNEL_CSV_HEADER:
        raise ChannelFormatError(1, f"expected header {','.join(CHANNEL_CSV_HEADER)}")
    g: list[complex] = []
    h_r: list[complex] = []
    footer: tuple[int, list[str]] | None = None
    for offset, row in enumerate(rows[1:]):
        line = offset + 2
        if not row:
            raise ChannelFormatError(line, "blank row")
        if row[0] == CHANNEL_CSV_FOOTER_TAG:
            footer = (line, row)
            if offset != len(rows) - 2:
                raise ChannelFormatError(line, "'hd' footer row must be the last row")
            break
        if len(row) != 5:
            raise ChannelFormatError(line, f"expected 5 fields, got {len(row)}")
        try:
            idx = int(row[0])
        except ValueError:
            raise ChannelFormatError(line, f"cannot parse element index from {row[0]!r}") from None
        if idx != len(g) + 1:
            raise ChannelFormatError(line, f"expected element index {len(g) + 1}, got {idx}")
        g.append(complex(_parse_float(row[1], line, "g_re"),
                         _parse_float(row[2], line, "g_im")))
        h_r.append(complex(_parse_float(row[3], line, "hr_re"),
                           _parse_float(row[4], line, "hr_im")))
    if footer is None:
        raise ChannelFormatError(len(rows) + 1, "missing 'hd' footer row")
    line, row = footer
    if len(row) != 5:
        raise ChannelFormatError(line, f"footer expects 5 fields, got {len(row)}")
    if not g:
        raise ChannelFormatError(line, "no element rows before the footer")
    h_d = complex(_parse_float(row[1], line, "hd re"),
                  _parse_float(row[2], line, "hd im"))
    noise_power = _parse_float(row[3], line, "noise_power")
    tx_power = _parse_float(row[4], line, "tx_power")
    try:
        return ChannelRealization(
            g=np.array(g), h_r=np.array(h_r), h_d=h_d,
            noise_power=noise_power, tx_power=tx_power,
        )
    except ValueError as exc:
        raise ChannelFormatError(line, str(exc)) from None
