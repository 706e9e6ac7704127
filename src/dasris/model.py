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
import itertools
import math
import os
import _thread
from dataclasses import dataclass

import numpy as np

CHANNEL_CSV_HEADER = ("idx", "g_re", "g_im", "hr_re", "hr_im")
CHANNEL_CSV_FOOTER_TAG = "hd"


class ChannelFormatError(ValueError):
    """Raised when a channel CSV file does not match the declared layout."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _check_powers(noise_power: float, tx_power: float) -> None:
    # written so that NaN fails: every comparison with NaN is false
    if not (math.isfinite(noise_power) and noise_power > 0):
        raise ValueError("noise_power must be finite and > 0")
    if not (math.isfinite(tx_power) and tx_power > 0):
        raise ValueError("tx_power must be finite and > 0")


@dataclass(frozen=True)
class ChannelParams:
    """Statistical parameters for drawing random channel realizations.

    beta_* are per-entry variances of the circularly-symmetric complex
    Gaussian entries. With los=False the direct link is exactly zero.
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


# a long row runs as parts of at least this many entries, one per usable
# CPU: below that, thread start-up, GIL hand-offs between passes and page
# faults on the split's buffers cost more than a second core saves (one part
# against two timed with das_solve at N = 2^14 to 2^21, see CHANGES.md)
_PART_MIN = 1 << 19


def _part_count(length: int) -> int:
    """How many parts a row of length entries runs as: 1 below 2 * _PART_MIN."""
    parts = length // _PART_MIN
    if parts < 2:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(parts, cpus)


def _run_parts(work, parts: int) -> list:
    """[work(p) for p in range(parts)], spread over this thread and parts - 1 others.

    With one part no thread is started. Otherwise parts - 1 threads are
    started without waiting for them to run (threading.Thread.start waits:
    0.4 ms median, 1.4 ms p90 on a 2-vCPU VM), and every thread, this one
    included, claims the next unclaimed part until none is left, so a thread
    that starts late takes fewer parts, or none, instead of holding the
    others up. The call returns once every thread it started has finished,
    so none outlives it. Each thread enters the caller's numpy error state,
    which numpy does not pass on to new threads, and the first exception a
    part raises on another thread is raised here.
    """
    if parts == 1:
        return [work(0)]
    err = np.geterr()
    results = [None] * parts
    errors: list[BaseException] = []
    claims = itertools.count()  # next() on it is atomic under the GIL

    def drain():
        p = next(claims)
        while p < parts:
            results[p] = work(p)
            p = next(claims)

    def worker(done):
        try:
            with np.errstate(**err):
                drain()
        except BaseException as exc:  # raised on the calling thread below
            errors.append(exc)
        finally:
            done.release()

    finished = []
    try:
        for _ in range(parts - 1):
            done = _thread.allocate_lock()
            done.acquire()
            _thread.start_new_thread(worker, (done,))
            finished.append(done)
        drain()
    finally:
        for done in finished:
            done.acquire()
    if errors:
        raise errors[0]
    return results


def _by_position(fn, parts: int, *arrays: np.ndarray) -> list:
    """fn(*arrays), split into parts by position along the last axis.

    The arrays share the length of their last axis. With one part fn runs
    once on the arrays themselves; otherwise part p calls fn on the p-th of
    parts consecutive column ranges of every array (views, so what fn
    writes lands in the arrays), the parts spread over threads by
    _run_parts. Returns fn's results in part order.
    """
    if parts == 1:
        return [fn(*arrays)]
    length = arrays[0].shape[-1]
    columns = [slice(length * p // parts, length * (p + 1) // parts) for p in range(parts)]
    return _run_parts(lambda p: fn(*(a[..., columns[p]] for a in arrays)), parts)


def _composite(g: np.ndarray, h_r: np.ndarray, h_d, parts: int | None = None) -> np.ndarray:
    """phi_bar = (conj(h_r) * g, conj(h_d)) along the last axis, each row rescaled.

    g and h_r are (..., N) and h_d is (...); the result is (..., N+1). Each
    row is multiplied by its own power of two, chosen so that the row's
    largest real or imaginary part lies in [0.5, 1); an all-zero row is left
    unchanged. Raises ValueError when a product conj(h_r) * g overflows.
    The products, the top and the rescaling run as parts parts by position
    (default _part_count(N+1)); every entry gets the same bits whatever the
    count.
    """
    n = g.shape[-1]
    if parts is None:
        parts = _part_count(n + 1)
    phi_bar = np.empty(g.shape[:-1] + (n + 1,), dtype=complex)
    # written straight into phi_bar, so phi needs no copy of its own; an
    # overflow shows as a non-finite top below, not as a numpy warning
    # not in place: numpy may take another complex-multiply loop then, whose
    # products can differ in the last bit
    with np.errstate(over="ignore", invalid="ignore"):
        _by_position(lambda hr, gg, out: np.multiply(np.conj(hr), gg, out=out),
                     parts, h_r, g, phi_bar[..., :-1])
    phi_bar[..., -1] = h_d.conjugate()
    floats = phi_bar.view(np.float64)
    # initial=0.0 changes no top, and lets a part hold no entries at all
    top = functools.reduce(np.maximum, _by_position(
        lambda f: np.maximum.reduce(np.abs(f), axis=-1, keepdims=True, initial=0.0),
        parts, floats))
    if not top.max() < math.inf:  # written so that NaN fails too
        raise ValueError("composite coefficient conj(h_r) * g overflows a float")
    # ldexp, not a multiply by 2.0**-e, which overflows for a subnormal top;
    # frexp(0) gives exponent 0, so an all-zero row keeps its values
    shift = -np.frexp(top)[1]
    _by_position(lambda f: np.ldexp(f, shift, out=f), parts, floats)
    return phi_bar


def composite_phi(ch: ChannelRealization) -> np.ndarray:
    """The composite vector phi_bar = (conj(h_r) * g, conj(h_d)), exactly rescaled.

    Every entry is multiplied by one power of two, chosen so that the largest
    real or imaginary part lies in [0.5, 1). The scaling is exact, so it
    moves no angle, sign or comparison between sign patterns, and amplitudes
    built from the result can be squared without overflow or underflow. An
    all-zero vector is returned unchanged. Raises ValueError when a product
    conj(h_r) * g overflows a float, as it can for finite g and h_r.
    """
    return _composite(ch.g, ch.h_r, ch.h_d)


def _power(h_r: np.ndarray, wg: np.ndarray, h_d: complex, tx_power: float) -> float:
    """tx_power * |h_r^H wg + conj(h_d)|^2 for one channel, wg = w * g.

    The one power formula: received_power and das_solve_block both call it,
    so a row of a block gets the same bits as its channel on its own. Raises
    ValueError when the power overflows a float.
    """
    amp = complex(np.vdot(h_r, wg)) + h_d.conjugate()
    # Python floats: an overflow gives inf rather than a numpy warning
    power = (amp.real * amp.real + amp.imag * amp.imag) * tx_power
    if not math.isfinite(power):
        raise ValueError(f"received power overflows a float ({power})")
    return power


def received_power(ch: ChannelRealization, config: PhaseConfig) -> float:
    """Received signal power |h_r^H diag(w) g + h_d^H|^2 * tx_power.

    Raises ValueError when the power is not finite, that is when it
    overflows a float; every solver's returned power comes from here.
    """
    if config.n != ch.n:
        raise ValueError(
            f"config has {config.n} elements but channel has {ch.n}"
        )
    return _power(ch.h_r, config.w * ch.g, ch.h_d, ch.tx_power)


def snr_db(power: float, noise_power: float) -> float:
    """SNR in dB for a given received power; 0 power maps to -inf."""
    if noise_power <= 0:
        raise ValueError("noise_power must be > 0")
    if power < 0:
        raise ValueError("power must be >= 0")
    if power == 0.0:
        return float("-inf")
    return 10.0 * math.log10(power / noise_power)


def _complex_gaussian(re: np.ndarray, im: np.ndarray, variance: float) -> np.ndarray:
    # (re + 1j * im) * scale, in place on one buffer: the same bits, one allocation
    z = 1j * im
    z += re
    z *= math.sqrt(variance / 2.0)
    return z


# numpy's SeedSequence (numpy/random/bit_generator.pyx) and PCG64 seeding
# constants, for reproducing both column by column
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# a group of fewer rows than this is seeded by numpy itself, one row at a
# time: there numpy's cost per row (about 15-20 us a SeedSequence, 20-25 us
# a default_rng draw at n = 16) undercuts the fixed cost of the column-wise
# routine (about 65-85 us a seed block, 90-120 us a block draw; 2-vCPU VM)
_BLOCK_ROWS = 6


def _hash_stream(init: int, mult: int, count: int) -> list[int]:
    """The first count values of a SeedSequence running hash constant."""
    values = [init]
    for _ in range(count - 1):
        values.append(values[-1] * mult & _MASK32)  # Python ints: no overflow warning
    return values


def _columns(*rows: list[int]) -> tuple[np.ndarray, ...]:
    return tuple(np.array(row, dtype=np.uint32)[:, None] for row in rows)


@functools.lru_cache(maxsize=None)
def _pool_constants(length: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(xor, multiplier) columns for each pool stage of SeedSequence, L = length words.

    numpy calls hashmix once per pool word, then once per ordered pair of
    pool words, then once per pool word for each entropy word past the pool
    size. Call k xors hash constant k and multiplies by constant k + 1. The
    calls are grouped into stages that run at once over the pool's rows; in
    a pair stage the source row's own slot holds 0s and is not used.
    """
    extra = max(0, length - _POOL_SIZE)
    stream = _hash_stream(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + extra) + 1)
    stages = [_columns(stream[:_POOL_SIZE], stream[1:_POOL_SIZE + 1])]
    at = _POOL_SIZE
    for src in range(_POOL_SIZE):
        xor, mult = [0] * _POOL_SIZE, [0] * _POOL_SIZE
        for dst in range(_POOL_SIZE):
            if dst != src:
                xor[dst], mult[dst] = stream[at], stream[at + 1]
                at += 1
        stages.append(_columns(xor, mult))
    for _ in range(extra):
        stages.append(_columns(stream[at:at + _POOL_SIZE], stream[at + 1:at + _POOL_SIZE + 1]))
        at += _POOL_SIZE
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

    entropy is an (L, T) uint32 array whose column t holds the L entropy
    words of one seed, as numpy assembles them (low word first, one word for
    0). Runs numpy's pool hash, its all-pairs mix and, for L above the pool
    size, its extra-entropy loop, then generate_state, each step over all T
    columns at once. Returns an (n_words, T) uint64 array whose column t is
    bit for bit numpy's output for column t alone.
    """
    length = entropy.shape[0]
    first, *stages = _pool_constants(length)
    pool = np.zeros((_POOL_SIZE, entropy.shape[1]), dtype=np.uint32)
    pool[:length] = entropy[:_POOL_SIZE]  # a missing word hashes as 0
    pool = _hashmix(pool, *first)
    for src, consts in enumerate(stages[:_POOL_SIZE]):
        keep = pool[src].copy()  # mixes into every other row, not its own
        pool = _mix(pool, _hashmix(keep, *consts))
        pool[src] = keep
    for word, consts in zip(entropy[_POOL_SIZE:], stages[_POOL_SIZE:]):
        pool = _mix(pool, _hashmix(word, *consts))
    rows, xor, mult = _state_constants(2 * n_words)
    state = _hashmix(pool[rows], xor, mult).astype(np.uint64)
    return state[0::2] | state[1::2] << np.uint64(32)  # little-endian word pairs


def _draw_seeded(normals: np.ndarray, seeds: dict[int, int]) -> None:
    """Fill normals[row] as np.random.default_rng(seed) would, for each row -> seed.

    Every seed is an int in [0, 2^64). The seeds' SeedSequence states come
    from _seed_state, and each row sets one reused PCG64 to the state
    PCG64's 128-bit seeding would reach: state 0, inc = (initseq << 1) | 1,
    one step, add initstate, one step.
    """
    values = np.array(list(seeds.values()), dtype=np.uint64)
    # numpy gives a seed below 2^32 one entropy word, but it hashes a missing
    # pool word as 0, so the words (seed, 0) give the same state
    words = np.stack((values, values >> np.uint64(32))).astype(np.uint32)
    state = _seed_state(words, 4).tolist()
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    for row, s_hi, s_lo, i_hi, i_lo in zip(seeds, *state):
        inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _MASK128,
                      "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        gen.standard_normal(out=normals[row])


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

    When at least _BLOCK_ROWS seeds are ints (or numpy integers) in
    [0, 2^64), their rows are seeded column-wise and drawn through one
    reused generator. Every other row goes through
    np.random.default_rng(seed) itself, with numpy's own errors.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    normals = np.empty((len(seeds), 4 * n + 2 * params.los))
    block: dict[int, int] = {}  # row -> seed
    for row, seed in enumerate(seeds):
        if type(seed) is int or isinstance(seed, np.integer):
            value = int(seed)
            if 0 <= value < 1 << 64:
                block[row] = value
                continue
        np.random.default_rng(seed).standard_normal(out=normals[row])
    if len(block) >= _BLOCK_ROWS:
        _draw_seeded(normals, block)
    else:
        for row, seed in block.items():
            np.random.default_rng(seed).standard_normal(out=normals[row])
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
    draw_channels, so entries are drawn from np.random.default_rng(seed) in
    the fixed order g, h_r, h_d. Each entry is circularly-symmetric complex
    Gaussian with the per-entry variance from params; h_d is exactly 0 when
    params.los is false.

    Args:
        n: number of surface elements, must be >= 1.
        seed: seed for the generator.
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
