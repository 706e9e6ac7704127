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
import io
import math
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

    @property
    def n(self) -> int:
        return int(self.w.shape[0])

    def phases(self) -> np.ndarray:
        """Phase angles in radians: +1 -> 0, -1 -> pi."""
        return np.where(self.w > 0, 0.0, np.pi)


def composite_phi(ch: ChannelRealization) -> np.ndarray:
    """The composite vector phi_bar = (conj(h_r) * g, conj(h_d)), exactly rescaled.

    Every entry is multiplied by one power of two, chosen so that the largest
    real or imaginary part lies in [0.5, 1). The scaling is exact, so it
    moves no angle, sign or comparison between sign patterns, and amplitudes
    built from the result can be squared without overflow or underflow. An
    all-zero vector is returned unchanged.
    """
    phi_bar = np.empty(ch.n + 1, dtype=complex)
    # written straight into phi_bar, so phi needs no copy of its own
    np.multiply(np.conj(ch.h_r), ch.g, out=phi_bar[:-1])
    phi_bar[-1] = np.conj(ch.h_d)
    parts = phi_bar.view(np.float64)
    top = max(float(parts.max()), -float(parts.min()))
    if top > 0.0:
        # ldexp, not a multiply by 2.0**-e, which overflows for a subnormal top
        np.ldexp(parts, -math.frexp(top)[1], out=parts)
    return phi_bar


def received_power(ch: ChannelRealization, config: PhaseConfig) -> float:
    """Received signal power |h_r^H diag(w) g + h_d^H|^2 * tx_power.

    Raises ValueError when the power is not finite, that is when it
    overflows a float; every solver's returned power comes from here.
    """
    if config.n != ch.n:
        raise ValueError(
            f"config has {config.n} elements but channel has {ch.n}"
        )
    amp = complex(np.vdot(ch.h_r, config.w * ch.g)) + ch.h_d.conjugate()
    # Python floats: an overflow gives inf rather than a numpy warning
    power = (amp.real * amp.real + amp.imag * amp.imag) * ch.tx_power
    if not math.isfinite(power):
        raise ValueError(f"received power overflows a float ({power})")
    return power


def snr_db(power: float, noise_power: float) -> float:
    """SNR in dB for a given received power; 0 power maps to -inf."""
    if noise_power <= 0:
        raise ValueError("noise_power must be > 0")
    if power < 0:
        raise ValueError("power must be >= 0")
    if power == 0.0:
        return float("-inf")
    return 10.0 * math.log10(power / noise_power)


def _complex_gaussian(rng: np.random.Generator, size: int, variance: float) -> np.ndarray:
    scale = math.sqrt(variance / 2.0)
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * scale


def generate_channel(n: int, seed: int, params: ChannelParams | None = None) -> ChannelRealization:
    """Draw an i.i.d. Rayleigh-faded channel realization.

    Deterministic for a given (n, seed, params): entries are drawn from
    np.random.default_rng(seed) in the fixed order g, h_r, h_d. Each entry is
    circularly-symmetric complex Gaussian with the per-entry variance from
    params; h_d is exactly 0 when params.los is false.

    Args:
        n: number of surface elements, must be >= 1.
        seed: seed for the generator.
        params: channel statistics; defaults to ChannelParams().

    Returns:
        A ChannelRealization with noise_power and tx_power copied from params.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if params is None:
        params = ChannelParams()
    rng = np.random.default_rng(seed)
    g = _complex_gaussian(rng, n, params.beta_g)
    h_r = _complex_gaussian(rng, n, params.beta_r)
    if params.los:
        h_d = complex(_complex_gaussian(rng, 1, params.beta_d)[0])
    else:
        h_d = 0.0 + 0.0j
    return ChannelRealization(
        g=g,
        h_r=h_r,
        h_d=h_d,
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
