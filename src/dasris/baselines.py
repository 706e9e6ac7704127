"""Reference optimizers and bounds to benchmark the sort-based solver against."""

from __future__ import annotations

import math
import operator

import numpy as np

from .model import (ChannelRealization, PhaseConfig, Solution, _overflow_quiet, _product,
                    composite_phi, received_power)

EXHAUSTIVE_LIMIT = 20
# bytes of one grid chunk of exhaustive_search, per real and imaginary part:
# small enough to stay in cache while it is squared, summed and scanned
_CHUNK_BYTES = 1 << 18


class ExhaustiveLimitError(ValueError):
    """Raised when a brute-force search would exceed its fixed size cap."""


def _solution(ch: ChannelRealization, w: np.ndarray, evaluations: int) -> Solution:
    """The Solution of configuration w, its power re-evaluated by received_power."""
    config = PhaseConfig(w=w)
    return Solution(config=config, power=received_power(ch, config), evaluations=evaluations)


def _signed_sums(phi: np.ndarray, base: complex) -> np.ndarray:
    """base plus every signed sum of phi; index bit k set means phi[k] enters negated."""
    sums = np.array([base], dtype=complex)
    for p in phi:
        sums = np.concatenate((sums + p, sums - p))
    return sums


def exhaustive_search(ch: ChannelRealization) -> Solution:
    """Evaluate all 2^N configurations and return the best.

    Configurations are numbered by an N-bit counter where a set bit n means
    element n is -1; ties keep the lowest counter value. One table holds the
    signed sums of the low floor(N/2) elements plus conj(h_d), another those
    of the high elements; in their outer sum, high half on the rows, the
    row-major index of each amplitude is its counter. The grid is built and
    scanned in chunks of rows, in counter order; a chunk's first maximum
    replaces the best so far only when strictly larger, so the lowest counter
    wins. The homogenized coordinate is pinned to +1 throughout. Refuses to
    run for N above EXHAUSTIVE_LIMIT.
    """
    n = ch.n
    if n > EXHAUSTIVE_LIMIT:
        raise ExhaustiveLimitError(
            f"exhaustive search over n={n} elements exceeds the limit of {EXHAUSTIVE_LIMIT}"
        )
    phi_bar = composite_phi(ch)
    half = n // 2
    low = _signed_sums(phi_bar[:half], phi_bar[-1])
    high = _signed_sums(phi_bar[half:-1], 0.0)
    low_re, low_im = low.real.copy(), low.imag.copy()
    high_re, high_im = high.real[:, None], high.imag[:, None]
    rows = max(1, _CHUNK_BYTES // (8 * low.size))
    # real and imaginary chunks squared in place: no complex grid
    powers = np.empty((min(rows, high.size), low.size))
    imag = np.empty_like(powers)
    best_index, best_power = 0, -1.0
    for start in range(0, high.size, rows):
        p = powers[: high.size - start]
        q = imag[: high.size - start]
        np.add(high_re[start:start + rows], low_re, out=p)
        np.add(high_im[start:start + rows], low_im, out=q)
        p *= p
        q *= q
        p += q
        j = int(p.argmax())
        if p.flat[j] > best_power:  # strict: a tie keeps the earlier, lower counter
            best_index, best_power = start * low.size + j, p.flat[j]
    w = 1 - 2 * ((best_index >> np.arange(n)) & 1)
    return _solution(ch, w, 1 << n)


def greedy_bitflip(ch: ChannelRealization, start: PhaseConfig, max_sweeps: int = 100) -> Solution:
    """Coordinate-wise local search from a starting configuration.

    Sweeps the elements in order, flipping any single entry whose flip
    strictly increases the received power; stops after a full sweep with no
    accepted flip or after max_sweeps. Each flip probe updates the received
    amplitude in O(1). Raises ValueError unless max_sweeps is an integer
    >= 0.
    """
    try:  # operator.index takes ints and numpy integers, not 2.5 or 2.0
        max_sweeps = operator.index(max_sweeps)
    except TypeError:
        raise ValueError(f"max_sweeps must be an integer, not {max_sweeps!r}") from None
    if max_sweeps < 0:
        raise ValueError(f"max_sweeps must be >= 0, not {max_sweeps}")
    if start.n != ch.n:
        raise ValueError(f"start has {start.n} elements but channel has {ch.n}")
    phi_bar = composite_phi(ch)
    phi = phi_bar[:-1]
    w = start.w.copy()
    amp = complex(np.dot(w, phi) + phi_bar[-1])
    evaluations = 0
    for _ in range(max_sweeps):
        improved = False
        for i in range(ch.n):
            trial = amp - 2.0 * w[i] * phi[i]
            evaluations += 1
            if trial.real**2 + trial.imag**2 > amp.real**2 + amp.imag**2:
                w[i] = -w[i]
                amp = trial
                improved = True
        if not improved:
            break
    return _solution(ch, w, evaluations)


def random_best_of_k(ch: ChannelRealization, k: int, seed: int) -> Solution:
    """Best of k configurations drawn uniformly at random (seeded).

    Raises ValueError unless k is an integer >= 1.
    """
    try:  # operator.index takes ints and numpy integers, not 2.5 or 2.0
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"k must be an integer, not {k!r}") from None
    if k < 1:
        raise ValueError("k must be >= 1")
    phi_bar = composite_phi(ch)
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(k, ch.n)) * 2 - 1
    amps = signs @ phi_bar[:-1] + phi_bar[-1]
    powers = amps.real**2 + amps.imag**2
    j = int(np.argmax(powers))
    return _solution(ch, signs[j], k)


@_overflow_quiet  # a sum of finite magnitudes may pass the largest float
def continuous_upper_bound(ch: ChannelRealization) -> float:
    """Power with every reflection phased perfectly, an upper bound for 1-bit.

    Equals (sum_n |phi_n| + |h_d|)^2 * tx_power; no binary configuration can
    exceed it, and it is generally not attained. Raises ValueError when the
    bound is not finite, that is when it overflows a float.
    """
    total = float(np.sum(np.abs(_product(ch.h_r, ch.g))) + abs(ch.h_d))
    bound = total * total * ch.tx_power
    if not math.isfinite(bound):
        raise ValueError(f"continuous upper bound overflows a float ({bound})")
    return bound
