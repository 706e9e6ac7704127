"""Reference optimizers and bounds to benchmark the sort-based solver against."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ChannelRealization, PhaseConfig, composite_phi, received_power

EXHAUSTIVE_LIMIT = 20


class ExhaustiveLimitError(ValueError):
    """Raised when a brute-force search would exceed its fixed size cap."""


@dataclass(frozen=True)
class BaselineResult:
    """Outcome of a baseline optimizer.

    power is re-evaluated from (channel, config), so results from different
    methods compare exactly. evaluations counts objective evaluations.
    """

    config: PhaseConfig
    power: float
    evaluations: int


def _signed_sums(phi: np.ndarray, base: complex) -> np.ndarray:
    """base plus every signed sum of phi; index bit k set means phi[k] enters negated."""
    sums = np.array([base], dtype=complex)
    for p in phi:
        sums = np.concatenate((sums + p, sums - p))
    return sums


def exhaustive_search(ch: ChannelRealization) -> BaselineResult:
    """Evaluate all 2^N configurations and return the best.

    Configurations are numbered by an N-bit counter where a set bit n means
    element n is -1; ties keep the lowest counter value. One table holds the
    signed sums of the low floor(N/2) elements plus conj(h_d), another those
    of the high elements; in their outer sum, high half on the rows, the
    row-major index of each amplitude is its counter, so the first argmax is
    the lowest. The homogenized coordinate is pinned to +1 throughout.
    Refuses to run for N above EXHAUSTIVE_LIMIT.
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
    # real and imaginary grids squared in place: no complex 2^N grid
    powers = np.add.outer(high.real, low.real)
    imag = np.add.outer(high.imag, low.imag)
    powers *= powers
    imag *= imag
    powers += imag
    best_index = int(np.argmax(powers))
    w = 1 - 2 * ((best_index >> np.arange(n)) & 1)
    config = PhaseConfig(w=w)
    return BaselineResult(
        config=config,
        power=received_power(ch, config),
        evaluations=1 << n,
    )


def greedy_bitflip(ch: ChannelRealization, start: PhaseConfig, max_sweeps: int = 100) -> BaselineResult:
    """Coordinate-wise local search from a starting configuration.

    Sweeps the elements in order, flipping any single entry whose flip
    strictly increases the received power; stops after a full sweep with no
    accepted flip or after max_sweeps. Each flip probe updates the received
    amplitude in O(1).
    """
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
    config = PhaseConfig(w=w)
    return BaselineResult(
        config=config,
        power=received_power(ch, config),
        evaluations=evaluations,
    )


def random_best_of_k(ch: ChannelRealization, k: int, seed: int) -> BaselineResult:
    """Best of k configurations drawn uniformly at random (seeded)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    phi_bar = composite_phi(ch)
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(k, ch.n)) * 2 - 1
    amps = signs @ phi_bar[:-1] + phi_bar[-1]
    powers = amps.real**2 + amps.imag**2
    j = int(np.argmax(powers))
    config = PhaseConfig(w=signs[j])
    return BaselineResult(
        config=config,
        power=received_power(ch, config),
        evaluations=k,
    )


def continuous_upper_bound(ch: ChannelRealization) -> float:
    """Power with every reflection phased perfectly, an upper bound for 1-bit.

    Equals (sum_n |phi_n| + |h_d|)^2 * tx_power; no binary configuration can
    exceed it, and it is generally not attained.
    """
    total = float(np.sum(np.abs(np.conj(ch.h_r) * ch.g)) + abs(ch.h_d))
    return total * total * ch.tx_power
