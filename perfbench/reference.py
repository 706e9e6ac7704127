"""Output checks for the benchmark that do not trust the code under test.

Nothing here imports dasris. The optimum is recomputed from the raw channel
arrays with the benchmark's own fold, sort and prefix scan:

    amplitude(w) = |sum_n w_n phi_n + conj(h_d)|,  phi_n = conj(h_r_n) g_n

Homogenize with a pinned +1 on conj(h_d), rotate every entry whose angle lies
outside [-pi/2, pi/2) by pi (flipping its sign), and sort by the rotated
angle. For any direction psi the best sign pattern is, up to a global sign,
+1 on a prefix of that order and -1 on the rest, so every prefix split scores
|2 P_k - T| with P_k the k-th prefix sum and T the total. The largest score,
squared and scaled by tx_power, is the optimal power. Ties need no care: a
run of equal keys moves P_k along a segment, and the score peaks at its ends,
which every ordering of the run visits.

Powers, not sign vectors, are compared, because ties allow several
configurations with the same power.

optimal_power and enumerated_power are also the reference work the runner
times next to each operation, to tell how fast the machine runs at the time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

REL_TOL = 1e-9


@dataclass(frozen=True)
class Reference:
    """What a correct solver's answer is checked against for one channel."""

    phi: np.ndarray
    h_d_conj: complex
    tx_power: float
    optimum: float
    upper_bound: float


def optimal_power(phi: np.ndarray, h_d_conj: complex, tx_power: float) -> float:
    """Largest |w^T phi + conj(h_d)|^2 * tx_power over all sign vectors w."""
    v = np.append(phi, h_d_conj)
    # Rotate into [-pi/2, pi/2) by remainder, not by comparing against the
    # principal angle, so the reference folds differently from the solver.
    theta = np.angle(v)
    folded = np.mod(theta + math.pi / 2, math.pi) - math.pi / 2
    rotated = np.abs(folded - theta) > 1.0
    v = np.where(rotated, -v, v)
    prefix = np.cumsum(v[np.argsort(folded, kind="mergesort")])
    total = prefix[-1]
    best = float(np.max(np.abs(2.0 * prefix - total)))
    return best * best * tx_power


def enumerated_power(phi: np.ndarray, h_d_conj: complex, tx_power: float,
                     block_bits: int = 15) -> float:
    """Largest power over all 2^N sign vectors, by scoring every one.

    Bit n of a counter set means entry n is -1; the counters run in blocks
    of 2^block_bits, each scored by one matrix product. This is the textbook
    exhaustive search, with the cost and memory traffic of the library's,
    which is what the oracle workload's paired reference work needs.
    """
    n = phi.shape[0]
    positions = np.arange(n, dtype=np.int64)
    step = 1 << min(n, block_bits)
    best = 0.0
    for first in range(0, 1 << n, step):
        counter = np.arange(first, first + step, dtype=np.int64)
        signs = 1.0 - 2.0 * ((counter[:, None] >> positions) & 1)
        amp = signs @ phi + h_d_conj
        best = max(best, float(np.max(amp.real * amp.real + amp.imag * amp.imag)))
    return best * tx_power


def upper_bound(phi: np.ndarray, h_d_conj: complex, tx_power: float) -> float:
    """Every element perfectly phased: (sum |phi_n| + |h_d|)^2 * tx_power."""
    total = float(np.sum(np.abs(phi))) + abs(h_d_conj)
    return total * total * tx_power


def config_power(ref: Reference, w: np.ndarray) -> float:
    """Power of a sign vector, computed from the reference's own arrays."""
    amp = complex(np.dot(np.asarray(w, dtype=np.float64), ref.phi)) + ref.h_d_conj
    return (amp.real * amp.real + amp.imag * amp.imag) * ref.tx_power


def build(g, h_r, h_d, tx_power: float) -> Reference:
    phi = np.conj(np.asarray(h_r, dtype=complex)) * np.asarray(g, dtype=complex)
    h_d_conj = complex(np.conj(h_d))
    return Reference(
        phi=phi,
        h_d_conj=h_d_conj,
        tx_power=float(tx_power),
        optimum=optimal_power(phi, h_d_conj, tx_power),
        upper_bound=upper_bound(phi, h_d_conj, tx_power),
    )


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL)


def check_power(ref: Reference, power: float) -> str | None:
    """None when power is the optimum and within the bound, else why not."""
    if not math.isfinite(power):
        return f"power {power!r} is not finite"
    if not close(power, ref.optimum):
        return f"power {power!r} differs from the optimum {ref.optimum!r}"
    if power > ref.upper_bound * (1.0 + REL_TOL):
        return f"power {power!r} exceeds the continuous bound {ref.upper_bound!r}"
    return None


def check_solution(ref: Reference, w: np.ndarray, power: float) -> str | None:
    """check_power, plus: w is a +-1 vector whose power is the reported one."""
    w = np.asarray(w)
    if w.shape != ref.phi.shape or not np.all(np.abs(w) == 1):
        return "configuration is not a +-1 vector of the channel's length"
    own = config_power(ref, w)
    if not close(own, power):
        return f"reported power {power!r} but the configuration gives {own!r}"
    return check_power(ref, power)
