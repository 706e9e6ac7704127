"""Globally optimal binary phase selection by folding and sorting angles.

The received power is tx_power * |w_bar^T phi_bar|^2, where phi_bar =
(conj(h_r) * g, conj(h_d)) is the homogenized composite vector and w_bar =
(w, 1). The objective ignores a global sign, so the sweep returns w as the
entries that share the direct-link entry's sign. model.composite_phi returns
phi_bar times an exact power of two, which moves no angle and no comparison
between sign vectors, so the sweep below reads its output as it comes. Writing
phi_bar_n = |phi_bar_n| e^{j theta_n},

    |w_bar^T phi_bar| = max over psi of sum_n w_bar_n |phi_bar_n| cos(psi - theta_n)

and for a fixed psi the best entry is w_bar_n = sgn(cos(psi - theta_n)).
Folding every angle into [-pi/2, pi/2), with a recorded sign flip for the
entries moved by pi, makes that sign pattern a step function of psi: in
folded-and-sorted order it is +1 on a prefix and -1 on the suffix. Sweeping
psi therefore produces at most N+1 distinct patterns, one per prefix length,
and scoring them all yields the global optimum. Sorting dominates the cost,
so the whole solve is O(N log N).

das_solve scores the patterns with one prefix sum, and only where the
sorted angle changes and at the last position. Entries with equal folded
angles point the same way, so across a run of them the prefix sum moves
along a straight segment and the convex score |2 * prefix - total| peaks
at one of the segment's ends. A split inside a run is never better than a
run end, and the run ends are exactly the patterns the sweep over psi
produces. The prefix sum at a run end adds up the same entries whatever
the order inside the run, so the winner does not depend on that order,
and the solver can use numpy's default (unstable) argsort. The same holds
when a long row is sorted as key ranges on separate threads: each range
holds every copy of its keys, so the ranges sorted one by one and laid end
to end put the same run ends in the same places as one sort of the row,
and the prefix sum still runs once over the whole row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ChannelRealization,
    PhaseConfig,
    _by_position,
    _composite,
    _part_count,
    _power,
    _run_parts,
    composite_phi,
    received_power,
)

HALF_PI = np.pi / 2.0
# entries in the strided sample whose quantiles are a split sort's pivots
_PIVOT_SAMPLE = 4096


@dataclass(frozen=True)
class DasSolution:
    """Optimal configuration and its received power."""

    config: PhaseConfig
    power: float


def _fold(z: np.ndarray, folded: np.ndarray, flip: np.ndarray) -> None:
    """Fold z in place, entry by entry, writing its folded angles and flip mask.

    An entry is negated when its real part is negative, which leaves every
    real part at or above zero, so one atan2 lands in [-pi/2, pi/2]. Taking
    the atan2 against |re| keeps a -0.0 real part from reading as pi. The
    angles that come out as +pi/2 (a zero real part over a positive
    imaginary one, or a real part too small next to the imaginary one to
    show in the rounded angle) are folded once more, down to -pi/2.
    Zero-magnitude entries fold to angle 0 with no flip.
    """
    np.less(z.real, 0, out=flip)
    np.negative(z, out=z, where=flip)
    np.abs(z.real, out=folded)
    np.arctan2(z.imag, folded, out=folded)
    # initial: a part may hold no entries
    if np.maximum.reduce(folded, axis=None, initial=-HALF_PI) >= HALF_PI:
        top = folded >= HALF_PI
        folded[top] = -HALF_PI
        flip ^= top
        z[top] = -z[top]


def _best_step_pattern(phi_bar: np.ndarray, parts: int | None = None) -> np.ndarray:
    """Optimal configuration for each phi_bar along the last axis.

    phi_bar is one (N+1,) vector or a (T, N+1) block of them, and is
    overwritten by the fold; every row is solved on its own by the same sort
    and scan, and the result is (N,) or (T, N). Candidate k's inner product
    with phi_bar is 2 * prefix_k - total, where prefix_k sums the first k+1
    flip-corrected entries in sorted order, so one cumulative sum scores
    every candidate. Only the ends of runs of equal folded angles are scored
    (see the module docstring), which makes the winner independent of how
    the sort orders a run; the lowest such k wins ties. Returns the
    configuration w itself, int64 +-1: +1 where the winning sign vector
    agrees with its last (direct-link) entry.

    A row runs as parts parts (default model._part_count(N+1)). The passes
    entry by entry (fold, scores, configuration) split the row by position.
    The sort splits it by key range, at parts - 1 pivots taken from a fixed
    strided sample of the folded angles: range p holds the keys k with
    pivots[p-1] <= k < pivots[p], so equal keys never straddle two ranges,
    and the ranges sorted one by one and laid end to end are the whole row
    sorted. The cumulative sum, the run-end mask and the argmax run once
    over the whole row. A block with more than one part is solved row by
    row.
    """
    length = phi_bar.shape[-1]
    if parts is None:
        parts = _part_count(length)
    if parts > 1 and phi_bar.ndim > 1:
        w = np.empty(phi_bar.shape[:-1] + (length - 1,), dtype=np.int64)
        for row, out in zip(phi_bar, w):
            out[...] = _best_step_pattern(row, parts)
        return w
    folded = np.empty(phi_bar.shape)
    flip = np.empty(phi_bar.shape, dtype=bool)
    # the fold negates phi_bar in place: afterwards every real part is >= 0
    _by_position(_fold, parts, phi_bar, folded, flip)
    starts = 0
    if parts == 1:
        order = folded.argsort(-1)
        if order.ndim > 1:
            # flat positions: take() on the flattened block gathers faster than
            # indexing a (T, N+1) array with two index arrays
            starts = np.arange(0, order.size, order.shape[-1])
            order += starts[:, None]
        # in place, and each buffer dropped or reused once done with, to keep
        # the peak low
        prefix = phi_bar.take(order)
        keys = folded.take(order)
    else:
        pivots = np.sort(folded[::max(1, length // _PIVOT_SAMPLE)])
        pivots = pivots[len(pivots) * np.arange(1, parts) // parts]
        # each range writes its share of keys, order and prefix in place:
        # no merge follows
        in_range = np.empty((parts, length), dtype=bool)
        order = np.empty(length, dtype=np.int64)
        prefix = np.empty(length, dtype=complex)
        keys = np.empty(length)

        def sort(p):
            # range p fills the sorted positions from the count of keys below it
            mask = in_range[p]
            start = 0
            if p == 0:
                np.less(folded, pivots[0], out=mask)
            else:
                np.greater_equal(folded, pivots[p - 1], out=mask)
                start = length - np.count_nonzero(mask)
                if p < len(pivots):
                    np.less(folded, pivots[p], out=mask, where=mask)
            positions = np.flatnonzero(mask)
            at = slice(start, start + len(positions))
            # mode="clip" writes straight into out; "raise" would buffer a copy
            folded.take(positions, out=keys[at], mode="clip")
            positions.take(keys[at].argsort(), out=order[at], mode="clip")
            folded.take(order[at], out=keys[at], mode="clip")
            phi_bar.take(order[at], out=prefix[at], mode="clip")

        _run_parts(sort, parts)
        del in_range
    prefix.cumsum(-1, out=prefix)
    total = prefix[..., -1:].copy()

    def score(part, out):
        part *= 2.0
        part -= total
        np.abs(part, out=out)

    scores = order.view(np.float64)  # the order is done with: its buffer takes the scores
    del order
    _by_position(score, parts, prefix, scores)
    del prefix
    # a split followed by an equal key lies inside a run: never the winner
    scores[..., :-1][keys[..., 1:] == keys[..., :-1]] = -1.0
    # the winner k is a run end, so the winning prefix holds exactly the
    # entries whose key is at most keys[k]: +1 there, unless the fold flipped it
    bound = keys.take(starts + scores.argmax(-1))[..., None]
    del keys, scores

    def sides(angles, flips):
        flips ^= angles <= bound

    _by_position(sides, parts, folded, flip)  # flip now holds the winning sign vector

    def config(plus, out):
        # +1 where the winning sign vector agrees with its last (direct-link) entry
        np.equal(plus, flip[..., -1:], out=out)
        out *= 2
        out -= 1

    w = np.empty(phi_bar.shape[:-1] + (length - 1,), dtype=np.int64)
    _by_position(config, parts, flip[..., :-1], w)
    return w


def das_solve(ch: ChannelRealization) -> DasSolution:
    """Find the received-power-maximizing binary configuration.

    Composes the composite-vector reduction and the sweep, which returns the
    configuration; O(N log N) total. The returned power is exact for the
    returned configuration (it is re-evaluated against the channel), and a
    power that overflows a float raises ValueError.
    """
    config = PhaseConfig._trusted(_best_step_pattern(composite_phi(ch)))
    return DasSolution(config=config, power=received_power(ch, config))


def das_solve_block(
    g: np.ndarray, h_r: np.ndarray, h_d: np.ndarray, tx_power: float
) -> tuple[np.ndarray, list[float]]:
    """das_solve for T channels at once, given as rows of blocks.

    g and h_r are (T, N) and h_d is (T,), as model.draw_channels returns
    them. One sweep over the (T, N+1) composite block solves every row;
    returns the (T, N) int64 configurations and the T powers. Row t's
    configuration and power are bit for bit those of das_solve on channel t
    alone, and a row whose power overflows a float raises ValueError.
    """
    w = _best_step_pattern(_composite(g, h_r, h_d))
    powers = [_power(hr, wg, d, tx_power) for hr, wg, d in zip(h_r, w * g, h_d.tolist())]
    return w, powers
