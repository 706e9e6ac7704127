"""Globally optimal binary phase selection by folding and sorting angles.

The received power is lam * |w_bar^T z|^2 where z is the unit direction of
the homogenized composite vector and w_bar ranges over sign vectors whose
last entry is pinned to +1 after the fact. Writing z_n = |z_n| e^{j theta_n},

    |w_bar^T z| = max over psi of sum_n w_bar_n |z_n| cos(psi - theta_n)

and for a fixed psi the best entry is w_bar_n = sgn(cos(psi - theta_n)).
Folding every angle into [-pi/2, pi/2), with a recorded sign flip for the
entries moved by pi, makes that sign pattern a step function of psi: in
folded-and-sorted order it is +1 on a prefix and -1 on the suffix. Sweeping
psi therefore produces at most N+1 distinct patterns, one per prefix length,
and scoring them all yields the global optimum. Sorting dominates the cost,
so the whole solve is O(N log N).

Candidate k (1-based) assigns +1 to the k smallest folded angles, maps that
back to original element order, and undoes the fold by negating flipped
entries. das_solve scores the candidates at once with a prefix sum instead
of materializing the candidate matrix; build_candidates/select_best expose
the explicit matrix form and the two routes reach the same power.

das_solve scores a candidate only where the sorted angle changes, and at
the last position. Entries with equal folded angles point the same way, so
across a run of them the prefix sum moves along a straight segment and the
convex score |2 * prefix - total| peaks at one of the segment's ends. A
split inside a run is never better than a run end, and the run ends are
exactly the patterns the sweep over psi produces. The prefix sum at a run
end adds up the same entries whatever the order inside the run, so the
winner does not depend on that order, and the solver can use numpy's
default (unstable) argsort. The explicit route keeps a stable sort and
scores every candidate; where a split inside a run ties a run end (the run
holds zero-magnitude entries) it may return that split, at the same power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ChannelRealization,
    PhaseConfig,
    composite_phi,
    received_power,
)

HALF_PI = np.pi / 2.0


@dataclass(frozen=True)
class FoldResult:
    """Angles folded into [-pi/2, pi/2) with the fold recorded per entry.

    flip_mask[n] is true when the entry's canonical angle lay in
    [pi/2, 3pi/2) and was shifted down by pi. Zero-magnitude entries fold to
    angle 0 with no flip; their sign never affects the objective.
    """

    folded_angles: np.ndarray
    flip_mask: np.ndarray
    magnitudes: np.ndarray


@dataclass(frozen=True)
class SortPermutation:
    """Stable ordering of folded angles.

    forward[k] is the original index at sorted position k; inverse is its
    inverse, so inverse[forward[k]] == k. Ties keep ascending original index.
    """

    forward: np.ndarray
    inverse: np.ndarray


@dataclass(frozen=True)
class CandidateSet:
    """All prefix-step sign patterns, one column per candidate.

    columns has shape (M, M) for M = N+1 entries; columns[:, k] is candidate
    k in original element order, already unfolded via the flip mask. The
    all-+1 pattern is always the last column (before flips).
    """

    columns: np.ndarray


@dataclass(frozen=True)
class DasSolution:
    """Optimal configuration plus diagnostics.

    w_bar is the homogenized sign vector normalized to end in +1;
    objective_amplitude is |w_bar^T z| and power the received power of config.
    """

    config: PhaseConfig
    w_bar: np.ndarray
    objective_amplitude: float
    power: float


def _fold(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Folded angles, flip mask and flip-corrected entries of a 1-D z.

    An entry is negated when its real part is negative, which leaves every
    real part at or above zero, so one atan2 lands in [-pi/2, pi/2]. Taking
    the atan2 against |re| keeps a -0.0 real part from reading as pi. The
    angles that come out as +pi/2 (a zero real part over a positive
    imaginary one, or a real part too small next to the imaginary one to
    show in the rounded angle) are folded once more, down to -pi/2.
    Zero-magnitude entries fold to angle 0 with no flip.
    """
    flip = z.real < 0
    v = np.where(flip, -z, z)
    folded = np.arctan2(v.imag, np.abs(z.real))
    top = folded >= HALF_PI
    if top.any():
        folded[top] = -HALF_PI
        flip ^= top
        v[top] = -v[top]
    return folded, flip, v


def fold_angles(z: np.ndarray) -> FoldResult:
    """Fold the phase of each entry of z into [-pi/2, pi/2).

    Entries in the left half-plane, and those on the positive imaginary
    axis, are negated (moved by pi) and flagged in the flip mask. The
    boundary -pi/2 stays unflipped.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.ndim != 1:
        raise ValueError("z must be one-dimensional")
    folded, flip_mask, _ = _fold(z)
    return FoldResult(folded_angles=folded, flip_mask=flip_mask, magnitudes=np.abs(z))


def sort_folded(fold: FoldResult) -> SortPermutation:
    """Stable non-decreasing sort of the folded angles."""
    forward = np.argsort(fold.folded_angles, kind="stable")
    inverse = np.empty_like(forward)
    inverse[forward] = np.arange(forward.shape[0])
    return SortPermutation(forward=forward, inverse=inverse)


def build_candidates(fold: FoldResult, perm: SortPermutation) -> CandidateSet:
    """Materialize all M prefix-step candidates in original element order.

    Candidate k (0-based) is +1 on the k+1 smallest folded angles and -1
    elsewhere, then negated on flipped entries to undo the fold.
    """
    m = fold.folded_angles.shape[0]
    steps = np.where(perm.inverse[:, None] <= np.arange(m)[None, :], 1, -1)
    unfold = np.where(fold.flip_mask, -1, 1)
    return CandidateSet(columns=(steps * unfold[:, None]).astype(np.int8))


def select_best(cands: CandidateSet, z: np.ndarray) -> tuple[np.ndarray, float]:
    """Score |c^T z| for every candidate column and keep the best.

    Ties resolve to the lowest candidate index. Returns the winning column
    (as an int vector, unnormalized) and its amplitude.
    """
    z = np.asarray(z, dtype=complex)
    scores = np.abs(z @ cands.columns)
    k = int(np.argmax(scores))
    return cands.columns[:, k].astype(np.int64), float(scores[k])


def recover_config(w_bar_raw: np.ndarray) -> tuple[PhaseConfig, np.ndarray]:
    """Normalize the homogenized sign vector and strip the pinned entry.

    The objective is invariant under global negation, so a raw winner ending
    in -1 is negated; the first M-1 entries are the surface configuration.
    """
    w_bar = np.atleast_1d(np.asarray(w_bar_raw)).astype(np.int64)
    if w_bar.shape[0] < 2:
        raise ValueError("w_bar must have at least two entries")
    if not np.all(np.abs(w_bar) == 1):
        raise ValueError("w_bar entries must be +1 or -1")
    if w_bar[-1] < 0:
        w_bar = -w_bar
    return PhaseConfig(w=w_bar[:-1]), w_bar


def _best_step_pattern(z: np.ndarray) -> tuple[np.ndarray, float]:
    """Best prefix-step sign vector for z, without materializing candidates.

    Candidate k's inner product with z is 2 * prefix_k - total, where
    prefix_k sums the first k+1 flip-corrected entries in sorted order, so
    one cumulative sum scores every candidate. Only the ends of runs of
    equal folded angles are scored (see the module docstring), which makes
    the winner independent of how the sort orders a run; the lowest such k
    wins ties, as in select_best. Returns w_bar, already negated so that its
    last entry is +1, and its amplitude |w_bar^T z|.
    """
    folded, flip, v = _fold(z)
    order = np.argsort(folded)
    # in place, and each N-wide buffer dropped once used, to keep the peak low
    prefix = np.cumsum(v[order])
    del v
    total = prefix[-1]
    prefix *= 2.0
    prefix -= total
    scores = np.abs(prefix)
    del prefix
    keys = folded[order]
    # a split followed by an equal key lies inside a run: never the winner
    scores[:-1][keys[1:] == keys[:-1]] = -1.0
    k = int(np.argmax(scores))
    # +1 where the entry is in the winning prefix, unless its fold flipped it
    plus = np.zeros(z.shape[0], dtype=bool)
    plus[order[: k + 1]] = True
    plus ^= flip
    if not plus[-1]:  # the objective ignores a global sign; pin the last entry to +1
        np.logical_not(plus, out=plus)
    w_bar = plus.astype(np.int64)
    w_bar *= 2
    w_bar -= 1
    return w_bar, float(scores[k])


def das_solve(ch: ChannelRealization) -> DasSolution:
    """Find the received-power-maximizing binary configuration.

    Composes the composite-vector reduction, angle folding, sorting, and
    candidate scoring; O(N log N) total. The returned power is exact for the
    returned configuration (it is re-evaluated against the channel).
    """
    comp = composite_phi(ch)
    w_bar, amplitude = _best_step_pattern(comp.z)
    config = PhaseConfig(w=w_bar[:-1])
    return DasSolution(
        config=config,
        w_bar=w_bar,
        objective_amplitude=amplitude,
        power=received_power(ch, config),
    )
