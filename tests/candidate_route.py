"""The explicit O(N^2) candidate route: the reference the solver is tested against.

Candidate k (1-based) assigns +1 to the k smallest folded angles, maps that
back to original element order, and undoes the fold by negating flipped
entries. dasris.das.das_solve scores the candidates at once with a prefix
sum instead of materializing the candidate matrix; build_candidates and
select_best spell out the explicit matrix form, and the two routes reach the
same power.

This route keeps a stable sort and scores every candidate, where the solver
scores only the ends of runs of equal folded angles. Where a split inside a
run ties a run end (the run holds zero-magnitude entries) this route may
return that split, at the same power.

fold_angles folds by remainder, not by the sign test dasris.das uses, so the
route checks the solver's fold instead of repeating it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dasris.model import PhaseConfig

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


def fold_angles(z: np.ndarray) -> FoldResult:
    """Fold the phase of each entry of z into [-pi/2, pi/2).

    Entries in the left half-plane, and those on the positive imaginary
    axis, are negated (moved by pi) and flagged in the flip mask. The
    boundary -pi/2 stays unflipped.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.ndim != 1:
        raise ValueError("z must be one-dimensional")
    theta = np.angle(z)
    folded = np.mod(theta + HALF_PI, np.pi) - HALF_PI
    # an angle a hair below -pi/2 comes out of the remainder rounded to +pi/2
    folded[folded >= HALF_PI] = -HALF_PI
    # moved by pi, not just by rounding
    flip_mask = np.abs(folded - theta) > 1.0
    zero = z == 0
    folded[zero] = 0.0
    flip_mask[zero] = False
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
