import cmath
import dataclasses
import hashlib
import itertools
import math
import sys
import threading
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from candidate_route import (
    build_candidates,
    fold_angles,
    recover_config,
    select_best,
    sort_folded,
)
import dasris.das as das
from dasris.baselines import continuous_upper_bound, exhaustive_search
from dasris.das import (
    _PART_MIN,
    _fold_half,
    _fold_top,
    das_solve,
    das_solve_block,
)
from dasris.model import (
    _POWER_OVERFLOW,
    ChannelParams,
    ChannelRealization,
    PhaseConfig,
    Solution,
    _amp_power,
    _amplitudes,
    _composite,
    composite_phi,
    draw_channels,
    generate_channel,
    received_power,
)

# best of the four sign patterns for g=[e^{j pi/3}, e^{-j pi/4}], h_r=[1,1],
# h_d=0.5, enumerated by hand with cmath
BRUTE_N2_ORACLE = 2.9747448713915885


def brute_force_power(ch):
    return max(
        received_power(ch, PhaseConfig(np.array(w)))
        for w in itertools.product((1, -1), repeat=ch.n)
    )


def make_channel(g, h_r, h_d, noise_power=1.0, tx_power=1.0):
    return ChannelRealization(g=np.array(g, dtype=complex), h_r=np.array(h_r, dtype=complex),
                              h_d=h_d, noise_power=noise_power, tx_power=tx_power)


def test_fold_positive_real_is_identity():
    fold = fold_angles(np.array([1.0 + 0j]))
    assert fold.folded_angles[0] == 0.0
    assert not fold.flip_mask[0]
    assert fold.magnitudes[0] == 1.0


def test_fold_negative_real_flips():
    fold = fold_angles(np.array([-1.0 + 0j]))
    assert fold.folded_angles[0] == 0.0
    assert fold.flip_mask[0]


def test_fold_second_quadrant_angle():
    fold = fold_angles(np.array([cmath.exp(1.2j * math.pi)]))
    assert math.isclose(fold.folded_angles[0], 0.2 * math.pi, rel_tol=1e-12)
    assert fold.flip_mask[0]


def test_fold_zero_magnitude_entry():
    fold = fold_angles(np.array([0j, complex(-0.0, 0.0)]))
    assert np.array_equal(fold.folded_angles, [0.0, 0.0])
    assert not fold.flip_mask.any()
    assert np.array_equal(fold.magnitudes, [0.0, 0.0])


def test_fold_boundary_angles():
    # -pi/2 stays unflipped, +pi/2 flips down to -pi/2
    fold = fold_angles(np.array([-1j, 1j]))
    assert fold.folded_angles[0] == -math.pi / 2
    assert not fold.flip_mask[0]
    assert fold.folded_angles[1] == -math.pi / 2
    assert fold.flip_mask[1]


@given(st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
# an angle a hair past -pi/2, and ones that round to +pi/2 from either half-plane
@example([complex(-2.2e-16, -1.0)])
@example([complex(5e-324, 1.0)])
@example([complex(-1e-17, -1.0)])
def test_fold_range_and_reconstruction(values):
    z = np.array(values, dtype=complex)
    fold = fold_angles(z)
    assert np.all(fold.folded_angles >= -math.pi / 2)
    assert np.all(fold.folded_angles < math.pi / 2)
    # unfolding reproduces each nonzero entry's direction
    rebuilt = fold.magnitudes * np.exp(1j * (fold.folded_angles + np.pi * fold.flip_mask))
    nz = fold.magnitudes > 0
    assert np.allclose(rebuilt[nz], z[nz], rtol=1e-9, atol=1e-12)


def masked_negate(z, where):
    np.negative(z, out=z, where=where)


def masked_fold(z, negate=masked_negate):
    """_fold_half then _fold_top by numpy's masked np.negative: (z, folded, flip)."""
    z = z.copy()
    flip = z.real < 0
    negate(z, flip)
    folded = np.arctan2(z.imag, np.abs(z.real))
    top = folded >= math.pi / 2
    folded[top] = -math.pi / 2
    flip ^= top
    negate(z, top)
    return z, folded, flip


# entries whose signs and bits a fold must keep: signed zeros in either
# part, zero entries, subnormals, exact +pi/2 angles (a zero real part over
# a positive imaginary one) and angles that round to +-pi/2
FOLD_EDGES = np.array([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                       complex(-1.0, 0.0), complex(-1.0, -0.0), complex(1.0, -0.0),
                       complex(0.0, 2.0), complex(-0.0, 2.0), complex(0.0, -2.0),
                       complex(-0.0, 5e-324), complex(5e-324, -5e-324),
                       complex(-5e-324, 5e-324), complex(-5e-324, -0.0),
                       complex(1e-300, 1.0), complex(-1e-300, 1.0), complex(-1e-17, -1.0),
                       complex(-2.2e-16, 1.0), complex(-3.0, 1e-310)])


def fold_rows(rng, shape):
    """Rows of shape (..., L): Rayleigh entries with FOLD_EDGES scattered in,
    and the same rows with every real part negative and with none negative."""
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flat = z.reshape(-1)
    at = rng.choice(flat.size, min(flat.size, 4 * len(FOLD_EDGES)), replace=False)
    flat[at] = FOLD_EDGES[np.arange(len(at)) % len(FOLD_EDGES)]
    yield "mixed", z
    yield "all negative", -np.abs(z.real) - 0.5 + 1j * z.imag
    yield "none negative", np.abs(z.real) + 1j * z.imag


def assert_fold_bits(got, expected, case):
    for name, have, want in zip(("z", "folded", "flip"), got, expected):
        assert have.tobytes() == want.tobytes(), (case, name)


# single rows on both sides of the masked loop's crossover, and blocks of
# either size: every bit of z, folded and flip is the masked fold's
@pytest.mark.parametrize("shape", [(1,), (9,), (das._MASKED_MAX - 1,), (das._MASKED_MAX,),
                                   (3000,), (2, 17), (30, 33), (100, 65), (64, 257)])
def test_fold_bits_are_the_masked_negates(shape):
    rng = np.random.default_rng(shape[-1])
    for case, row in fold_rows(rng, shape):
        expected = masked_fold(row)
        z = row.copy()
        folded, flip = _fold_half(z)
        _fold_top(z, folded, flip)
        assert_fold_bits((z, folded, flip), expected, case)


@pytest.mark.parametrize("parts", [1, 2, 3])
def test_fold_bits_of_long_route_parts_are_the_masked_negates(parts):
    # as _solve_long folds: each part of the row into its slice of shared
    # buffers, the part's +pi/2 angles folded down within the part
    rng = np.random.default_rng(parts)
    length = 3 * das._MASKED_MAX + 7
    cuts = [length * p // parts for p in range(parts + 1)]
    for case, row in fold_rows(rng, (length,)):
        expected = masked_fold(row)
        z = row.copy()
        folded = np.empty(length)
        flip = np.empty(length, dtype=bool)
        for start, stop in itertools.pairwise(cuts):
            at = slice(start, stop)
            _fold_half(z[at], folded[at], flip[at])
            _fold_top(z[at], folded[at], flip[at])
        assert_fold_bits((z, folded, flip), expected, case)


def test_fold_bits_catch_a_lost_sign():
    # a negate by 0 - z turns -0.0 into +0.0 where np.negative gives -0.0,
    # and the comparison above must tell the two folds apart
    def subtract(z, where):
        np.subtract(0.0, z, out=z, where=where)

    for case, row in fold_rows(np.random.default_rng(3), (das._MASKED_MAX,)):
        with pytest.raises(AssertionError):
            assert_fold_bits(masked_fold(row, subtract), masked_fold(row), case)


def test_sort_folded_orders_and_inverts():
    fold = fold_angles(np.exp(1j * np.array([0.3, -0.1, 0.0])))
    perm = sort_folded(fold)
    assert np.array_equal(perm.forward, [1, 2, 0])
    assert np.array_equal(perm.inverse[perm.forward], np.arange(3))


def test_sort_folded_stable_on_ties():
    fold = fold_angles(np.array([1.0, 1.0, 1.0 + 0j]))
    perm = sort_folded(fold)
    assert np.array_equal(perm.forward, [0, 1, 2])


def test_build_candidates_identity_no_flips():
    z = np.exp(1j * np.array([-0.2, 0.0, 0.2]))
    fold = fold_angles(z)
    perm = sort_folded(fold)
    cols = build_candidates(fold, perm).columns
    assert np.array_equal(cols[:, 0], [1, -1, -1])
    assert np.array_equal(cols[:, 1], [1, 1, -1])
    assert np.array_equal(cols[:, 2], [1, 1, 1])


def test_build_candidates_applies_flips():
    # two entries, second one folded down from the left half-plane
    z = np.array([1.0, -1.0 + 0j])
    fold = fold_angles(z)
    perm = sort_folded(fold)
    assert np.array_equal(fold.flip_mask, [False, True])
    cols = build_candidates(fold, perm).columns
    assert np.array_equal(cols[:, 0], [1, 1])
    assert np.array_equal(cols[:, 1], [1, -1])


def test_build_candidates_respects_permutation():
    # folded angles [0.3, -0.1, 0.0] sort as entries (1, 2, 0), so the
    # single-+1 candidate puts its +1 on entry 1
    z = np.exp(1j * np.array([0.3, -0.1, 0.0]))
    fold = fold_angles(z)
    perm = sort_folded(fold)
    cols = build_candidates(fold, perm).columns
    assert np.array_equal(cols[:, 0], [-1, 1, -1])


def test_build_candidates_always_contains_all_plus_before_flips():
    rng = np.random.default_rng(5)
    z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    fold = fold_angles(z)
    cols = build_candidates(fold, sort_folded(fold)).columns
    unfold = np.where(fold.flip_mask, -1, 1)
    assert np.array_equal(cols[:, -1], unfold)


def test_select_best_matches_full_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = int(rng.integers(1, 9))
        z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        z = z / np.linalg.norm(z)
        fold = fold_angles(z)
        cands = build_candidates(fold, sort_folded(fold))
        _, amp = select_best(cands, z)
        best = max(
            abs(np.dot(w, z))
            for w in itertools.product((1, -1), repeat=m)
        )
        assert math.isclose(amp, best, rel_tol=1e-9, abs_tol=1e-12)


def test_select_best_breaks_ties_low():
    z = np.array([1.0 + 0j, 0.0j])
    fold = fold_angles(z)
    cands = build_candidates(fold, sort_folded(fold))
    winner, amp = select_best(cands, z)
    assert amp == 1.0
    # candidates 0 and 1 tie; the lower index wins
    assert np.array_equal(winner, cands.columns[:, 0])


def test_recover_config_negates_to_pin_last_entry():
    config, w_bar = recover_config(np.array([1, -1, -1]))
    assert np.array_equal(w_bar, [-1, 1, 1])
    assert np.array_equal(config.w, [-1, 1])


def test_recover_config_passthrough():
    config, w_bar = recover_config(np.array([-1, 1, 1]))
    assert np.array_equal(w_bar, [-1, 1, 1])
    assert np.array_equal(config.w, [-1, 1])


def test_recover_config_rejects_bad_entries():
    with pytest.raises(ValueError):
        recover_config(np.array([1, 2, 1]))
    with pytest.raises(ValueError):
        recover_config(np.array([1]))


def test_das_solve_single_element():
    ch = make_channel([1], [1], 1)
    sol = das_solve(ch)
    assert np.array_equal(sol.config.w, [1])
    assert sol.power == 4.0
    assert sol.power == received_power(ch, sol.config)


def test_das_solve_no_direct_link_two_elements():
    sol = das_solve(make_channel([1, -1], [1, 1], 0))
    assert math.isclose(sol.power, 4.0, rel_tol=1e-12)
    assert np.array_equal(sol.config.w, [1, -1]) or np.array_equal(sol.config.w, [-1, 1])


def test_das_solve_matches_hand_enumerated_oracle():
    g = [cmath.exp(1j * cmath.pi / 3), cmath.exp(-1j * cmath.pi / 4)]
    sol = das_solve(make_channel(g, [1, 1], 0.5))
    assert math.isclose(sol.power, BRUTE_N2_ORACLE, rel_tol=1e-12)


def test_das_solve_all_zero_channel():
    sol = das_solve(make_channel([0, 0], [0, 0], 0))
    assert sol.power == 0.0
    assert np.array_equal(sol.config.w, [1, 1])


def test_das_solve_agrees_with_brute_force():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(1, 11))
        los = bool(rng.integers(0, 2))
        ch = generate_channel(n, int(rng.integers(0, 2**32)), ChannelParams(los=los))
        sol = das_solve(ch)
        assert math.isclose(sol.power, brute_force_power(ch), rel_tol=1e-9, abs_tol=1e-12)


def test_das_solve_matches_explicit_candidate_route():
    rng = np.random.default_rng(77)
    for _ in range(200):
        n = int(rng.integers(1, 24))
        ch = generate_channel(n, int(rng.integers(0, 2**32)))
        sol = das_solve(ch)
        phi_bar = composite_phi(ch)
        fold = fold_angles(phi_bar)
        cands = build_candidates(fold, sort_folded(fold))
        raw, _ = select_best(cands, phi_bar)
        config, _ = recover_config(raw)
        assert sol.power == received_power(ch, sol.config)
        assert math.isclose(received_power(ch, config), sol.power, rel_tol=1e-9, abs_tol=1e-12)
        # generic direct-link instances have a unique optimum up to global sign
        assert np.array_equal(config.w, sol.config.w)


def test_das_solution_invariants():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        los = bool(rng.integers(0, 2))
        tx = float(rng.uniform(0.5, 3.0))
        params = ChannelParams(los=los, tx_power=tx)
        ch = generate_channel(n, int(rng.integers(0, 2**32)), params)
        sol = das_solve(ch)
        assert sol.config.n == ch.n
        assert sol.power == received_power(ch, sol.config)


def scaled_channel(ch, c):
    return ChannelRealization(g=ch.g * c, h_r=ch.h_r, h_d=ch.h_d * c,
                              noise_power=ch.noise_power, tx_power=ch.tx_power)


def test_a_power_summed_by_vecdot_overflows_to_value_error_without_a_warning():
    # a row past model._DOT_CHUNK and a block sum their powers with np.vecdot,
    # a ufunc, which warns where np.vdot on a shorter row does not
    n = 20_000
    ch = make_channel(np.full(n, 1e154), np.full(n, 1e153), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow"):
            das_solve(ch)
        with pytest.raises(ValueError, match="overflow"):
            received_power(ch, PhaseConfig(np.ones(n)))
        with pytest.raises(ValueError, match="overflow"):
            das_solve_block(np.full((2, 50), 1e154 + 0j), np.full((2, 50), 1e153 + 0j),
                            np.ones(2, dtype=complex), 1.0)


def test_power_past_the_largest_float_is_rejected():
    ch = generate_channel(8, 3)
    huge = scaled_channel(ch, 1e160)
    for solve in (das_solve, exhaustive_search):
        with pytest.raises(ValueError, match="overflow"):
            solve(huge)
    big = das_solve(scaled_channel(ch, 1e150))
    assert math.isfinite(big.power)
    assert np.array_equal(big.config.w, das_solve(ch).config.w)


@seed(7242)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1),
       st.booleans(), st.integers(min_value=-1000, max_value=1000))
@settings(max_examples=200, deadline=None)
def test_das_and_exhaustive_are_scale_proof(n, channel_seed, los, k):
    # scaling g and h_d by 2^k scales every amplitude alike, so the configs
    # chosen on the scaled channel must be optimal on the base channel
    base = generate_channel(n, channel_seed, ChannelParams(los=los))
    best = exhaustive_search(base).power
    scaled = scaled_channel(base, 2.0**k)
    for solve in (das_solve, exhaustive_search):
        try:
            config = solve(scaled).config
        except ValueError:
            # refused only when the scaled optimum, best * 4^k, passes 2^1024
            assert math.log2(best) + 2 * k >= 1024 - 1e-9
            continue
        assert math.isclose(received_power(base, config), best, rel_tol=1e-9)


# entries 2^k times an exact boundary direction, or zero; with h_r = 1 the
# composite entries are exactly these values, -0.0 parts included
_ADVERSARIAL_ENTRY = st.one_of(
    st.just(0j),
    st.builds(lambda k, d: complex(math.ldexp(d.real, k), math.ldexp(d.imag, k)),
              st.integers(min_value=-500, max_value=500),
              st.sampled_from((1 + 0j, -1 + 0j, 1j, -1j))),
)


@st.composite
def adversarial_channels(draw):
    # a small pool drawn from with replacement gives duplicated elements
    pool = draw(st.lists(_ADVERSARIAL_ENTRY, min_size=1, max_size=6))
    g = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    h_d = draw(st.one_of(st.just(0j), _ADVERSARIAL_ENTRY))
    return make_channel(g, np.ones(len(g)), h_d)


@seed(90417)
@given(adversarial_channels())
@settings(max_examples=300, deadline=None)
def test_das_and_exhaustive_are_optimal_on_adversarial_channels(ch):
    best = brute_force_power(ch)
    for solve in (das_solve, exhaustive_search):
        assert math.isclose(solve(ch).power, best, rel_tol=1e-9), solve.__name__


def test_das_power_invariant_under_global_phase():
    # Rotating every cascade coefficient and the conjugate of the direct link
    # by a common angle leaves |amplitude| untouched, so the optimal power must
    # not move.  The direct link itself rotates the opposite way because it
    # enters the sum conjugated.
    rng = np.random.default_rng(404)
    ch = generate_channel(12, 9)
    base = das_solve(ch).power
    for alpha in rng.uniform(0, 2 * np.pi, size=25):
        rotated = ChannelRealization(
            g=ch.g * np.exp(1j * alpha), h_r=ch.h_r,
            h_d=ch.h_d * np.exp(-1j * alpha),
            noise_power=ch.noise_power, tx_power=ch.tx_power,
        )
        assert math.isclose(das_solve(rotated).power, base, rel_tol=1e-9)


def test_das_power_below_continuous_bound():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        ch = generate_channel(n, int(rng.integers(0, 2**32)),
                              ChannelParams(los=bool(rng.integers(0, 2))))
        assert das_solve(ch).power <= continuous_upper_bound(ch) * (1 + 1e-12)


def test_das_scale_equivariance():
    rng = np.random.default_rng(15)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        ch = generate_channel(n, int(rng.integers(0, 2**32)))
        c = float(rng.uniform(0.1, 10.0))
        scaled = ChannelRealization(
            g=ch.g * c, h_r=ch.h_r, h_d=ch.h_d * c,
            noise_power=ch.noise_power, tx_power=ch.tx_power,
        )
        a = das_solve(ch)
        b = das_solve(scaled)
        assert math.isclose(b.power, a.power * c * c, rel_tol=1e-9)
        assert np.array_equal(a.config.w, b.config.w)


def test_candidate_count_is_n_plus_one():
    for n in (1, 2, 5, 17):
        ch = generate_channel(n, n)
        fold = fold_angles(composite_phi(ch))
        cands = build_candidates(fold, sort_folded(fold))
        assert cands.columns.shape == (n + 1, n + 1)


@given(st.lists(st.complex_numbers(max_magnitude=100, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=7),
       st.complex_numbers(max_magnitude=100, allow_nan=False, allow_infinity=False))
@settings(max_examples=150, deadline=None)
def test_das_solve_optimal_on_arbitrary_channels(g_values, h_d):
    ch = ChannelRealization(g=np.array(g_values), h_r=np.ones(len(g_values)),
                            h_d=h_d, noise_power=1.0)
    sol = das_solve(ch)
    assert math.isclose(sol.power, brute_force_power(ch), rel_tol=1e-9, abs_tol=1e-12)


def test_das_solve_matches_exhaustive_up_to_the_cap():
    # the acceptance sweep covers N = 1..14; this covers the sizes above it
    # up to EXHAUSTIVE_LIMIT, with and without a direct link
    for n in range(15, 21):
        for los in (True, False):
            params = ChannelParams(los=los)
            for trial in range(40):
                seed = int(np.random.SeedSequence((7150, n, int(los), trial)).generate_state(1)[0])
                ch = generate_channel(n, seed, params)
                assert math.isclose(das_solve(ch).power, exhaustive_search(ch).power,
                                    rel_tol=1e-9), (n, los, trial)


# pi/4 grid with exact axis points, so duplicates share their sort key exactly
# and some entries sit on the fold boundaries
_S = math.sqrt(0.5)
TIE_GRID = np.array([1, _S + _S * 1j, 1j, -_S + _S * 1j, -1, -_S - _S * 1j, -1j, _S - _S * 1j])
TIE_MAGNITUDES = np.array([0.0, 1.0, 2.0])
TIE_DIRECT_LINKS = (0.0, 1j, -1j, -1.0)


def tie_heavy_channel(rng, n, h_d):
    """Channel whose composite entries repeat exactly, zeros included."""
    g = TIE_MAGNITUDES[rng.integers(0, 3, n)] * TIE_GRID[rng.integers(0, 8, n)]
    return make_channel(g, np.ones(n), h_d)


def test_das_solve_optimal_on_tie_heavy_channels():
    rng = np.random.default_rng(4242)
    for h_d in TIE_DIRECT_LINKS:
        for _ in range(60):
            ch = tie_heavy_channel(rng, int(rng.integers(1, 13)), h_d)
            assert math.isclose(das_solve(ch).power, exhaustive_search(ch).power,
                                rel_tol=1e-9, abs_tol=1e-12)


def test_das_solve_ignores_element_order_on_ties():
    # Shuffling the elements must permute the returned configuration, zero
    # entries included, whenever the optimum is unique on the nonzero
    # entries (up to the global sign when there is no direct link).
    rng = np.random.default_rng(977)
    checked = 0
    for h_d in TIE_DIRECT_LINKS:
        for _ in range(60):
            n = int(rng.integers(2, 11))
            ch = tie_heavy_channel(rng, n, h_d)
            signs = np.array(list(itertools.product((1, -1), repeat=n)))
            powers = np.array([received_power(ch, PhaseConfig(w)) for w in signs])
            optimal = signs[np.isclose(powers, powers.max(), rtol=1e-9, atol=1e-12)]
            optimal = optimal[:, ch.g != 0]
            if h_d == 0:
                optimal = optimal * optimal[:, :1]
            unique = len({tuple(w) for w in optimal}) == 1
            sol = das_solve(ch)
            for _ in range(3):
                perm = rng.permutation(n)
                other = das_solve(make_channel(ch.g[perm], ch.h_r[perm], ch.h_d))
                assert math.isclose(other.power, sol.power, rel_tol=1e-9, abs_tol=1e-12)
                if unique:
                    assert np.array_equal(other.config.w, sol.config.w[perm])
                    checked += 1
    assert checked >= 300


def eager_mask_row(phi_bar, stable=False):
    """One row's configuration with every split inside a run masked before the
    argmax, and w built by a multiply and an add, as the row path built it
    before it masked lazily; and whether the unmasked first maximum lay inside
    a run, and whether that run's end then differs from the masked winner.
    Sorted by numpy's default argsort, as the short route sorts, or when
    stable by the stable argsort of the angles + 0.0, as the long route does."""
    phi_bar = phi_bar.copy()
    folded, flip = _fold_half(phi_bar)
    _fold_top(phi_bar, folded, flip)  # exact, and a no-op on a row without +pi/2
    order = (folded + 0.0).argsort(kind="stable") if stable else folded.argsort()
    keys = folded.take(order)
    prefix = phi_bar.take(order)
    np.add.accumulate(prefix, out=prefix)
    twice = np.multiply(prefix, 2.0)
    twice -= prefix[-1]
    scores = np.abs(twice)
    inside = keys[1:] == keys[:-1]
    first = int(scores.argmax())
    in_run = first < len(keys) - 1 and bool(inside[first])
    np.copyto(scores[:-1], -1.0, where=inside)
    winner = int(scores.argmax())
    minus = np.equal(folded <= keys[winner], flip)
    one = -1 if minus[-1] else 1
    w = np.multiply(minus[:-1], -2 * one, dtype=np.int64)
    w += one
    return w, in_run, in_run and bool(keys[first] != keys[winner])


_PI8_GRID = np.exp(1j * np.pi / 8 * np.arange(16))


def run_heavy_rows(rng, n):
    """(kind, g, h_d) rows whose folded angles repeat, with and without a direct
    link: zero entries among Rayleigh ones and positive reals, all at angle 0;
    magnitudes 0 to 2 on a pi/8 grid of phases; and Gaussian integers."""
    for h_d in (0j, complex(*rng.integers(-2, 3, 2)) or 1j):
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g[rng.random(n) < 0.4] = 0
        g[rng.random(n) < 0.2] = rng.integers(1, 3)
        yield "zeros", g, h_d
        yield "pi/8 grid", rng.integers(0, 3, n) * _PI8_GRID[rng.integers(0, 16, n)], h_d
        yield "Gaussian integers", rng.integers(-3, 4, n) + 1j * rng.integers(-3, 4, n), h_d


def test_row_lazy_mask_and_sign_lookup_are_the_eager_mask_bit_for_bit():
    # a row takes the first maximum of all splits and masks the runs only
    # when it lies inside one, and a row of fewer than _MASKED_MAX entries
    # looks its w up by the minus flags: both must give the eager mask's w,
    # int64, on rows where the fallback fires and where it decides, at N = 1
    # to 300 and at N + 1 on both sides of _MASKED_MAX
    rng = np.random.default_rng(2727)
    lengths = [*range(1, 301)] * 3 + [das._MASKED_MAX + d for d in (-2, -1, 0)] * 12
    in_run = Counter()
    decided = Counter()
    for n in lengths:
        for kind, g, h_d in run_heavy_rows(rng, n):
            phi_bar = _composite(g, np.ones(n, dtype=complex), h_d)
            expected, inside, decides = eager_mask_row(phi_bar)
            w = das._best_step_pattern(phi_bar)
            assert w.dtype == np.int64 and w.shape == (n,), (kind, n)
            assert w.tobytes() == expected.tobytes(), (kind, n, h_d)
            in_run[kind] += inside
            decided[kind] += decides
    # the fallback fires on every kind of row, and on some it picks a run
    # end other than the end of the run that holds the first maximum
    assert min(in_run.values()) >= 10, in_run
    assert sum(decided.values()) >= 5, decided


# ROADMAP item 3's counterexample: two run ends' float scores lie closer than
# their rounding error, and the argmax picks the one whose exact power is lower
@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the winner is a float argmax, "
                   "not exact at near-ties")
def test_das_solve_is_an_exact_optimum_at_a_near_tie():
    g = np.array([0.25625347787877495 - 0.4293415366290946j,
                  -1.7173661465163788 - 1.0250139115150991j,
                  -0.25625347787877495 + 0.42934153662909463j])
    ch = make_channel(g, np.ones(3), 0.0)
    phi_bar = composite_phi(ch)

    def exact_power(w):
        w_bar = (*w, 1)
        re = sum(Fraction(s) * Fraction(z.real) for s, z in zip(w_bar, phi_bar.tolist()))
        im = sum(Fraction(s) * Fraction(z.imag) for s, z in zip(w_bar, phi_bar.tolist()))
        return re * re + im * im

    best = max(exact_power(w) for w in itertools.product((1, -1), repeat=ch.n))
    sol = das_solve(ch)
    assert exact_power(sol.config.w.tolist()) == best
    assert sol.power == exhaustive_search(ch).power == 5.0


def assert_block_rows_match_das_solve(g, h_r, h_d, tx_power=1.0):
    w, powers = das_solve_block(g, h_r, h_d, tx_power)
    assert w.shape == g.shape and w.dtype == np.int64 and len(powers) == g.shape[0]
    phi_block = _composite(g, h_r, h_d)
    for t in range(g.shape[0]):
        ch = ChannelRealization(g=g[t], h_r=h_r[t], h_d=h_d[t], noise_power=1.0,
                                tx_power=tx_power)
        assert phi_block[t].tobytes() == composite_phi(ch).tobytes(), t
        sol = das_solve(ch)
        assert w[t].tobytes() == sol.config.w.tobytes(), t
        assert type(powers[t]) is float and powers[t] == sol.power, t


@pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 64, 256])
@pytest.mark.parametrize("los", [True, False])
def test_das_solve_block_rows_are_das_solve_bit_for_bit(n, los):
    params = ChannelParams(los=los, beta_g=2.0, tx_power=3.0)
    g, h_r, h_d = draw_channels(n, list(range(100, 140)), params)
    assert_block_rows_match_das_solve(g, h_r, h_d, tx_power=3.0)


def test_das_solve_block_on_tie_heavy_zero_and_wide_range_rows():
    # pi/4-grid rows with exact duplicates and zeros, all-zero rows, and rows
    # whose scales differ by 2^1000 inside one block: each row is rescaled
    # by its own power of two and solved as das_solve solves it alone
    rng = np.random.default_rng(31337)
    for n in (1, 2, 5, 12, 40):
        rows = 24
        g = TIE_MAGNITUDES[rng.integers(0, 3, (rows, n))] * TIE_GRID[rng.integers(0, 8, (rows, n))]
        h_r = np.ones((rows, n), dtype=complex)
        h_r[::3] = TIE_GRID[rng.integers(0, 8, (len(h_r[::3]), n))]
        h_d = np.array(TIE_DIRECT_LINKS * (rows // len(TIE_DIRECT_LINKS)), dtype=complex)
        g[0] = 0
        h_d[0] = 0
        g[1] = 0
        scale = np.ldexp(1.0, rng.choice([-500, 0, 500], rows))
        g *= scale[:, None]
        h_d *= scale
        assert_block_rows_match_das_solve(g, h_r, h_d)
        random_g = (rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n)))
        random_g *= scale[:, None]
        assert_block_rows_match_das_solve(random_g, h_r, h_d)


def test_das_solve_block_rows_are_das_solve_at_the_crossover_length():
    # N+1 = 2 * _PART_MIN is the first length that a solve splits into parts
    # (on two or more cores); a block's rows, a one-row block among them,
    # take the same route there as das_solve, Rayleigh and tie-heavy alike
    n = 2 * _PART_MIN - 1
    g, h_r, h_d = draw_channels(n, [77], ChannelParams())
    tie = tie_heavy_channel(np.random.default_rng(1234), n, 1j)
    g = np.vstack((g, tie.g[None]))
    h_r = np.vstack((h_r, tie.h_r[None]))
    h_d = np.array([h_d[0], tie.h_d])
    assert_block_rows_match_das_solve(g, h_r, h_d)
    assert_block_rows_match_das_solve(g[1:], h_r[1:], h_d[1:])


def test_das_solve_block_rejects_an_overflowing_row():
    g, h_r, h_d = draw_channels(8, [1, 2, 3], ChannelParams())
    h_d[1] = 1e160  # the row's power overflows a float
    with pytest.raises(ValueError, match="overflow"):
        das_solve_block(g, h_r, h_d, 1.0)
    g, h_r, h_d = draw_channels(8, [1, 2, 3], ChannelParams())
    g[2, 0] = h_r[2, 0] = 1e200  # the row's composite entry overflows a float
    with pytest.raises(ValueError, match="overflow"):
        das_solve_block(g, h_r, h_d, 1.0)
    # a NaN row and an inf row: the message names a non-finite input too
    for block, value in ((0, math.nan), (1, math.inf), (2, math.nan)):
        g, h_r, h_d = draw_channels(8, [1, 2, 3], ChannelParams())
        (g, h_r, h_d)[block][1, ...] = value
        with pytest.raises(ValueError, match="overflow.*NaN or inf"):
            das_solve_block(g, h_r, h_d, 1.0)


def test_block_powers_are_each_rows_amp_power_bit_for_bit():
    # one float64 array for a block's powers: the bits of _amp_power, in
    # Python floats, on each row's amplitude, at any tx_power and over rows
    # scaled from powers that underflow to zero or a subnormal to near overflow
    rng = np.random.default_rng(2024)
    for _ in range(40):
        rows, n = int(rng.integers(1, 101)), int(rng.integers(1, 301))
        tx_power = float(rng.choice([0.37, 3.0, 1e-5, 2.0 ** 0.5]))
        g, h_r, h_d = draw_channels(n, rng.integers(0, 2**32, rows).tolist(), ChannelParams())
        scale = 10.0 ** rng.integers(-165, 150, rows)
        g *= scale[:, None]
        h_d *= scale
        w, powers = das_solve_block(g, h_r, h_d, tx_power)
        amps = _amplitudes(h_r, w * g, h_d).tolist()
        expected = [_amp_power(amp, tx_power) for amp in amps]
        assert all(type(power) is float for power in powers)
        assert np.array(powers).tobytes() == np.array(expected).tobytes(), (rows, n, tx_power)


def test_block_powers_raise_for_the_last_row_alone_without_a_warning():
    g, h_r, h_d = draw_channels(40, list(range(50)), ChannelParams())
    h_d[-1] = 1e160  # only the last row's power overflows a float
    assert all(math.isfinite(power) for power in das_solve_block(g[:-1], h_r[:-1], h_d[:-1], 2.0)[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as raised:
            das_solve_block(g, h_r, h_d, 2.0)
    # the message _amp_power gives, with the row's power, inf
    assert str(raised.value) == _POWER_OVERFLOW.format(math.inf)


def test_das_solve_block_rejects_blocks_whose_row_counts_differ():
    g, h_r, h_d = draw_channels(8, [1, 2, 3], ChannelParams())
    for rows in ((1, 1, 3), (1, 2, 1), (2, 2, 3), (0, 0, 1)):
        with pytest.raises(ValueError):
            das_solve_block(g[:rows[0]], h_r[:rows[1]], h_d[:rows[2]], 1.0)


def test_das_solve_block_of_no_rows_gives_no_configurations():
    for n, los in ((1, True), (16, True), (16, False)):
        g, h_r, h_d = draw_channels(n, [], ChannelParams(los=los))
        w, powers = das_solve_block(g, h_r, h_d, 1.0)
        assert w.shape == (0, n) and w.dtype == np.int64 and powers == []


def one_row_block_cases(rng, n):
    """(g, h_r, h_d) blocks: Rayleigh rows with and without a direct link,
    tie-heavy rows, all-zero rows and rows scaled by about 2^-500 and 2^500."""
    for los in (True, False):
        yield draw_channels(n, list(range(400, 404)), ChannelParams(los=los))
    rows = 8
    g = TIE_MAGNITUDES[rng.integers(0, 3, (rows, n))] * TIE_GRID[rng.integers(0, 8, (rows, n))]
    h_d = np.array(TIE_DIRECT_LINKS * (rows // len(TIE_DIRECT_LINKS)), dtype=complex)
    g[:2] = 0
    h_d[0] = 0
    yield g, np.ones((rows, n), dtype=complex), h_d
    g, h_r, h_d = draw_channels(n, list(range(410, 414)), ChannelParams())
    # 2^500 less the bits that a sum of n entries adds: the power stays finite
    scale = np.ldexp(1.0, np.array([-500, 500, -500, 500]) - [0, n.bit_length()] * 2)
    yield g * scale[:, None], h_r, h_d * scale


@pytest.mark.parametrize("n", [1, 2, 3, 16, 20, 64, (1 << 14) - 1, 1 << 14, (1 << 14) + 1])
def test_one_row_block_is_its_row_of_the_block_and_das_solve(n):
    # a one-row block runs das_solve's one-row calls, a longer block the
    # block route: both give every row das_solve's bits
    rng = np.random.default_rng(n)
    for g, h_r, h_d in one_row_block_cases(rng, n):
        w_block, powers_block = das_solve_block(g, h_r, h_d, 2.0)
        for t in range(len(g)):
            w, powers = das_solve_block(g[t:t + 1], h_r[t:t + 1], h_d[t:t + 1], 2.0)
            assert w.shape == (1, n) and w.dtype == np.int64 and w.flags.c_contiguous
            assert type(powers) is list and len(powers) == 1 and type(powers[0]) is float
            assert w.tobytes() == w_block[t].tobytes() and powers[0] == powers_block[t], t
            sol = das_solve(ChannelRealization(g=g[t], h_r=h_r[t], h_d=h_d[t],
                                               noise_power=1.0, tx_power=2.0))
            assert w[0].tobytes() == sol.config.w.tobytes() and powers[0] == sol.power, t


def test_one_row_block_rejects_an_overflowing_row():
    g, h_r, h_d = draw_channels(8, [1], ChannelParams())
    g[0, 0] = h_r[0, 0] = 1e200  # the composite entry overflows a float
    with pytest.raises(ValueError, match="overflow"):
        das_solve_block(g, h_r, h_d, 1.0)
    g, h_r, h_d = draw_channels(8, [1], ChannelParams())
    h_d[0] = 1e160  # the power overflows a float
    with pytest.raises(ValueError, match="overflow"):
        das_solve_block(g, h_r, h_d, 1.0)


def sweep_direct_link_sign(g, h_r, h_d, w):
    """The direct-link entry's sign, +1 or -1, in the sweep's own sign vector.

    The sweep's sign vector is +1, in folded terms, on exactly the entries
    whose folded angle is at most the winning run end's, and w is that
    vector divided by its last entry. So of the vector (w, 1) and its
    negation, the sweep's is the one whose folded +1 entries are such a
    prefix, and exactly one of them is.
    """
    phi_bar = _composite(g, h_r, h_d)
    folded, flip = _fold_half(phi_bar)
    _fold_top(phi_bar, folded, flip)
    prefixes = []
    for plus in (np.append(w == 1, True) ^ flip, np.append(w == -1, False) ^ flip):
        prefixes.append(bool(plus.any())
                        and np.array_equal(plus, folded <= folded[plus].max()))
    assert prefixes.count(True) == 1
    return 1 if prefixes[0] else -1


def test_one_channel_configuration_is_its_block_row_with_either_direct_link_sign():
    # das_solve builds w by one of two sign branches, picked by the sign the
    # direct-link entry takes in the sweep's sign vector; das_solve_block
    # builds every row by another route. Both must agree on Rayleigh rows,
    # tie-heavy rows and rows with zero entries, and both branches must run
    rng = np.random.default_rng(5151)
    signs = {1: 0, -1: 0}
    for n in (1, 2, 3, 8, 64):
        blocks = []
        for los in (True, False):
            blocks.append(draw_channels(n, list(range(300, 340)), ChannelParams(los=los)))
        rows = 24
        g = TIE_MAGNITUDES[rng.integers(0, 3, (rows, n))] * TIE_GRID[rng.integers(0, 8, (rows, n))]
        h_d = np.array(TIE_DIRECT_LINKS * (rows // len(TIE_DIRECT_LINKS)), dtype=complex)
        blocks.append((g, np.ones((rows, n), dtype=complex), h_d))
        g, h_r, h_d = (x.copy() for x in blocks[0])
        g[:, ::2] = 0  # zero entries, and all-zero rows below
        g[:4] = 0
        h_d[:2] = 0
        blocks.append((g, h_r, h_d))
        for g, h_r, h_d in blocks:
            assert_block_rows_match_das_solve(g, h_r, h_d)
            w, _ = das_solve_block(g, h_r, h_d, 1.0)
            for t in range(len(g)):
                signs[sweep_direct_link_sign(g[t], h_r[t], h_d[t], w[t])] += 1
    assert signs[1] > 0 and signs[-1] > 0, signs


def test_das_solution_is_a_plain_frozen_dataclass():
    ch = generate_channel(16, 4)
    sol = das_solve(ch)
    built = Solution(config=sol.config, power=sol.power, evaluations=sol.evaluations)
    assert type(sol) is Solution
    assert repr(sol) == repr(built) and vars(sol).keys() == vars(built).keys()
    with pytest.raises(dataclasses.FrozenInstanceError):
        sol.power = 0.0


def test_threads_solve_at_once_and_keep_the_numpy_error_state():
    # the composite's overflow guard sets numpy's error state per call: the
    # threads solving an overflowing channel get ValueError, those solving a
    # normal one keep its pinned answer, no RuntimeWarning is raised
    # (warnings are errors here), and no thread's np.geterr() changes; four
    # threads, more than a small machine's cores
    good = make_channel([cmath.exp(1j * cmath.pi / 3), cmath.exp(-1j * cmath.pi / 4)],
                        [1, 1], 0.5)
    bad = make_channel([1e160, 2e160], [1e160, 1], 0)  # conj(h_r) * g overflows
    before = np.geterr()
    pinned = das_solve(good)
    assert np.geterr() == before
    assert math.isclose(pinned.power, BRUTE_N2_ORACLE, rel_tol=1e-12)
    with pytest.raises(ValueError, match="overflow"):
        das_solve(bad)
    assert np.geterr() == before
    rounds = 400
    channels = {"good0": good, "bad0": bad, "good1": good, "bad1": bad}
    barrier = threading.Barrier(len(channels), timeout=30)
    results = {}

    def solve(name, ch):
        state = np.geterr()
        answers = []
        barrier.wait()
        for _ in range(rounds):
            try:
                sol = das_solve(ch)
                answers.append((sol.config.w.tobytes(), sol.power))
            except ValueError as exc:
                answers.append(str(exc))
            assert np.geterr() == state
        results[name] = answers

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the GIL over as often as possible
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            threads = [threading.Thread(target=solve, args=item) for item in channels.items()]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for name in ("good0", "good1"):
        assert results[name] == [(pinned.config.w.tobytes(), pinned.power)] * rounds
    for name in ("bad0", "bad1"):
        assert len(results[name]) == rounds
        assert all("overflow" in answer for answer in results[name])
    assert np.geterr() == before


def pinned_channels():
    """das_solve's own hash set: Rayleigh, tie-heavy and 2^+-500-scaled channels."""
    for n in (1, 2, 3, 8, 17, 64, 256, 1000, 4096):
        for los in (True, False):
            for seed in range(6):
                yield generate_channel(n, 9100 + seed, ChannelParams(los=los))
    rng = np.random.default_rng(2718)
    for h_d in TIE_DIRECT_LINKS:
        for n in (1, 2, 5, 12, 64, 4096):
            for _ in range(3):
                yield tie_heavy_channel(rng, n, h_d)
    for k in (-500, 500):
        for n in (1, 8, 64):
            for los in (True, False):
                for seed in range(3):
                    ch = generate_channel(n, 9200 + seed, ChannelParams(los=los))
                    yield scaled_channel(ch, math.ldexp(1.0, k))


# sha256 of das_solve's configurations and powers on pinned_channels(), taken
# from the solver before its per-call overhead was cut (scalar rescale of a
# single row, in-place accumulate, no copy of the total): a change to the
# composite, the fold, the scan or the power shows here, at sizes and scales
# that RECORDS_SHA256 (block route, n <= 20) does not reach
DAS_SHA256 = "3fa6d78230e9ba8ab94cc5d4eb474fd44ff8c68ac8961791389b8258006026fd"


def test_das_solve_configs_and_powers_are_pinned():
    digest = hashlib.sha256()
    for ch in pinned_channels():
        sol = das_solve(ch)
        digest.update(sol.config.w.tobytes())
        digest.update(repr(sol.power).encode())
    assert digest.hexdigest() == DAS_SHA256


def long_channels():
    """Long channels, at N+1 = 2^20 and 2^20 + 1: Rayleigh with and without a
    direct link, tie-heavy, and scaled by 2^-500 or about 2^500."""
    rng = np.random.default_rng(1 << 20)
    for n in ((1 << 20) - 1, 1 << 20):
        for los in (True, False):
            yield generate_channel(n, 9300 + n % 7 + los, ChannelParams(los=los))
        yield tie_heavy_channel(rng, n, -1j)
        # 2^500 less the bits that a sum of n entries adds: the power stays finite
        k = -500 if n % 2 else 500 - n.bit_length()
        yield scaled_channel(generate_channel(n, 9400 + n % 7), math.ldexp(1.0, k))


# sha256 of das_solve's configurations and powers on long_channels(), taken
# once the power summed a long row in chunks of model._DOT_CHUNK: the same at
# any number of parts and of BLAS threads. The configurations alone hash as
# they did before, when the power was one np.vdot over the row
LONG_SHA256 = "7a44ce03f6f5b5303908ff39ce7b84680ff0b4bfae449437c7b951548c9b265f"


def test_long_das_solve_configs_and_powers_are_pinned():
    digest = hashlib.sha256()
    for ch in long_channels():
        sol = das_solve(ch)
        digest.update(sol.config.w.tobytes())
        digest.update(repr(sol.power).encode())
    assert digest.hexdigest() == LONG_SHA256
