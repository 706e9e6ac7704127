import cmath
import itertools
import math

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
from dasris.baselines import continuous_upper_bound, exhaustive_search
from dasris.das import das_solve, das_solve_block
from dasris.model import (
    ChannelParams,
    ChannelRealization,
    PhaseConfig,
    _PART_MIN,
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
