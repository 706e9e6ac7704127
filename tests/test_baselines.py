import itertools
import math

import numpy as np
import pytest

import dasris.baselines as baselines
from dasris.baselines import (
    EXHAUSTIVE_LIMIT,
    ExhaustiveLimitError,
    continuous_upper_bound,
    exhaustive_search,
    greedy_bitflip,
    random_best_of_k,
)
from dasris.das import das_solve
from dasris.model import (
    ChannelParams,
    ChannelRealization,
    PhaseConfig,
    Solution,
    generate_channel,
    received_power,
)


def make_channel(g, h_r, h_d, noise_power=1.0, tx_power=1.0):
    return ChannelRealization(g=np.array(g, dtype=complex), h_r=np.array(h_r, dtype=complex),
                              h_d=h_d, noise_power=noise_power, tx_power=tx_power)


def test_exhaustive_single_element():
    res = exhaustive_search(make_channel([1], [1], 1))
    assert np.array_equal(res.config.w, [1])
    assert res.power == 4.0
    assert res.evaluations == 2


def test_exhaustive_tie_breaks_to_lowest_counter():
    # both [1,-1] and [-1,1] reach power 4; counter value 1 encodes [-1,1]
    res = exhaustive_search(make_channel([1, -1], [1, 1], 0))
    assert math.isclose(res.power, 4.0, rel_tol=1e-12)
    assert np.array_equal(res.config.w, [-1, 1])
    assert res.evaluations == 4


def test_exhaustive_matches_itertools_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        ch = generate_channel(n, int(rng.integers(0, 2**32)),
                              ChannelParams(los=bool(rng.integers(0, 2))))
        res = exhaustive_search(ch)
        best = max(
            received_power(ch, PhaseConfig(np.array(w)))
            for w in itertools.product((1, -1), repeat=n)
        )
        assert math.isclose(res.power, best, rel_tol=1e-12, abs_tol=1e-15)
        assert res.evaluations == 2**n


def test_exhaustive_ties_keep_the_first_counter_of_a_plain_loop():
    # Gaussian-integer channels: every power is an exact integer, so ties are
    # exact and the winner must be the first maximiser in counter order
    rng = np.random.default_rng(505)
    grid = [0, 1, -1, 1j, -1j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]
    for n in range(1, 10):
        for h_d in (0, 1):
            for _ in range(30):
                g = [grid[i] for i in rng.integers(0, len(grid), size=n)]
                best_power, best_w = -1.0, None
                for c in range(2**n):
                    w = [1 - 2 * ((c >> k) & 1) for k in range(n)]
                    amp = h_d + sum(wk * gk for wk, gk in zip(w, g))
                    power = amp.real**2 + amp.imag**2
                    if power > best_power:
                        best_power, best_w = power, w
                res = exhaustive_search(make_channel(g, [1] * n, h_d))
                assert np.array_equal(res.config.w, best_w), (n, h_d, g)
                assert res.power == best_power


@pytest.mark.parametrize("n", [16, 17, 18])
def test_exhaustive_ties_across_grid_chunks_keep_the_lowest_counter(n):
    # the grid is scanned in chunks of rows; exact ties between chunks (with
    # h_d = 0 a configuration and its negation tie, one in each half of the
    # counters) must still go to the lowest counter of a full enumeration
    rows_per_chunk = baselines._CHUNK_BYTES // (8 << (n // 2))
    assert (1 << (n - n // 2)) > rows_per_chunk  # more than one chunk
    rng = np.random.default_rng(n)
    grid = np.array([0, 1, -1, 1j, -1j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
    counters = np.arange(1 << n)
    for h_d in (0, 1 + 1j, 2):
        for _ in range(4):
            g = grid[rng.integers(0, len(grid), size=n)]
            # Gaussian integers: every power is an exact integer
            amp_re = np.full(1 << n, int(complex(h_d).real))
            amp_im = np.full(1 << n, -int(complex(h_d).imag))  # conj(h_d)
            for k in range(n):
                sign = 1 - 2 * ((counters >> k) & 1)
                amp_re += sign * int(g[k].real)
                amp_im += sign * int(g[k].imag)
            powers = amp_re * amp_re + amp_im * amp_im
            best = int(np.argmax(powers))
            res = exhaustive_search(make_channel(g, np.ones(n), h_d))
            assert np.array_equal(res.config.w, 1 - 2 * ((best >> np.arange(n)) & 1))
            assert res.power == powers[best]
            assert res.evaluations == 1 << n


def test_exhaustive_refuses_above_limit():
    ch = generate_channel(EXHAUSTIVE_LIMIT + 1, 0)
    with pytest.raises(ExhaustiveLimitError) as err:
        exhaustive_search(ch)
    assert "20" in str(err.value)


def test_exhaustive_chunked_enumeration_consistent():
    # n = 17 splits into a low table of 8 elements and a high one of 9
    ch = generate_channel(17, 99)
    res = exhaustive_search(ch)
    assert res.evaluations == 2**17
    assert math.isclose(res.power, das_solve(ch).power, rel_tol=1e-9)


def test_greedy_fixed_point_at_optimum():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(1, 10))
        ch = generate_channel(n, int(rng.integers(0, 2**32)))
        opt = das_solve(ch).config
        res = greedy_bitflip(ch, opt)
        assert np.array_equal(res.config.w, opt.w)
        assert res.power == received_power(ch, opt)


def test_greedy_never_degrades_start():
    rng = np.random.default_rng(22)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        ch = generate_channel(n, int(rng.integers(0, 2**32)))
        start = PhaseConfig(rng.integers(0, 2, size=n) * 2 - 1)
        res = greedy_bitflip(ch, start)
        assert res.power >= received_power(ch, start)


def test_greedy_zero_sweeps_returns_start():
    ch = generate_channel(5, 1)
    start = PhaseConfig(np.ones(5, dtype=int))
    res = greedy_bitflip(ch, start, max_sweeps=0)
    assert np.array_equal(res.config.w, start.w)
    assert res.evaluations == 0


def test_greedy_rejects_max_sweeps_that_is_not_an_integer_ge_0():
    ch = generate_channel(5, 1)
    start = PhaseConfig(np.ones(5, dtype=int))
    for max_sweeps in (2.5, 2.0, -3, -1, "3", None):
        with pytest.raises(ValueError, match="max_sweeps"):
            greedy_bitflip(ch, start, max_sweeps=max_sweeps)
    # numpy integers pass, as ExperimentPlan's sizes do
    assert greedy_bitflip(ch, start, max_sweeps=np.int64(1)).evaluations == 5


def test_greedy_rejects_length_mismatch():
    ch = generate_channel(4, 1)
    with pytest.raises(ValueError):
        greedy_bitflip(ch, PhaseConfig(np.ones(3, dtype=int)))


def test_greedy_reaches_optimum_on_tiny_instances():
    # with n=2 the landscape is small enough that a sweep always escapes
    ch = make_channel([1, -1], [1, 1], 0)
    start = PhaseConfig(np.array([1, 1]))
    res = greedy_bitflip(ch, start)
    assert math.isclose(res.power, 4.0, rel_tol=1e-12)


def test_random_best_of_k_deterministic():
    ch = generate_channel(12, 5)
    a = random_best_of_k(ch, 16, seed=9)
    b = random_best_of_k(ch, 16, seed=9)
    assert np.array_equal(a.config.w, b.config.w)
    assert a.power == b.power
    assert a.evaluations == 16


def test_random_best_of_k_validates_k():
    ch = generate_channel(4, 0)
    with pytest.raises(ValueError):
        random_best_of_k(ch, 0, seed=1)
    for k in (2.0, 2.5, "2", None):
        with pytest.raises(ValueError, match="k must be an integer"):
            random_best_of_k(ch, k, seed=0)
    a, b = random_best_of_k(ch, np.int64(2), seed=0), random_best_of_k(ch, 2, seed=0)
    assert (a.config.w.tobytes(), a.power) == (b.config.w.tobytes(), b.power)


def test_random_improves_with_more_draws():
    # with the same seed the k=64 batch starts with the k=1 draw, so its
    # best can only match or improve
    ch = generate_channel(10, 123)
    small = random_best_of_k(ch, 1, seed=7)
    assert random_best_of_k(ch, 64, seed=7).power >= small.power


def test_continuous_upper_bound_value():
    ch = make_channel([1j], [1], 1)
    assert continuous_upper_bound(ch) == 4.0
    # the best 1-bit configuration only reaches |1 + 1j|^2 = 2
    assert das_solve(ch).power == 2.0


def test_continuous_upper_bound_scales_with_tx_power():
    ch = make_channel([1, 1], [1, 1], 1, tx_power=3.0)
    assert continuous_upper_bound(ch) == 27.0


# finite coefficients whose product conj(h_r) * g overflows a float
OVERFLOWING_PRODUCT = dict(g=[1e160, 2e160], h_r=[1e160, 1], h_d=0)


def test_overflowing_composite_is_rejected_by_every_solver_and_the_bound():
    ch = make_channel(**OVERFLOWING_PRODUCT)
    solvers = (
        das_solve,
        exhaustive_search,
        lambda c: greedy_bitflip(c, PhaseConfig(np.ones(c.n))),
        lambda c: random_best_of_k(c, 16, seed=1),
        continuous_upper_bound,
    )
    for solve in solvers:
        with pytest.raises(ValueError, match="overflow"):
            solve(ch)


def test_continuous_upper_bound_rejects_overflow():
    # every product is finite here, but the bound passes the largest float
    ch = generate_channel(8, 3)
    huge = ChannelRealization(g=ch.g * 1e160, h_r=ch.h_r, h_d=ch.h_d * 1e160,
                              noise_power=ch.noise_power)
    with pytest.raises(ValueError, match="overflow"):
        continuous_upper_bound(huge)


def test_continuous_upper_bound_rejects_a_magnitude_sum_past_the_largest_float():
    # every product is finite, but the magnitudes sum past the largest float;
    # the sum runs under the same overflow guard as the product, so numpy
    # does not warn (warnings are errors here) before the ValueError
    ch = make_channel([1e160, 1e160], [1.5e148, 1.5e148], 0)
    with pytest.raises(ValueError, match="overflow"):
        continuous_upper_bound(ch)

def test_dominance_chain_on_random_instances():
    rng = np.random.default_rng(99)
    strict = 0
    for _ in range(200):
        n = int(rng.integers(2, 24))
        ch = generate_channel(n, int(rng.integers(0, 2**32)),
                              ChannelParams(los=bool(rng.integers(0, 2))))
        rand = random_best_of_k(ch, 16, seed=int(rng.integers(0, 2**32)))
        greedy = greedy_bitflip(ch, rand.config)
        das = das_solve(ch)
        bound = continuous_upper_bound(ch)
        assert rand.power <= greedy.power
        assert greedy.power <= das.power
        assert das.power <= bound * (1 + 1e-12)
        if greedy.power < das.power:
            strict += 1
    assert strict > 0


def test_baseline_result_power_consistent_with_config():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(1, 12))
        ch = generate_channel(n, int(rng.integers(0, 2**32)))
        greedy = greedy_bitflip(ch, random_best_of_k(ch, 8, seed=3).config)
        for res, evaluations in (
            (das_solve(ch), n + 1),
            (exhaustive_search(ch), 2**n),
            (random_best_of_k(ch, 8, seed=3), 8),
            (greedy, greedy.evaluations),  # its count is checked below
        ):
            assert type(res) is Solution
            assert res.power == received_power(ch, res.config)
            assert res.evaluations == evaluations
        # one probe per element per sweep, and at least one sweep
        assert greedy.evaluations % n == 0 and greedy.evaluations >= n
