"""The long route: a long row's fold and sort run as parts, on threads of their own.

The kernel takes the part count, so these tests run it at 1 to 4 parts on
small channels, whatever the machine's core count. Which route a solve takes
by default is pinned at the crossover length, where _part_count first
returns more than one part. The same length makes a row long for the
composite and the power, which then allocate no row-length temporaries;
the tests force that length down to reach those forms on small rows.
"""

import math
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings

import dasris.das as das
import dasris.model as model
from dasris.baselines import exhaustive_search
from dasris.das import _best_step_pattern, _part_count, _run_parts, das_solve, das_solve_block
from dasris.harness import ExperimentPlan, run_plan
from dasris.model import (
    ChannelParams,
    PhaseConfig,
    _composite,
    composite_phi,
    draw_channels,
    generate_channel,
    received_power,
)
from test_das import (
    TIE_DIRECT_LINKS,
    adversarial_channels,
    make_channel,
    scaled_channel,
    tie_heavy_channel,
)

PARTS = (1, 2, 3, 4)


def solve_in_parts(ch, parts):
    """das_solve with the part count forced: (config, power)."""
    w = _best_step_pattern(_composite(ch.g, ch.h_r, ch.h_d), parts)
    return w, received_power(ch, PhaseConfig._trusted(w))


def both_threads(parts=2):
    """A barrier that holds each of parts parts until all have been claimed.

    No thread can take two parts while the others wait, so every part runs on
    a thread of its own, and all but one of them on a thread _run_parts
    started.
    """
    return threading.Barrier(parts, timeout=30)


def test_part_count_splits_from_the_crossover_length():
    cores = len(os.sched_getaffinity(0))
    assert _part_count(2 * model._PART_MIN - 1) == 1
    assert _part_count(2 * model._PART_MIN) == min(2, cores)
    assert _part_count(8 * model._PART_MIN) == min(8, cores)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 100, 1000, 4097])
@pytest.mark.parametrize("los", [True, False])
def test_configs_are_bitwise_equal_across_part_counts(n, los):
    # Rayleigh channels: the folded angles are distinct, so the sort order is
    # unique and every part count takes the same sums
    for channel_seed in range(4):
        ch = generate_channel(n, 1000 * n + channel_seed, ChannelParams(los=los))
        w, power = solve_in_parts(ch, 1)
        assert w.tobytes() == das_solve(ch).config.w.tobytes()
        for parts in PARTS[1:]:
            other, other_power = solve_in_parts(ch, parts)
            assert other.tobytes() == w.tobytes(), (n, channel_seed, parts)
            assert other_power == power


@seed(61013)
@given(adversarial_channels())
@settings(max_examples=150, deadline=None)
def test_every_part_count_is_optimal_on_adversarial_channels(ch):
    best = exhaustive_search(ch).power
    for parts in PARTS:
        assert math.isclose(solve_in_parts(ch, parts)[1], best, rel_tol=1e-9), parts


def test_every_part_count_is_optimal_on_tie_heavy_channels():
    rng = np.random.default_rng(5150)
    for h_d in TIE_DIRECT_LINKS:
        for _ in range(30):
            ch = tie_heavy_channel(rng, int(rng.integers(1, 17)), h_d)
            best = exhaustive_search(ch).power
            for parts in PARTS:
                assert math.isclose(solve_in_parts(ch, parts)[1], best,
                                    rel_tol=1e-9, abs_tol=1e-12), parts


def degenerate_channels():
    rng = np.random.default_rng(404)
    n = 600
    same = np.full(n, 0.3 - 0.7j)
    yield "every key equal", make_channel(same, np.ones(n), 0.6 - 1.4j)
    yield "every key equal, no direct link", make_channel(same, np.ones(n), 0)
    upper = np.exp(1j * rng.uniform(0.01, 1.5, n)) * rng.exponential(1.0, n)
    yield "every key above 0", make_channel(upper, np.ones(n), 0.2j)
    yield "every key below 0", make_channel(upper.conj(), np.ones(n), -0.2j)
    # three directions only: every pivot equals hundreds of keys
    few = np.exp(1j * np.array([-1.0, 0.25, 1.2]))[rng.integers(0, 3, n)] * rng.integers(1, 4, n)
    yield "pivots on runs of equal keys", make_channel(few, np.ones(n), 1.0)
    yield "all zero", make_channel(np.zeros(n), np.ones(n), 0)
    zeros_and_ties = np.where(rng.random(n) < 0.5, 0, few)
    yield "zeros among runs", make_channel(zeros_and_ties, np.ones(n), -1j)


@pytest.mark.parametrize("case", [name for name, _ in degenerate_channels()])
def test_degenerate_splits_stay_exact(case):
    ch = dict(degenerate_channels())[case]
    w, power = solve_in_parts(ch, 1)
    for parts in PARTS[1:]:
        other, other_power = solve_in_parts(ch, parts)
        # the same run ends, so the same optimum, up to the order of the sums
        assert math.isclose(other_power, power, rel_tol=1e-12, abs_tol=0.0), parts
    if case.startswith("every key equal") or case == "all zero":
        for parts in PARTS[1:]:
            assert solve_in_parts(ch, parts)[0].tobytes() == w.tobytes()


def test_a_split_block_is_solved_row_by_row():
    g, h_r, h_d = draw_channels(300, list(range(7)), ChannelParams())
    for parts in PARTS[1:]:
        w = _best_step_pattern(_composite(g, h_r, h_d), parts)
        for t in range(len(g)):
            row = _best_step_pattern(_composite(g[t], h_r[t], h_d[t]), parts)
            assert w[t].tobytes() == row.tobytes()


def test_a_solve_below_the_crossover_starts_no_thread(monkeypatch):
    def refuse(*args):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(das._thread, "start_new_thread", refuse)
    ch = generate_channel(4096, 3)
    assert das_solve(ch).config.n == 4096
    g, h_r, h_d = draw_channels(256, list(range(64)), ChannelParams())
    das_solve_block(g, h_r, h_d, 1.0)
    sweep = ExperimentPlan(n_values=(16, 64, 256), trials=80, base_seed=5)
    assert len(run_plan(sweep)) == 3 * 80
    oracle = ExperimentPlan(n_values=(16, 20), trials=8, base_seed=5,
                            methods=("das", "exhaustive", "greedy", "random"))
    assert len(run_plan(oracle)) == 2 * 8 * 4
    with pytest.raises(AssertionError, match="a thread was started"):
        solve_in_parts(ch, 2)


def test_run_parts_runs_every_part_once():
    for parts in (1, 5):
        ran = []
        _run_parts(ran.append, parts)
        assert sorted(ran) == list(range(parts))


@pytest.mark.parametrize("parts", [2, 3])
def test_a_split_solve_starts_threads_for_the_fold_and_the_sort_only(monkeypatch, parts):
    # two thread rounds, the fold's and the sort's, of parts - 1 threads each
    started = []
    start = das._thread.start_new_thread

    def count(*args):
        started.append(args)
        return start(*args)

    monkeypatch.setattr(das._thread, "start_new_thread", count)
    # the row made long and its part count forced, so the count holds on any
    # number of cores
    monkeypatch.setattr(model, "_PART_MIN", 64)
    monkeypatch.setattr(das, "_part_count", lambda length: parts)
    ch = generate_channel(1000, 21)
    assert das_solve(ch).config.w.tobytes() == solve_in_parts(ch, 1)[0].tobytes()
    assert len(started) == 2 * (parts - 1)


def test_run_parts_runs_every_part_once_under_contention():
    # more parts than cores, and a short switch interval to interleave the
    # threads' claims: a part claimed twice or never would show in the counts
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            ran = [0] * 8

            def work(p):
                ran[p] += 1

            _run_parts(work, 8)
            assert ran == [1] * 8
    finally:
        sys.setswitchinterval(interval)


def test_run_parts_carries_the_numpy_error_state_into_its_threads():
    big = np.array([1e300])
    barrier = both_threads()
    squares = {}

    def work(p):
        barrier.wait()
        squares[threading.get_ident()] = big * big

    with np.errstate(over="ignore"):
        _run_parts(work, 2)
    assert len(squares) == 2
    assert all(np.isinf(r).all() for r in squares.values())
    barrier = both_threads()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        _run_parts(work, 2)


def test_a_worker_exception_reaches_the_caller():
    caller = threading.get_ident()
    barrier = both_threads()

    def work(p):
        barrier.wait()
        if threading.get_ident() != caller:
            raise KeyError("raised on a worker thread")
        return p

    with pytest.raises(KeyError, match="raised on a worker thread"):
        _run_parts(work, 2)


def test_an_overflowing_composite_on_the_split_path_raises_without_a_warning(monkeypatch):
    # a long row whose products overflow, through das_solve and a one-row
    # block, and long rows whose g, h_r or h_d holds a NaN or inf, which only
    # a block takes: a channel must be finite
    monkeypatch.setattr(model, "_PART_MIN", 8)  # every solve splits
    overflow = draw_channels(64, [1], ChannelParams())
    g, h_r, h_d = overflow
    g[0, ::7] = h_r[0, ::7] = 1e200  # overflowing products all along the row
    blocks = [overflow]
    for at, value in ((0, math.nan), (1, math.inf), (0, -math.inf), (2, math.nan)):
        block = draw_channels(64, [1], ChannelParams())
        block[at][0, ...] = value
        blocks.append(block)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the composite's message: a NaN that got past it would reach the
        # power's check, whose message also names overflow, NaN and inf
        with pytest.raises(ValueError, match="composite coefficient"):
            das_solve(make_channel(g[0], h_r[0], complex(h_d[0])))
        for g, h_r, h_d in blocks:
            with pytest.raises(ValueError, match="composite coefficient"):
                das_solve_block(g, h_r, h_d, 1.0)


def test_no_thread_outlives_a_split_solve(monkeypatch):
    monkeypatch.setattr(model, "_PART_MIN", 64)  # every solve below splits
    before = threading.active_count()
    ch = generate_channel(1000, 8)
    sol = das_solve(ch)
    for parts in PARTS:
        solve_in_parts(ch, parts)
    g, h_r, h_d = draw_channels(1000, [1, 2, 3], ChannelParams())
    das_solve_block(g, h_r, h_d, 1.0)
    assert threading.active_count() == before
    assert sol.power == solve_in_parts(ch, 1)[1]


def hard_rows(n):
    """Channels of n elements whose every entry, product and sum is exact, so no
    loop and no order of a sum can round them another way: tie-heavy rows of
    Gaussian integers, zero entries, +-0.0 imaginary parts in g and h_r,
    +-pi/2 angles and a 2^-500 scale."""
    rng = np.random.default_rng(n)
    grid = np.array([1, 1 + 1j, 1j, -1 + 1j, -1, -1 - 1j, -1j, 1 - 1j])
    for h_d in TIE_DIRECT_LINKS:
        yield make_channel(rng.integers(0, 3, n) * grid[rng.integers(0, 8, n)], np.ones(n), h_d)
    signs = rng.choice([1.0, -1.0], n)
    real = [complex(x, math.copysign(0.0, s)) for x, s in zip(rng.integers(0, 4, n), signs)]
    yield make_channel(real, [complex(1, math.copysign(0.0, -s)) for s in signs], -0.0j)
    yield make_channel(rng.integers(-3, 4, n) * 1j, np.ones(n), 1j)
    yield make_channel(np.zeros(n), np.ones(n), 0.5)
    yield scaled_channel(make_channel(rng.integers(-2, 3, n) + 0j, np.ones(n), -1j), 2.0**-500)


def route_bits(ch):
    """The bytes of everything a solve of ch returns: alone, as a one-row block
    and as a row of a two-row block."""
    g = np.vstack((ch.g, ch.g[::-1]))
    h_r = np.vstack((ch.h_r, ch.h_r[::-1]))
    h_d = np.array([ch.h_d, -ch.h_d])
    sol = das_solve(ch)
    blocks = [das_solve_block(g[:rows], h_r[:rows], h_d[:rows], ch.tx_power) for rows in (1, 2)]
    return (composite_phi(ch).tobytes(), sol.config.w.tobytes(), repr(sol.power),
            *((w.tobytes(), repr(powers)) for w, powers in blocks))


@pytest.mark.parametrize("parts", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 257])
def test_long_rows_take_the_short_routes_bits(monkeypatch, n, parts):
    # the composite, top and power of a long row, and its split sort, which
    # sorts +0.0 and -0.0 keys in any order, against the short route. Exact
    # rows give the same bits at any part count, and so do Rayleigh rows,
    # whose folded angles differ; those from two entries: numpy multiplies a
    # lone entry in place by a loop without a fused multiply-add, which is
    # why the long forms stay on long rows
    channels = list(hard_rows(n))
    if n > 1:
        channels += [generate_channel(n, 77 + los, ChannelParams(los=los)) for los in (True, False)]
        rayleigh = channels[-1]
        channels.append(make_channel(rayleigh.g * 1j, rayleigh.h_r, 0))  # angles near +-pi/2
    short = [route_bits(ch) for ch in channels]
    monkeypatch.setattr(model, "_PART_MIN", 1)  # every row is long
    monkeypatch.setattr(das, "_part_count", lambda length: parts)
    for ch, bits in zip(channels, short):
        assert route_bits(ch) == bits


@pytest.mark.parametrize("n", [2 * model._PART_MIN - 1, 1 << 20])
def test_a_long_composite_allocates_only_its_result(n):
    # a row-length temporary in the product or the top would double the peak
    ch = generate_channel(n, 5)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        phi_bar = composite_phi(ch)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert phi_bar.nbytes <= peak < phi_bar.nbytes + (1 << 16)
