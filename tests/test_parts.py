"""The split route: a long row solved as parts, on threads of their own.

The kernel and the composite take the part count, so these tests run it at
1 to 4 parts on small channels, whatever the machine's core count. Which
route a solve takes by default is pinned at the crossover length, where
_part_count first returns more than one part.
"""

import math
import os
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings

import dasris.model as model
from dasris.baselines import exhaustive_search
from dasris.das import _best_step_pattern, das_solve, das_solve_block
from dasris.harness import ExperimentPlan, run_plan
from dasris.model import (
    ChannelParams,
    PhaseConfig,
    _composite,
    _part_count,
    _run_parts,
    draw_channels,
    generate_channel,
    received_power,
)
from test_das import TIE_DIRECT_LINKS, adversarial_channels, make_channel, tie_heavy_channel

PARTS = (1, 2, 3, 4)


def solve_in_parts(ch, parts):
    """das_solve with the part count forced: (config, power)."""
    w = _best_step_pattern(_composite(ch.g, ch.h_r, ch.h_d, parts=parts), parts)
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
        phi = _composite(ch.g, ch.h_r, ch.h_d, parts=1)
        w, power = solve_in_parts(ch, 1)
        assert w.tobytes() == das_solve(ch).config.w.tobytes()
        for parts in PARTS[1:]:
            assert _composite(ch.g, ch.h_r, ch.h_d, parts=parts).tobytes() == phi.tobytes()
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
        w = _best_step_pattern(_composite(g, h_r, h_d, parts=parts), parts)
        for t in range(len(g)):
            row = _best_step_pattern(_composite(g[t], h_r[t], h_d[t], parts=parts), parts)
            assert w[t].tobytes() == row.tobytes()


def test_a_solve_below_the_crossover_starts_no_thread(monkeypatch):
    def refuse(*args):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(model._thread, "start_new_thread", refuse)
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


def test_run_parts_returns_results_in_part_order():
    assert _run_parts(lambda p: p * p, 1) == [0]
    assert _run_parts(lambda p: p * p, 5) == [0, 1, 4, 9, 16]


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
                return -p

            assert _run_parts(work, 8) == [-p for p in range(8)]
            assert ran == [1] * 8
    finally:
        sys.setswitchinterval(interval)


def test_run_parts_carries_the_numpy_error_state_into_its_threads():
    big = np.array([1e300])
    barrier = both_threads()
    idents = set()

    def work(p):
        barrier.wait()
        idents.add(threading.get_ident())
        return big * big

    with np.errstate(over="ignore"):
        assert all(np.isinf(r).all() for r in _run_parts(work, 2))
    assert len(idents) == 2
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
    g, h_r, h_d = draw_channels(64, [1], ChannelParams())
    g[0, ::7] = h_r[0, ::7] = 1e200  # an overflowing product in every part
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for parts in PARTS:
            with pytest.raises(ValueError, match="overflow"):
                _composite(g, h_r, h_d, parts=parts)
        monkeypatch.setattr(model, "_PART_MIN", 8)  # every solve splits
        with pytest.raises(ValueError, match="overflow"):
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
