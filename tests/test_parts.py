"""The long route: a long row runs as parts, on threads of their own.

das._solve_long takes the part count, so these tests run it at 1 to 4 parts
on small channels, whatever the machine's core count, and compare it with
the short route, das._best_step_pattern over model._composite. Which route a
solve takes by default is pinned at the crossover length, where _part_count
first returns more than one part; the tests force that length down to take
the long route, and its forms without row-length temporaries, on small rows.
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
from dasris.baselines import exhaustive_search
from dasris.das import (
    _fold_half,
    _fold_top,
    _long,
    _long_composite,
    _part_count,
    _run_parts,
    _solve_long,
    _stable_order,
    das_solve,
    das_solve_block,
)
from dasris.harness import ExperimentPlan, run_plan
from dasris.model import (
    ChannelParams,
    PhaseConfig,
    composite_phi,
    draw_channels,
    generate_channel,
    received_power,
)
from test_das import (
    TIE_DIRECT_LINKS,
    adversarial_channels,
    eager_mask_row,
    make_channel,
    run_heavy_rows,
    scaled_channel,
    tie_heavy_channel,
)

PARTS = (1, 2, 3, 4)


def solve_in_parts(ch, parts):
    """das_solve's long route with the part count forced: (config, power)."""
    return _solve_long(ch.g, ch.h_r, ch.h_d, ch.tx_power, parts)


def long_composite(ch, parts):
    """The bytes of ch's composite as the long route builds it in parts, rescaled."""
    length = ch.n + 1
    phi_bar, exponent = _long_composite(ch.g, ch.h_r, ch.h_d,
                                        [length * p // parts for p in range(parts + 1)])
    return np.ldexp(phi_bar.view(np.float64), exponent).tobytes()


def both_threads(parts=2):
    """A barrier that holds each of parts parts until all have been claimed.

    No thread can take two parts while the others wait, so every part runs on
    a thread of its own, and all but one of them on a thread _run_parts
    started.
    """
    return threading.Barrier(parts, timeout=30)


def counted_threads(monkeypatch):
    """The arguments of every thread das starts from now on."""
    started = []
    start = das._thread.start_new_thread

    def count(*args):
        started.append(args)
        return start(*args)

    monkeypatch.setattr(das._thread, "start_new_thread", count)
    return started


def test_part_count_splits_from_the_crossover_length():
    cores = len(os.sched_getaffinity(0))
    assert _part_count(2 * das._PART_MIN - 1) == 1
    assert _part_count(2 * das._PART_MIN) == min(2, cores)
    assert _part_count(8 * das._PART_MIN) == min(8, cores)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 100, 1000, 4097])
@pytest.mark.parametrize("los", [True, False])
def test_configs_are_bitwise_equal_across_part_counts(n, los):
    # Rayleigh channels: the folded angles are distinct, so the sort order is
    # unique and every part count takes the same sums
    for channel_seed in range(4):
        ch = generate_channel(n, 1000 * n + channel_seed, ChannelParams(los=los))
        w, power = solve_in_parts(ch, 1)
        sol = das_solve(ch)
        assert (w.tobytes(), power) == (sol.config.w.tobytes(), sol.power)
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
    # three directions only: runs of hundreds of equal keys across every cut
    few = np.exp(1j * np.array([-1.0, 0.25, 1.2]))[rng.integers(0, 3, n)] * rng.integers(1, 4, n)
    yield "runs of equal keys", make_channel(few, np.ones(n), 1.0)
    yield "all zero", make_channel(np.zeros(n), np.ones(n), 0)
    zeros_and_ties = np.where(rng.random(n) < 0.5, 0, few)
    yield "zeros among runs", make_channel(zeros_and_ties, np.ones(n), -1j)


@pytest.mark.parametrize("case", [name for name, _ in degenerate_channels()])
def test_degenerate_splits_stay_exact(case):
    # every part count orders ties by index, so it adds the same sums in the
    # same order: the same configuration and power, to the bit
    ch = dict(degenerate_channels())[case]
    w, power = solve_in_parts(ch, 1)
    for parts in PARTS[1:]:
        other, other_power = solve_in_parts(ch, parts)
        assert (other.tobytes(), repr(other_power)) == (w.tobytes(), repr(power)), parts


def near_equal_angles():
    """Angles a few ulps apart around five bases, +-pi/2 among them, and
    +-0.0 and +-5e-324: each base's angles share a truncated key and differ."""
    steps = np.arange(-3, 4)
    values = [0.0, -0.0, 5e-324, -5e-324]
    for base in (0.7, -0.3, 1e-300, math.pi / 2, -math.pi / 2):
        values += (np.array([base]).view(np.int64) + steps).view(np.float64).tolist()
    return np.array(values)


def stable_order_rows():
    """(name, angles): the folded angles of Rayleigh and tie-heavy rows, and a
    row of near_equal_angles, which only the sort's fix-up orders."""
    rng = np.random.default_rng(808)
    n = 3000
    for los in (True, False):
        ch = generate_channel(n, 31 + los, ChannelParams(los=los))
        yield f"rayleigh, los={los}", _fold_half(composite_phi(ch))[0]
    for h_d in TIE_DIRECT_LINKS:
        yield f"tie-heavy, h_d={h_d}", _fold_half(composite_phi(tie_heavy_channel(rng, n, h_d)))[0]
    yield "near-equal angles", rng.choice(near_equal_angles(), n)
    # sorted, 0.5 and the next float take positions 4 and 5 in the wrong order,
    # the one pair to fix up, across the cut of two parts
    yield "a pair across the cut", np.array([np.nextafter(0.5, 1.0), -1.0, -0.9, -0.8, -0.7,
                                             0.5, 1.0, 1.1, 1.2, 1.3])


@pytest.mark.parametrize("parts", [1, 2, 3])
@pytest.mark.parametrize("case", [name for name, _ in stable_order_rows()])
def test_the_long_sort_is_the_stable_argsort(case, parts):
    angles = dict(stable_order_rows())[case]
    n = len(angles)
    stable = np.argsort(angles + 0.0, kind="stable")
    if case in ("near-equal angles", "a pair across the cut"):
        # the packed keys alone leave this row out of order
        truncated = das._sortable((angles + 0.0).view(np.int64)) >> (n - 1).bit_length()
        assert np.argsort(truncated, kind="stable").tobytes() != stable.tobytes()
    order, keys = _stable_order(angles, [n * p // parts for p in range(parts + 1)])
    assert order.tobytes() == stable.tobytes()
    assert (keys == np.sort(angles)).all()


@pytest.mark.parametrize("parts", [2, 3])
def test_near_equal_angles_solve_alike_on_every_part_count(monkeypatch, parts):
    rng = np.random.default_rng(909)
    n = 2000
    g = rng.exponential(1.0, n) * np.exp(1j * rng.choice(near_equal_angles(), n))
    ch = make_channel(g, np.ones(n), 0.3 - 0.1j)
    monkeypatch.setattr(das, "_PART_MIN", 64)  # the solve takes the long route
    monkeypatch.setattr(das, "_part_count", lambda length: parts)
    sol = das_solve(ch)
    for count in (1, parts):
        w, power = solve_in_parts(ch, count)
        assert (w.tobytes(), repr(power)) == (sol.config.w.tobytes(), repr(sol.power))


def test_rows_past_the_longest_take_the_short_route():
    assert _long(2 * das._PART_MIN) and _long(das._LONG_MAX)
    assert not _long(2 * das._PART_MIN - 1) and not _long(das._LONG_MAX + 1)


def test_a_split_block_is_solved_row_by_row(monkeypatch):
    # a block of long rows, a lone long row and an empty block: each row
    # through das_solve's long route, into its row of the result
    g, h_r, h_d = draw_channels(300, list(range(7)), ChannelParams())
    monkeypatch.setattr(das, "_PART_MIN", 64)
    for parts in PARTS:
        monkeypatch.setattr(das, "_part_count", lambda length: parts)
        for rows in (7, 1, 0):
            w, powers = das_solve_block(g[:rows], h_r[:rows], h_d[:rows], 2.0)
            assert w.shape == (rows, 300) and w.dtype == np.int64 and len(powers) == rows
            for t in range(rows):
                sol = das_solve(make_channel(g[t], h_r[t], complex(h_d[t]), tx_power=2.0))
                assert w[t].tobytes() == sol.config.w.tobytes()
                assert repr(powers[t]) == repr(sol.power)


def traced_peak(call):
    """call()'s result, and the bytes it allocates at its peak over those allocated before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_a_block_of_long_rows_peaks_at_one_rows_solve_and_its_result(monkeypatch):
    # no block temporary, and nothing of one row's solve kept into the next's
    n = 1 << 14
    g, h_r, h_d = draw_channels(n, [1, 2, 3], ChannelParams())
    monkeypatch.setattr(das, "_PART_MIN", 1 << 12)
    monkeypatch.setattr(das, "_part_count", lambda length: 2)
    ch = make_channel(g[0], h_r[0], complex(h_d[0]))
    row = traced_peak(lambda: das_solve(ch))[1]
    block = traced_peak(lambda: das_solve_block(g, h_r, h_d, 1.0))[1]
    assert block < row + g.size * 8 + (1 << 14)


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
def test_a_split_solve_starts_seven_thread_rounds(monkeypatch, parts):
    # six thread rounds of parts - 1 threads each: the product and its top,
    # the rescale and the fold, the packed keys, the gather, the scores, and
    # the configuration; and the sort round's one thread, for its second
    # sort and the scan for mixed groups. The order's fix-up, the prefix sum
    # and the power's dot product start none
    started = counted_threads(monkeypatch)
    # the row made long and its part count forced, so the count holds on any
    # number of cores
    monkeypatch.setattr(das, "_PART_MIN", 64)
    monkeypatch.setattr(das, "_part_count", lambda length: parts)
    ch = generate_channel(1000, 21)
    w = das_solve(ch).config.w
    assert len(started) == 6 * (parts - 1) + 1
    assert w.tobytes() == solve_in_parts(ch, 1)[0].tobytes()


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
    monkeypatch.setattr(das, "_PART_MIN", 8)  # every solve splits
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


def bad_rows(n, parts):
    """(what, g, h_r, h_d) of n elements, each with one bad entry in one part.

    For each part: an overflowing product, and a NaN, +inf or -inf in g or
    h_r; the direct-link entry, which falls in the last part, holds a NaN or
    an inf in h_d alone.
    """
    g, h_r, h_d = draw_channels(n, [1], ChannelParams())
    cuts = [(n + 1) * p // parts for p in range(parts + 1)]
    for p in range(parts):
        at = (cuts[p] + cuts[p + 1]) // 2
        if at == n:  # the direct-link entry
            continue
        for what, values in (("overflow", (1e200, 1e200)), ("nan in g", (math.nan, None)),
                             ("inf in h_r", (None, math.inf)), ("-inf in g", (-math.inf, None))):
            bad_g, bad_h_r = g[0].copy(), h_r[0].copy()
            for row, value in ((bad_g, values[0]), (bad_h_r, values[1])):
                if value is not None:
                    row[at] = value
            yield f"{what} at {at}", bad_g, bad_h_r, complex(h_d[0])
    for value in (complex(math.nan, 0), complex(0, math.inf), complex(-math.inf, 1)):
        yield f"h_d = {value}", g[0], h_r[0], value


@pytest.mark.parametrize("parts", PARTS)
def test_a_bad_row_raises_from_its_part_without_a_warning(monkeypatch, parts):
    # the part that holds the bad entry raises, in the first thread round:
    # no later round starts, and a NaN never meets Python's max over the tops
    started = counted_threads(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for what, g, h_r, h_d in bad_rows(39, parts):
            del started[:]
            with pytest.raises(ValueError, match="composite coefficient") as raised:
                _solve_long(g, h_r, h_d, 1.0, parts)
            assert raised.traceback[-1].name == "product", what
            assert len(started) == parts - 1, what


def exact_run_channel(rng):
    """A shuffled row of Gaussian integers whose sorted keys hold a run of 40
    equal keys at positions 30 to 69, across the cut of every part count up
    to 4; the run mixes entries the fold flips with entries it keeps."""
    below = (2 - 1j) * rng.integers(1, 4, 30)
    run = (1 + 1j) * rng.integers(1, 4, 40) * rng.choice([1, -1], 40)
    above = (1 + 2j) * rng.integers(1, 4, 29)
    g = rng.permutation(np.concatenate((below, run, above)))
    return make_channel(g, np.ones(len(g)), 3 - 6j)  # conj(h_d) lies above the run


@pytest.mark.parametrize("parts", PARTS)
def test_a_run_across_a_part_cut_keeps_the_short_routes_bits(parts):
    # every sum is exact, so the sums at the run ends agree to the bit however
    # each part orders the run, and so must the winner
    rng = np.random.default_rng(2024)
    for _ in range(20):
        ch = exact_run_channel(rng)
        sol = das_solve(ch)
        w, power = solve_in_parts(ch, parts)
        assert (w.tobytes(), repr(power)) == (sol.config.w.tobytes(), repr(sol.power))


@pytest.mark.parametrize("parts", PARTS)
@pytest.mark.parametrize("m", [1, 5])
def test_equal_best_scores_in_two_parts_go_to_the_lowest_index(parts, m):
    # keys in four runs of m: a = 1 - 2j, b = 2 - 1j, c = 2 + 1j, d = 1 + 2j,
    # the direct link one of the d. The run ends of b and d score exactly the
    # same, |-6j m| and |6m|, and lie in different parts at 2 to 4 parts; the
    # end of b, the lower index, must win, for w = -1 on a and b, +1 on c and d
    g = np.repeat([1 - 2j, 2 - 1j, 2 + 1j, 1 + 2j], m)[:-1]
    ch = make_channel(g, np.ones(len(g)), 1 - 2j)
    w, power = solve_in_parts(ch, parts)
    expected = np.repeat([-1, 1], [2 * m, 2 * m - 1])
    assert w.tobytes() == expected.tobytes() == das_solve(ch).config.w.tobytes()
    assert power == das_solve(ch).power == (6.0 * m) ** 2


@pytest.mark.parametrize("parts", PARTS)
def test_long_lazy_mask_is_the_eager_mask_bit_for_bit(monkeypatch, parts):
    # the long route takes its winner by _winner, which masks the runs only
    # when the first maximum lies inside one: its w must be the eager mask's,
    # over the stable order, on rows where the fallback fires and where it
    # decides, and on rows with a run across a part cut; and das_solve, with
    # every row long, must route there
    rng = np.random.default_rng(2828)
    monkeypatch.setattr(das, "_PART_MIN", 1)
    monkeypatch.setattr(das, "_part_count", lambda length: parts)
    in_run = decided = straddles = 0
    for n in [*range(1, 121), 511, 2500]:
        for kind, g, h_d in run_heavy_rows(rng, n):
            ch = make_channel(g, np.ones(n), h_d)
            phi_bar = composite_phi(ch)
            expected, inside, decides = eager_mask_row(phi_bar, stable=True)
            w, power = solve_in_parts(ch, parts)
            assert w.tobytes() == expected.tobytes(), (kind, n, h_d)
            assert repr(power) == repr(received_power(ch, PhaseConfig(expected)))
            sol = das_solve(ch)
            assert (sol.config.w.tobytes(), repr(sol.power)) == (w.tobytes(), repr(power))
            in_run += inside
            decided += decides
            # a run of equal sorted keys on both sides of a cut of the parts
            folded, flip = _fold_half(phi_bar)
            _fold_top(phi_bar, folded, flip)
            keys = np.sort(folded)
            cuts = [(n + 1) * p // parts for p in range(1, parts)]
            straddles += any(keys[c - 1] == keys[c] for c in cuts if 0 < c <= n)
    assert in_run >= 30 and decided >= 1, (in_run, decided)
    assert straddles >= 30 or parts == 1, straddles


def test_no_thread_outlives_a_split_solve(monkeypatch):
    monkeypatch.setattr(das, "_PART_MIN", 64)  # every solve below splits
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
    and as a row of a two-row block; and an empty block of its length."""
    g = np.vstack((ch.g, ch.g[::-1]))
    h_r = np.vstack((ch.h_r, ch.h_r[::-1]))
    h_d = np.array([ch.h_d, -ch.h_d])
    sol = das_solve(ch)
    blocks = [das_solve_block(g[:rows], h_r[:rows], h_d[:rows], ch.tx_power) for rows in (0, 1, 2)]
    return (composite_phi(ch).tobytes(), sol.config.w.tobytes(), repr(sol.power),
            *((w.shape, w.dtype, w.tobytes(), repr(powers)) for w, powers in blocks))


@pytest.mark.parametrize("parts", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 257])
def test_long_rows_take_the_short_routes_bits(monkeypatch, n, parts):
    # the composite, top and power of a long row, and its stable sort, which
    # keys +0.0 and -0.0 alike, against the short route; rows
    # of 2 to 4 entries split into parts of no entry or one. Exact
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
    monkeypatch.setattr(das, "_PART_MIN", 1)  # every row is long
    monkeypatch.setattr(das, "_part_count", lambda length: parts)
    for ch, bits in zip(channels, short):
        assert route_bits(ch) == bits
        assert long_composite(ch, parts) == bits[0]


@pytest.mark.parametrize("n", [2 * das._PART_MIN - 1, 1 << 20])
def test_a_long_composite_allocates_only_its_result(n):
    # a row-length temporary in the product or the top would double the peak
    ch = generate_channel(n, 5)
    short = composite_phi(ch).tobytes()
    for parts in (1, 2):
        cuts = [(n + 1) * p // parts for p in range(parts + 1)]
        (phi_bar, exponent), peak = traced_peak(lambda: _long_composite(ch.g, ch.h_r, ch.h_d, cuts))
        assert phi_bar.nbytes <= peak < phi_bar.nbytes + (1 << 16)
        assert np.ldexp(phi_bar.view(np.float64), exponent).tobytes() == short
