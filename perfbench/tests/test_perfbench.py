"""Tests for the benchmark's own reference checker and span arithmetic."""

import itertools
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
from tracer import Tracer  # noqa: E402


def brute_force(g, h_r, h_d, tx_power=1.0):
    phi = np.conj(h_r) * g
    best = 0.0
    for w in itertools.product((1.0, -1.0), repeat=len(g)):
        amp = np.dot(w, phi) + np.conj(h_d)
        best = max(best, abs(amp) ** 2 * tx_power)
    return best


def random_channel(rng, n, tie_heavy=False):
    if tie_heavy:
        grid = np.exp(1j * np.pi / 8 * np.arange(16))
        g = rng.choice([0.0, 0.5, 1.0, 2.0], n) * grid[rng.integers(0, 16, n)]
        h_r = np.ones(n, dtype=complex)
    else:
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        h_r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    h_d = complex(rng.standard_normal(), rng.standard_normal()) if rng.random() < 0.5 else 0j
    return g, h_r, h_d


@pytest.mark.parametrize("tie_heavy", [False, True])
def test_reference_optimum_matches_brute_force(tie_heavy):
    rng = np.random.default_rng(5)
    for n in range(1, 11):
        for _ in range(20):
            g, h_r, h_d = random_channel(rng, n, tie_heavy)
            ref = reference.build(g, h_r, h_d, tx_power=2.0)
            assert reference.close(ref.optimum, brute_force(g, h_r, h_d, 2.0))
            assert ref.optimum <= ref.upper_bound * (1 + 1e-12)


def best_config(ref):
    n = ref.phi.shape[0]
    return max(
        (np.array(w) for w in itertools.product((1, -1), repeat=n)),
        key=lambda w: reference.config_power(ref, w),
    )


def test_check_accepts_the_optimum():
    g, h_r, h_d = random_channel(np.random.default_rng(1), 8)
    ref = reference.build(g, h_r, h_d, 1.0)
    w = best_config(ref)
    assert reference.check_solution(ref, w, reference.config_power(ref, w)) is None


def test_check_rejects_a_wrong_configuration():
    g, h_r, h_d = random_channel(np.random.default_rng(2), 8)
    ref = reference.build(g, h_r, h_d, 1.0)
    w = best_config(ref)
    w[3] = -w[3]
    err = reference.check_solution(ref, w, reference.config_power(ref, w))
    assert err is not None and "optimum" in err


def test_check_rejects_a_power_the_configuration_does_not_give():
    g, h_r, h_d = random_channel(np.random.default_rng(3), 8)
    ref = reference.build(g, h_r, h_d, 1.0)
    w = best_config(ref)
    assert reference.check_solution(ref, w, ref.optimum * 1.001) is not None
    assert reference.check_solution(ref, w[:-1], ref.optimum) is not None
    assert reference.check_solution(ref, np.zeros(8), ref.optimum) is not None


def test_check_rejects_power_above_the_bound_and_nan():
    g, h_r, h_d = random_channel(np.random.default_rng(4), 6)
    ref = reference.build(g, h_r, h_d, 1.0)
    assert reference.check_power(ref, ref.upper_bound * 1.01) is not None
    assert reference.check_power(ref, float("nan")) is not None


def test_reference_agrees_with_das_solve():
    from dasris import ChannelParams, das_solve, generate_channel

    for seed in range(50):
        ch = generate_channel(64, seed, ChannelParams(los=seed % 2 == 0))
        sol = das_solve(ch)
        ref = reference.build(ch.g, ch.h_r, ch.h_d, ch.tx_power)
        assert reference.check_solution(ref, sol.config.w, sol.power) is None


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    spans = {"outer": ((), None), "mid": ((), None), "leaf": ((), None)}
    # outer [0, 20]; mid [1, 11] holding leaf [2, 5] and leaf [6, 10];
    # leaf [12, 14] called by outer directly.
    tracer = Tracer(spans, clock=fake_clock([0, 1, 2, 5, 6, 10, 11, 12, 14, 20]))
    leaf = tracer.wrap("leaf", lambda: None)

    def mid_body():
        leaf()
        leaf()

    mid = tracer.wrap("mid", mid_body)

    def outer_body():
        mid()
        leaf()

    tracer.wrap("outer", outer_body)()
    st = tracer.stats
    assert (st["outer"].calls, st["outer"].total_s, st["outer"].self_s) == (1, 20, 8)
    assert (st["mid"].calls, st["mid"].total_s, st["mid"].self_s) == (1, 10, 3)
    assert (st["leaf"].calls, st["leaf"].total_s, st["leaf"].self_s) == (3, 9, 9)


def test_self_time_is_recorded_when_the_call_raises():
    tracer = Tracer({"s": ((), None)}, clock=fake_clock([0, 4]))

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap("s", boom)()
    assert (tracer.stats["s"].calls, tracer.stats["s"].self_s) == (1, 4)


def test_install_rebinds_call_sites_and_uninstall_restores_them():
    module = types.ModuleType("perfbench_fake_site")
    module.f = lambda x: x + 1
    original = module.f
    sys.modules[module.__name__] = module
    try:
        spans = {"fake.f": (("perfbench_fake_site:f", "perfbench_fake_site:removed"),
                            lambda args, result: float(result))}
        with Tracer(spans) as tracer:
            assert module.f is not original
            assert module.f(2) == 3
        assert module.f is original
        assert tracer.stats["fake.f"].calls == 1
        assert tracer.stats["fake.f"].units == 3.0
    finally:
        del sys.modules[module.__name__]


def test_tail_percentile_keeps_ten_samples_beyond_it():
    from run import tail_fraction

    assert tail_fraction(100_000) == 0.99
    assert tail_fraction(1000) == 0.99
    assert tail_fraction(170) == 0.94
    assert tail_fraction(25) == 0.6
    assert tail_fraction(12) == 0.5


def test_enumerated_power_matches_the_reference_optimum():
    rng = np.random.default_rng(6)
    for n in (1, 5, 12, 17):
        for tie_heavy in (False, True):
            g, h_r, h_d = random_channel(rng, n, tie_heavy)
            ref = reference.build(g, h_r, h_d, tx_power=3.0)
            got = reference.enumerated_power(ref.phi, ref.h_d_conj, ref.tx_power, block_bits=4)
            assert reference.close(got, ref.optimum)


def test_ratios_divide_by_the_reference_on_the_same_input():
    from run import Measurement, relative

    m = Measurement()
    m.keys = {"a": 0, "b": 1}
    # Reference: 1 s per solve on a, 2 s on b. das: 3 s on a, 2 s on b.
    m.ref_input = {"a": [2.0, 2], "b": [4.0, 2]}
    m.ref_sample_s.extend([1.0, 1.0, 2.0, 2.0])
    m.ref_sample_key.extend([0, 0, 1, 1])
    m.per_input = {"a": [3.0, 1], "b": [2.0, 1]}
    m.solve_s.extend([3.0, 2.0])
    m.solve_key.extend([0, 1])
    m.op_s.extend([6.0, 4.0])
    m.ref_s.extend([2.0, 3.0])
    solve_rel, tail_rel, op_rel = relative(m, 1.0)
    assert solve_rel == 2.0  # median of 3/1 and 2/2
    assert tail_rel == 3.0  # largest das ratio 3 over largest reference ratio 1
    assert op_rel == 2.0  # 10 s of operations over 5 s of reference work
