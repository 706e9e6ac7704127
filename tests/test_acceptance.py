"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

The printed lines bypass pytest capture so they land in the terminal log
next to the verbose test results.  Every numeric tolerance is stated at the
assertion site.
"""

import csv
import dataclasses
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from candidate_route import build_candidates, fold_angles, select_best, sort_folded
from dasris.baselines import (
    continuous_upper_bound,
    exhaustive_search,
    greedy_bitflip,
    random_best_of_k,
)
from dasris.das import das_solve
from dasris.harness import ExperimentPlan, aggregate, run_plan
from dasris.model import (
    ChannelParams,
    ChannelRealization,
    composite_phi,
    generate_channel,
    received_power,
)

SWEEP_SEED = 20260814
SWEEP_SIZES = range(1, 15)
SWEEP_TRIALS_PER_ARM = 500  # per size, per LoS arm
ORACLE_RTOL = 1e-9


def _instance_seed(n: int, los: bool, trial: int) -> int:
    return int(np.random.SeedSequence((SWEEP_SEED, n, int(los), trial)).generate_state(1)[0])


def _report(capsys, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def _membership(z: np.ndarray, columns: np.ndarray, w_bar_target: np.ndarray) -> tuple[bool, bool]:
    """Return (literal, quotient) membership of the target in the columns.

    Literal: some column, normalized so its own last entry is +1 (the same
    normalization the solver applies when recovering a configuration), equals
    the target entry for entry.  Quotient: some column equals it on the
    coordinates where z has nonzero magnitude, after canonicalizing both signs
    by the last such coordinate.  Coordinates with zero magnitude contribute
    nothing to the objective, so sign freedom there (and the global sign when
    the appended entry drops out) is a genuine degeneracy rather than a
    disagreement.
    """
    normalized = columns * columns[-1, :][None, :]
    literal = bool(np.any(np.all(normalized == w_bar_target[:, None], axis=0)))
    mask = np.abs(z) > 0.0
    if not mask.any():
        return literal, True
    anchor = int(np.nonzero(mask)[0][-1])
    canon_target = (w_bar_target * w_bar_target[anchor])[mask]
    canon_cols = (columns * columns[anchor, :][None, :])[mask, :]
    quotient = bool(np.any(np.all(canon_cols == canon_target[:, None], axis=0)))
    return literal, quotient


@dataclasses.dataclass
class SweepStats:
    instances: int = 0
    power_mismatches: int = 0
    max_rel_gap: float = 0.0
    literal_misses_los: int = 0
    literal_misses_no_los: int = 0
    quotient_misses: int = 0
    elapsed_s: float = 0.0


@pytest.fixture(scope="module")
def oracle_sweep() -> SweepStats:
    stats = SweepStats()
    start = time.perf_counter()
    for n in SWEEP_SIZES:
        for los in (True, False):
            params = ChannelParams(los=los)
            for trial in range(SWEEP_TRIALS_PER_ARM):
                ch = generate_channel(n, _instance_seed(n, los, trial), params)
                sol = das_solve(ch)
                oracle = exhaustive_search(ch)
                stats.instances += 1

                gap = abs(sol.power - oracle.power) / max(oracle.power, 1e-300)
                stats.max_rel_gap = max(stats.max_rel_gap, gap)
                if not math.isclose(sol.power, oracle.power, rel_tol=ORACLE_RTOL):
                    stats.power_mismatches += 1

                phi_bar = composite_phi(ch)
                fold = fold_angles(phi_bar)
                cands = build_candidates(fold, sort_folded(fold))
                w_bar_target = np.concatenate([oracle.config.w, [1]])
                literal, quotient = _membership(phi_bar, cands.columns, w_bar_target)
                if not literal:
                    if los:
                        stats.literal_misses_los += 1
                    else:
                        stats.literal_misses_no_los += 1
                if not quotient:
                    stats.quotient_misses += 1
    stats.elapsed_s = time.perf_counter() - start
    return stats


def test_criterion_1_oracle_equivalence(oracle_sweep, capsys):
    s = oracle_sweep
    ok = s.power_mismatches == 0 and s.instances == len(SWEEP_SIZES) * 2 * SWEEP_TRIALS_PER_ARM
    _report(
        capsys, "criterion 1 oracle equivalence", ok,
        f"{s.instances} instances (sizes 1..14, half LoS), "
        f"{s.power_mismatches} mismatches at rel_tol {ORACLE_RTOL}, "
        f"max rel gap {s.max_rel_gap:.3e}, sweep took {s.elapsed_s:.1f}s",
    )


def test_criterion_2_candidate_membership(oracle_sweep, capsys):
    s = oracle_sweep
    # Without a direct link the objective ignores the appended entry and is
    # invariant under a global sign, so the oracle's tie-broken pick can be a
    # mirror of the enumerated column.  Membership is therefore checked on the
    # sign quotient that the objective actually distinguishes; with a direct
    # link present the quotient collapses to the literal entry-for-entry check,
    # which must also hold on every such instance.
    ok = s.quotient_misses == 0 and s.literal_misses_los == 0
    _report(
        capsys, "criterion 2 candidate membership", ok,
        f"{s.instances} instances, quotient misses {s.quotient_misses}, "
        f"literal misses with direct link {s.literal_misses_los} "
        f"(mirror-degenerate literal misses without one: {s.literal_misses_no_los})",
    )


def test_criterion_3_dominance_chain(capsys):
    sizes = (16, 64, 256)
    trials = 1000
    violations = 0
    strict_gaps = 0
    for n in sizes:
        for trial in range(trials):
            ch = generate_channel(n, _instance_seed(n, True, 10_000 + trial))
            sampler_seed = _instance_seed(n, False, 10_000 + trial)
            rb = random_best_of_k(ch, 16, sampler_seed)
            gr = greedy_bitflip(ch, rb.config)
            ds = das_solve(ch)
            bound = continuous_upper_bound(ch)
            if not (rb.power <= gr.power <= ds.power <= bound):
                violations += 1
            if gr.power < ds.power:
                strict_gaps += 1
    ok = violations == 0 and strict_gaps >= 1
    _report(
        capsys, "criterion 3 dominance chain", ok,
        f"{len(sizes) * trials} instances at N in {sizes}, {violations} violations, "
        f"{strict_gaps} with greedy strictly below the optimum",
    )


def test_criterion_4_complexity_scaling(capsys):
    plan = ExperimentPlan(n_values=(1000, 2000), trials=100, base_seed=SWEEP_SEED)
    attempts = []
    for _ in range(2):
        timings = {row.n: row.total_time for row in aggregate(run_plan(plan))}
        ratio = timings[2000] / timings[1000]
        attempts.append(ratio)
        if ratio <= 3.0:
            break
    ok = attempts[-1] <= 3.0
    _report(
        capsys, "criterion 4 complexity scaling", ok,
        f"100-run solver time ratio N=2000/N=1000 = {attempts[-1]:.2f} "
        f"(threshold 3.0, attempts {[f'{a:.2f}' for a in attempts]}, "
        f"t1000={timings[1000]:.4f}s, t2000={timings[2000]:.4f}s)",
    )


def test_criterion_5_coherent_gain_growth(capsys):
    trials = 1000
    means = {}
    for n in (100, 200):
        total = 0.0
        for trial in range(trials):
            ch = generate_channel(n, _instance_seed(n, True, 20_000 + trial))
            total += das_solve(ch).power
        means[n] = total / trials
    ratio = means[200] / means[100]
    ok = 3.0 <= ratio <= 5.4
    _report(
        capsys, "criterion 5 coherent gain growth", ok,
        f"mean power ratio N=200/N=100 over {trials} trials = {ratio:.3f} "
        f"(window [3.0, 5.4], means {means[100]:.1f} -> {means[200]:.1f})",
    )


def test_criterion_6_bench_determinism(tmp_path, capsys):
    def run(out_dir):
        cmd = [
            sys.executable, "-m", "dasris.cli", "bench",
            "--n", "10,100", "--trials", "50", "--seed", "7",
            "--methods", "das,greedy", "--out", str(out_dir),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        with open(out_dir / "trials.csv", newline="") as fp:
            rows = list(csv.DictReader(fp))
        return [(r["power"], r["snr_db"]) for r in rows]

    first = run(tmp_path / "a")
    second = run(tmp_path / "b")
    ok = first == second and len(first) == 2 * 50 * 2
    _report(
        capsys, "criterion 6 bench determinism", ok,
        f"two subprocess runs, {len(first)} rows, power/snr_db columns "
        f"{'byte-identical' if first == second else 'DIFFER'}",
    )


def test_criterion_7_property_suite(capsys):
    cases = 0
    failures = []

    # Phase invariance: rotating the composite vector by a common phase cannot
    # change the best achievable amplitude.
    rng = np.random.default_rng(SWEEP_SEED)
    for i in range(10):
        ch = generate_channel(24, _instance_seed(24, True, 30_000 + i))
        phi_bar = composite_phi(ch)
        fold = fold_angles(phi_bar)
        _, base_score = select_best(build_candidates(fold, sort_folded(fold)), phi_bar)
        for alpha in rng.uniform(0.0, 2.0 * np.pi, size=100):
            z_rot = phi_bar * np.exp(1j * alpha)
            fold_rot = fold_angles(z_rot)
            _, score = select_best(build_candidates(fold_rot, sort_folded(fold_rot)), z_rot)
            cases += 1
            if not math.isclose(score, base_score, rel_tol=1e-9):
                failures.append(f"phase alpha={alpha:.4f} score {score} vs {base_score}")

    # Global-sign symmetry without a direct link: negating every element
    # leaves the power bit-identical, and the solver still hits the optimum.
    no_los = ChannelParams(los=False)
    for i in range(150):
        n = 1 + i % 10
        ch = generate_channel(n, _instance_seed(n, False, 31_000 + i), no_los)
        sol = das_solve(ch)
        mirrored = dataclasses.replace(sol.config, w=-sol.config.w)
        cases += 1
        if received_power(ch, mirrored) != sol.power:
            failures.append(f"sign symmetry broken at n={n} i={i}")
        if not math.isclose(sol.power, exhaustive_search(ch).power, rel_tol=1e-9):
            failures.append(f"no-LoS optimality broken at n={n} i={i}")

    # Scale equivariance: scaling the channel scales the power by the square
    # and leaves the chosen configuration alone.
    for i in range(150):
        n = 2 + i % 12
        ch = generate_channel(n, _instance_seed(n, True, 32_000 + i))
        scale = float(np.exp(rng.uniform(-2.0, 2.0)))
        scaled = ChannelRealization(
            g=ch.g * scale, h_r=ch.h_r, h_d=ch.h_d * scale,
            noise_power=ch.noise_power, tx_power=ch.tx_power,
        )
        a, b = das_solve(ch), das_solve(scaled)
        cases += 1
        if not np.array_equal(a.config.w, b.config.w):
            failures.append(f"scale changed argmax at n={n} i={i}")
        if not math.isclose(b.power, a.power * scale * scale, rel_tol=1e-9):
            failures.append(f"scale broke power at n={n} i={i}")

    # Zero-magnitude handling: the appended entry folds to angle zero with no
    # flip when the direct link vanishes, and the solver stays optimal.
    for i in range(200):
        n = 1 + i % 12
        ch = generate_channel(n, _instance_seed(n, False, 33_000 + i), no_los)
        fold = fold_angles(composite_phi(ch))
        cases += 1
        if fold.folded_angles[-1] != 0.0 or fold.flip_mask[-1]:
            failures.append(f"zero-magnitude fold wrong at n={n} i={i}")
        if not math.isclose(das_solve(ch).power, exhaustive_search(ch).power, rel_tol=1e-9):
            failures.append(f"zero-magnitude optimality broken at n={n} i={i}")

    ok = not failures and cases >= 1000
    detail = f"{cases} randomized cases across 4 properties, {len(failures)} failures"
    if failures:
        detail += f"; first: {failures[0]}"
    _report(capsys, "criterion 7 property suite", ok, detail)
