"""Seeded experiment runner: trial batches, aggregation, timing, CSV output.

Every (n, trial) pair deterministically derives its channel from the plan's
base seed, and every requested method consumes the same realization, so
per-method powers are directly comparable row by row. Wall times cover the
solver call only; channel generation and bookkeeping are excluded.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .baselines import (
    EXHAUSTIVE_LIMIT,
    exhaustive_search,
    greedy_bitflip,
    random_best_of_k,
)
from .das import das_solve
from .model import ChannelParams, _fmt, generate_channel, snr_db

METHOD_ORDER = ("das", "exhaustive", "greedy", "random")
TRIAL_CSV_HEADER = ("n", "trial", "method", "power", "snr_db", "wall_time_s")
AGGREGATE_CSV_HEADER = (
    "n", "method", "mean_snr_db", "mean_power", "total_time_s", "optimality_rate"
)
ORACLE_REL_TOL = 1e-9
RANDOM_K = 16  # draws per trial for the random method, and greedy's start


class PlanError(ValueError):
    """Raised when an experiment plan is rejected before any work runs."""


@dataclass(frozen=True)
class ExperimentPlan:
    """What to run: surface sizes, trial count, seeding, and methods.

    The greedy method starts from the winner of the same random draw the
    random method reports, so greedy dominates random trial by trial.
    """

    n_values: tuple[int, ...]
    trials: int
    base_seed: int
    methods: tuple[str, ...] = ("das",)
    channel_params: ChannelParams = field(default_factory=ChannelParams)

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(int(v) for v in self.n_values))
        object.__setattr__(self, "methods", tuple(self.methods))


@dataclass(frozen=True)
class TrialRecord:
    n: int
    trial: int
    method: str
    power: float
    snr_db: float
    wall_time: float


@dataclass(frozen=True)
class AggregateRow:
    n: int
    method: str
    mean_snr_db: float
    mean_power: float
    total_time: float
    optimality_rate: float


def validate_plan(plan: ExperimentPlan) -> None:
    """Reject malformed plans; called before any channel is generated."""
    if not plan.n_values:
        raise PlanError("plan needs at least one surface size")
    if any(n < 1 for n in plan.n_values):
        raise PlanError("surface sizes must be >= 1")
    if plan.trials < 1:
        raise PlanError("trials must be >= 1")
    if plan.base_seed < 0:
        raise PlanError("base_seed must be >= 0")
    if not plan.methods:
        raise PlanError("plan needs at least one method")
    unknown = [m for m in plan.methods if m not in METHOD_ORDER]
    if unknown:
        raise PlanError(
            f"unknown methods {unknown}; choose from {', '.join(METHOD_ORDER)}"
        )
    if len(set(plan.methods)) != len(plan.methods):
        raise PlanError("methods must not repeat")
    if "exhaustive" in plan.methods:
        too_big = [n for n in plan.n_values if n > EXHAUSTIVE_LIMIT]
        if too_big:
            raise PlanError(
                f"exhaustive search is capped at n={EXHAUSTIVE_LIMIT}; "
                f"plan asks for n={too_big}"
            )


def trial_seeds(base_seed: int, n: int, trial: int) -> tuple[int, int]:
    """Derive (channel seed, sampling seed) for one trial.

    Mixes (base_seed, n, trial) through np.random.SeedSequence and takes two
    64-bit words: the first seeds the channel draw, the second any randomized
    solver (the random baseline).
    """
    ss = np.random.SeedSequence((base_seed, n, trial))
    words = ss.generate_state(2, dtype=np.uint64)
    return int(words[0]), int(words[1])


def run_plan(plan: ExperimentPlan) -> list[TrialRecord]:
    """Run every (n, trial, method) cell and return records in that order.

    Methods run in the fixed order das, exhaustive, greedy, random on a
    shared channel realization per trial. Powers and SNRs are deterministic
    given the plan; wall times are not.
    """
    validate_plan(plan)
    noise = plan.channel_params.noise_power
    records: list[TrialRecord] = []
    for n in plan.n_values:
        for t in range(plan.trials):
            chan_seed, sample_seed = trial_seeds(plan.base_seed, n, t)
            ch = generate_channel(n, chan_seed, plan.channel_params)
            random_result = None
            random_elapsed = 0.0
            if "greedy" in plan.methods or "random" in plan.methods:
                t0 = time.perf_counter()
                random_result = random_best_of_k(ch, RANDOM_K, sample_seed)
                random_elapsed = time.perf_counter() - t0
            for method in METHOD_ORDER:
                if method not in plan.methods:
                    continue
                if method == "das":
                    t0 = time.perf_counter()
                    solution = das_solve(ch)
                    elapsed = time.perf_counter() - t0
                    power = solution.power
                elif method == "exhaustive":
                    t0 = time.perf_counter()
                    power = exhaustive_search(ch).power
                    elapsed = time.perf_counter() - t0
                elif method == "greedy":
                    t0 = time.perf_counter()
                    power = greedy_bitflip(ch, random_result.config).power
                    elapsed = time.perf_counter() - t0
                else:
                    power = random_result.power
                    elapsed = random_elapsed
                records.append(
                    TrialRecord(
                        n=n,
                        trial=t,
                        method=method,
                        power=power,
                        snr_db=snr_db(power, noise),
                        wall_time=elapsed,
                    )
                )
    return records


def aggregate(records: list[TrialRecord]) -> list[AggregateRow]:
    """Collapse trial records into one row per (n, method).

    mean_snr_db averages the per-trial dB values. optimality_rate is the
    fraction of trials whose power matches the exhaustive power for the same
    (n, trial) within 1e-9 relative; it is 1.0 for exhaustive itself and NaN
    when no exhaustive record exists for that n.
    """
    oracle: dict[tuple[int, int], float] = {}
    for rec in records:
        if rec.method == "exhaustive":
            oracle[(rec.n, rec.trial)] = rec.power
    groups: dict[tuple[int, str], list[TrialRecord]] = {}
    order: list[tuple[int, str]] = []
    for rec in records:
        key = (rec.n, rec.method)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(rec)
    rows = []
    for n, method in order:
        recs = groups[(n, method)]
        matches = 0
        covered = 0
        for rec in recs:
            ref = oracle.get((rec.n, rec.trial))
            if ref is None:
                continue
            covered += 1
            if math.isclose(rec.power, ref, rel_tol=ORACLE_REL_TOL, abs_tol=1e-12):
                matches += 1
        rate = matches / covered if covered else float("nan")
        rows.append(
            AggregateRow(
                n=n,
                method=method,
                mean_snr_db=float(np.mean([r.snr_db for r in recs])),
                mean_power=float(np.mean([r.power for r in recs])),
                total_time=float(sum(r.wall_time for r in recs)),
                optimality_rate=rate,
            )
        )
    return rows


def write_trial_csv(records: list[TrialRecord], fp: io.TextIOBase) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(TRIAL_CSV_HEADER)
    for rec in records:
        writer.writerow(
            [rec.n, rec.trial, rec.method,
             _fmt(rec.power), _fmt(rec.snr_db), _fmt(rec.wall_time)]
        )


def write_aggregate_csv(rows: list[AggregateRow], fp: io.TextIOBase) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(AGGREGATE_CSV_HEADER)
    for row in rows:
        writer.writerow(
            [row.n, row.method,
             _fmt(row.mean_snr_db), _fmt(row.mean_power),
             _fmt(row.total_time), _fmt(row.optimality_rate)]
        )
