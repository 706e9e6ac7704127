"""Seeded experiment runner: trial batches, aggregation, timing, CSV output.

Every (n, trial) pair deterministically derives its channel from the plan's
base seed, and every requested method consumes the same realization, so
per-method powers are directly comparable row by row. A size's trials run
as one cell: their channels are drawn as one block, and das solves the whole
block in one call, so a das record's wall time is that call's time over the
cell's trial count. The other methods run, and are timed, trial by trial.
Wall times cover solver calls only; channel generation, seeding and
bookkeeping are excluded.

A cell's trial seeds are derived in one pass too: _trial_seed_block runs
numpy's SeedSequence mixing column by column over the cell's trials, bit for
bit what SeedSequence((base_seed, n, trial)) gives each trial alone, and
draw_channels seeds its rows the same way. Small cells and unusual seeds
go through numpy itself.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from .baselines import EXHAUSTIVE_LIMIT, exhaustive_search, greedy_bitflip, random_best_of_k
from .das import das_solve_block
from .model import (
    _BLOCK_ROWS,
    _MASK32,
    ChannelParams,
    ChannelRealization,
    _fmt,
    _seed_state,
    draw_channels,
    snr_db,
)

TRIAL_CSV_HEADER = ("n", "trial", "method", "power", "snr_db", "wall_time_s")
AGGREGATE_CSV_HEADER = (
    "n", "method", "mean_snr_db", "mean_power", "total_time_s", "optimality_rate"
)
ORACLE_REL_TOL = 1e-9
ORACLE_ABS_TOL = 1e-12
RANDOM_K = 16  # draws per trial for the random method, and greedy's start
# a cell of size n holds CELL_ELEMENTS // n trials (at least one), so each of
# its channel blocks stays near 256 KB, in cache while das sweeps it, and
# memory stays bounded however many trials the plan asks for
CELL_ELEMENTS = 1 << 14
# the largest size whose channel row of 4n + 2 normals numpy can index
_MAX_N = (np.iinfo(np.intp).max - 2) // 4


def _timed(solve, *args):
    """Call solve(*args); return its result and the call's wall time in seconds."""
    t0 = time.perf_counter()
    result = solve(*args)
    return result, time.perf_counter() - t0


def _das_cell(blocks):
    (_, powers), seconds = _timed(das_solve_block, *blocks)
    return [(power, seconds / len(powers)) for power in powers]


def _powers(timed_results):
    return [(result.power, seconds) for result, seconds in timed_results]


# name -> run(blocks, channels, draws) giving one (power, seconds) per trial of
# a cell. blocks is (g, h_r, h_d, tx_power) with the cell's trials as rows;
# when a method other than das runs, channels holds the same trials one by
# one and draws each trial's timed random draw. Key order is record order.
# Each solver is looked up as a module global when called, so a rebound name
# (a test double, a tracer) is what runs.
METHODS = {
    "das": lambda blocks, channels, draws: _das_cell(blocks),
    "exhaustive": lambda blocks, channels, draws: _powers(
        _timed(exhaustive_search, ch) for ch in channels),
    "greedy": lambda blocks, channels, draws: _powers(
        _timed(greedy_bitflip, ch, draw[0].config) for ch, draw in zip(channels, draws)),
    "random": lambda blocks, channels, draws: _powers(draws),
}
_DRAW_USERS = frozenset(("greedy", "random"))


class PlanError(ValueError):
    """Raised when an experiment plan is rejected before any work runs."""


@dataclass(frozen=True)
class ExperimentPlan:
    """What to run: surface sizes, trial count, seeding, and methods.

    A plan checks itself when built: __post_init__ raises PlanError on any
    broken rule, so no invalid plan reaches run_plan. The greedy method
    starts from the winner of the same random draw the random method
    reports, so greedy dominates random trial by trial.
    """

    n_values: tuple[int, ...]
    trials: int
    base_seed: int
    methods: tuple[str, ...] = ("das",)
    channel_params: ChannelParams = field(default_factory=ChannelParams)

    def __post_init__(self):
        try:  # operator.index takes ints and numpy integers, not 4.7 or 2.0
            object.__setattr__(self, "n_values", tuple(map(operator.index, self.n_values)))
            object.__setattr__(self, "trials", operator.index(self.trials))
            object.__setattr__(self, "base_seed", operator.index(self.base_seed))
        except TypeError as exc:
            raise PlanError(f"sizes, trials and base_seed must be integers: {exc}") from None
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.n_values:
            raise PlanError("plan needs at least one surface size")
        if any(n < 1 for n in self.n_values):
            raise PlanError("surface sizes must be >= 1")
        too_long = [n for n in self.n_values if n > _MAX_N]
        if too_long:
            raise PlanError(f"surface sizes above {_MAX_N} cannot be drawn; plan asks for n={too_long}")
        if len(set(self.n_values)) != len(self.n_values):
            raise PlanError("surface sizes must not repeat")
        if self.trials < 1:
            raise PlanError("trials must be >= 1")
        if self.base_seed < 0:
            raise PlanError("base_seed must be >= 0")
        if not self.methods:
            raise PlanError("plan needs at least one method")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise PlanError(f"unknown methods {unknown}; choose from {', '.join(METHODS)}")
        if len(set(self.methods)) != len(self.methods):
            raise PlanError("methods must not repeat")
        too_big = [n for n in self.n_values if n > EXHAUSTIVE_LIMIT]
        if "exhaustive" in self.methods and too_big:
            raise PlanError(f"exhaustive search is capped at n={EXHAUSTIVE_LIMIT}; "
                            f"plan asks for n={too_big}")


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


def _int_words(value: int) -> list[int]:
    # numpy's entropy words for an int >= 0: low word first, one word for 0
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _trial_seed_block(base_seed: int, n: int, trials) -> np.ndarray:
    """The seeds of trials of size n: a (T, 2) uint64 block, T = len(trials).

    Row i is SeedSequence((base_seed, n, trials[i])).generate_state(2,
    np.uint64): the channel seed, then the sampling seed. When trials is a
    range of at least _BLOCK_ROWS trials in [0, 2^32), and base_seed and n
    are ints >= 0, every trial's entropy has the same words but the last,
    and the rows are mixed column-wise by _seed_state in one pass. Otherwise
    numpy's SeedSequence builds each row, with numpy's own errors.
    """
    if (isinstance(trials, range) and len(trials) >= _BLOCK_ROWS and trials.step > 0
            and trials.start >= 0 and trials.stop <= _MASK32 + 1
            and type(base_seed) is int and type(n) is int and min(base_seed, n) >= 0):
        head = _int_words(base_seed) + _int_words(n)
        entropy = np.empty((len(head) + 1, len(trials)), dtype=np.uint32)
        entropy[:-1] = np.array(head, dtype=np.uint32)[:, None]
        entropy[-1] = np.arange(trials.start, trials.stop, trials.step)
        return _seed_state(entropy, 2).T
    return np.array(
        [np.random.SeedSequence((base_seed, n, t)).generate_state(2, np.uint64) for t in trials],
        dtype=np.uint64).reshape(len(trials), 2)


def trial_seeds(base_seed: int, n: int, trial: int) -> tuple[int, int]:
    """Derive (channel seed, sampling seed) for one trial.

    Mixes (base_seed, n, trial) through np.random.SeedSequence and takes two
    64-bit words: the first seeds the channel draw, the second any randomized
    solver (the random baseline). The one-row call of the block that
    run_plan derives for each cell of trials.
    """
    channel_seed, sample_seed = _trial_seed_block(base_seed, n, (trial,))[0].tolist()
    return channel_seed, sample_seed


def run_plan(plan: ExperimentPlan) -> list[TrialRecord]:
    """Run every (n, trial, method) combination and return records in that order.

    Each size runs its trials in cells of CELL_ELEMENTS // n trials (at
    least one). A cell runs, in this order: the trial seeds, one block draw
    of its channels, each trial's random draw when greedy or random is
    requested, one das_solve_block call over the whole block, then
    exhaustive and greedy trial by trial. Within a trial the records come in
    the table order of METHODS: das, exhaustive, greedy, random. Powers and
    SNRs are deterministic given the plan, and do not depend on how trials
    are split into cells; wall times are not.
    """
    params = plan.channel_params
    methods = [m for m in METHODS if m in plan.methods]
    needs_channels = any(m != "das" for m in methods)
    draws = not _DRAW_USERS.isdisjoint(plan.methods)
    records: list[TrialRecord] = []
    for n in plan.n_values:
        step = max(1, CELL_ELEMENTS // n)
        for first in range(0, plan.trials, step):
            trials = range(first, min(first + step, plan.trials))
            chan_seeds, sample_seeds = _trial_seed_block(plan.base_seed, n, trials).T.tolist()
            g, h_r, h_d = draw_channels(n, chan_seeds, params)
            channels = [
                ChannelRealization(g=g[i], h_r=h_r[i], h_d=h_d[i],
                                   noise_power=params.noise_power, tx_power=params.tx_power)
                for i in range(len(trials))
            ] if needs_channels else []
            cell_draws = [_timed(random_best_of_k, ch, RANDOM_K, sample_seed)
                          for ch, sample_seed in zip(channels, sample_seeds)] if draws else []
            blocks = (g, h_r, h_d, params.tx_power)
            columns = [METHODS[m](blocks, channels, cell_draws) for m in methods]
            for i, t in enumerate(trials):
                for method, column in zip(methods, columns):
                    power, seconds = column[i]
                    records.append(TrialRecord(
                        n=n, trial=t, method=method, power=power,
                        snr_db=snr_db(power, params.noise_power), wall_time=seconds))
    return records


def aggregate(records: list[TrialRecord]) -> list[AggregateRow]:
    """Collapse trial records into one row per (n, method).

    mean_snr_db averages the per-trial dB values. optimality_rate is the
    fraction of trials whose power matches the exhaustive power for the same
    (n, trial) within ORACLE_REL_TOL relative or ORACLE_ABS_TOL absolute
    (math.isclose); 1.0 for exhaustive itself, NaN with no exhaustive record.
    """
    oracle = {(rec.n, rec.trial): rec.power for rec in records if rec.method == "exhaustive"}
    groups: dict[tuple[int, str], list[TrialRecord]] = {}
    for rec in records:
        groups.setdefault((rec.n, rec.method), []).append(rec)
    rows = []
    for (n, method), recs in groups.items():
        hits = [math.isclose(rec.power, oracle[(n, rec.trial)],
                             rel_tol=ORACLE_REL_TOL, abs_tol=ORACLE_ABS_TOL)
                for rec in recs if (n, rec.trial) in oracle]
        rate = sum(hits) / len(hits) if hits else float("nan")
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
