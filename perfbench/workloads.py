"""The four closed-loop workloads: one caller, one operation at a time.

Each workload draws its inputs from the workload seed, hands the library only
those inputs, and checks every answer against reference.py, which shares no
code with the library. The runner in run.py times ``op(i)`` and, paired
with it, ``reference_work(i)``: the benchmark's own computation on the same
inputs, which measures how fast the machine runs at that moment.
``setup()`` is timed separately as set-up, and ``prepare_checks()`` and
``check()`` run outside all of them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import reference

import dasris.cli as cli_mod
import dasris.das as das_mod
import dasris.harness as harness_mod
import dasris.model as model_mod


@dataclass
class Checked:
    """What one checked operation contributed."""

    trials: int
    errors: list[str] = field(default_factory=list)
    # (input key, seconds) per das_solve call; the key names the channel.
    solves: list[tuple[object, float]] = field(default_factory=list)


def _time_reference(ref: reference.Reference) -> float:
    """Seconds the reference takes to solve ref's channel once more."""
    start = time.perf_counter()
    reference.optimal_power(ref.phi, ref.h_d_conj, ref.tx_power)
    return time.perf_counter() - start


def _words(seed: int, count: int) -> list[int]:
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint32)
    return [int(w) & 0x7FFFFFFF for w in state]


class SolveWorkload:
    """das_solve on a pregenerated pool of channels, one call per operation."""

    name = ""

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.pool: list = []
        self.refs: list[reference.Reference] = []

    def make_pool(self) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        self.pool = []  # free the previous set-up's pool before drawing the next
        self.pool = self.make_pool()
        for ch in self.warmup_channels():
            das_mod.das_solve(ch)

    def warmup_channels(self) -> list:
        return self.pool

    def prepare_checks(self) -> None:
        self.refs = [reference.build(ch.g, ch.h_r, ch.h_d, ch.tx_power) for ch in self.pool]

    def op(self, i: int):
        return i, das_mod.das_solve(self.pool[i])

    def reference_work(self, i: int) -> list[tuple[object, float]]:
        return [(i, _time_reference(self.refs[i]))]

    def check(self, out, elapsed: float) -> Checked:
        i, sol = out
        err = reference.check_solution(self.refs[i], sol.config.w, sol.power)
        return Checked(trials=1, errors=[err] if err else [], solves=[(i, elapsed)])

    def trials_per_op(self) -> int:
        return 1

    def cycle_length(self) -> int:
        return len(self.pool)

    def largest_channel(self):
        return max(self.pool, key=lambda ch: ch.n)

    def close(self) -> None:
        self.pool = []
        self.refs = []


class SolveSmall(SolveWorkload):
    """Small N, where the fixed per-call cost dominates and the sort barely shows."""

    name = "solve-small"
    SIZES = (8, 64, 256)
    PER_CELL = 32

    def make_pool(self) -> list:
        seeds = _words(self.seed, len(self.SIZES) * 2 * self.PER_CELL)
        pool = []
        for i, s in enumerate(seeds):
            n = self.SIZES[(i // 2) % len(self.SIZES)]
            params = model_mod.ChannelParams(los=(i % 2 == 0))
            pool.append(model_mod.generate_channel(n, s, params))
        return pool


def tie_heavy_channel(n: int, seed: int):
    """Rayleigh magnitudes with every composite phase on a pi/8 grid.

    g and h_r are drawn from small tables of values, so the composite vector
    repeats exact duplicates (equal sort keys) and holds many near-equal
    angles within each grid phase.
    """
    rng = np.random.default_rng(seed)
    grid = np.exp(1j * np.pi / 8 * np.arange(16))
    r_g = np.sqrt(rng.exponential(1.0, 256))
    r_h = np.sqrt(rng.exponential(1.0, 16))
    g = r_g[rng.integers(0, 256, n)] * grid[rng.integers(0, 16, n)]
    h_r = r_h[rng.integers(0, 16, n)] + 0j
    h_d = complex(r_g[0] * grid[3])
    return model_mod.ChannelRealization(g=g, h_r=h_r, h_d=h_d, noise_power=1.0)


class SolveLarge(SolveWorkload):
    """N = 2^20, where sort and scan dominate; one channel in four is tie-heavy."""

    name = "solve-large"
    N = 1 << 20
    POOL = 4

    def make_pool(self) -> list:
        seeds = _words(self.seed, self.POOL)
        pool = []
        for i, s in enumerate(seeds[:-1]):
            params = model_mod.ChannelParams(los=(i % 2 == 0))
            pool.append(model_mod.generate_channel(self.N, s, params))
        pool.append(tie_heavy_channel(self.N, seeds[-1]))
        return pool

    def warmup_channels(self) -> list:
        return self.pool[:1]


class CliWorkload:
    """One in-process ``dasris`` command per operation, output to a scratch dir."""

    name = ""
    SIZES = (16, 64, 256)
    TRIALS = 1
    SEEDS = 4

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        self.base_seeds = _words(seed, self.SEEDS)
        self.refs: dict[tuple, reference.Reference] = {}

    def argv(self, i: int) -> list[str]:
        raise NotImplementedError

    def variants(self) -> int:
        return self.SEEDS

    def params(self, i: int):
        return model_mod.ChannelParams()

    def base_seed(self, i: int) -> int:
        return self.base_seeds[i % self.SEEDS]

    def call(self, argv: list[str]) -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli_mod.main(argv)

    def setup(self) -> None:
        os.makedirs(self.scratch, exist_ok=True)
        self.call(self.argv(0))

    def prepare_checks(self) -> None:
        # Channels come from the library's own seeding and generator (the
        # inputs), and the expected optimum from the reference (the check).
        for i in range(self.variants()):
            params = self.params(i)
            base = self.base_seed(i)
            for n in self.SIZES:
                for t in range(self.TRIALS):
                    seed = harness_mod.trial_seeds(base, n, t)[0]
                    ch = model_mod.generate_channel(n, seed, params)
                    self.refs[(i, n, t)] = reference.build(
                        ch.g, ch.h_r, ch.h_d, ch.tx_power)

    def op(self, i: int):
        return i, self.call(self.argv(i))

    def reference_work(self, i: int) -> list[tuple[object, float]]:
        return [(key, _time_reference(ref)) for key, ref in self.refs.items() if key[0] == i]

    def trials_per_op(self) -> int:
        return len(self.SIZES) * self.TRIALS

    def cycle_length(self) -> int:
        return self.variants()

    def largest_channel(self):
        n = max(self.SIZES)
        return model_mod.generate_channel(
            n, harness_mod.trial_seeds(self.base_seed(0), n, 0)[0], self.params(0))

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def _take_csv(path: str) -> list[dict[str, str]]:
    """Read an output CSV and delete it, so the next operation must write it anew."""
    with open(path, newline="") as fp:
        rows = list(csv.DictReader(fp))
    os.remove(path)
    return rows


class Sweep(CliWorkload):
    """``dasris bench --methods das``: harness loop, channel draws and das alike."""

    name = "sweep"
    TRIALS = 100

    def argv(self, i: int) -> list[str]:
        return ["bench", "--n", ",".join(map(str, self.SIZES)),
                "--trials", str(self.TRIALS), "--seed", str(self.base_seed(i)),
                "--methods", "das", "--out", self.scratch]

    def check(self, out, elapsed: float) -> Checked:
        i, rc = out
        result = Checked(trials=self.trials_per_op())
        if rc != 0:
            result.errors.append(f"dasris bench exited {rc}")
            return result
        rows = _take_csv(os.path.join(self.scratch, "trials.csv"))
        seen = set()
        for row in rows:
            key = (i, int(row["n"]), int(row["trial"]))
            ref = self.refs.get(key)
            if row["method"] != "das" or ref is None or key in seen:
                result.errors.append(f"unexpected trials.csv row {row}")
                continue
            seen.add(key)
            err = reference.check_power(ref, float(row["power"]))
            if err:
                result.errors.append(f"n={key[1]} trial={key[2]}: {err}")
            result.solves.append((key, float(row["wall_time_s"])))
        missing = self.trials_per_op() - len(seen)
        if missing:
            result.errors.append(f"trials.csv lacks {missing} das rows")
        aggregate = _take_csv(os.path.join(self.scratch, "aggregate.csv"))
        if sorted(int(r["n"]) for r in aggregate) != sorted(self.SIZES):
            result.errors.append("aggregate.csv does not hold one row per size")
        return result


class Oracle(CliWorkload):
    """``dasris compare`` with every method: exhaustive search dominates."""

    name = "oracle"
    SIZES = (16, 18, 20)
    METHODS = "das,exhaustive,greedy,random"

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.captured: list = []
        self._run_plan = None

    def variants(self) -> int:
        return 2 * self.SEEDS

    def params(self, i: int):
        # Alternate with and without the direct link.
        return model_mod.ChannelParams(los=(i % 2 == 0))

    def base_seed(self, i: int) -> int:
        return self.base_seeds[(i // 2) % self.SEEDS]

    def argv(self, i: int) -> list[str]:
        argv = ["compare", "--n", ",".join(map(str, self.SIZES)),
                "--trials", str(self.TRIALS), "--seed", str(self.base_seed(i)),
                "--methods", self.METHODS,
                "--out", os.path.join(self.scratch, "aggregate.csv")]
        if not self.params(i).los:
            argv.append("--no-los")
        return argv

    def setup(self) -> None:
        # compare prints only aggregates; the per-trial records needed for the
        # dominance check are taken from run_plan's return value on its way
        # back to the CLI (one extra Python call per operation).
        if self._run_plan is None:
            original = cli_mod.run_plan
            captured = self.captured

            def capture(plan):
                records = original(plan)
                captured.append(records)
                return records

            self._run_plan = original
            cli_mod.run_plan = capture
        super().setup()

    def op(self, i: int):
        self.captured.clear()
        return super().op(i)

    def reference_work(self, i: int) -> list[tuple[object, float]]:
        # Per channel, as compare runs them: the solve, then the search that
        # checks it, both done by the benchmark's own code.
        timed = []
        for key, ref in self.refs.items():
            if key[0] == i:
                timed.append((key, _time_reference(ref)))
                reference.enumerated_power(ref.phi, ref.h_d_conj, ref.tx_power)
        return timed

    def check(self, out, elapsed: float) -> Checked:
        i, rc = out
        result = Checked(trials=self.trials_per_op())
        if rc != 0 or len(self.captured) != 1:
            result.errors.append(
                f"dasris compare exited {rc} after {len(self.captured)} run_plan calls")
            return result
        by_trial: dict[tuple, dict[str, float]] = {}
        for rec in self.captured[0]:
            key = (i, rec.n, rec.trial)
            by_trial.setdefault(key, {})[rec.method] = rec.power
            if rec.method == "das" and key in self.refs:
                result.solves.append((key, rec.wall_time))
        for key, ref in self.refs.items():
            if key[0] != i:
                continue
            powers = by_trial.get(key, {})
            if set(powers) != set(self.METHODS.split(",")):
                result.errors.append(f"n={key[1]}: methods {sorted(powers)}")
                continue
            err = reference.check_power(ref, powers["das"])
            if err:
                result.errors.append(f"n={key[1]} das: {err}")
            if not reference.close(powers["exhaustive"], powers["das"]):
                result.errors.append(f"n={key[1]}: exhaustive != das")
            slack = 1.0 + reference.REL_TOL
            if not powers["random"] <= powers["greedy"] * slack <= powers["das"] * slack**2:
                result.errors.append(f"n={key[1]}: random <= greedy <= das fails {powers}")
        for row in _take_csv(os.path.join(self.scratch, "aggregate.csv")):
            if row["method"] in ("das", "exhaustive") and float(row["optimality_rate"]) != 1.0:
                result.errors.append(f"aggregate optimality_rate {row}")
        return result

    def close(self) -> None:
        if self._run_plan is not None:
            cli_mod.run_plan = self._run_plan
            self._run_plan = None
        super().close()


WORKLOADS = {cls.name: cls for cls in (SolveSmall, SolveLarge, Sweep, Oracle)}
