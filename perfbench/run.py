"""Benchmark for dasris: one workload per run, checked answers, one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve-small --seed 1 --seconds 10 --trace 0

Workloads: solve-small, solve-large, sweep, oracle (see perfbench/README.md).
The library is imported from the checkout's own src/ directory; without it
the command fails before measuring anything.

--trace 0 measures the end-to-end metrics. Each timed operation is paired
with the benchmark's own reference work on the same inputs, and timings are
reported as ratios to it, because the speed of a shared host swings by more
than the bounds within minutes; the times in seconds are printed too.
--trace 1 alternates untraced
blocks with blocks that time a span around every cross-module call, and
reports the per-layer metrics plus the tracing overhead. Human-readable lines
(environment, sample counts, percentiles used, failures) come first; the last
line of standard output is the JSON result. Exits 1 when any answer fails its
check.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
from array import array  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEGMENTS = 5
MAX_REPORTED_ERRORS = 5
# Times, in a fresh interpreter, the imports that set-up pays once per process.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import numpy, dasris.cli, dasris.das, dasris.harness, dasris.model; "
    "print(time.perf_counter() - t)"
)

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description="dasris benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("solve-small", "solve-large", "sweep", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_library():
    """Import dasris from ROOT/src, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "dasris" / "__init__.py").is_file():
        raise SystemExit(f"error: no dasris sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import dasris

    if Path(dasris.__file__).resolve().parent != (src / "dasris").resolve():
        raise SystemExit(f"error: dasris was imported from {dasris.__file__}")
    return dasris


def setup_sample(wl) -> float:
    """One set-up sample: a fresh interpreter's import of numpy and dasris,
    plus the workload's input generation and warm-up in this process."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                           capture_output=True, text=True, check=True, timeout=60)
    start = time.perf_counter()
    wl.setup()
    return float(probe.stdout) + time.perf_counter() - start


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown (not a git checkout)"


def blas_threads_in_use():
    """Thread count OpenBLAS reports at run time, when it can be asked."""
    import ctypes
    import glob

    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment(seed: int) -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "l3_cache": l3,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "blas_threads_in_use": blas_threads_in_use(),
        "workload_seed": seed,
    }


def tail_fraction(n: int, cap=0.99, tail=10) -> float:
    """Highest percentile (at most cap) with `tail` of n samples beyond it;
    the median when there are too few samples for more."""
    return max(0.5, math.floor(100 * min(cap, 1.0 - tail / n) + 1e-9) / 100)


class Measurement:
    """Closed-loop results of one timed phase."""

    def __init__(self):
        # array('d') keeps the samples' memory small and independent of how
        # many fit in a run, so peak_rss_mb does not track throughput.
        self.op_s = array("d")
        self.ref_s = array("d")  # reference work paired with each operation
        self.solve_s = array("d")
        self.solve_key = array("l")  # index into self.keys, per solve_s sample
        self.ref_sample_s = array("d")  # the same for the reference's solves
        self.ref_sample_key = array("l")
        self.keys: dict[object, int] = {}
        self.per_input: dict[object, list[float]] = {}  # key -> [seconds, calls]
        self.ref_input: dict[object, list[float]] = {}  # the same, for the reference
        self.trials = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []

    @property
    def timed_s(self) -> float:
        return sum(self.op_s)


def _accumulate(table: dict, key, seconds: float) -> None:
    acc = table.setdefault(key, [0.0, 0])
    acc[0] += seconds
    acc[1] += 1


def measure(wl, m: Measurement, seconds: float | None = None, ops: int | None = None,
            first: int = 0, paired: bool = True) -> int:
    """Run operations back to back for `seconds` (at least one op) or `ops`,
    on inputs first, first + 1, ... of the cycle; return the next input.

    With `paired`, each operation is preceded by the reference work on the
    same inputs, timed on its own.
    """
    clock = time.perf_counter
    deadline = clock() + (seconds or 0.0)
    done = 0
    i = first
    while (done < ops) if ops is not None else (done == 0 or clock() < deadline):
        done += 1
        if paired:
            start = clock()
            for key, spent in wl.reference_work(i):
                m.ref_sample_s.append(spent)
                m.ref_sample_key.append(m.keys.setdefault(key, len(m.keys)))
                _accumulate(m.ref_input, key, spent)
            m.ref_s.append(clock() - start)
        start = clock()
        try:
            out = wl.op(i)
        except Exception:
            out = None
            m.errors.append(traceback.format_exc())
        elapsed = clock() - start
        i = (i + 1) % wl.cycle_length()
        m.op_s.append(elapsed)
        per_op = wl.trials_per_op()
        m.attempted += per_op
        if out is None:
            m.failed += per_op
            continue
        try:
            checked = wl.check(out, elapsed)
        except Exception:
            m.failed += per_op
            m.errors.append(traceback.format_exc())
            continue
        m.trials += checked.trials
        for key, spent in checked.solves:
            m.solve_s.append(spent)
            m.solve_key.append(m.keys.setdefault(key, len(m.keys)))
            _accumulate(m.per_input, key, spent)
        if checked.errors:
            m.failed += checked.trials
            m.errors.extend(checked.errors)
    return i


def measure_traced(wl, seconds: float, tracer):
    """Alternate untraced and traced blocks of one full input cycle each.

    Both sides then run the same operations equally often, so the difference
    of their timed totals is the tracing overhead.
    """
    untraced, traced = Measurement(), Measurement()
    deadline = time.perf_counter() + seconds
    while not traced.op_s or time.perf_counter() < deadline:
        measure(wl, untraced, ops=wl.cycle_length(), paired=False)
        with tracer:
            measure(wl, traced, ops=wl.cycle_length(), paired=False)
    return untraced, traced


def peak_alloc_mb(das_mod, ch) -> float:
    import tracemalloc

    tracemalloc.start()
    try:
        das_mod.das_solve(ch)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _mean(acc: list[float]) -> float:
    return acc[0] / acc[1]


def relative(m: Measurement, q: float) -> tuple[float, float, float]:
    """One segment's (solve_rel, solve_tail_rel, op_rel).

    solve_rel: median over channels of das_solve's mean time over the
    reference's mean time on the same channel. solve_tail_rel: percentile q
    of das_solve's times over the same percentile of the reference's, each
    time first divided by its channel's mean reference time. op_rel: summed
    operation time over summed time of the reference work paired with it.
    Both sides run interleaved, so how fast the shared machine runs at the
    moment cancels out of the ratios.
    """
    import numpy

    ref = {key: _mean(acc) for key, acc in m.ref_input.items()}
    per_input = [_mean(acc) / ref[key] for key, acc in m.per_input.items()]
    ref_of_id = numpy.array([ref[key] for key in m.keys])
    das = numpy.asarray(m.solve_s) / ref_of_id[numpy.asarray(m.solve_key)]
    own = numpy.asarray(m.ref_sample_s) / ref_of_id[numpy.asarray(m.ref_sample_key)]
    return (float(numpy.median(per_input)),
            float(numpy.percentile(das, 100 * q) / numpy.percentile(own, 100 * q)),
            sum(m.op_s) / sum(m.ref_s))


def end_to_end(segments: list[Measurement], setup_s: float, report):
    """Each metric is the median of its values over the measuring segments,
    so a slow spell of the machine within one segment does not set it."""
    import numpy

    if not all(m.solve_s and m.trials for m in segments):
        return {}
    samples = sum(len(m.solve_s) for m in segments)
    # The percentile is taken per segment, so the ten samples beyond it must
    # lie in every segment.
    q = tail_fraction(min(len(m.solve_s) for m in segments))
    rel = [relative(m, q) for m in segments]
    solve_rel, tail_rel, op_rel = (float(numpy.median(col)) for col in zip(*rel))
    # The same timings in seconds, for information: they move with the
    # machine's speed, which on a shared host swings by more than the bounds.
    p50_us = [float(numpy.median([_mean(a) for a in m.per_input.values()])) * 1e6
              for m in segments]
    tail_us = [float(numpy.percentile(m.solve_s, 100 * q)) * 1e6 for m in segments]
    rate = [m.trials / m.timed_s for m in segments]

    def rounded(values, digits=4):
        return [round(v, digits) for v in values]

    report(f"solve_rel {solve_rel:.4f} x (das_solve time over the reference's time "
           f"on the same channel, median over {len(segments[0].per_input)} inputs; "
           f"median over segments {rounded([r[0] for r in rel])}; samples per "
           f"segment {[len(m.solve_s) for m in segments]})")
    report(f"solve_tail_rel {tail_rel:.4f} x (p{round(q * 100)} of das_solve times over "
           f"p{round(q * 100)} of the reference's, each per channel; median over "
           f"segments {rounded([r[1] for r in rel])}; samples={samples})")
    report(f"op_rel {op_rel:.4f} x (operation time over paired reference work time; "
           f"median over segments {rounded([r[2] for r in rel])}; "
           f"ops={sum(len(m.op_s) for m in segments)}, "
           f"reference work {sum(sum(m.ref_s) for m in segments):.3f} s)")
    report(f"info: solve_p50_us {numpy.median(p50_us):.3f} us (segments {rounded(p50_us, 3)}), "
           f"solve_tail_us {numpy.median(tail_us):.3f} us (p{round(q * 100)}), "
           f"trials_per_s {numpy.median(rate):.3f} 1/s (segments {rounded(rate, 3)}; "
           f"trials={sum(m.trials for m in segments)})")
    return {
        "setup_s": (setup_s, "s"),
        "solve_rel": (solve_rel, "x"),
        "solve_tail_rel": (tail_rel, "x"),
        "op_rel": (op_rel, "x"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, traced: Measurement, untraced: Measurement, alloc_mb: float):
    metrics = {}
    wall = traced.timed_s
    for name, st in tracer.stats.items():
        metrics[f"{name}.calls"] = (st.calls, "count")
        metrics[f"{name}.self_s"] = (st.self_s, "s")
        metrics[f"{name}.self_us_per_call"] = (st.self_s / st.calls * 1e6 if st.calls else 0.0, "us")
        metrics[f"{name}.share"] = (st.self_s / wall, "frac")
    das = tracer.stats["das.das_solve"]
    metrics["das.ns_per_element"] = (das.self_s / das.units * 1e9 if das.units else 0.0, "ns")
    metrics["das.peak_alloc_mb"] = (alloc_mb, "MB")
    for name in ("baselines.exhaustive_search", "baselines.greedy_bitflip"):
        st = tracer.stats[name]
        metrics[f"{name}.evals_per_call"] = (st.units / st.calls if st.calls else 0.0, "count")
    metrics["trace.overhead_frac"] = (traced.timed_s / untraced.timed_s - 1.0, "frac")
    return metrics


def report(line: str) -> None:
    print(line, flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    for key in BLAS_ENV:
        os.environ[key] = BLAS_THREADS
    import_library()
    import workloads
    from tracer import Tracer

    first_import_s = time.perf_counter() - _T0
    env = environment(args.seed)
    report(f"env {json.dumps(env, sort_keys=True)}")

    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, str(scratch))
    try:
        setup_runs = [setup_sample(wl)]
        wl.prepare_checks()

        if args.trace == 0:
            # The run is cut into equal measuring segments with a set-up
            # sample before each, and every metric is a median over them, so
            # that one slow spell of the machine does not set it. Each set-up
            # draws the same inputs from the seed.
            segments = [Measurement() for _ in range(SEGMENTS)]
            i = 0
            for k, m in enumerate(segments):
                if k:
                    setup_runs.append(setup_sample(wl))
                i = measure(wl, m, seconds=args.seconds / SEGMENTS, first=i)
            setup_s = statistics.median(setup_runs)
            report(f"setup_s {setup_s:.4f} s (median of {SEGMENTS} samples "
                   f"{[round(x, 4) for x in sorted(setup_runs)]}, each a fresh "
                   f"interpreter's imports plus input generation and warm-up; this "
                   f"process's own start-up and imports took {first_import_s:.4f} s)")
            metrics = end_to_end(segments, setup_s, report)
            phases = segments
        else:
            tracer = Tracer()
            untraced, traced = measure_traced(wl, args.seconds, tracer)
            alloc = peak_alloc_mb(workloads.das_mod, wl.largest_channel())
            metrics = per_layer(tracer, traced, untraced, alloc)
            report(f"tracing overhead {metrics['trace.overhead_frac'][0]:+.3%} "
                   f"(traced {traced.timed_s:.3f} s / {traced.trials} trials, "
                   f"untraced {untraced.timed_s:.3f} s / {untraced.trials} trials)")
            for name, st in tracer.stats.items():
                report(f"span {name} calls={st.calls} self_s={st.self_s:.6f} "
                       f"share={st.self_s / traced.timed_s:.4f}")
            phases = [untraced, traced]
    finally:
        wl.close()
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    errors = [e for p in phases for e in p.errors]
    report(f"failed_frac {failed / attempted:.6f} (failed={failed}, attempted={attempted})")
    if args.workload == "solve-large":
        report(f"note: one solve allocates about 144 MB (das.peak_alloc_mb); with an L3 of "
               f"{env['l3_cache']}, if that is more than 144 MB this is not a memory-bandwidth "
               f"test, and a working set of four times such an L3 would not fit in 8 GB")
    for err in errors[:MAX_REPORTED_ERRORS]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
