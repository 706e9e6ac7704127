"""Command line front end.

Commands:
    solve    read a channel CSV and print the optimal binary configuration
    bench    run a seeded sweep and write trial + aggregate CSVs
    compare  run a seeded sweep and print a per-size method table
    gen      draw a random channel and write it as a channel CSV

Exit codes: 0 success, 1 failed optimality verification, 2 input error,
3 I/O error, 4 plan rejection. A size too large to allocate is a plan
rejection in bench and compare and an input error in gen.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import sys
from pathlib import Path

from .baselines import EXHAUSTIVE_LIMIT, ExhaustiveLimitError, exhaustive_search
from .das import das_solve
from .harness import (
    METHODS,
    ORACLE_ABS_TOL,
    ORACLE_REL_TOL,
    ExperimentPlan,
    PlanError,
    aggregate,
    run_plan,
    write_aggregate_csv,
    write_trial_csv,
)
from .model import (
    ChannelParams,
    generate_channel,
    read_channel_csv,
    snr_db,
    write_channel_csv,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_PLAN = 4

DEFAULT_BENCH_DIR = "bench_out"


def _csv_ints(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def _csv_names(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _add_sweep_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=_csv_ints, required=True,
                     help="comma-separated surface sizes, e.g. 10,100")
    sub.add_argument("--trials", type=int, default=100, help="trials per size")
    sub.add_argument("--seed", type=int, default=0, help="base seed")
    sub.add_argument("--methods", type=_csv_names, default=("das",),
                     help=f"comma-separated subset of {','.join(METHODS)}")
    _add_channel_options(sub)


def _add_channel_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--no-los", action="store_true",
                     help="drop the direct link (h_d = 0)")
    sub.add_argument("--beta-g", type=float, default=1.0,
                     help="per-entry variance of g")
    sub.add_argument("--beta-r", type=float, default=1.0,
                     help="per-entry variance of h_r")
    sub.add_argument("--beta-d", type=float, default=1.0,
                     help="variance of the direct link")
    sub.add_argument("--noise-power", type=float, default=1.0,
                     help="receiver noise power")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dasris",
        description="Optimal 1-bit surface configuration and benchmarks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="solve one channel file")
    solve.add_argument("channel", type=Path, help="channel CSV path")
    solve.add_argument("--verify-exhaustive", action="store_true",
                       help=f"cross-check against brute force (n <= {EXHAUSTIVE_LIMIT})")

    bench = subs.add_parser("bench", help="run a sweep and write CSVs")
    _add_sweep_options(bench)
    bench.add_argument("--out", type=Path, default=Path(DEFAULT_BENCH_DIR),
                       help="output directory for trials.csv and aggregate.csv")

    compare = subs.add_parser("compare", help="run a sweep and print a table")
    _add_sweep_options(compare)
    compare.add_argument("--out", type=Path, default=None,
                         help="optional path for the aggregate CSV")

    gen = subs.add_parser("gen", help="generate a random channel file")
    gen.add_argument("--n", type=_csv_ints, required=True, help="surface size")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=Path, required=True, help="channel CSV path")
    _add_channel_options(gen)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on first use and kept for the process.

    A build takes about 1.7 ms, most of an in-process bench call's own time;
    parse_args fills a fresh namespace on every call, so nothing carries
    over from one call to the next.
    """
    return build_parser()


def _channel_params(args: argparse.Namespace) -> ChannelParams:
    return ChannelParams(
        beta_g=args.beta_g,
        beta_r=args.beta_r,
        beta_d=args.beta_d,
        los=not args.no_los,
        noise_power=args.noise_power,
    )


def _plan(args: argparse.Namespace) -> ExperimentPlan:
    return ExperimentPlan(
        n_values=args.n,
        trials=args.trials,
        base_seed=args.seed,
        methods=args.methods,
        channel_params=_channel_params(args),
    )


def format_signs(w) -> str:
    return "".join("+" if v > 0 else "-" for v in w)


def cmd_solve(args: argparse.Namespace) -> int:
    with open(args.channel, "r", newline="") as fp:
        ch = read_channel_csv(fp)
    # the search runs first, so a channel over its cap is refused before any output
    reference = exhaustive_search(ch) if args.verify_exhaustive else None
    solution = das_solve(ch)
    theta = " ".join("0" if v > 0 else "pi" for v in solution.config.w)
    print(f"n: {ch.n}")
    print(f"w: {format_signs(solution.config.w)}")
    print(f"theta: {theta}")
    print(f"power: {solution.power!r}")
    print(f"snr_db: {snr_db(solution.power, ch.noise_power)!r}")
    if reference is not None:
        if math.isclose(solution.power, reference.power, rel_tol=ORACLE_REL_TOL,
                        abs_tol=ORACLE_ABS_TOL):
            print("verified: optimal")
        else:
            print(
                "verified: MISMATCH "
                f"das={solution.power!r} exhaustive={reference.power!r}"
            )
            return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    records = run_plan(_plan(args))
    rows = aggregate(records)
    args.out.mkdir(parents=True, exist_ok=True)
    trials_path = args.out / "trials.csv"
    aggregate_path = args.out / "aggregate.csv"
    with open(trials_path, "w", newline="") as fp:
        write_trial_csv(records, fp)
    # formatted once, written to the file and to stdout
    buf = io.StringIO()
    write_aggregate_csv(rows, buf)
    table = buf.getvalue()
    with open(aggregate_path, "w", newline="") as fp:
        fp.write(table)
    sys.stdout.write(table)
    print(f"wrote {trials_path} and {aggregate_path}", file=sys.stderr)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    records = run_plan(_plan(args))
    rows = aggregate(records)
    # the file first: an I/O error then leaves nothing on stdout
    if args.out is not None:
        with open(args.out, "w", newline="") as fp:
            write_aggregate_csv(rows, fp)
        print(f"wrote {args.out}", file=sys.stderr)
    header = f"{'n':>6}  {'method':<10}  {'mean_snr_db':>12}  {'mean_power':>12}  {'optimality':>10}  {'total_s':>9}"
    print(header)
    for row in rows:
        rate = "-" if math.isnan(row.optimality_rate) else f"{row.optimality_rate:.4f}"
        print(
            f"{row.n:>6}  {row.method:<10}  {row.mean_snr_db:>12.4f}  "
            f"{row.mean_power:>12.4f}  {rate:>10}  {row.total_time:>9.4f}"
        )
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    if len(args.n) != 1:
        raise ValueError("gen takes a single --n value")
    ch = generate_channel(args.n[0], args.seed, _channel_params(args))
    with open(args.out, "w", newline="") as fp:
        write_channel_csv(ch, fp)
    print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "bench": cmd_bench,
    "compare": cmd_compare,
    "gen": cmd_gen,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (PlanError, ExhaustiveLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PLAN
    except ValueError as exc:  # ChannelFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:  # numpy refuses an absurd size's arrays before any output
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_PLAN if args.command in ("bench", "compare") else EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
