import csv
import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dasris.harness import (
    AGGREGATE_CSV_HEADER,
    TRIAL_CSV_HEADER,
    AggregateRow,
    ExperimentPlan,
    PlanError,
    TrialRecord,
    _MAX_N,
    aggregate,
    run_plan,
    trial_seeds,
    write_aggregate_csv,
    write_trial_csv,
)
from dasris.das import das_solve
import dasris.model as model
from dasris.model import _BLOCK_ROWS, ChannelParams, _fmt, _seed_block, generate_channel, snr_db


def small_plan(**overrides):
    base = dict(n_values=(4, 6), trials=3, base_seed=11,
                methods=("das", "exhaustive", "greedy", "random"))
    base.update(overrides)
    return ExperimentPlan(**base)


def test_plan_rejects_bad_inputs():
    with pytest.raises(PlanError):
        small_plan(n_values=())
    with pytest.raises(PlanError):
        small_plan(n_values=(0,))
    with pytest.raises(PlanError):
        small_plan(trials=0)
    with pytest.raises(PlanError):
        small_plan(methods=())
    with pytest.raises(PlanError):
        small_plan(methods=("das", "das"))
    with pytest.raises(PlanError):
        small_plan(methods=("sdp",))
    with pytest.raises(PlanError):
        small_plan(base_seed=-1)


@pytest.mark.parametrize("overrides", [
    dict(n_values=(4, 4)),
    dict(n_values=(4, 6, 4)),
    dict(n_values=(4.7,)),
    dict(n_values=(4.0,)),
    dict(trials=2.5),
    dict(base_seed=1.5),
    dict(trials="3"),
], ids=["repeat", "repeat-apart", "float-size", "integral-float-size", "float-trials",
        "float-seed", "str-trials"])
def test_plan_rejects_repeated_sizes_and_non_integers(overrides):
    with pytest.raises(PlanError):
        small_plan(**overrides)


def test_plan_rejects_sizes_whose_row_numpy_cannot_index():
    # a channel of size n draws one row of 4n + 2 normals
    assert 4 * _MAX_N + 2 <= np.iinfo(np.intp).max < 4 * (_MAX_N + 1) + 2
    with pytest.raises(PlanError, match="cannot be drawn"):
        small_plan(n_values=(4, _MAX_N + 1), methods=("das",))
    with pytest.raises(PlanError, match="cannot be drawn"):
        small_plan(n_values=(2**62,), methods=("das",))
    assert small_plan(n_values=(_MAX_N,), methods=("das",)).n_values == (_MAX_N,)


def test_plan_keeps_numpy_integers_as_ints():
    plan = small_plan(n_values=np.array([4, 6]), trials=np.int64(3), base_seed=np.uint8(11))
    assert plan == small_plan()
    assert all(type(v) is int for v in (*plan.n_values, plan.trials, plan.base_seed))


def test_plan_enforces_exhaustive_limit():
    with pytest.raises(PlanError) as err:
        small_plan(n_values=(4, 21))
    assert "20" in str(err.value)
    small_plan(n_values=(4, 21), methods=("das",))


def test_run_plan_rejects_before_work(monkeypatch):
    import dasris.harness as harness

    def boom(*args, **kwargs):
        raise AssertionError("channel generated despite invalid plan")

    monkeypatch.setattr(harness, "draw_channels", boom)
    with pytest.raises(PlanError):
        run_plan(small_plan(trials=0))


@pytest.mark.parametrize("methods", [
    ("das", "exhaustive", "greedy", "random"),
    ("greedy",),
    ("random",),
    ("das", "exhaustive"),
    ("random", "greedy"),
    ("das",),
])
def test_run_plan_calls_each_solver_through_the_module_globals(monkeypatch, methods):
    # a tracer times the harness by rebinding these names, so each requested
    # solver must be looked up there: the seeding, the draw and das once per
    # cell (here one cell per size), the baselines once per trial, and the
    # random draw once per trial however many methods read it
    import dasris.harness as harness

    calls = {}
    names = ("das_solve_block", "exhaustive_search", "greedy_bitflip", "random_best_of_k",
             "draw_channels", "_seed_block", "trial_seeds")
    for name in names:
        def counting(*args, _original=getattr(harness, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)
        monkeypatch.setattr(harness, name, counting)
    plan = small_plan(methods=methods)
    records = run_plan(plan)
    sizes = len(plan.n_values)
    trials = sizes * plan.trials
    per_trial = {"exhaustive": "exhaustive_search", "greedy": "greedy_bitflip",
                 "random": "random_best_of_k"}
    expected = {"draw_channels": sizes, "_seed_block": sizes}
    if "das" in methods:
        expected["das_solve_block"] = sizes
    for method in methods:
        if method in per_trial:
            expected[per_trial[method]] = trials
    if "greedy" in methods:  # greedy starts from the random draw's winner
        expected["random_best_of_k"] = trials
    assert calls == expected
    assert len(records) == trials * len(methods)


def test_run_plan_splits_large_sizes_into_cells(monkeypatch):
    # a cell holds at most CELL_ELEMENTS // n trials, and how a size's trials
    # are cut into cells changes no power
    import dasris.harness as harness

    plan = small_plan(n_values=(4, 6, 9), trials=7)
    whole = run_plan(plan)
    blocks = []
    original = harness.das_solve_block

    def recording(g, *args):
        blocks.append(g.shape)
        return original(g, *args)

    monkeypatch.setattr(harness, "das_solve_block", recording)
    monkeypatch.setattr(harness, "CELL_ELEMENTS", 18)
    split = run_plan(plan)
    assert blocks == [(4, 4), (3, 4), (3, 6), (3, 6), (1, 6), (2, 9), (2, 9), (2, 9), (1, 9)]
    assert [(r.n, r.trial, r.method, r.power, r.snr_db) for r in split] == \
        [(r.n, r.trial, r.method, r.power, r.snr_db) for r in whole]


@pytest.mark.parametrize("n", [16, 1 << 14])
def test_one_trial_cells_give_the_records_of_a_longer_cell(n):
    # trials=1 runs das on a one-row block, as does every cell of a size of
    # at least CELL_ELEMENTS; at n = 16 the trials=7 plan runs one 7-row
    # block. Each trial's power is das_solve's on its own channel either way
    params = ChannelParams()
    seven = run_plan(ExperimentPlan(n_values=(n,), trials=7, base_seed=5))
    one = run_plan(ExperimentPlan(n_values=(n,), trials=1, base_seed=5))
    assert [(r.trial, r.power, r.snr_db) for r in one] == \
        [(r.trial, r.power, r.snr_db) for r in seven[:1]]
    for rec in seven:
        ch = generate_channel(n, trial_seeds(5, n, rec.trial)[0], params)
        assert type(rec.power) is float and rec.power == das_solve(ch).power
        assert rec.snr_db == snr_db(rec.power, params.noise_power)


def test_trial_seeds_distinct_and_stable():
    seen = set()
    for n in (1, 2, 50):
        for t in range(20):
            pair = trial_seeds(7, n, t)
            assert pair == trial_seeds(7, n, t)
            seen.add(pair)
    assert len(seen) == 60


def numpy_trial_seeds(base_seed, n, trials):
    return np.array([np.random.SeedSequence((base_seed, n, t)).generate_state(2, np.uint64)
                     for t in trials], dtype=np.uint64).reshape(len(trials), 2)


@given(base_seed=st.integers(min_value=0, max_value=2**70 - 1),
       n=st.integers(min_value=1, max_value=2**40),
       first=st.integers(min_value=0, max_value=2**33),
       count=st.integers(min_value=1, max_value=3 * _BLOCK_ROWS))
@example(base_seed=0, n=1, first=0, count=_BLOCK_ROWS)
@example(base_seed=2**32 - 1, n=16, first=2**32 - _BLOCK_ROWS, count=_BLOCK_ROWS)
@example(base_seed=2**32, n=2**32, first=7, count=2 * _BLOCK_ROWS)
@example(base_seed=2**64, n=2**40, first=0, count=3 * _BLOCK_ROWS)
@settings(max_examples=100, deadline=None)
def test_trial_seed_block_rows_are_numpy_seed_sequence(base_seed, n, first, count):
    # base seeds of one to three words, sizes of one or two, trials on both
    # sides of 2^32 and blocks on both sides of the crossover
    trials = range(first, first + count)
    block = _seed_block((base_seed, n), trials, 2)
    assert block.shape == (count, 2) and block.dtype == np.uint64 and block.flags.c_contiguous
    assert block.tobytes() == numpy_trial_seeds(base_seed, n, trials).tobytes()
    assert trial_seeds(base_seed, n, first) == tuple(block[0].tolist())


@pytest.mark.parametrize("count", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, 3 * _BLOCK_ROWS])
def test_trial_seed_block_mixes_a_large_block_column_wise(monkeypatch, count):
    calls = []
    original = model._seed_state
    monkeypatch.setattr(model, "_seed_state",
                        lambda entropy, n_words: calls.append(entropy.shape) or
                        original(entropy, n_words))
    trials = range(10, 10 + count)
    block = _seed_block((7, 64), trials, 2)
    assert block.tobytes() == numpy_trial_seeds(7, 64, trials).tobytes()
    assert calls == ([(3, count)] if count >= _BLOCK_ROWS else [])


@pytest.mark.parametrize("base_seed, n", [(2**64, 64), (2**32, 2**32)])
def test_a_trial_entropy_wider_than_the_pool_goes_through_numpy(monkeypatch, base_seed, n):
    # base_seed, n and the trial make five entropy words: SeedSequence mixes
    # the fifth in a loop that the column-wise routine does not run
    def refuse(entropy, n_words):
        raise AssertionError("a wide entropy was mixed column-wise")

    monkeypatch.setattr(model, "_seed_state", refuse)
    trials = range(3 * _BLOCK_ROWS)
    block = _seed_block((base_seed, n), trials, 2)
    assert block.tobytes() == numpy_trial_seeds(base_seed, n, trials).tobytes()


def test_trial_seeds_keep_numpy_errors():
    with pytest.raises(ValueError, match="non-negative"):
        trial_seeds(-1, 4, 0)
    with pytest.raises(TypeError):
        trial_seeds(1.5, 4, 0)
    with pytest.raises(ValueError, match="non-negative"):
        _seed_block((-1, 4), range(2 * _BLOCK_ROWS), 2)


def test_run_plan_record_grid():
    plan = small_plan()
    records = run_plan(plan)
    assert len(records) == 2 * 3 * 4
    # fixed method order within each trial
    methods = [r.method for r in records[:4]]
    assert methods == ["das", "exhaustive", "greedy", "random"]
    keys = [(r.n, r.trial) for r in records]
    assert keys == sorted(keys, key=lambda k: (plan.n_values.index(k[0]), k[1]))


def test_run_plan_methods_share_channels():
    records = run_plan(small_plan())
    by_cell = {}
    for rec in records:
        by_cell.setdefault((rec.n, rec.trial), {})[rec.method] = rec
    for cell in by_cell.values():
        das = cell["das"]
        exh = cell["exhaustive"]
        assert math.isclose(das.power, exh.power, rel_tol=1e-9, abs_tol=1e-12)
        assert cell["random"].power <= cell["greedy"].power <= das.power


# sha256 of run_plan's (n, trial, method, power, snr_db) records below, taken
# from the per-trial harness that solved and drew one channel at a time; a
# change to the draws, the solvers or the record order shows here
RECORDS_SHA256 = "ff1bf6bbc65a1b6ffcc7d9c03e68dcd5dd4bc7c68654899928a4a1315ce12e2e"


def test_run_plan_records_are_pinned():
    digest = hashlib.sha256()
    for los in (True, False):
        for base_seed in (0, 7, 123):
            plan = ExperimentPlan(n_values=(1, 2, 5, 9, 14, 20), trials=3, base_seed=base_seed,
                                  methods=("das", "exhaustive", "greedy", "random"),
                                  channel_params=ChannelParams(los=los))
            for r in run_plan(plan):
                digest.update(repr((r.n, r.trial, r.method, float(r.power),
                                    float(r.snr_db))).encode())
    assert digest.hexdigest() == RECORDS_SHA256


def test_run_plan_powers_deterministic():
    a = run_plan(small_plan())
    b = run_plan(small_plan())
    assert [r.power for r in a] == [r.power for r in b]
    assert [r.snr_db for r in a] == [r.snr_db for r in b]


def test_run_plan_snr_uses_plan_noise_power():
    plan = small_plan(methods=("das",),
                      channel_params=ChannelParams(noise_power=0.5))
    for rec in run_plan(plan):
        assert math.isclose(rec.snr_db, 10 * math.log10(rec.power / 0.5), rel_tol=1e-12)


def test_aggregate_means_db_not_power():
    records = [
        TrialRecord(n=4, trial=0, method="das", power=1.0, snr_db=0.0, wall_time=0.25),
        TrialRecord(n=4, trial=1, method="das", power=100.0, snr_db=20.0, wall_time=0.75),
    ]
    rows = aggregate(records)
    assert len(rows) == 1
    row = rows[0]
    assert row.mean_snr_db == 10.0
    assert row.mean_power == 50.5
    assert row.total_time == 1.0
    assert math.isnan(row.optimality_rate)


def test_aggregate_optimality_rate():
    records = run_plan(small_plan())
    rows = {(r.n, r.method): r for r in aggregate(records)}
    for n in (4, 6):
        assert rows[(n, "exhaustive")].optimality_rate == 1.0
        assert rows[(n, "das")].optimality_rate == 1.0
        assert 0.0 <= rows[(n, "greedy")].optimality_rate <= 1.0
    no_oracle = aggregate(run_plan(small_plan(methods=("das",))))
    assert math.isnan(no_oracle[0].optimality_rate)


def test_mean_power_grows_quadratically():
    plan = ExperimentPlan(n_values=(50, 100), trials=1000, base_seed=3,
                          methods=("das",))
    rows = {row.n: row for row in aggregate(run_plan(plan))}
    ratio = rows[100].mean_power / rows[50].mean_power
    assert 3.0 <= ratio <= 5.4


def test_trial_csv_layout_and_roundtrip():
    records = run_plan(small_plan(methods=("das",), trials=2, n_values=(3,)))
    buf = io.StringIO()
    write_trial_csv(records, buf)
    buf.seek(0)
    rows = list(csv.reader(buf))
    assert tuple(rows[0]) == TRIAL_CSV_HEADER
    assert len(rows) == 1 + len(records)
    for row, rec in zip(rows[1:], records):
        assert int(row[0]) == rec.n
        assert int(row[1]) == rec.trial
        assert row[2] == rec.method
        assert float(row[3]) == rec.power
        assert float(row[4]) == rec.snr_db
        assert float(row[5]) == rec.wall_time


def test_aggregate_csv_layout_and_roundtrip():
    rows_in = [
        AggregateRow(n=4, method="das", mean_snr_db=1.5, mean_power=2.25,
                     total_time=0.5, optimality_rate=float("nan")),
        AggregateRow(n=8, method="greedy", mean_snr_db=-3.0, mean_power=0.5,
                     total_time=1.5, optimality_rate=0.875),
    ]
    buf = io.StringIO()
    write_aggregate_csv(rows_in, buf)
    buf.seek(0)
    rows = list(csv.reader(buf))
    assert tuple(rows[0]) == AGGREGATE_CSV_HEADER
    assert rows[1][0] == "4"
    assert float(rows[1][2]) == 1.5
    assert math.isnan(float(rows[1][5]))
    assert float(rows[2][5]) == 0.875


def reference_trial_csv(records):
    """The trial CSV as csv.writer with model._fmt wrote it, field by field."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRIAL_CSV_HEADER)
    for rec in records:
        writer.writerow([rec.n, rec.trial, rec.method,
                         _fmt(rec.power), _fmt(rec.snr_db), _fmt(rec.wall_time)])
    return buf.getvalue()


def test_trial_csv_bytes_are_the_csv_writers():
    floats = [0.0, -0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan,
              0.1, 1 / 3, -2.5e-300, 12345.678]
    records = []
    for k, x in enumerate(floats):
        y = floats[(k + 3) % len(floats)]
        z = floats[(k + 7) % len(floats)]
        records.append(TrialRecord(n=k + 1, trial=k, method="das", power=x, snr_db=y,
                                   wall_time=z))
        records.append(TrialRecord(n=np.int64(k + 16), trial=np.int64(2**40 + k),
                                   method="random", power=np.float64(y),
                                   snr_db=np.float64(z), wall_time=np.float64(x)))
    records += run_plan(small_plan(trials=4))
    for sample in (records, records[:1], []):
        buf = io.StringIO()
        write_trial_csv(sample, buf)
        assert buf.getvalue().encode() == reference_trial_csv(sample).encode()


def test_run_plan_records_are_plain_trial_records():
    for rec in run_plan(small_plan(trials=2)):
        twin = TrialRecord(n=rec.n, trial=rec.trial, method=rec.method, power=rec.power,
                           snr_db=rec.snr_db, wall_time=rec.wall_time)
        assert type(rec) is TrialRecord
        assert rec == twin and hash(rec) == hash(twin) and repr(rec) == repr(twin)


def test_infinite_snr_written_parseable():
    records = [TrialRecord(n=1, trial=0, method="das", power=0.0,
                           snr_db=float("-inf"), wall_time=0.0)]
    buf = io.StringIO()
    write_trial_csv(records, buf)
    buf.seek(0)
    rows = list(csv.reader(buf))
    assert float(rows[1][4]) == float("-inf")


def test_generate_channel_seed_derivation_spreads():
    # channels at different trials differ
    a = generate_channel(6, trial_seeds(5, 6, 0)[0])
    b = generate_channel(6, trial_seeds(5, 6, 1)[0])
    assert not np.array_equal(a.g, b.g)
