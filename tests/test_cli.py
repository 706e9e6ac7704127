import csv
import math
import subprocess
import sys

import pytest

from dasris.cli import main
from dasris.model import ChannelRealization, generate_channel, write_channel_csv

SOLVE_FILE = """idx,g_re,g_im,hr_re,hr_im
1,1.0,0.0,1.0,0.0
hd,1.0,0.0,1.0,1.0
"""


@pytest.fixture
def single_element_channel(tmp_path):
    path = tmp_path / "chan.csv"
    path.write_text(SOLVE_FILE)
    return path


def test_solve_prints_configuration(single_element_channel, capsys):
    assert main(["solve", str(single_element_channel)]) == 0
    out = capsys.readouterr().out
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert lines["w"] == "+"
    assert lines["theta"] == "0"
    assert float(lines["power"]) == 4.0
    assert math.isclose(float(lines["snr_db"]), 6.020599913279624, rel_tol=1e-12)


def test_solve_verify_exhaustive(single_element_channel, capsys):
    assert main(["solve", str(single_element_channel), "--verify-exhaustive"]) == 0
    assert "verified: optimal" in capsys.readouterr().out


def test_solve_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("idx,g_re,g_im,hr_re,hr_im\n1,1.0,0.0,1.0,0.0\n")
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err
    assert "footer" in err


@pytest.mark.parametrize("token", ["nan", "inf"])
def test_solve_non_finite_file_is_input_error(tmp_path, capsys, token):
    path = tmp_path / "bad.csv"
    path.write_text(f"idx,g_re,g_im,hr_re,hr_im\n1,1.0,{token},1.0,0.0\nhd,1.0,0.0,1.0,1.0\n")
    assert main(["solve", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("verify", [False, True])
def test_solve_power_overflow_is_input_error(tmp_path, capsys, verify):
    # scaled by 1e160 the optimal power is near 1e321, past the largest float
    ch = generate_channel(8, 3)
    path = tmp_path / "huge.csv"
    with open(path, "w", newline="") as fp:
        write_channel_csv(ChannelRealization(g=ch.g * 1e160, h_r=ch.h_r, h_d=ch.h_d * 1e160,
                                             noise_power=1.0), fp)
    assert main(["solve", str(path)] + (["--verify-exhaustive"] if verify else [])) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "overflow" in err


def test_solve_overflowing_composite_is_input_error(tmp_path, capsys):
    # g and h_r are finite, their product conj(h_r) * g is not
    path = tmp_path / "huge.csv"
    with open(path, "w", newline="") as fp:
        write_channel_csv(ChannelRealization(g=[1e160, 2e160], h_r=[1e160, 1], h_d=0,
                                             noise_power=1.0), fp)
    assert main(["solve", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "overflow" in err


def test_solve_missing_file_is_io_error(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.csv")]) == 3


def test_solve_multi_element_output(tmp_path, capsys):
    path = tmp_path / "chan.csv"
    with open(path, "w") as fp:
        write_channel_csv(generate_channel(4, 3), fp)
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert len(lines["w"]) == 4
    assert set(lines["w"]) <= {"+", "-"}
    theta = lines["theta"].split()
    assert len(theta) == 4
    assert set(theta) <= {"0", "pi"}
    for bit, angle in zip(lines["w"], theta):
        assert (bit == "+") == (angle == "0")


def test_solve_verify_respects_limit(tmp_path, capsys):
    path = tmp_path / "chan.csv"
    with open(path, "w") as fp:
        write_channel_csv(generate_channel(21, 3), fp)
    code = main(["solve", str(path), "--verify-exhaustive"])
    assert code == 4
    captured = capsys.readouterr()
    assert "20" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", [["solve", "chan.csv"], ["bench", "--n", "4"],
                                     ["compare", "--n", "4"]])
def test_exhaustive_limit_is_not_an_option(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--exhaustive-limit", "40"])
    assert exc.value.code == 2
    assert "--exhaustive-limit" in capsys.readouterr().err


def test_gen_writes_channel(tmp_path, capsys):
    out = tmp_path / "chan.csv"
    assert main(["gen", "--n", "8", "--seed", "5", "--out", str(out)]) == 0
    rows = list(csv.reader(open(out)))
    assert rows[0] == ["idx", "g_re", "g_im", "hr_re", "hr_im"]
    assert len(rows) == 10
    assert rows[-1][0] == "hd"


def test_gen_then_solve_roundtrip(tmp_path, capsys):
    out = tmp_path / "chan.csv"
    assert main(["gen", "--n", "8", "--seed", "5", "--out", str(out)]) == 0
    assert main(["solve", str(out), "--verify-exhaustive"]) == 0
    assert "verified: optimal" in capsys.readouterr().out


def test_gen_rejects_zero_elements(tmp_path, capsys):
    assert main(["gen", "--n", "0", "--out", str(tmp_path / "x.csv")]) == 2


def test_gen_no_los_writes_zero_direct_link(tmp_path):
    out = tmp_path / "chan.csv"
    assert main(["gen", "--n", "3", "--no-los", "--out", str(out)]) == 0
    footer = list(csv.reader(open(out)))[-1]
    assert footer[0] == "hd"
    assert float(footer[1]) == 0.0
    assert float(footer[2]) == 0.0


def test_gen_rejects_multiple_sizes(tmp_path, capsys):
    assert main(["gen", "--n", "3,4", "--out", str(tmp_path / "x.csv")]) == 2


def test_bench_writes_both_csvs(tmp_path, capsys):
    out = tmp_path / "results"
    code = main(["bench", "--n", "4,6", "--trials", "3", "--seed", "1",
                 "--methods", "das,greedy", "--out", str(out)])
    assert code == 0
    trials = list(csv.reader(open(out / "trials.csv")))
    agg = list(csv.reader(open(out / "aggregate.csv")))
    assert trials[0] == ["n", "trial", "method", "power", "snr_db", "wall_time_s"]
    assert len(trials) == 1 + 2 * 3 * 2
    assert agg[0] == ["n", "method", "mean_snr_db", "mean_power",
                      "total_time_s", "optimality_rate"]
    assert len(agg) == 1 + 2 * 2
    # stdout carries the aggregate csv as well
    assert "mean_snr_db" in capsys.readouterr().out


def test_bench_rejects_exhaustive_beyond_limit(tmp_path, capsys):
    code = main(["bench", "--n", "25", "--trials", "1", "--methods", "exhaustive",
                 "--out", str(tmp_path / "r")])
    assert code == 4
    assert "20" in capsys.readouterr().err


def test_bench_unknown_method(tmp_path, capsys):
    code = main(["bench", "--n", "4", "--methods", "sdp", "--out", str(tmp_path / "r")])
    assert code == 4


def test_compare_rejects_repeated_sizes(capsys):
    assert main(["compare", "--n", "4,4", "--trials", "3"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "repeat" in captured.err


def test_bench_rejects_repeated_sizes_before_writing(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["bench", "--n", "4,4", "--trials", "3", "--out", str(out)]) == 4
    assert capsys.readouterr().out == ""
    assert not (out / "trials.csv").exists()


def test_bench_power_overflow_is_input_error_before_writing(tmp_path, capsys):
    out = tmp_path / "r"
    code = main(["bench", "--n", "16,64", "--trials", "3", "--beta-g", "1e300",
                 "--beta-r", "1e300", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "overflow" in captured.err
    assert not (out / "trials.csv").exists()


# numpy refuses at once to allocate the 4 EiB of normals that one channel of
# this size needs: no address space can hold them
UNALLOCATABLE_N = str(2**57)


@pytest.mark.parametrize("command", ["bench", "compare"])
def test_sweep_too_large_to_allocate_is_plan_rejection(tmp_path, capsys, command):
    out = tmp_path / "r"
    argv = [command, "--n", UNALLOCATABLE_N, "--trials", "1"]
    argv += ["--out", str(out)] if command == "bench" else []
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: not enough memory")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_gen_too_large_to_allocate_is_input_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["gen", "--n", UNALLOCATABLE_N, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: not enough memory")
    assert captured.err.count("\n") == 1
    assert not out.exists()


# a channel row of 4n + 2 normals past the largest index numpy can hold
UNINDEXABLE_N = str(2**62)


@pytest.mark.parametrize("command", ["bench", "compare"])
def test_sweep_too_large_to_index_is_plan_rejection(tmp_path, capsys, command):
    out = tmp_path / "r"
    argv = [command, "--n", UNINDEXABLE_N, "--trials", "1"]
    argv += ["--out", str(out)] if command == "bench" else []
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: surface sizes above")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_gen_too_large_to_index_is_input_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["gen", "--n", UNINDEXABLE_N, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_bench_memory_error_in_the_draw_is_plan_rejection(tmp_path, capsys, monkeypatch):
    import dasris.harness as harness

    def refuse(*args):
        raise MemoryError("Unable to allocate 2.91 TiB")

    monkeypatch.setattr(harness, "draw_channels", refuse)
    out = tmp_path / "r"
    assert main(["bench", "--n", "16", "--trials", "3", "--out", str(out)]) == 4
    assert capsys.readouterr().err == "error: not enough memory: Unable to allocate 2.91 TiB\n"
    assert not (out / "trials.csv").exists()


def test_bench_unwritable_out(capsys):
    code = main(["bench", "--n", "4", "--trials", "1",
                 "--out", "/proc/definitely/not/writable"])
    assert code == 3


def test_compare_prints_table(capsys):
    code = main(["compare", "--n", "4", "--trials", "2", "--seed", "0",
                 "--methods", "das,exhaustive"])
    assert code == 0
    out = capsys.readouterr().out
    assert "method" in out
    assert "das" in out
    assert "exhaustive" in out


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dasris.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "solve" in proc.stdout
    assert "bench" in proc.stdout


def test_no_los_flag_changes_bench_results(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["bench", "--n", "4", "--trials", "2", "--seed", "1",
                 "--out", str(out_a)]) == 0
    assert main(["bench", "--n", "4", "--trials", "2", "--seed", "1", "--no-los",
                 "--out", str(out_b)]) == 0
    rows_a = list(csv.reader(open(out_a / "trials.csv")))
    rows_b = list(csv.reader(open(out_b / "trials.csv")))
    assert [r[3] for r in rows_a[1:]] != [r[3] for r in rows_b[1:]]
