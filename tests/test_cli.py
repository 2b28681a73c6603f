import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mblbfgs import RunConfig, experiment
from mblbfgs.cli import build_parser, build_spec, main, parse_scaling, parse_step
from mblbfgs.experiment import MANIFEST_NAME


def test_parse_step_variants():
    assert parse_step("constant:0.5").alpha_at(3) == 0.5
    assert parse_step("diminishing:1").alpha_at(1) == 0.5
    sched = parse_step("sqrt:2,100")
    assert sched.alpha_at(0) == 0.2


def test_parse_scaling():
    assert parse_scaling("bb") == "bb"
    assert parse_scaling("fixed:0.5") == 0.5


def test_successful_run_exit_zero(tmp_path, capsys):
    out = tmp_path / "runs"
    code = main([
        "--synthetic", "100,8,4,0.5", "--method", "robust_lbfgs",
        "--batch-frac", "0.1", "--overlap-frac", "0.2",
        "--step", "constant:0.2", "--epochs", "1", "--seed", "0,1",
        "--out", str(out),
    ])
    assert code == 0
    assert (out / MANIFEST_NAME).exists()
    assert len(list(out.glob("*.csv"))) == 2
    captured = capsys.readouterr()
    assert "ok" in captured.out


def test_usage_error_exit_one(capsys):
    assert main(["--step", "linear:1"]) == 1
    assert main(["--no-such-flag"]) == 1
    assert main([]) == 1  # neither dataset nor synthetic
    err = capsys.readouterr().err
    assert "usage error" in err


def test_data_error_exit_two(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    assert main(["--dataset", str(missing), "--epochs", "0"]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("+1 1:x\n")
    assert main(["--dataset", str(bad), "--epochs", "0"]) == 2
    assert "data error" in capsys.readouterr().err


def test_invalid_utf8_data_exit_two(tmp_path, capsys):
    data = tmp_path / "bytes.txt"
    data.write_bytes(b"+1 1:0.5 2:\xff\n")
    assert main(["--dataset", str(data), "--epochs", "0"]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "line 1: not valid UTF-8" in err
    assert "Traceback" not in err


def test_non_finite_data_exit_two(tmp_path, capsys):
    data = tmp_path / "nan.txt"
    data.write_text("".join(f"{'+1' if i % 2 else '-1'} 1:{i} 2:1\n" for i in range(60))
                    + "+1 1:nan 2:1\n")
    out = tmp_path / "runs"
    assert main(["--dataset", str(data), "--epochs", "1", "--out", str(out)]) == 2
    assert "line 61, token 2: non-finite" in capsys.readouterr().err
    assert not out.exists()  # no manifest, no CSV, not even the directory


def test_oversized_index_exit_two(tmp_path, capsys):
    # used to escape as an OverflowError traceback (exit 1)
    data = tmp_path / "big.txt"
    data.write_text("-1 2:1\n+1 1:0.5 99999999999999999999:1\n")
    out = tmp_path / "runs"
    assert main(["--dataset", str(data), "--epochs", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error: line 2, token 3: index must be <= 2**63 - 1" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_dimension_no_float64_vector_holds_exits_two_before_any_output(tmp_path, capsys):
    # d = 2**62 takes 2**65 bytes as float64: a fault grid wrote its manifest,
    # then np.zeros(d) escaped as a ValueError traceback (exit 1)
    data = tmp_path / "wide.txt"
    data.write_text("-1 2:1\n+1 1:0.5 4611686018427387904:1\n")
    out = tmp_path / "runs"
    assert main(["--dataset", str(data), "--strategy", "fault", "--nodes", "2",
                 "--epochs", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert ("data error: dimension d=4611686018427387904 is too large for a float64 vector"
            in err)
    assert "Traceback" not in err
    assert not out.exists()


def test_numeric_abort_exit_three(tmp_path):
    out = tmp_path / "runs"
    code = main([
        "--synthetic", "60,6,3,0.5", "--objective", "quadratic",
        "--method", "multibatch_gd", "--strategy", "2",
        "--batch-frac", "1.0", "--step", "constant:50",
        "--epochs", "50", "--seed", "0", "--out", str(out),
    ])
    assert code == 3
    manifest = (out / MANIFEST_NAME).read_text()
    assert "aborted" in manifest


def test_redraw_limit_ends_its_cell_not_the_grid(tmp_path, capsys):
    # one node failing with p = 0.9999 reaches the limit of consecutive
    # all-failed draws within a few plans; that cell ends as aborted, and
    # the grid still writes every cell's CSV and the manifest, and exits 3
    out = tmp_path / "runs"
    code = main(["--synthetic", "500,8,4,0.5", "--strategy", "fault", "--nodes", "1",
                 "--fail-prob", "0.1,0.9999", "--epochs", "200", "--out", str(out)])
    assert code == 3
    rows = (out / MANIFEST_NAME).read_text().splitlines()[2:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["ok", "aborted:redraws"]
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(
        row.split(",", 1)[0] for row in rows)
    assert "usage error" not in capsys.readouterr().err


def test_a_step_whose_norm_underflows_ends_no_grid(tmp_path, capsys):
    # every entry of the first cell's steps is below 1e-162, so s's
    # underflows to 0: the pair is rejected, and both cells run and read ok
    out = tmp_path / "d"
    code = main(["--synthetic", "500,8,4,0.5", "--step", "constant:1e-200",
                 "--step", "constant:0.1", "--epochs", "1", "--out", str(out)])
    assert code == 0
    rows = (out / MANIFEST_NAME).read_text().splitlines()[2:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["ok", "ok"]
    assert len(list(out.glob("*.csv"))) == 2
    assert "usage error" not in capsys.readouterr().err


@pytest.mark.parametrize("file_lines,flags,names", [
    ([], [], ["robust_lbfgs_r0.05_o0.2_a0.2_p0_s0.csv"]),
    # a repeatable flag given on the command line replaces the file's values
    (["method = robust_lbfgs"], ["--method", "multibatch_gd"],
     ["multibatch_gd_r0.05_o0.2_a0.2_p0_s0.csv"]),
    (["method = robust_lbfgs", "method = inconsistent_lbfgs"],
     ["--method", "multibatch_gd", "--method", "robust_lbfgs"],
     ["multibatch_gd_r0.05_o0.2_a0.2_p0_s0.csv", "robust_lbfgs_r0.05_o0.2_a0.2_p0_s0.csv"]),
    ([], ["--step", "constant:0.1"], ["robust_lbfgs_r0.05_o0.2_a0.1_p0_s0.csv"]),
    (["method = multibatch_gd"], ["--seed", "1"], ["multibatch_gd_r0.05_o0.2_a0.2_p0_s1.csv"]),
], ids=["out", "method", "methods", "step", "seed"])
def test_config_file_with_flag_override(tmp_path, file_lines, flags, names):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "synthetic = 100,8,4,0.5\n"
        "step = constant:0.2\n"
        "epochs = 1\n"
        "seed = 0\n"
        "out = {}\n".format(tmp_path / "from_file")
        + "".join(f"{line}\n" for line in file_lines)
    )
    # flag overrides the out dir from the file
    out = tmp_path / "from_flag"
    code = main(["--config", str(cfgfile), "--out", str(out), *flags])
    assert code == 0
    assert (out / MANIFEST_NAME).exists()
    assert not (tmp_path / "from_file").exists()
    rows = (out / MANIFEST_NAME).read_text().splitlines()[2:]
    assert [row.split(",", 1)[0] for row in rows] == names


def _fault_config_file(tmp_path, *lines):
    cfgfile = tmp_path / "fault.cfg"
    cfgfile.write_text("".join(f"{line}\n" for line in [
        "synthetic = 200,8,4,0.5", "strategy = fault", "nodes = 4", "fail-prob = 0.3",
        "epochs = 3", "seed = 0", *lines]))
    return cfgfile


@pytest.mark.parametrize("value,reshards", [
    ("1", True), ("true", True), ("Yes", True), ("TRUE", True),
    ("0", False), ("false", False), ("No", False), ("FALSE", False),
])
def test_config_file_reshard_switch_reads_yes_or_no(tmp_path, value, reshards):
    cfgfile = _fault_config_file(tmp_path, f"reshard-each-epoch = {value}")
    assert main(["--config", str(cfgfile), "--out", str(tmp_path / "file")]) == 0
    flag = ["--reshard-each-epoch"] if reshards else []
    assert main(["--config", str(_fault_config_file(tmp_path)),
                 "--out", str(tmp_path / "flag"), *flag]) == 0
    name = "robust_lbfgs_r0.05_o0.2_a0.1_p0.3_s0.csv"
    assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "flag" / name).read_bytes()


@pytest.mark.parametrize("line", [
    "reshard-each-epoch = maybe",
    "reshard-each-epoch = ture",             # ran without resharding
    "reshard-each-epoch =",
    "config = other.cfg",                     # was ignored
])
def test_bad_config_file_line_exits_one_before_any_output(tmp_path, capsys, line):
    out = tmp_path / "runs"
    code = main(["--config", str(_fault_config_file(tmp_path, line)), "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "usage error" in err and "Traceback" not in err


def test_grid_lists_from_commas(tmp_path):
    out = tmp_path / "runs"
    code = main([
        "--synthetic", "100,8,4,0.5", "--batch-frac", "0.1,0.2",
        "--step", "constant:0.2", "--step", "constant:0.1",
        "--epochs", "0.5", "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    assert len(list(out.glob("*.csv"))) == 4


def test_scaling_flag_accepts_fixed(tmp_path):
    out = tmp_path / "runs"
    code = main([
        "--synthetic", "100,8,4,0.5", "--scaling", "fixed:0.5",
        "--step", "constant:0.2", "--epochs", "0.5", "--seed", "0",
        "--out", str(out),
    ])
    assert code == 0


def test_fault_strategy_via_cli(tmp_path):
    out = tmp_path / "runs"
    code = main([
        "--synthetic", "200,10,5,0.5", "--strategy", "fault", "--nodes", "4",
        "--fail-prob", "0.1,0.3", "--method", "robust_lbfgs",
        "--method", "inconsistent_lbfgs", "--step", "constant:0.1",
        "--epochs", "2", "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    names = sorted(p.name for p in out.glob("*.csv"))
    assert names == [
        "inconsistent_lbfgs_r0.05_o0.2_a0.1_p0.1_s0.csv",
        "inconsistent_lbfgs_r0.05_o0.2_a0.1_p0.3_s0.csv",
        "robust_lbfgs_r0.05_o0.2_a0.1_p0.1_s0.csv",
        "robust_lbfgs_r0.05_o0.2_a0.1_p0.3_s0.csv",
    ]


@pytest.mark.parametrize("flags", [
    ["--batch-frac", "0"],                    # raised ZeroDivisionError
    ["--batch-frac", "0.05,1.5"],             # failed after the first cell's CSV
    ["--overlap-frac", "0.2,0.6"],            # strategy 1 needs |S| > 2|O|
    ["--strategy", "fault", "--fail-prob", "0.3,1.0"],
    ["--strategy", "fault", "--nodes", "0"],
    ["--seed", "0,-1"],                       # raised numpy's ValueError
    ["--epochs", "nan"],                      # ran no iteration and read ok
    ["--step", "constant:nan"],
    ["--sigma", "nan"],                       # every cell aborted as numeric
    ["--sigma", "inf"],
    ["--step", "constant:inf"],
    ["--epochs", "inf"],                      # never ended
    ["--data-seed", "-1"],                    # raised numpy's ValueError
])
def test_bad_grid_value_exits_one_before_any_output(tmp_path, capsys, monkeypatch, flags):
    def no_run(config, objective):
        raise AssertionError(f"a run started for {config}")

    monkeypatch.setattr(experiment, "run", no_run)
    out = tmp_path / "runs"
    code = main(["--synthetic", "100,8,4,0.5", "--epochs", "1", "--seed", "0",
                 "--out", str(out), *flags])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "usage error" in err and "Traceback" not in err


@pytest.mark.parametrize("under", [False, True])
def test_output_directory_that_cannot_be_made_exits_one_before_any_run(
        tmp_path, capsys, monkeypatch, under):
    # --out naming a file, or a path under one, exited 2 as a data error
    def no_run(config, objective):
        raise AssertionError(f"a run started for {config}")

    monkeypatch.setattr(experiment, "run", no_run)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "runs" if under else taken
    code = main(["--synthetic", "100,8,4,0.5", "--epochs", "1", "--out", str(out)])
    assert code == 1
    assert taken.read_text() == "kept\n"
    err = capsys.readouterr().err
    assert f"usage error: cannot make the output directory {out}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [
    # rejected inside the run, after the output directory was made
    ["--memory", "0"],
    ["--memory", "-3"],
    ["--cautious-eps", "-1"],
    ["--scaling", "fixed:0"],
    ["--cautious-eps", "nan"],                # every pair rejected: plain gradient steps
    ["--cautious-eps", "inf"],
    ["--scaling", "fixed:nan"],               # every cell aborted as numeric
    ["--scaling", "fixed:inf"],
])
def test_bad_memory_parameter_exits_one_before_any_output(tmp_path, capsys, flags):
    out = tmp_path / "runs"
    code = main(["--synthetic", "100,8,4,0.5", "--epochs", "1", "--out", str(out),
                 *flags])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "usage error" in err and "Traceback" not in err


def test_trace_stride_below_one_exits_one_before_any_output(tmp_path, capsys):
    out = tmp_path / "runs"
    code = main(["--synthetic", "500,8,4,0.5", "--trace-stride", "-5",
                 "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "usage error: trace stride -5" in err and "Traceback" not in err


@pytest.mark.parametrize("flags,name", [
    (["--seed", "0,0"], "robust_lbfgs_r0.05_o0.2_a0.1_p0_s0.csv"),
    (["--method", "robust_lbfgs", "--method", "robust_lbfgs"],
     "robust_lbfgs_r0.05_o0.2_a0.1_p0_s0.csv"),
    (["--batch-frac", "0.1,0.1000001"], "robust_lbfgs_r0.1_o0.2_a0.1_p0_s0.csv"),
])
def test_grid_cells_sharing_a_file_name_exit_one_before_any_output(
        tmp_path, capsys, flags, name):
    # each ran, and the manifest listed one CSV twice
    out = tmp_path / "runs"
    code = main(["--synthetic", "100,8,4,0.5", "--epochs", "1", "--out", str(out),
                 *flags])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"usage error: two grid cells share the file name {name}" in err


@pytest.mark.parametrize("synthetic", [
    "100,8,4,nan",                            # silent coin-flip labels
    "100,8,4,-1",
    "100.7,8,4,0.5",                          # ran on 100 rows
    "100,8,4.5,0.5",                          # ran on 4 entries per row
    "10,4611686018427387904,1,0",             # d * 8 bytes overflowed np.intp
])
def test_bad_synthetic_parameter_exits_two_before_any_output(tmp_path, capsys, synthetic):
    out = tmp_path / "runs"
    code = main(["--synthetic", synthetic, "--epochs", "1", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err


def test_flags_left_out_take_the_run_config_defaults():
    args = build_parser().parse_args(["--synthetic", "100,8,4,0.5"])
    assert list(build_spec(args).cells()) == [RunConfig()]


# each numeric flag: how a value is spelled on it, and one valid value
_NUMERIC_FLAGS = {
    "--sigma": ("{}", "0.01"),
    "--step": ("constant:{}", "0.2"),
    "--epochs": ("{}", None),
    "--batch-frac": ("{}", "0.1"),
    "--overlap-frac": ("{}", "0.3"),
    "--fail-prob": ("{}", "0.3"),
    "--nodes": ("{}", "4"),
    "--memory": ("{}", "5"),
    "--cautious-eps": ("{}", "0.001"),
    "--scaling": ("fixed:{}", "0.5"),
    "--trace-stride": ("{}", "2"),
    "--seed": ("{}", "3"),
    "--data-seed": ("{}", "3"),
    "--synthetic": ("200,8,4,{}", "0.5"),
}
_BAD_VALUES = ["nan", "inf", "-inf", "-1", "0", "-0.0"]


@st.composite
def _flag_and_value(draw):
    flag = draw(st.sampled_from(sorted(_NUMERIC_FLAGS)))
    spelling, valid = _NUMERIC_FLAGS[flag]
    # a finite epoch count is valid however large, and the CLI sets no
    # iteration cap, so --epochs draws only values that must be refused; a
    # tiny positive value reaches pair admission with steps whose s's
    # underflows
    values = _BAD_VALUES if valid is None else [*_BAD_VALUES, "1e308", "1e-200", valid]
    return flag, spelling.format(draw(st.sampled_from(values)))


@given(flag_value=_flag_and_value())
@settings(max_examples=150, deadline=None)
def test_numeric_flag_values_never_escape_as_tracebacks(flag_value):
    flag, value = flag_value
    # three iterates: the second and third admit pairs
    argv = ["--synthetic", "200,8,4,0.5", "--epochs", "0.15", f"{flag}={value}"]
    if flag == "--fail-prob":
        argv += ["--strategy", "fault"]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "runs"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--out", str(out)])
        assert "Traceback" not in err.getvalue()
        assert code in (0, 1, 2, 3)
        if code in (1, 2):
            assert not out.exists()
