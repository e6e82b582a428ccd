import inspect
import io
import json

import numpy as np
import pytest

from whittaker2d import SamplePath, TimeGrid, bundle_from_csv, reflect_above
from whittaker2d.cli import _build_parser, main


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "whittaker2d" in capsys.readouterr().out


def test_simulate_stdout_format(capsys):
    code, out, err = run(
        ["simulate", "--n", "2", "--gamma", "8", "--seed", "1",
         "--dt", "0.01"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# config=")
    assert lines[1] == "# seed=1 replicate=0"
    assert lines[2] == "t,T_1_1,T_2_1,T_2_2"
    assert lines[-1].startswith("# clamps=")
    bundle = bundle_from_csv(io.StringIO(out))
    assert bundle.N == 2
    assert bundle.grid.steps == 100


def test_simulate_reproducible_and_seed_sensitive(capsys):
    args = ["simulate", "--n", "1", "--gamma", "4", "--dt", "0.01",
            "--seed", "7"]
    _, out1, _ = run(args, capsys)
    _, out2, _ = run(args, capsys)
    assert out1 == out2
    _, out3, _ = run(args[:-1] + ["8"], capsys)
    assert out1 != out3


def test_simulate_writes_file(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code, _, _ = run(
        ["simulate", "--n", "1", "--dt", "0.01", "--out", str(out)], capsys
    )
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[-1].startswith("# clamps=")


def test_rate_pipeline(tmp_path, capsys):
    run_csv = tmp_path / "run.csv"
    code, _, _ = run(
        ["simulate", "--n", "2", "--gamma", "8", "--seed", "1",
         "--dt", "0.01", "--out", str(run_csv)],
        capsys,
    )
    assert code == 0
    code, out, _ = run(["rate", "--bundle", str(run_csv)], capsys)
    assert code == 0
    assert "particle,interior" in out
    assert "# total=" in out


def test_rate_missing_bundle_is_validation_error(capsys):
    code, _, err = run(["rate", "--bundle", "/nonexistent.csv"], capsys)
    assert code == 1


def test_reflect_round_trip(tmp_path, capsys):
    drv = tmp_path / "drv.csv"
    bar = tmp_path / "bar.csv"
    t = np.linspace(0, 1, 11)
    drv.write_text(
        "t,value\n" + "\n".join(f"{x},0.0" for x in t) + "\n"
    )
    bar.write_text(
        "t,value\n" + "\n".join(f"{x},{x - 0.5}" for x in t) + "\n"
    )
    code, out, _ = run(
        ["reflect", "--driver", str(drv), "--barrier", str(bar)], capsys
    )
    assert code == 0
    rows = [
        line.split(",")
        for line in out.splitlines()
        if line and not line.startswith(("#", "t,"))
    ]
    path = np.array([float(r[1]) for r in rows])
    np.testing.assert_allclose(path, np.maximum(t - 0.5, 0.0), atol=1e-12)


def test_reflect_output_is_per_value_repr(tmp_path, capsys):
    grid = TimeGrid(0.0, 1.0, 5)
    t = grid.times.tolist()
    driver = [0.0, 0.1, -0.2, 5e-324, 0.3, 1 / 3]
    drv = tmp_path / "drv.csv"
    drv.write_text("t,value\n" + "".join(
        f"{x!r},{v!r}\n" for x, v in zip(t, driver)))
    bar = tmp_path / "bar.csv"
    bar.write_text("t,value\n" + "".join(f"{x!r},-0.0\n" for x in t))
    code, out, _ = run(
        ["reflect", "--driver", str(drv), "--barrier", str(bar)], capsys
    )
    assert code == 0
    want = reflect_above(SamplePath(grid, driver),
                         SamplePath.constant(grid, -0.0), 0.0)
    assert out.splitlines()[1:] == ["t,path,push,active"] + [
        f"{x!r},{float(p)!r},{float(q)!r},{int(a)}"
        for x, p, q, a in zip(t, want.path.values, want.push_term.values,
                              want.active)
    ]


@pytest.mark.parametrize(
    "row, message",
    [("0.5,1.0,2.0", "line 4: 3 fields, expected 2"),
     ("0.5,x", "line 4: could not convert string to float: 'x'"),
     ("0.5,", "line 4: could not convert string to float: ''")],
    ids=["ragged", "non-numeric", "empty-field"],
)
@pytest.mark.parametrize("command", ["rate", "reflect"])
def test_malformed_csv_row_names_file_and_line(tmp_path, capsys, command,
                                               row, message):
    header = "t,T_1_1" if command == "rate" else "t,value"
    bad = tmp_path / "bad.csv"
    bad.write_text(f"# comment\n{header}\n0.0,1.0\n{row}\n\n1.0,1.0\n")
    good = tmp_path / "good.csv"
    good.write_text("t,value\n0.0,0.0\n0.5,0.0\n1.0,0.0\n")
    argv = (["rate", "--bundle", str(bad)] if command == "rate" else
            ["reflect", "--driver", str(bad), "--barrier", str(good)])
    code, _, err = run(argv, capsys)
    assert code == 1
    assert err == f"error: {bad}: {message}\n"


def test_malformed_json_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"gamma": ')
    code, _, err = run(["simulate", "--config", str(bad)], capsys)
    assert code == 1
    assert "line" in err and "column" in err


def test_unknown_config_keys_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": 4.0, "bogus": 1}))
    code, _, err = run(["simulate", "--config", str(cfg)], capsys)
    assert code == 1
    assert "bogus" in err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": 4.0, "dt": 0.01, "seed": 3}))
    _, out_file, _ = run(["simulate", "--config", str(cfg)], capsys)
    assert '"gamma": 4.0' in out_file.splitlines()[0]
    # flags win over the file
    _, out_flag, _ = run(
        ["simulate", "--config", str(cfg), "--gamma", "9"], capsys
    )
    assert '"gamma": 9.0' in out_flag.splitlines()[0]


def test_usage_error_exit_code(capsys):
    code, _, _ = run(["simulate", "--gamma", "notanumber"], capsys)
    assert code == 1
    code, _, _ = run(["nosuchcommand"], capsys)
    assert code == 1


def test_simulate_rejects_negative_seed(capsys):
    code, _, err = run(["simulate", "--seed", "-1", "--dt", "0.1"], capsys)
    assert code == 1
    assert "seed" in err


def test_optimize_round_trip(tmp_path, capsys):
    init = tmp_path / "init.csv"
    term = tmp_path / "term.csv"
    init.write_text("T_1_1\n0.0\n")
    term.write_text("T_1_1\n1.0\n")
    code, out, _ = run(
        ["optimize", "--init", str(init), "--terminal", str(term),
         "--m", "16"],
        capsys,
    )
    assert code == 0
    assert "# rate=0.5" in out


def test_slope_summary_line(capsys):
    code, out, _ = run(
        ["slope", "--samples", "400", "--gammas", "2,4,8", "--dt", "0.02",
         "--delta", "1.0", "--target-slope", "0.0"],
        capsys,
    )
    assert code == 0
    assert any(
        line.startswith("# slope=") and "predicted=" in line
        for line in out.splitlines()
    )


def test_interlace_and_equivalence_run(capsys):
    code, out, _ = run(
        ["interlace", "--samples", "100", "--gammas", "16", "--dt", "0.01"],
        capsys,
    )
    assert code == 0
    assert "a_violation" in out
    code, out, _ = run(
        ["equivalence", "--samples", "100", "--dt", "0.01"], capsys
    )
    assert code == 0
    assert "violation_fraction" in out.splitlines()[1]


def _summary(out, key):
    """The value of the one `# key=` line of out, and the data rows."""
    (value,) = [line.split("=", 1)[1] for line in out.splitlines()
                if line.startswith(f"# {key}=")]
    rows = [line.split(",") for line in out.splitlines()[2:]
            if not line.startswith("#")]
    return float(value), rows


def test_interlace_and_equivalence_summaries_name_their_number(capsys):
    # each reports its worst value over the gamma list (for interlace the
    # first gamma's, not the last's), and neither calls it a slope
    code, out, _ = run(
        ["interlace", "--samples", "200", "--gammas", "4,64", "--dt", "0.01",
         "--margin-scale", "0.05"],
        capsys,
    )
    assert code == 0 and "# slope=" not in out
    worst, rows = _summary(out, "worst_a_violation")
    assert worst == max(float(r[1]) for r in rows) > 0
    code, out, _ = run(
        ["equivalence", "--samples", "200", "--gammas", "1,32", "--dt",
         "0.01"],
        capsys,
    )
    assert code == 0 and "# slope=" not in out
    worst, rows = _summary(out, "worst_violation_fraction")
    assert worst == max(float(r[5]) for r in rows)


@pytest.mark.parametrize("command", ["interlace", "equivalence", "slope"])
@pytest.mark.parametrize("gammas", ["0", "16,-1", "nan", "inf", ","])
def test_bad_gamma_exits_one(command, gammas, capsys, tmp_path):
    argv = [command, "--samples", "10", "--dt", "0.1"]
    code, out, err = run(argv + ["--gammas", gammas], capsys)
    assert code == 1
    assert out == "" and "gamma" in err
    # gammas from a config file are checked before any output too; an empty
    # list stays empty
    values = [float(g) for g in gammas.split(",") if g]
    file_gammas = [16.0, *values[-1:]] if values else []
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gammas": file_gammas}))
    code, out, err = run(argv + ["--config", str(cfg)], capsys)
    assert code == 1
    assert out == "" and "gamma" in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["rate", "--eps", "nan"], "eps"),
        (["rate", "--eps", "inf"], "eps"),
        (["interlace", "--margin-scale", "nan", "--samples", "10",
          "--dt", "0.1"], "margin"),
        (["simulate", "--drift-cap", "nan", "--dt", "0.1"], "drift_cap"),
        (["equivalence", "--eta", "nan", "--samples", "10", "--dt", "0.1"],
         "eta"),
        (["slope", "--delta", "-1", "--samples", "10", "--dt", "0.1"],
         "delta"),
    ],
    ids=["rate-eps-nan", "rate-eps-inf", "interlace-margin-scale-nan",
         "simulate-drift-cap-nan", "equivalence-eta-nan",
         "slope-delta-negative"],
)
def test_bad_parameter_exits_one_without_output(argv, name, capsys,
                                                tmp_path):
    # NaN fails every positivity check, and no --out file is started
    if argv[0] == "rate":
        bundle = tmp_path / "run.csv"
        code, _, _ = run(["simulate", "--dt", "0.1", "--out", str(bundle)],
                         capsys)
        assert code == 0
        argv = argv + ["--bundle", str(bundle)]
    out = tmp_path / "out.csv"
    code, stdout, err = run(argv + ["--out", str(out)], capsys)
    assert code == 1
    assert err.startswith("error:") and name in err
    assert stdout == "" and not out.exists()


def test_every_flag_is_read_by_its_handler():
    # a flag the handler never reads is advertised but ignored
    _, registry = _build_parser()
    for name, sub in registry.items():
        source = inspect.getsource(sub.get_default("func"))
        for action in sub._actions:
            if action.dest in {"help", "func", "config", "command"}:
                continue
            assert f"args.{action.dest}" in source, (name, action.dest)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "0", "--dt", "0.1"],
        ["simulate", "--dt", "0"],
        ["slope", "--dt", "0", "--samples", "10"],
        ["equivalence", "--dt", "0", "--samples", "10"],
        ["interlace", "--dt", "0", "--samples", "10"],
        # 1/0.3 steps would silently run at dt = 1/3
        ["interlace", "--dt", "0.3", "--samples", "10"],
    ],
    ids=["simulate-n0", "simulate-dt0", "slope-dt0", "equivalence-dt0",
         "interlace-dt0", "interlace-dt0.3"],
)
def test_bad_size_or_step_exits_one(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == "" and err.startswith("error:")
