import inspect
import io
import json

import numpy as np
import pytest

from whittaker2d import (
    ModelConfig,
    PathBundle,
    SamplePath,
    TimeGrid,
    TriangularConfiguration,
    bundle_from_csv,
    bundle_to_csv,
    default_coincidence_eps,
    equivalence_experiment,
    interlace_event_frequency,
    ldp_slope,
    reflect_above,
    total_rate,
)
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


def _field(value) -> str:
    """value as a table writes it: a float by its repr, which parses back
    exactly, an int without a trailing .0 and a string without quotes."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _check_table(out, header, rows, summary):
    """out is the `# config=` line, header, one line per row, then the
    `# key=value` summary lines, each field as _field writes it."""
    lines = out.splitlines()
    assert lines[0].startswith("# config=")
    assert lines[1] == header
    assert lines[2:] == [",".join(map(_field, row)) for row in rows] + [
        "# " + " ".join(f"{k}={_field(v)}" for k, v in line)
        for line in summary
    ]


def test_table_formats_match_the_library(tmp_path, capsys):
    # rate on a bundle whose T_2_1 crosses below T_1_1: an inf total and a
    # reason; slope, interlace and equivalence with small sample sizes
    grid = TimeGrid(0.0, 1.0, 10)
    t = grid.times
    bundle = PathBundle(2, grid, np.array([0.5 * t, -t, -2.0 * t]))
    path = tmp_path / "crossing.csv"
    with open(path, "w") as f:
        bundle_to_csv(f, bundle)
    code, out, _ = run(["rate", "--bundle", str(path)], capsys)
    assert code == 0
    config = ModelConfig(N=2, gamma=8.0,
                         initial=TriangularConfiguration.zeros(2))
    rate = total_rate(bundle, config, default_coincidence_eps(grid.dt, 8.0))
    assert rate.infinity_reason == "crossing"
    _check_table(
        out,
        "particle,interior,upper_coincident,lower_coincident,upper_measure,"
        "lower_measure,both_measure,reason,total",
        [[f"T_{n}_{k}", r.interior, r.upper_coincident, r.lower_coincident,
          r.upper_measure, r.lower_measure, r.both_measure, r.reason,
          r.total] for (n, k), r in rate.terms.items()],
        [[("total", rate.total)], [("reason", rate.infinity_reason)]],
    )

    code, out, _ = run(
        ["slope", "--samples", "400", "--gammas", "2,4,8", "--dt", "0.02",
         "--delta", "1.0", "--target-slope", "0.0"],
        capsys,
    )
    assert code == 0
    grid = TimeGrid.from_dt(0.0, 1.0, 0.02)
    phi = PathBundle.constant(1, grid, TriangularConfiguration.zeros(1))
    fit = ldp_slope(ModelConfig(N=1, gamma=2.0, initial=phi.initial), phi,
                    1.0, [2.0, 4.0, 8.0], 400, 0)
    _check_table(
        out,
        "gamma,p_hat,ci_low,ci_high,minus_log_p,per_gamma_slope,"
        "contamination",
        [[g, r.p_hat, r.ci_low, r.ci_high, m, s, r.clamp_contamination]
         for g, m, s, r in zip(fit.gammas, fit.minus_log_p,
                               fit.per_gamma_slope, fit.results)],
        [[("slope", fit.slope), ("predicted", fit.predicted_rate)]],
    )

    code, out, _ = run(
        ["interlace", "--samples", "200", "--gammas", "4,64", "--dt", "0.01",
         "--margin-scale", "0.05"],
        capsys,
    )
    assert code == 0
    freqs = interlace_event_frequency([4.0, 64.0], 200, 0, dt=0.01,
                                      margin_scale=0.05)
    _check_table(
        out,
        "gamma,a_violation,b_violation,c_violation,contamination",
        [[r.gamma, r.a_violation, r.b_violation, r.c_violation,
          r.clamp_contamination] for r in freqs],
        [[("worst_a_violation", max(r.a_violation for r in freqs))]],
    )

    code, out, _ = run(
        ["equivalence", "--samples", "200", "--gammas", "1,32", "--dt",
         "0.01"],
        capsys,
    )
    assert code == 0
    grid = TimeGrid.from_dt(0.0, 1.0, 0.01)
    reports = [equivalence_experiment(g, 0.5, grid, 200, 0)
               for g in (1.0, 32.0)]
    assert all(isinstance(r.n_in_tube, int) for r in reports)
    _check_table(
        out,
        "gamma,eta,budget,n_in_tube,n_violations,violation_fraction,"
        "max_gap_in_tube",
        [[r.gamma, r.eta, r.budget, r.n_in_tube, r.n_violations,
          r.violation_fraction, r.max_gap_in_tube] for r in reports],
        [[("worst_violation_fraction",
           max(r.violation_fraction for r in reports))]],
    )


@pytest.mark.parametrize(
    "row, message",
    [("0.5,1.0,2.0", "line 4: 3 fields, expected 2"),
     ("0.5,x", "line 4: could not convert string to float: 'x'"),
     ("0.5,", "line 4: could not convert string to float: ''"),
     ("0.5,1_000", "line 4: could not convert string to float: '1_000'")],
    ids=["ragged", "non-numeric", "empty-field", "underscore"],
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


def test_simulate_init_with_a_bundle_header_fails(tmp_path, capsys):
    init = tmp_path / "init.csv"
    init.write_text("t,T_1_1,T_2_1\n0.0,0.5,0.7\n")
    code, out, err = run(
        ["simulate", "--n", "2", "--dt", "0.01", "--init", str(init)], capsys
    )
    assert code == 1
    assert out == ""
    assert err == ("error: unexpected header ['t', 'T_1_1', 'T_2_1'], want "
                   "['T_1_1', 'T_2_1', 'T_2_2']\n")


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


@pytest.mark.parametrize(
    "argv",
    [["rate", "--bundle", "run.csv"],
     ["optimize", "--init", "init.csv", "--terminal", "term.csv"]],
    ids=["rate", "optimize"],
)
def test_convention_is_no_longer_an_option(argv, tmp_path, capsys):
    # the one-sided penalty is the only convention; both rejections come
    # before any input file is opened
    code, out, err = run(argv + ["--convention", "lemma"], capsys)
    assert (code, out) == (1, "")
    assert "--convention" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"convention": "lemma"}))
    code, out, err = run(argv + ["--config", str(cfg)], capsys)
    assert (code, out) == (1, "")
    assert "unknown config keys: convention" in err


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


def test_config_defaults_do_not_outlive_their_call(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": 4.0, "dt": 0.01, "seed": 3}))
    _, with_file, _ = run(["simulate", "--config", str(cfg)], capsys)
    assert '"gamma": 4.0' in with_file.splitlines()[0]
    code, out, _ = run(["simulate", "--dt", "0.01"], capsys)
    assert code == 0
    resolved = json.loads(out.splitlines()[0].removeprefix("# config="))
    assert (resolved["gamma"], resolved["seed"]) == (8.0, 0)


def _config_inputs(tmp_path):
    """Small input files for every subcommand: a bundle, a uniform path and
    two interlaced N=2 configurations."""
    files = {k: str(tmp_path / f"{k}.csv")
             for k in ("bundle", "path", "init", "term")}
    grid = TimeGrid(0.0, 1.0, 10)
    with open(files["bundle"], "w") as f:
        bundle_to_csv(f, PathBundle.linear(
            2, grid, TriangularConfiguration.zeros(2),
            TriangularConfiguration(2, np.array([0.5, 0.9, 0.1]))))
    with open(files["path"], "w") as f:
        f.write("t,value\n" + "".join(
            f"{t!r},{float(np.sin(3 * t))!r}\n" for t in grid.times.tolist()))
    with open(files["init"], "w") as f:
        f.write("T_1_1,T_2_1,T_2_2\n0.0,0.3,-0.2\n")
    with open(files["term"], "w") as f:
        f.write("T_1_1,T_2_1,T_2_2\n0.5,0.9,0.1\n")
    return files


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("simulate", {"n": 2, "gamma": 4.0, "dt": 0.1, "seed": 3,
                      "drift_cap": 50.0}),
        ("rate", {"bundle": "bundle", "gamma": 16.0, "eps": 1e-3}),
        ("reflect", {"driver": "path", "barrier": "path", "start": -0.5,
                     "side": "below"}),
        ("slope", {"gammas": [2.0, 4.0, 8.0], "samples": 50, "dt": 0.1,
                   "delta": 1.0, "target_slope": 0.0}),
        ("interlace", {"gammas": [4.0, 64.0], "samples": 20, "dt": 0.1,
                       "margin_scale": 0.05}),
        ("equivalence", {"gammas": [1.0, 32.0], "samples": 20, "dt": 0.1}),
        ("optimize", {"init": "init", "terminal": "term", "m": 8,
                      "iters": 50}),
    ],
    ids=["simulate", "rate", "reflect", "slope", "interlace", "equivalence",
         "optimize"],
)
def test_config_file_is_the_same_run_as_its_flags(command, cfg, tmp_path,
                                                  capsys):
    # the file's keys are read as the flags they name, required flags
    # included, so the two runs print the same bytes, # config= line too
    files = _config_inputs(tmp_path)
    cfg = {k: files.get(v, v) if isinstance(v, str) else v
           for k, v in cfg.items()}
    flags = []
    for key, value in cfg.items():
        text = ",".join(map(str, value)) if isinstance(value, list) else value
        flags += ["--" + key.replace("_", "-"), str(text)]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    from_file = run([command, "--config", str(path)], capsys)
    assert from_file == run([command, *flags], capsys)
    assert from_file[0] == 0 and from_file[1].startswith("# config=")


def test_config_values_are_parsed_as_their_flags(tmp_path, capsys):
    files = _config_inputs(tmp_path)
    cfg = tmp_path / "cfg.json"

    def with_file(argv, values):
        cfg.write_text(json.dumps(values))
        return run(argv + ["--config", str(cfg)], capsys)

    # a value of the wrong type is a usage error naming its flag
    optimize = ["optimize", "--init", files["init"], "--terminal",
                files["term"]]
    for argv, values, flag in [
        (["simulate"], {"n": 2.0, "dt": 0.1}, "--n"),
        (["simulate"], {"replicate": True, "dt": 0.1}, "--replicate"),
        (optimize, {"iters": 2.5}, "--iters"),
    ]:
        code, out, err = with_file(argv, values)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: argument {flag}: invalid int value")
    # a lone number is a one-gamma list
    argv = ["equivalence", "--samples", "20", "--dt", "0.1"]
    assert (with_file(argv, {"gammas": 32})
            == run(argv + ["--gammas", "32"], capsys))
    # a file may give a required flag
    code, out, _ = with_file(["rate"], {"bundle": files["bundle"]})
    assert code == 0 and "# total=" in out
    # an int given for a float flag is read as a float; a null is the
    # flag's default
    code, out, _ = with_file(["simulate"], {"gamma": 4, "dt": 0.1,
                                            "drift_cap": None})
    assert code == 0
    resolved = json.loads(out.splitlines()[0].removeprefix("# config="))
    assert '"gamma": 4.0' in out.splitlines()[0]
    assert resolved["drift_cap"] is None
    # the file's path is a flag's value like any other
    code, out, err = run(["simulate", "--config"], capsys)
    assert (code, out) == (1, "")
    assert "--config" in err


@pytest.mark.parametrize("command", ["rate", "reflect"])
def test_non_uniform_grid_names_its_file(command, tmp_path, capsys):
    # both CSV readers share one grid rule, and reflect's error says which
    # of its two path files is bad
    good = tmp_path / "good.csv"
    good.write_text("t,value\n0.0,0.0\n0.5,0.0\n1.0,0.0\n")
    bad = tmp_path / "bad.csv"
    header = "t,T_1_1" if command == "rate" else "t,value"
    bad.write_text(f"{header}\n0.0,0.0\n0.25,0.0\n1.0,0.0\n")
    argv = (["rate", "--bundle", str(bad)] if command == "rate" else
            ["reflect", "--driver", str(good), "--barrier", str(bad)])
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {bad}: grid is not uniform\n"


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
        (["reflect", "--start", "nan"], "start must be finite, got nan"),
        (["reflect", "--start", "inf"], "start must be finite, got inf"),
    ],
    ids=["rate-eps-nan", "rate-eps-inf", "interlace-margin-scale-nan",
         "simulate-drift-cap-nan", "equivalence-eta-nan",
         "slope-delta-negative", "reflect-start-nan", "reflect-start-inf"],
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
    elif argv[0] == "reflect":
        path = tmp_path / "path.csv"
        path.write_text("t,value\n0.0,0.0\n0.5,0.25\n1.0,0.5\n")
        argv = argv + ["--driver", str(path), "--barrier", str(path)]
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
