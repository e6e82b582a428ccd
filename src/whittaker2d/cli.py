"""Command-line front end.

Subcommands: simulate, rate, reflect, slope, interlace, equivalence,
optimize.  Parameters come from flags or from a JSON object passed via
--config, whose keys are read as the flags they name: each value as the
text of `--<flag>=<value>`, a list's items joined by commas, a null as
the flag's default.  Flags on the command line override the file, unknown
keys are rejected, and every output embeds the resolved configuration as
a `# config=...` header so any run can be reproduced from its own output.
Exit codes: 0 success, 1 validation or usage error, 2 runtime error.

Every output, to stdout or --out, has one layout, written by
model._write_csv: the `# config=` line, any other `# ` comment lines, the
CSV header, one row per line with each float as its repr, then the
`# key=value` summary lines.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys

import numpy as np

from . import __version__
from .model import (
    ModelConfig,
    PathBundle,
    SamplePath,
    TimeGrid,
    TriangularConfiguration,
    _float_rows,
    _grid_of,
    _write_csv,
    bundle_from_csv,
    bundle_to_csv,
    configuration_from_csv,
    tri_size,
)
from .noise import ensemble_increments
from .rate import default_coincidence_eps, total_rate
from .sde import NonFiniteError, simulate
from .skorokhod import reflect_above, reflect_below
from .mc import equivalence_experiment, interlace_event_frequency, ldp_slope
from .varopt import VariationalProblem, minimize_rate

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so we control exit codes."""

    def error(self, message):
        raise UsageError(message)


def _gamma_list(text: str) -> list[float]:
    """Comma-separated gammas: at least one, each positive and finite."""
    try:
        gammas = [float(x) for x in text.split(",") if x.strip()]
        if not gammas:
            raise ValueError("need at least one gamma")
        if not all(0.0 < g < np.inf for g in gammas):
            raise ValueError(
                f"gammas must be positive and finite, got {gammas}")
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad gamma list {text!r}: {e}")
    return gammas


def _config_flags(path: str, sub: _Parser) -> list[str]:
    """The JSON object in file path as the text of subcommand parser sub's
    flags: each key as `--<flag>=<value>`, a list's items joined by
    commas, a null left out so that its flag keeps its default."""
    try:
        with open(path) as f:
            cfg = json.load(f)
    except json.JSONDecodeError as e:
        raise UsageError(
            f"{path}: malformed JSON at line {e.lineno} column {e.colno}: "
            f"{e.msg}"
        )
    except OSError as e:
        raise UsageError(f"cannot read config {path}: {e}")
    if not isinstance(cfg, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    flags = {a.dest: a.option_strings[0] for a in sub._actions
             if a.dest not in ("help", "config")}
    unknown = sorted(set(cfg) - set(flags))
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    return [
        f"{flags[k]}={','.join(map(str, v)) if isinstance(v, list) else v}"
        for k, v in cfg.items()
        if v is not None
    ]


def _resolved(args: argparse.Namespace) -> str:
    skip = {"func", "config", "command"}
    cfg = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in skip and not callable(v)
    }
    return json.dumps(cfg, sort_keys=True)


@contextlib.contextmanager
def _output(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as f:
            yield f


def _read_configuration(path: str | None, N: int) -> TriangularConfiguration:
    if path is None:
        return TriangularConfiguration.zeros(N)
    with open(path) as f:
        cfg = configuration_from_csv(f)
    if cfg.N != N:
        raise UsageError(f"{path} holds N={cfg.N}, expected N={N}")
    return cfg


def _read_path_csv(path: str) -> SamplePath:
    """Single-path CSV: header `t,value`, one row per grid point."""
    with open(path) as f:
        _, rows = _float_rows(f, 2, skip=("#", "t,"))
        return SamplePath(_grid_of(f, rows[:, 0]), rows[:, 1])


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_simulate(args) -> int:
    init = _read_configuration(args.init, args.n)
    config = ModelConfig(
        N=args.n, gamma=args.gamma, initial=init, drift_cap=args.drift_cap
    )
    grid = TimeGrid.from_dt(args.t0, args.t1, args.dt)
    reps = range(args.replicate, args.replicate + 1)
    noise = ensemble_increments(args.seed, reps, grid, tri_size(args.n))[0]
    result = simulate(config, grid, noise)
    comments = [f"config={_resolved(args)}",
                f"seed={args.seed} replicate={args.replicate}"]
    with _output(args.out) as f:
        bundle_to_csv(f, result.bundle, comments)
        f.write(f"# clamps={result.clamp_events}\n")
    return 0


def _cmd_rate(args) -> int:
    with open(args.bundle) as f:
        bundle = bundle_from_csv(f)
    init = _read_configuration(args.init, bundle.N)
    config = ModelConfig(N=bundle.N, gamma=args.gamma, initial=init)
    eps = (
        args.eps
        if args.eps is not None
        else default_coincidence_eps(bundle.grid.dt, args.gamma)
    )
    breakdown = total_rate(bundle, config, eps)
    header = ("particle,interior,upper_coincident,lower_coincident,"
              "upper_measure,lower_measure,both_measure,reason,total")
    rows = [[f"T_{n}_{k}", *dataclasses.astuple(t), t.total]
            for (n, k), t in breakdown.terms.items()]
    footer = [f"total={breakdown.total!r}"]
    if breakdown.infinity_reason != "none":
        footer.append(f"reason={breakdown.infinity_reason}")
    with _output(args.out) as f:
        _write_csv(f, header, rows, [f"config={_resolved(args)}"], footer)
    return 0


def _cmd_reflect(args) -> int:
    driver = _read_path_csv(args.driver)
    barrier = _read_path_csv(args.barrier)
    op = reflect_above if args.side == "above" else reflect_below
    result = op(driver, barrier, args.start)
    cols = [driver.grid.times, result.path.values, result.push_term.values,
            result.active.astype(int)]
    with _output(args.out) as f:
        _write_csv(f, "t,path,push,active", zip(*(c.tolist() for c in cols)),
                   [f"config={_resolved(args)}"])
    return 0


def _cmd_slope(args) -> int:
    grid = TimeGrid.from_dt(args.t0, args.t1, args.dt)
    if args.bundle is not None:
        with open(args.bundle) as f:
            phi = bundle_from_csv(f)
        if phi.grid != grid:
            raise UsageError("target bundle grid disagrees with --t0/--t1/--dt")
        N = phi.N
    else:
        N = args.n
        init = _read_configuration(args.init, N)
        term = TriangularConfiguration(
            N, init.entries + args.target_slope * (grid.b - grid.a)
        )
        phi = PathBundle.linear(N, grid, init, term)
    config = ModelConfig(N=N, gamma=args.gammas[0], initial=phi.initial)
    fit = ldp_slope(
        config,
        phi,
        args.delta,
        args.gammas,
        args.samples,
        args.seed,
    )
    header = ("gamma,p_hat,ci_low,ci_high,minus_log_p,per_gamma_slope,"
              "contamination")
    rows = [[g, r.p_hat, float(r.ci_low), float(r.ci_high), mlp, s,
             r.clamp_contamination] for g, mlp, s, r in zip(
        fit.gammas.tolist(), fit.minus_log_p.tolist(),
        fit.per_gamma_slope.tolist(), fit.results)]
    footer = [f"slope={fit.slope!r} predicted={fit.predicted_rate!r}"]
    with _output(args.out) as f:
        _write_csv(f, header, rows, [f"config={_resolved(args)}"], footer)
    return 0


def _cmd_interlace(args) -> int:
    freqs = interlace_event_frequency(
        args.gammas, args.samples, args.seed, dt=args.dt,
        margin_scale=args.margin_scale,
    )
    header = "gamma,a_violation,b_violation,c_violation,contamination"
    rows = [[r.gamma, r.a_violation, r.b_violation, r.c_violation,
             r.clamp_contamination] for r in freqs]
    footer = [f"worst_a_violation={max(r.a_violation for r in freqs)!r}"]
    with _output(args.out) as f:
        _write_csv(f, header, rows, [f"config={_resolved(args)}"], footer)
    return 0


def _cmd_equivalence(args) -> int:
    grid = TimeGrid.from_dt(args.t0, args.t1, args.dt)
    reports = [
        equivalence_experiment(g, args.eta, grid, args.samples, args.seed)
        for g in args.gammas
    ]
    header = ("gamma,eta,budget,n_in_tube,n_violations,violation_fraction,"
              "max_gap_in_tube")
    rows = [[r.gamma, r.eta, r.budget, r.n_in_tube, r.n_violations,
             r.violation_fraction, r.max_gap_in_tube] for r in reports]
    worst = max(r.violation_fraction for r in reports)
    with _output(args.out) as f:
        _write_csv(f, header, rows, [f"config={_resolved(args)}"],
                   [f"worst_violation_fraction={worst!r}"])
    return 0


def _cmd_optimize(args) -> int:
    with open(args.init) as f:
        init = configuration_from_csv(f)
    with open(args.terminal) as f:
        term = configuration_from_csv(f)
    grid = TimeGrid(args.t0, args.t1, args.m)
    problem = VariationalProblem(
        N=init.N,
        grid=grid,
        initial=init,
        terminal=term,
        max_iters=args.iters,
    )
    result = minimize_rate(problem)
    with _output(args.out) as f:
        bundle_to_csv(f, result.bundle, [f"config={_resolved(args)}"])
        f.write(
            f"# rate={result.rate!r} baseline={result.baseline_rate!r} "
            f"iterations={result.iterations} converged={result.converged}\n"
        )
    return 0


# ---------------------------------------------------------------------------
# parser assembly


@functools.cache
def _build_parser() -> tuple[_Parser, dict]:
    parser = _Parser(prog="whittaker2d")
    parser.add_argument(
        "--version", action="version", version=f"whittaker2d {__version__}"
    )
    subs = parser.add_subparsers(dest="command", required=True)
    registry = {}

    def sub(name, func, **kwargs):
        p = subs.add_parser(name, **kwargs)
        p.add_argument("--config", help="JSON config file; flags override")
        p.add_argument("--out", help="output CSV (default stdout)")
        p.set_defaults(func=func)
        registry[name] = p
        return p

    p = sub("simulate", _cmd_simulate, help="run the triangle SDE")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--gamma", type=float, default=8.0)
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicate", type=int, default=0)
    p.add_argument("--drift-cap", type=float, default=None)
    p.add_argument("--init", help="initial configuration CSV")

    p = sub("rate", _cmd_rate, help="score a bundle CSV against the action")
    p.add_argument("--bundle", required=True)
    p.add_argument("--init", help="initial configuration CSV")
    p.add_argument("--gamma", type=float, default=8.0)
    p.add_argument("--eps", type=float, default=None)

    p = sub("reflect", _cmd_reflect, help="one-sided reflection, CSV in/out")
    p.add_argument("--driver", required=True)
    p.add_argument("--barrier", required=True)
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--side", choices=["above", "below"], default="above")

    p = sub("slope", _cmd_slope, help="small-ball decay slope over gamma")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--gammas", type=_gamma_list, default=[8.0, 16.0, 32.0])
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--bundle", help="target bundle CSV; overrides --n")
    p.add_argument("--init", help="initial configuration CSV")
    p.add_argument(
        "--target-slope",
        type=float,
        default=0.5,
        help="linear target slope when no --bundle is given",
    )

    p = sub(
        "interlace",
        _cmd_interlace,
        help="four-particle interlacing violation frequencies",
    )
    p.add_argument("--gammas", type=_gamma_list, default=[16.0, 64.0])
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--margin-scale", type=float, default=1.0)

    p = sub(
        "equivalence",
        _cmd_equivalence,
        help="two-barrier vs lower-barrier coupling gap",
    )
    p.add_argument("--gammas", type=_gamma_list, default=[32.0])
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=1.0)

    p = sub("optimize", _cmd_optimize, help="most-likely path between endpoints")
    p.add_argument("--init", required=True)
    p.add_argument("--terminal", required=True)
    p.add_argument("--m", type=int, default=64, help="time steps")
    p.add_argument("--iters", type=int, default=20000)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=1.0)

    return parser, registry


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser, registry = _build_parser()
        # a --config file's values become flag text after the subcommand:
        # each gets its flag's type and checks, may give a required flag,
        # and loses to the same flag on the command line, which comes later
        pre = _Parser(add_help=False)
        pre.add_argument("--config")
        path = pre.parse_known_args(argv)[0].config
        if path is not None and argv[0] in registry:
            argv[1:1] = _config_flags(path, registry[argv[0]])
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NonFiniteError as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # anything else is a runtime failure
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
