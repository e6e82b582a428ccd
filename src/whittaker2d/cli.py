"""Command-line front end.

Subcommands: simulate, rate, reflect, slope, interlace, equivalence,
optimize.  Parameters come from flags or from a JSON document passed via
--config; flags override the file, unknown keys are rejected, and every
output embeds the resolved configuration as a `# config=...` header so any
run can be reproduced from its own output.  Exit codes: 0 success, 1
validation or usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import contextlib
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
    bundle_from_csv,
    bundle_to_csv,
    configuration_from_csv,
    tri_indices,
    tri_size,
)
from .noise import ensemble_increments
from .rate import LEMMA, default_coincidence_eps, total_rate
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


def _positive_gammas(values) -> list[float]:
    """values as floats, once there is at least one and every one is
    positive and finite."""
    gammas = [float(g) for g in values]
    if not gammas:
        raise ValueError("need at least one gamma")
    if not all(0.0 < g < np.inf for g in gammas):
        raise ValueError(f"gammas must be positive and finite, got {gammas}")
    return gammas


def _gamma_list(text: str) -> list[float]:
    try:
        return _positive_gammas(x for x in text.split(",") if x.strip())
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad gamma list {text!r}: {e}")


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except json.JSONDecodeError as e:
        raise UsageError(
            f"{path}: malformed JSON at line {e.lineno} column {e.colno}: "
            f"{e.msg}"
        )
    except OSError as e:
        raise UsageError(f"cannot read config {path}: {e}")


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
        try:
            _, rows = _float_rows(f, 2, skip=("#", "t,"))
        except ValueError as e:
            raise UsageError(str(e)) from None
    if len(rows) < 2:
        raise UsageError(f"{path}: need at least two rows")
    t, v = rows.T
    dts = np.diff(t)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-12):
        raise UsageError(f"{path}: grid is not uniform")
    grid = TimeGrid(float(t[0]), float(t[-1]), len(t) - 1)
    return SamplePath(grid, v)


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
    with _output(args.out) as f:
        bundle_to_csv(
            f,
            result.bundle,
            comments=[
                f"config={_resolved(args)}",
                f"seed={args.seed} replicate={args.replicate}",
            ],
        )
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
    breakdown = total_rate(bundle, config, eps, args.convention)
    with _output(args.out) as f:
        f.write(f"# config={_resolved(args)}\n")
        f.write(
            "particle,interior,upper_coincident,lower_coincident,"
            "upper_measure,lower_measure,both_measure,reason,total\n"
        )
        for idx in tri_indices(bundle.N):
            t = breakdown.terms[idx]
            f.write(
                f"T_{idx.n}_{idx.k},{t.interior!r},{t.upper_coincident!r},"
                f"{t.lower_coincident!r},{t.upper_measure!r},"
                f"{t.lower_measure!r},{t.both_measure!r},{t.reason},"
                f"{t.total!r}\n"
            )
        f.write(f"# total={breakdown.total!r}\n")
        if breakdown.infinity_reason != "none":
            f.write(f"# reason={breakdown.infinity_reason}\n")
    return 0


def _cmd_reflect(args) -> int:
    driver = _read_path_csv(args.driver)
    barrier = _read_path_csv(args.barrier)
    op = reflect_above if args.side == "above" else reflect_below
    result = op(driver, barrier, args.start)
    with _output(args.out) as f:
        f.write(f"# config={_resolved(args)}\n")
        f.write("t,path,push,active\n")
        cols = [driver.grid.times, result.path.values,
                result.push_term.values, result.active.astype(int)]
        f.write("".join(",".join(map(repr, row)) + "\n"
                        for row in zip(*(c.tolist() for c in cols))))
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
    with _output(args.out) as f:
        f.write(f"# config={_resolved(args)}\n")
        f.write("gamma,p_hat,ci_low,ci_high,minus_log_p,per_gamma_slope,"
                "contamination\n")
        for g, mlp, s, r in zip(
            fit.gammas, fit.minus_log_p, fit.per_gamma_slope, fit.results
        ):
            f.write(
                f"{float(g)!r},{r.p_hat!r},{float(r.ci_low)!r},"
                f"{float(r.ci_high)!r},{float(mlp)!r},{float(s)!r},"
                f"{r.clamp_contamination!r}\n"
            )
        f.write(f"# slope={fit.slope!r} predicted={fit.predicted_rate!r}\n")
    return 0


def _cmd_interlace(args) -> int:
    freqs = interlace_event_frequency(
        args.gammas, args.samples, args.seed, dt=args.dt,
        margin_scale=args.margin_scale,
    )
    with _output(args.out) as f:
        f.write(f"# config={_resolved(args)}\n")
        f.write("gamma,a_violation,b_violation,c_violation,contamination\n")
        for r in freqs:
            f.write(
                f"{r.gamma!r},{r.a_violation!r},{r.b_violation!r},"
                f"{r.c_violation!r},{r.clamp_contamination!r}\n"
            )
        worst = max(r.a_violation for r in freqs)
        f.write(f"# worst_a_violation={worst!r}\n")
    return 0


def _cmd_equivalence(args) -> int:
    grid = TimeGrid.from_dt(args.t0, args.t1, args.dt)
    reports = [
        equivalence_experiment(g, args.eta, grid, args.samples, args.seed)
        for g in args.gammas
    ]
    with _output(args.out) as f:
        f.write(f"# config={_resolved(args)}\n")
        f.write(
            "gamma,eta,budget,n_in_tube,n_violations,violation_fraction,"
            "max_gap_in_tube\n"
        )
        for r in reports:
            f.write(
                f"{r.gamma!r},{r.eta!r},{r.budget!r},{r.n_in_tube},"
                f"{r.n_violations},{r.violation_fraction!r},"
                f"{r.max_gap_in_tube!r}\n"
            )
        worst = max(r.violation_fraction for r in reports)
        f.write(f"# worst_violation_fraction={worst!r}\n")
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
    result = minimize_rate(problem, args.convention)
    with _output(args.out) as f:
        bundle_to_csv(
            f,
            result.bundle,
            comments=[f"config={_resolved(args)}"],
        )
        f.write(
            f"# rate={result.rate!r} baseline={result.baseline_rate!r} "
            f"iterations={result.iterations} converged={result.converged}\n"
        )
    return 0


# ---------------------------------------------------------------------------
# parser assembly


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
    p.add_argument("--out", help="output CSV (default stdout)")

    p = sub("rate", _cmd_rate, help="score a bundle CSV against the action")
    p.add_argument("--bundle", required=True)
    p.add_argument("--init", help="initial configuration CSV")
    p.add_argument("--gamma", type=float, default=8.0)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument(
        "--convention", choices=["lemma", "theorem"], default=LEMMA
    )
    p.add_argument("--out")

    p = sub("reflect", _cmd_reflect, help="one-sided reflection, CSV in/out")
    p.add_argument("--driver", required=True)
    p.add_argument("--barrier", required=True)
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--side", choices=["above", "below"], default="above")
    p.add_argument("--out")

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
    p.add_argument("--out")

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
    p.add_argument("--out")

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
    p.add_argument("--out")

    p = sub("optimize", _cmd_optimize, help="most-likely path between endpoints")
    p.add_argument("--init", required=True)
    p.add_argument("--terminal", required=True)
    p.add_argument("--m", type=int, default=64, help="time steps")
    p.add_argument("--iters", type=int, default=20000)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument(
        "--convention", choices=["lemma", "theorem"], default=LEMMA
    )
    p.add_argument("--out")

    return parser, registry


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser, registry = _build_parser()
        args = parser.parse_args(argv)
        if args.config:
            file_cfg = _load_config_file(args.config)
            sub = registry[args.command]
            known = {a.dest for a in sub._actions}
            unknown = sorted(set(file_cfg) - known)
            if unknown:
                raise UsageError(
                    f"unknown config keys: {', '.join(unknown)}"
                )
            if "gammas" in file_cfg:
                file_cfg["gammas"] = _positive_gammas(file_cfg["gammas"])
            # flags still win: set file values as defaults and reparse
            parser, registry = _build_parser()
            registry[args.command].set_defaults(**file_cfg)
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
