"""The four benchmark workloads.

Each workload builds its inputs from the workload seed (set-up), makes one
small warm-up call, and then runs passes of a fixed size.  A pass is a
closed loop: one caller makes each public call with n_workers=1 and waits
for it.  Pass p draws its own library seed and inputs from (seed, p), so
the same seed always gives the same inputs.  Output checks run after the
timed call, outside the pass time.

The library functions are looked up on the package at call time, so the
tracer's wrappers see every call the workloads make.
"""

import os
from dataclasses import dataclass

import numpy as np

import whittaker2d as w
from whittaker2d import cli

from oracle import free_particle_smallball


# pass indices that no timed pass reaches
WARMUP = 2**32 - 1
PROBE = 2**32 - 2


def pass_seed(seed, p):
    """Library seed for pass p of a run with workload seed `seed`."""
    return int(np.random.SeedSequence([seed, p]).generate_state(1)[0])


@dataclass
class Call:
    """One public call of a pass: its label and its value or its error."""

    label: str
    value: object = None
    error: str | None = None


def _call(label, fn, *args, **kwargs):
    try:
        return Call(label, fn(*args, **kwargs))
    except Exception as e:  # a raising call is a failed operation
        return Call(label, error=f"{type(e).__name__}: {e}")


class SlopeFree:
    """Criterion-1 shape: ldp_slope for the free particle, N=1, M=1000."""

    name = "slope-free"
    gammas = (8.0, 16.0, 32.0, 64.0)
    delta = 0.25
    slope = 0.5
    n_samples = 2500  # one batch under the library default batch_size

    def __init__(self, seed, workdir):
        self.seed = seed
        self.grid = w.TimeGrid(0.0, 1.0, 1000)
        zero = w.TriangularConfiguration.zeros(1)
        end = w.TriangularConfiguration(1, np.array([self.slope]))
        self.phi = w.PathBundle.linear(1, self.grid, zero, end)
        self.config = w.ModelConfig(N=1, gamma=self.gammas[0], initial=zero)
        self._exact = None

    def warmup(self):
        w.ldp_slope(self.config, self.phi, self.delta, self.gammas, 500,
                    pass_seed(self.seed, WARMUP))

    def prepare(self, p):
        pass

    def run_pass(self, p):
        return [_call("ldp_slope", w.ldp_slope, self.config, self.phi,
                      self.delta, self.gammas, self.n_samples,
                      pass_seed(self.seed, p))]

    def exact(self):
        if self._exact is None:
            self._exact = {
                g: free_particle_smallball(g, self.slope, self.delta,
                                           self.grid.dt, self.grid.steps)
                for g in self.gammas
            }
        return self._exact

    def check(self, p, calls):
        (call,) = calls
        fit = call.value
        bad = []
        for r in fit.results:
            p_exact = self.exact()[r.gamma]
            expected = r.n_samples * p_exact
            sd = np.sqrt(expected * (1.0 - p_exact))
            # 5 sd of binomial noise plus the oracle's quadrature error
            if abs(r.hits - expected) > 5.0 * sd + 1e-3 * expected:
                bad.append(f"gamma={r.gamma:g}: {r.hits} hits, exact "
                           f"probability {p_exact:.6f} expects "
                           f"{expected:.1f} +- {sd:.1f}")
        if not np.isfinite(fit.slope):
            bad.append(f"slope {fit.slope} is not finite")
        return ["ldp_slope: " + "; ".join(bad)] if bad else []

    def figure_of_merit(self, calls, wall):
        """Squared relative Wilson half-width at gamma=64 times wall."""
        r = calls[0].value.results[-1]
        half = 0.5 * (r.ci_high - r.ci_low)
        return (half / r.p_hat) ** 2 * wall


class SmallballTri:
    """Criterion-8 shape: N=2 triangle on [0, 0.25], crossing target."""

    name = "smallball-tri"
    gammas = (8.0, 16.0, 32.0)
    delta = 0.2
    n_samples = 4000
    batch_size = 4000  # 24 MB of increments per batch
    wide_delta = 0.4  # a tube wide enough that about a quarter of paths hit

    def __init__(self, seed, workdir):
        self.seed = seed
        grid = w.TimeGrid(0.0, 0.25, 250)
        zero = w.TriangularConfiguration.zeros(2)
        end = w.TriangularConfiguration(2, np.array([-0.2125, 0.1, 0.2125]))
        self.phi = w.PathBundle.linear(2, grid, zero, end)
        self.configs = [w.ModelConfig(N=2, gamma=g, initial=zero)
                        for g in self.gammas]

    def warmup(self):
        w.smallball_probability(self.configs[0], self.phi, self.delta, 500,
                                pass_seed(self.seed, WARMUP))

    def prepare(self, p):
        pass

    def run_pass(self, p):
        s = pass_seed(self.seed, p)
        calls = [_call(f"smallball_probability gamma={c.gamma:g}",
                       w.smallball_probability, c, self.phi, self.delta,
                       self.n_samples, s, batch_size=self.batch_size)
                 for c in self.configs]
        calls.append(_call("total_rate", w.total_rate, self.phi,
                           self.configs[0], 1e-3))
        return calls

    def check(self, p, calls):
        """Criterion 8, hit and clamp counts, and the crossing sentinel.

        Hits at delta=0.2 are rare (about 1e-4 at gamma=8), so a pass
        often has none, and a replicate can hit at gamma=16 but not at 8.
        So on pass 0 the gamma=8 call is repeated with a wide tube: maxdev
        does not depend on delta, so on the same replicates it must count
        at least as many hits, and some.
        """
        bad = []
        *estimates, rate = calls
        slopes = {}
        for c in estimates:
            e = c.value
            slopes[e.gamma] = np.inf if e.hits == 0 else -np.log(e.p_hat) / e.gamma
        if not slopes[32.0] >= 2.0 * slopes[8.0]:
            bad.append(f"smallball_probability: per-gamma slope at 32 "
                       f"({slopes[32.0]}) below twice that at 8 "
                       f"({slopes[8.0]})")
        hits8 = estimates[0].value.hits
        if estimates[0].value.clamp_contamination == 0.0:
            bad.append("smallball_probability: no clamp event at gamma=8")
        if p == 0:
            wide = w.smallball_probability(
                self.configs[0], self.phi, self.wide_delta, self.n_samples,
                pass_seed(self.seed, p), batch_size=self.batch_size)
            if not wide.hits >= max(hits8, 1):
                bad.append(f"smallball_probability: {wide.hits} hits at "
                           f"delta={self.wide_delta} against {hits8} at "
                           f"delta={self.delta}")
        br = rate.value
        if not (br.total == np.inf and br.infinity_reason == "crossing"):
            bad.append(f"total_rate: {br.total} with reason "
                       f"{br.infinity_reason!r}, expected the crossing "
                       f"sentinel")
        return bad

    def summary(self, calls):
        """Per-gamma hit counts and clamped fractions of a pass."""
        return {f"{c.value.gamma:g}": [c.value.hits,
                                       c.value.clamp_contamination]
                for c in calls[:-1]}


class InterlaceLong:
    """Criterion-7 shape: four-particle system, dt=1e-4 (M=10000)."""

    name = "interlace-long"
    gammas = (16.0, 64.0)
    n_samples = 100
    batch_size = 100  # 32 MB of increments per batch

    def __init__(self, seed, workdir):
        self.seed = seed

    def warmup(self):
        w.interlace_event_frequency([self.gammas[0]], 8,
                                    pass_seed(self.seed, WARMUP),
                                    dt=1e-4, batch_size=8)

    def prepare(self, p):
        pass

    def run_pass(self, p):
        return [_call("interlace_event_frequency",
                      w.interlace_event_frequency, self.gammas,
                      self.n_samples, pass_seed(self.seed, p), dt=1e-4,
                      batch_size=self.batch_size)]

    def check(self, p, calls):
        f16, f64 = calls[0].value
        ok = (f64.a_violation < 1e-3
              and f64.a_violation <= f16.a_violation
              and f64.b_violation <= f16.b_violation
              and f64.c_violation <= f16.c_violation)
        if ok:
            return []
        return [f"interlace_event_frequency: A {f16.a_violation}->"
                f"{f64.a_violation}, B {f16.b_violation}->{f64.b_violation}, "
                f"C {f16.c_violation}->{f64.c_violation}"]


def _write_path_csv(path, t, v):
    with open(path, "w") as f:
        f.write("t,value\n")
        for ti, vi in zip(t, v):
            f.write(f"{float(ti)!r},{float(vi)!r}\n")


def _write_configuration(path, N, entries):
    with open(path, "w") as f:
        w.model.configuration_to_csv(f, w.TriangularConfiguration(N, entries))


def _comment_fields(path, key):
    """Fields of the last `# key=...` comment line, as a dict."""
    fields = {}
    with open(path) as f:
        for line in f:
            if line.startswith(f"# {key}="):
                fields = dict(kv.split("=", 1) for kv in line[2:].split())
    return fields


class Session:
    """A CLI session run in-process through whittaker2d.cli.main."""

    name = "session"
    reflect_points = 10_001

    def __init__(self, seed, workdir):
        self.seed = seed
        os.makedirs(workdir, exist_ok=True)
        self.files = {k: os.path.join(workdir, f"{k}.csv") for k in (
            "driver", "barrier", "init", "term", "sim", "rate", "reflect",
            "opt", "eq", "warm")}

    def warmup(self):
        cli.main(["simulate", "--n", "1", "--dt", "0.01",
                  "--out", self.files["warm"]])

    def prepare(self, p):
        """Driver and barrier paths and optimizer endpoints for pass p."""
        rng = np.random.default_rng([self.seed, p])
        n = self.reflect_points
        t = np.linspace(0.0, 1.0, n)
        step = np.sqrt(t[1])
        driver = np.concatenate(([0.0], np.cumsum(rng.normal(0, step, n - 1))))
        barrier = np.concatenate(([0.0], np.cumsum(rng.normal(0, step, n - 1))))
        barrier -= 0.1
        self.barrier = barrier
        self.start = float(max(driver[0], barrier[0]) + 0.05)
        _write_path_csv(self.files["driver"], t, driver)
        _write_path_csv(self.files["barrier"], t, barrier)
        # interlaced endpoints T_2_2 <= T_1_1 <= T_2_1
        a, b = rng.uniform(-0.2, 0.2), rng.uniform(0.3, 0.8)
        lo, hi = rng.uniform(0.2, 0.6, 2), rng.uniform(0.2, 0.6, 2)
        _write_configuration(self.files["init"], 2,
                             np.array([a, a + hi[0], a - lo[0]]))
        _write_configuration(self.files["term"], 2,
                             np.array([a + b, a + b + hi[1], a + b - lo[1]]))
        self.pass_seed = str(pass_seed(self.seed, p))

    def run_pass(self, p):
        f = self.files
        argvs = [
            ("simulate", ["--n", "3", "--gamma", "32", "--dt", "1e-4",
                          "--seed", self.pass_seed, "--out", f["sim"]]),
            ("rate", ["--bundle", f["sim"], "--gamma", "32",
                      "--out", f["rate"]]),
            ("reflect", ["--driver", f["driver"], "--barrier", f["barrier"],
                         "--start", repr(self.start), "--out", f["reflect"]]),
            ("optimize", ["--init", f["init"], "--terminal", f["term"],
                          "--m", "64", "--out", f["opt"]]),
            ("equivalence", ["--gammas", "32", "--samples", "1000",
                             "--seed", self.pass_seed, "--out", f["eq"]]),
        ]
        return [_call(name, cli.main, [name] + argv) for name, argv in argvs]

    def check(self, p, calls):
        bad = [f"{c.label}: exit code {c.value}" for c in calls
               if c.value != 0]
        if bad:
            return bad
        f = self.files
        if "clamps" not in _comment_fields(f["sim"], "clamps"):
            bad.append("simulate: no clamps line")
        if "total" not in _comment_fields(f["rate"], "total"):
            bad.append("rate: no total line")
        path = np.loadtxt(f["reflect"], delimiter=",", comments="#",
                          skiprows=2, usecols=1)
        if path.shape != self.barrier.shape or np.any(
                path < self.barrier - 1e-12):
            bad.append("reflect: path goes below the barrier")
        opt = _comment_fields(f["opt"], "rate")
        if not float(opt["rate"]) <= float(opt["baseline"]):
            bad.append(f"optimize: rate {opt['rate']} above baseline "
                       f"{opt['baseline']}")
        rows = np.loadtxt(f["eq"], delimiter=",", comments="#", skiprows=2,
                          ndmin=2)
        if np.any(rows[:, 4] != 0):
            bad.append(f"equivalence: violations {rows[:, 4].tolist()}")
        return bad


WORKLOADS = {c.name: c for c in (SlopeFree, SmallballTri, InterlaceLong,
                                 Session)}
