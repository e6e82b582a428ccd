"""One benchmark process: set up one workload, then measure or trace it.

Run by run.py, never by hand.  Modes:

  setup    import, build inputs, one warm-up call; report setup_s
  measure  setup, then untraced passes for --seconds; report wall_s, every
           pass time, peak RSS and output checks
  trace    setup, then passes alternating untraced and traced, then the
           layer probes; report the per-layer metrics

The set-up time runs from --spawned-at, the parent's CLOCK_MONOTONIC
reading just before it started this process, to the end of the warm-up
call.  setup_s and wall_s are scaled to the reference speed (see
reference_s); the raw times are reported too.  The last line of stdout is
one JSON object.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import whittaker2d as w  # noqa: E402
from tracer import Tracer, layer_metrics, write_spans  # noqa: E402
from workloads import PROBE, WORKLOADS, pass_seed  # noqa: E402

MIN_PASSES = 2
REF_REPS = 3  # runs of the reference kernel on each side of a timed span
# about the least time of the reference kernel on the reference machine
REF_S = 4.5e-3


def reference_s():
    """Least time of REF_REPS runs of a Python loop and a Philox draw.

    The host slows this machine by up to 1.4x, in stretches of a second to
    minutes.  A timed span is scaled by REF_S over this kernel's time right
    next to it, which cancels most of that; the kernel does not touch the
    package.  Its two halves follow the interpreter-bound and the
    noise-bound workloads.
    """
    best = float("inf")
    for _ in range(REF_REPS):
        t0 = time.perf_counter()
        s = 0
        for i in range(50_000):
            s += i
        np.random.Generator(np.random.Philox(0)).standard_normal(150_000)
        best = min(best, time.perf_counter() - t0)
    return best


def _failures(calls, check, p):
    """Labels of the calls in a pass that raised or failed their check."""
    errors = {c.label: c.error for c in calls if c.error is not None}
    if errors:
        return errors
    try:
        messages = check(p, calls)
    except Exception as e:  # an output the check cannot read is a failure
        messages = [f"{calls[0].label}: check raised {type(e).__name__}: {e}"]
    return {msg.split(":", 1)[0]: msg for msg in messages}


def _passes(wl, seconds, tracer=None):
    """Run passes until the next one would end after `seconds`.

    With a tracer, odd passes are traced.  Returns one record per pass.
    """
    records = []
    start = time.monotonic()
    p = 0
    while True:
        wl.prepare(p)
        traced = tracer is not None and p % 2 == 1
        if traced:
            tracer.spans = []
            tracer.install()
        ref = reference_s()
        t0 = time.perf_counter()
        calls = wl.run_pass(p)
        wall = time.perf_counter() - t0
        ref = min(ref, reference_s())
        if traced:
            tracer.uninstall()
        rec = {"pass": p, "wall_s": wall, "ref_s": ref, "traced": traced,
               "calls": len(calls), "failures": _failures(calls, wl.check, p)}
        if traced:
            rec["layers"] = layer_metrics(tracer.spans)
            rec["spans"] = tracer.spans
        elif hasattr(wl, "figure_of_merit") and not rec["failures"]:
            rec["work_norm_var_s"] = wl.figure_of_merit(
                calls, wall * REF_S / ref)
        if hasattr(wl, "summary") and not any(c.error for c in calls):
            rec["summary"] = wl.summary(calls)
        records.append(rec)
        p += 1
        elapsed = time.monotonic() - start
        typical = statistics.median(r["wall_s"] for r in records)
        if p >= MIN_PASSES and elapsed + typical > seconds:
            return records


def scaled_wall_s(records):
    """Median over `records` of the pass time at the reference speed."""
    return REF_S * statistics.median(r["wall_s"] / r["ref_s"]
                                     for r in records)


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probes(seed):
    """Layer probes, untraced: stream set-up, normals, thread speed-up."""
    grid1 = w.TimeGrid(0.0, 1.0, 1)
    streams = 2000
    init = _median_time(
        lambda: w.ensemble_increments(seed, range(streams), grid1, 1), 5)
    long = w.TimeGrid(0.0, 1.0, 2_000_000)
    normal = _median_time(
        lambda: w.ensemble_increments(seed, range(1), long, 1), 5)
    # criterion-8 shape, two batches so that two threads can share them
    grid = w.TimeGrid(0.0, 0.25, 250)
    zero = w.TriangularConfiguration.zeros(2)
    phi = w.PathBundle.linear(2, grid, zero, w.TriangularConfiguration(
        2, np.array([-0.2125, 0.1, 0.2125])))
    cfg = w.ModelConfig(N=2, gamma=8.0, initial=zero)
    timings, hits = {}, {}
    for workers in (1, 2, 1, 2):
        t0 = time.perf_counter()
        est = w.smallball_probability(cfg, phi, 0.2, 8000, seed,
                                      batch_size=4000, n_workers=workers)
        timings.setdefault(workers, []).append(time.perf_counter() - t0)
        hits.setdefault(workers, set()).add((est.hits,
                                             est.clamp_contamination))
    same = len(hits[1] | hits[2]) == 1
    return {
        "noise.stream_init_us": init / streams * 1e6,
        "noise.ns_per_normal": normal / long.steps * 1e9,
        "mc.thread_speedup": min(timings[1]) / min(timings[2]),
    }, same


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True,
                    choices=["setup", "measure", "trace"])
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    wl.warmup()
    setup_raw = time.monotonic() - args.spawned_at
    ref = reference_s()
    out = {"setup_s": setup_raw * REF_S / ref, "setup_raw_s": setup_raw,
           "setup_ref_s": ref}
    if args.mode == "setup":
        print(json.dumps(out))
        return

    tracer = Tracer() if args.mode == "trace" else None
    records = _passes(wl, args.seconds, tracer)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    out["attempted"] = sum(r["calls"] for r in records)
    out["failures"] = [f for r in records for f in r["failures"].values()]
    out["failed"] = sum(len(r["failures"]) for r in records)
    plain = [r for r in records if not r["traced"]]
    out["pass_wall_s"] = [r["wall_s"] for r in plain]
    out["pass_ref_s"] = [r["ref_s"] for r in plain]
    out["wall_s"] = scaled_wall_s(plain)
    out["pass_summaries"] = [r["summary"] for r in records if "summary" in r]
    out["versions"] = {"numpy": np.__version__, "scipy": scipy.__version__,
                       "whittaker2d": w.__version__}
    out["public_exports"] = len(getattr(w, "__all__", ()))

    if tracer is not None:
        traced = [r for r in records if r["traced"]]
        names = traced[0]["layers"].keys()
        layers = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in names}
        layers["trace.overhead_frac"] = (
            scaled_wall_s(traced) / out["wall_s"] - 1.0)
        merit = [r["work_norm_var_s"] for r in plain
                 if "work_norm_var_s" in r]
        layers["mc.work_norm_var_s"] = (
            statistics.fmean(merit) if merit else 0.0)
        probe, same = probes(pass_seed(args.seed, PROBE))
        layers.update(probe)
        if not same:
            out["failures"].append(
                "smallball_probability: n_workers=2 differs from 1")
            out["failed"] += 1
        out["attempted"] += 4
        layers["trace.absent_names"] = len(tracer.absent)
        out["absent"] = tracer.absent
        out["layers"] = layers
        write_spans(args.spans_out, traced[-1]["spans"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
