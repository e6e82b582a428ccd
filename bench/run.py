#!/usr/bin/env python3
"""whittaker2d benchmark.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload runs in fresh processes started by this script (see
child.py); this process itself imports neither numpy nor the package.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  The host slows
this machine by up to 1.4x in stretches of a second to minutes, so each
timed span is scaled to a reference speed: multiplied by REF_S over the
time of a fixed reference kernel run right next to it (child.reference_s).
setup_s is the median, over seven fresh processes (six that only set up,
and the measuring one), of the scaled time from process start to the end
of the warm-up call.  wall_s is the median scaled pass time.  peak_rss_mb
is the measuring process's ru_maxrss.  The run record keeps the raw times.
--trace 1 runs one traced process and reports the per-layer metrics of
BENCHMARK.json.  Both check the program's outputs and count every public
call that raised or failed its check in `failed`.

Every run writes a record (machine, code size, versions, pass times,
checks) to .bench_out/<workload>-seed<seed>-trace<t>.json; a traced run
also writes the spans of its last traced pass next to it.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
PACKAGE = os.path.join(ROOT, "src", "whittaker2d")
SETUP_PROCESSES = 6  # set-up-only processes per untraced run, plus the measuring one
# every child of one run must end within 2 * --seconds plus this margin,
# which covers the set-up processes, the probes and one slow last pass
RUN_MARGIN_S = 100.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "WHITTAKER_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _spawn(workload, seed, seconds, mode, workdir, deadline, extra=()):
    """Run child.py in a fresh process and return its JSON result."""
    cmd = [sys.executable, os.path.join(BENCH, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode, "--workdir", workdir,
           *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before the {mode} process")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: {mode} process timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload}: {mode} process exited {proc.returncode}")
    return json.loads(lines[-1])


def _read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def machine():
    """The machine and thread settings a run was measured on."""
    cpu = next((ln.split(":", 1)[1].strip()
                for ln in _read("/proc/cpuinfo").splitlines()
                if ln.startswith("model name")), platform.processor())
    l3 = next((_read(os.path.join(d, "size")).strip()
               for d in sorted(glob.glob(
                   "/sys/devices/system/cpu/cpu0/cache/index*"))
               if _read(os.path.join(d, "level")).strip() == "3"), None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l3_size": l3,
        "python": platform.python_version(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def src_lines():
    total = 0
    for path in glob.glob(os.path.join(PACKAGE, "**", "*.py"),
                          recursive=True):
        with open(path) as f:
            total += sum(1 for _ in f)
    return total


def run_workload(spec, workload, seed, seconds, trace):
    """Metrics, attempted and failed counts, and the run record."""
    deadline = time.monotonic() + 2 * seconds + RUN_MARGIN_S
    tag = f"{workload}-seed{seed}-trace{trace}"
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT)
    try:
        if trace:
            spans = os.path.join(OUT, f"{workload}-seed{seed}-spans.json")
            res = _spawn(workload, seed, seconds, "trace", workdir, deadline,
                         ["--spans-out", spans])
            values = dict(res["layers"])
            values["code.src_lines"] = src_lines()
            values["code.public_exports"] = res["public_exports"]
            section = spec["per_layer"]
        else:
            setups = [_spawn(workload, seed, seconds, "setup", workdir,
                             deadline) for _ in range(SETUP_PROCESSES)]
            res = _spawn(workload, seed, seconds, "measure", workdir, deadline)
            setups.append(res)
            res["setup_samples"] = [
                {k: r[k] for k in ("setup_s", "setup_raw_s", "setup_ref_s")}
                for r in setups]
            values = {"setup_s": statistics.median(r["setup_s"]
                                                   for r in setups),
                      "wall_s": res["wall_s"],
                      "peak_rss_mb": res["peak_rss_mb"]}
            section = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload}: no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in section}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": machine(),
              "code": {"src_lines": src_lines(),
                       "public_exports": res["public_exports"]},
              "metrics": metrics, "process": res}
    with open(os.path.join(OUT, f"{tag}.json"), "w") as f:
        json.dump(record, f, indent=1)
    return metrics, res["attempted"], res["failed"], res["failures"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [wl["name"] for wl in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no whittaker2d package at {PACKAGE}", file=sys.stderr)
        return 2
    seconds = args.seconds or spec["run_seconds"]
    names = workloads if args.workload == "all" else [args.workload]
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            metrics, attempted, failed, failures = run_workload(
                spec, name, args.seed, seconds, args.trace)
            for key, m in metrics.items():
                print(f"{name:15s} {key:45s} {m['value']:14.6g} {m['unit']}")
            for msg in failures:
                print(f"{name:15s} CHECK FAILED: {msg}")
            print(f"{name:15s} checks: {attempted - failed}/{attempted} "
                  f"calls passed")
            out["attempted"] += attempted
            out["failed"] += failed
            prefix = "" if len(names) == 1 else f"{name}."
            out["metrics"].update(
                {prefix + k: v for k, v in metrics.items()})
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    out["correct"] = out["failed"] == 0 and out["attempted"] > 0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
