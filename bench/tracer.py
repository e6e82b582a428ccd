"""Call tracing of the whittaker2d layers, done from outside the package.

install() replaces each public function of each layer module, at every
place in the package where callers look it up (the defining module, the
package namespace and each module that imported it by name), with a wrapper
that records a span.  A stepper's `observe` callback is wrapped too, as
`<layer>.observe` of the module that defined it.  Spans stay in memory as
[name, layer, start, end, parent, extra] and are reduced to per-layer
metrics after the pass; uninstall() puts the originals back, so untraced
passes pay nothing.
"""

import functools
import importlib
import inspect
import json
import sys
import threading
import time

import numpy as np

LAYERS = ("noise", "sde", "mc", "rate", "varopt", "skorokhod", "model", "cli")

# names the per-layer metrics read; one that no longer exists is reported
# absent and its metrics read 0
EXPECTED = (
    "noise.ensemble_increments", "sde.ensemble_scan", "sde.four_particle_scan",
    "sde.simulate_two_barrier", "sde.simulate_lower_barrier_euler",
    "mc.smallball_probability", "rate.total_rate", "rate.classify",
    "varopt.minimize_rate", "skorokhod.reflect_above",
    "skorokhod.reflect_below", "model.bundle_to_csv", "model.bundle_from_csv",
    "cli.main",
)
STEPPERS = ("ensemble_scan", "four_particle_scan", "simulate_two_barrier",
            "simulate_lower_barrier_euler")
CLI_COMMANDS = ("simulate", "rate", "reflect", "optimize", "equivalence")


class _CountingWriter:
    """File proxy that counts the characters written through it."""

    def __init__(self, f):
        self.f = f
        self.chars = 0

    def write(self, s):
        self.chars += len(s)
        return self.f.write(s)

    def __getattr__(self, name):
        return getattr(self.f, name)


class _CountingReader:
    """File proxy that counts the characters read by iterating over it."""

    def __init__(self, f):
        self.f = f
        self.chars = 0

    def __iter__(self):
        for line in self.f:
            self.chars += len(line)
            yield line


class Tracer:
    def __init__(self):
        self.spans = []
        self.wrapped = set()
        self.absent = []
        self._patched = []
        self._local = threading.local()

    # -- span recording -------------------------------------------------

    def _open(self, name, layer):
        stack = self._local.__dict__.setdefault("stack", [])
        idx = len(self.spans)
        self.spans.append([name, layer, time.perf_counter(), None,
                           stack[-1] if stack else -1, None])
        stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self._local.stack.pop()

    def _traced_observe(self, cb):
        layer = cb.__module__.rsplit(".", 1)[-1]

        def observe(*args, **kwargs):
            idx = self._open(f"{layer}.observe", layer)
            try:
                return cb(*args, **kwargs)
            finally:
                self._close(idx)

        return observe

    def _wrap(self, layer, name, fn):
        sig = inspect.signature(fn)
        params = sig.parameters
        bind = ("observe" in params or "increments" in params
                or (layer == "model" and name.endswith("_csv"))
                or (layer == "cli" and name == "main"))
        full = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name, extra, proxy = full, None, None
            if bind:
                bound = sig.bind(*args, **kwargs)
                a = bound.arguments
                if callable(a.get("observe")):
                    a["observe"] = self._traced_observe(a["observe"])
                if "increments" in a:
                    inc = np.asarray(a["increments"])
                    extra = {"steps": inc.size, "bytes": inc.nbytes}
                if layer == "model" and "f" in a:
                    cls = (_CountingWriter if name.endswith("to_csv")
                           else _CountingReader)
                    proxy = a["f"] = cls(a["f"])
                if layer == "cli":
                    argv = a.get("argv") or sys.argv[1:]
                    span_name = f"cli.{argv[0]}" if argv else full
                args, kwargs = bound.args, bound.kwargs
            idx = self._open(span_name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.spans[idx][5] = _extra(layer, result, extra, proxy)
            return result

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every public layer function at each lookup site."""
        package = [m for k, m in list(sys.modules.items())
                   if k == "whittaker2d" or k.startswith("whittaker2d.")]
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"whittaker2d.{layer}")
            except ImportError:
                continue
            names = ["main"] if layer == "cli" else getattr(
                mod, "__all__", [n for n in vars(mod) if not n.startswith("_")])
            for name in names:
                fn = getattr(mod, name, None)
                if not (inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    continue
                wrapper = self._wrap(layer, name, fn)
                self.wrapped.add(f"{layer}.{name}")
                for m in package:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, fn))
        self.absent = [n for n in EXPECTED if n not in self.wrapped]

    def uninstall(self):
        for m, attr, fn in reversed(self._patched):
            setattr(m, attr, fn)
        self._patched.clear()


def _extra(layer, result, extra, proxy):
    """Work counts of one call, read from its arguments and result."""
    extra = dict(extra or {})
    if proxy is not None:
        extra["csv_bytes"] = proxy.chars
    if layer == "noise":
        arr = getattr(result, "increments", result)
        if isinstance(arr, np.ndarray):
            extra["normals"] = arr.size
            extra["bytes"] = arr.nbytes
    elif layer == "sde" and "steps" in extra:
        if isinstance(result, np.ndarray) and result.dtype.kind in "iu":
            extra["clamps"] = int(result.sum())
            extra["clamped"] = int(np.count_nonzero(result))
            extra["replicates"] = result.size
    elif layer == "mc":
        items = result if isinstance(result, list) else [result]
        reps = sum(getattr(r, "n_samples", 0) for r in items)
        if reps:
            extra["replicates"] = reps
        if hasattr(result, "hits"):
            extra["hits"] = result.hits
    elif layer == "varopt" and hasattr(result, "iterations"):
        extra["iterations"] = result.iterations
    return extra or None


def layer_metrics(spans):
    """Per-layer metrics of one traced pass, from its spans."""
    n = len(spans)
    dur = np.array([s[3] - s[2] for s in spans]) if n else np.zeros(0)
    child = np.zeros(n)
    for s, d in zip(spans, dur):
        if s[4] >= 0:
            child[s[4]] += d
    self_t = dur - child
    names = [s[0] for s in spans]
    layers = [s[1] for s in spans]
    extras = [s[5] or {} for s in spans]

    def where(pred):
        return [i for i in range(n) if pred(i)]

    def total(idx, arr):
        return float(sum(arr[i] for i in idx))

    def count(idx, key):
        return sum(extras[i].get(key, 0) for i in idx)

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    def calls_of(layer):
        return where(lambda i: layers[i] == layer
                     and not names[i].endswith(".observe"))

    m = {}
    for layer in ("noise", "sde", "rate", "varopt", "skorokhod"):
        idx = where(lambda i: layers[i] == layer)
        m[f"{layer}.busy_s"] = total(idx, self_t)
        m[f"{layer}.calls"] = len(calls_of(layer))

    noise = calls_of("noise")
    m["noise.normals"] = count(noise, "normals")
    m["noise.bytes_out"] = count(noise, "bytes")

    sde = calls_of("sde")
    m["sde.particle_steps"] = count(sde, "steps")
    m["sde.bytes_in"] = count(sde, "bytes")
    m["sde.clamp_events"] = count(sde, "clamps")
    m["sde.clamp_frac"] = per(count(sde, "clamped"),
                              count(sde, "replicates"), 1.0)
    for name in STEPPERS:
        idx = where(lambda i: names[i] == f"sde.{name}")
        m[f"sde.ns_per_particle_step.{name}"] = per(
            total(idx, self_t), count(idx, "steps"), 1e9)

    mc = calls_of("mc")
    observe = where(lambda i: names[i] == "mc.observe")
    smallball = where(lambda i: names[i] == "mc.smallball_probability")
    m["mc.self_s"] = total(mc, self_t)
    m["mc.observe_s"] = total(observe, dur)
    m["mc.observe_calls"] = len(observe)
    m["mc.replicates"] = count(mc, "replicates")
    m["mc.hits"] = count(smallball, "hits")
    m["mc.hit_ratio"] = per(count(smallball, "hits"),
                            count(smallball, "replicates"), 1.0)

    total_rate = where(lambda i: names[i] == "rate.total_rate")
    classify = where(lambda i: names[i] == "rate.classify")
    m["rate.total_rate_us"] = per(total(total_rate, dur), len(total_rate), 1e6)
    m["rate.classify_calls"] = len(classify)

    def under_varopt(i):
        i = spans[i][4]
        while i >= 0:
            if layers[i] == "varopt":
                return True
            i = spans[i][4]
        return False

    m["varopt.iterations"] = count(calls_of("varopt"), "iterations")
    m["varopt.classify_calls"] = sum(1 for i in classify if under_varopt(i))

    reflect = where(lambda i: names[i] in ("skorokhod.reflect_above",
                                           "skorokhod.reflect_below"))
    m["skorokhod.us_per_reflect"] = per(total(reflect, dur), len(reflect), 1e6)

    csv = where(lambda i: layers[i] == "model" and names[i].endswith("_csv"))
    m["model.csv_s"] = total(csv, dur)
    m["model.csv_bytes"] = count(csv, "csv_bytes")

    for cmd in CLI_COMMANDS:
        idx = where(lambda i: names[i] == f"cli.{cmd}")
        m[f"cli.{cmd}_ms"] = total(idx, dur) * 1e3
    m["cli.self_s"] = total(where(lambda i: layers[i] == "cli"), self_t)
    return m


def write_spans(path, spans):
    """Spans as JSON: one [name, start, end, parent] row per span."""
    t0 = spans[0][2] if spans else 0.0
    rows = [[s[0], round(s[2] - t0, 9), round(s[3] - t0, 9), s[4]]
            for s in spans]
    with open(path, "w") as f:
        json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                   "spans": rows}, f, separators=(",", ":"))
