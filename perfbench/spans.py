"""Span tracing of riscomp's layer boundaries, from outside the package.

`Tracer.install()` replaces every public function (and public method of a
class) defined in the layer modules with a wrapper that records one span:
(name, start_ns, end_ns, parent index). The wrapper is installed under every
name a caller can look the function up by: each riscomp module attribute
that holds the original object is rebound, so `riscomp.stats.betainc_reg`
is traced as well as `riscomp.special.betainc_reg`. `uninstall()` restores
the originals. Nothing inside `src/` is changed.

A few wrappers also record counts at the same boundary (trial counts, rows,
bytes handed to a kernel, the multicell draw log); `layer_metrics` turns one
repetition's spans and counts into the per-layer metrics.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import os
import statistics
import sys
import time

LAYERS = ("config", "experiments", "energy", "channel", "kernels", "montecarlo",
          "analysis", "stats", "special", "quadrature", "aerial", "moppo")

# Private functions that are layer boundaries all the same.
EXTRA = {"experiments": ("_write_csv",)}

# Substream labels of the package's documented counter scheme: coordinated
# trials, multicell trials, aerial env episodes and the PPO agent.
SUBSTREAM_LABELS = (101, 301, 501, 601)

_FUNC = {  # per-function metrics: name -> stats reported
    "energy.simulate_network": ("calls", "s", "self_s"),
    "kernels.multicell_edge_sinr": ("calls", "s"),
    "kernels.coordinated_sinr": ("calls", "s"),
    "montecarlo.run_trials": ("calls", "s", "self_s"),
    "montecarlo.ks_statistic": ("calls", "s"),
    "special.betainc_reg": ("calls", "s"),
    "special.gammainc_lower_reg": ("calls", "s"),
    "analysis.coordinated_distributions": ("calls", "s"),
    "stats.ergodic_rate": ("calls", "s"),
    "quadrature.integrate": ("calls", "s"),
    "aerial.ArisEnv.step": ("calls", "s"),
    "aerial.ArisEnv.reset": ("calls", "s"),
    "moppo.forward": ("calls", "s"),
    "moppo.update": ("calls", "s", "self_s"),
    "moppo.sample_action": ("s",),
    "config.from_mapping": ("s",),
    "experiments.run_experiment": ("s",),
}

_COUNTS = {  # counts recorded by wrapper hooks -> unit
    "energy.simulate_network.trials": "count",
    "kernels.multicell_edge_sinr.bytes_in": "B_computed",
    "kernels.coordinated_sinr.bytes_in": "B_computed",
    "montecarlo.run_trials.trials": "count",
    "montecarlo.ks_statistic.samples": "count",
    "moppo.forward.rows": "count",
    "experiments.csv.bytes": "B",
    **{f"channel.substream.calls.{label}": "count" for label in SUBSTREAM_LABELS},
}

_UNIT = {"calls": "count", "s": "s", "self_s": "s"}


def _metric_units() -> dict[str, str]:
    units = {}
    for name, stats in _FUNC.items():
        for stat in stats:
            units[f"{name}.{stat}"] = _UNIT[stat]
    units.update(_COUNTS)
    units["energy.draws_per_distinct_chunk"] = "ratio"
    units["moppo.epochs_run_frac"] = "ratio"
    units["experiments.csv.write_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    return units


# Every per-layer metric the traced run reports, with its unit. The run adds
# the trace.* and check.* metrics of run.py to these.
LAYER_METRICS = _metric_units()
TIMED = {name for name, unit in LAYER_METRICS.items() if unit == "s"}


def self_times(spans) -> list[float]:
    """Self time of each span in seconds: its duration minus the durations of
    the spans whose parent it is. spans: sequence of (name, start_ns, end_ns,
    parent index or -1)."""
    out = [(end - start) * 1e-9 for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= (end - start) * 1e-9
    return out


def draws_per_distinct_chunk(draw_log) -> float:
    """Multicell substream draws per distinct (seed, chunk, K) key; 1.0 means
    every chunk was drawn once, 0.0 that there were no draws."""
    if not draw_log:
        return 0.0
    return len(draw_log) / len(set(draw_log))


def coverage(spans, t0_ns: int, t1_ns: int) -> float:
    """Share of [t0, t1] covered by top-level spans (parent -1)."""
    covered = sum(
        max(0, min(end, t1_ns) - max(start, t0_ns))
        for _, start, end, parent in spans if parent < 0
    )
    return covered / (t1_ns - t0_ns)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _nbytes(args) -> int:
    return sum(getattr(a, "nbytes", 0) for a in args)


class Tracer:
    """Spans and counts of one traced repetition: from `install()`, which
    starts with empty records, to `uninstall()`."""

    def __init__(self):
        self._saved = []
        self._reset()

    def _reset(self):
        self.spans = []
        self.counts = collections.Counter()
        self.draw_log = []      # (seed, chunk, K) per multicell substream draw
        self._pending = []      # multicell draws not yet tagged with their K
        self._stack = []

    # --- hooks: called after the wrapped function returns ------------------
    def _hook(self, name):
        c = self.counts
        if name == "channel.substream":
            def hook(args, kwargs, result):
                key = args[1:]
                if key and key[0] in SUBSTREAM_LABELS:
                    c[f"channel.substream.calls.{key[0]}"] += 1
                if key and key[0] == self._multicell_label:
                    self._pending.append((args[0], key[1:]))
            return hook
        if name == "energy.simulate_network":
            def hook(args, kwargs, result):
                scn = args[0]
                n = _arg(args, kwargs, 2, "n")
                c["energy.simulate_network.trials"] += scn.n_trials if n is None else n
                self.draw_log.extend((s, ch, scn.k_elements) for s, ch in self._pending)
                self._pending.clear()
            return hook
        if name in ("kernels.multicell_edge_sinr", "kernels.coordinated_sinr"):
            def hook(args, kwargs, result):
                c[f"{name}.bytes_in"] += _nbytes(args)
            return hook
        if name == "montecarlo.run_trials":
            def hook(args, kwargs, result):
                c["montecarlo.run_trials.trials"] += _arg(args, kwargs, 1, "n")
            return hook
        if name == "montecarlo.ks_statistic":
            def hook(args, kwargs, result):
                c["montecarlo.ks_statistic.samples"] += len(args[0])
            return hook
        if name == "moppo.forward":
            def hook(args, kwargs, result):
                rows = result[0].shape[0]
                c["moppo.forward.rows"] += rows
                # train itself calls forward for B=1 rollout steps and once
                # per epoch, on the whole buffer, for the approximate-KL stop.
                parent = self._stack[-1] if self._stack else -1
                if rows > 1 and parent >= 0 and self.spans[parent][0] == "moppo.train":
                    c["moppo.epochs_run"] += 1
            return hook
        if name == "moppo.train":
            def hook(args, kwargs, result):
                cfg = result.config
                c["moppo.epochs_configured"] += (
                    cfg.epochs * (cfg.episodes // cfg.episodes_per_update))
            return hook
        if name == "experiments._write_csv":
            def hook(args, kwargs, result):
                c["experiments.csv.bytes"] += os.path.getsize(args[0])
            return hook
        return None

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = self._hook(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # --- install / uninstall ------------------------------------------------
    def install(self):
        """Wrap every layer boundary, recording into fresh span and count
        records; call `uninstall()` before installing again."""
        self._reset()
        self._multicell_label = importlib.import_module("riscomp.energy")._STREAM_MC
        modules = [importlib.import_module(f"riscomp.{layer}") for layer in LAYERS]
        modules += [m for n, m in sorted(sys.modules.items())
                    if (n == "riscomp" or n.startswith("riscomp.")) and m not in modules]
        for layer in LAYERS:
            mod = importlib.import_module(f"riscomp.{layer}")
            for attr, obj in list(vars(mod).items()):
                public = not attr.startswith("_") or attr in EXTRA.get(layer, ())
                if not public or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    for m in modules:
                        for a, v in list(vars(m).items()):
                            if v is obj:
                                self._rebind(m, a, obj, wrapper)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            wrapper = self._wrap(f"{layer}.{attr}.{meth}", fn)
                            self._rebind(obj, meth, fn, wrapper)
        return self

    def _rebind(self, owner, attr, original, wrapper):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (see LAYER_METRICS)."""
    selfs = self_times(tracer.spans)
    calls = collections.Counter()
    incl = collections.Counter()
    own = collections.Counter()
    for (name, start, end, _), self_s in zip(tracer.spans, selfs):
        calls[name] += 1
        incl[name] += (end - start) * 1e-9
        own[name] += self_s
    out = {}
    for name, stats in _FUNC.items():
        for stat in stats:
            out[f"{name}.{stat}"] = {"calls": calls, "s": incl, "self_s": own}[stat][name]
    for name in _COUNTS:
        out[name] = tracer.counts[name]
    out["energy.draws_per_distinct_chunk"] = draws_per_distinct_chunk(tracer.draw_log)
    configured = tracer.counts["moppo.epochs_configured"]
    out["moppo.epochs_run_frac"] = (
        tracer.counts["moppo.epochs_run"] / configured if configured else 0.0)
    out["experiments.csv.write_s"] = incl["experiments._write_csv"]
    for layer in LAYERS:
        prefix = layer + "."
        out[f"{layer}.calls"] = sum(v for k, v in calls.items() if k.startswith(prefix))
        out[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.startswith(prefix))
    return out


def combine(per_rep: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each timed metric over repetitions; every other metric must
    repeat exactly. Returns (metrics, names of metrics that did not repeat)."""
    out, unsteady = {}, []
    for name in per_rep[0]:
        values = [rep[name] for rep in per_rep]
        if name in TIMED:
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(name)
    return out, unsteady
