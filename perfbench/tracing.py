"""In-memory span tracer that instruments spde_pv from outside the package.

Wrappers are installed on the module attributes that the calling code looks up at
call time (for example `harness.iter_additive_states`), so the program under test is
unchanged; `Tracer.restore` puts every original back.  Each wrapped call opens a span
with a parent (the innermost open span), a start, an end, its busy time and its self
time (busy time minus the time of the child spans it caused).  Spans stay in memory
until `Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from collections import Counter

SIMULATOR_LEVELS = (8, 9, 10, 11, 12)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # open frames: [span, start, child_seconds]
        self._aggregated: dict = {}
        self._patched: list = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str, attrs: dict | None = None, span: dict | None = None, aggregate: bool = False):
        parent = self._stack[-1][0]["id"] if self._stack else None
        if span is None and aggregate:
            span = self._aggregated.get((name, parent))
        if span is None:
            span = {"id": len(self.spans), "name": name, "parent": parent, "start": None, "end": None,
                    "busy": 0.0, "self": 0.0, "calls": 0, **(attrs or {})}
            self.spans.append(span)
            if aggregate:
                self._aggregated[(name, parent)] = span
        frame = [span, time.perf_counter(), 0.0]
        if span["start"] is None:
            span["start"] = frame[1]
        self._stack.append(frame)
        return frame

    def _exit(self, frame) -> dict:
        end = time.perf_counter()
        if self._stack.pop() is not frame:
            raise RuntimeError("span stack out of order")
        span, start, child = frame
        duration = end - start
        span["end"] = end
        span["busy"] += duration
        span["self"] += duration - child
        span["calls"] += 1
        if self._stack:
            self._stack[-1][2] += duration
        return span

    def call(self, name: str, fn, *args, **kwargs):
        """Run `fn(*args, **kwargs)` inside one span."""
        frame = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame)

    # -- wrapper factories -----------------------------------------------------

    def timed(self, name: str, attrs=None, aggregate: bool = False):
        """Wrapper factory: one span per call (or one per parent when `aggregate`).

        `attrs(arguments)` receives the call's bound arguments by parameter name and
        returns extra span fields such as the mesh level or a sample count.
        """

        def wrap(fn):
            sig = inspect.signature(fn) if attrs else None

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                extra = None
                if sig is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    extra = attrs(bound.arguments)
                frame = self._enter(name, extra, aggregate=aggregate)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._exit(frame)

            return wrapper

        return wrap

    def generator(self, name: str, attrs):
        """Wrapper factory for generator functions: the busy time of every `next()` is
        summed into one span per generator, which also counts the items yielded."""

        def wrap(fn):
            sig = inspect.signature(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                extra = {**attrs(bound.arguments), "items": 0}
                inner = fn(*args, **kwargs)

                def traced():
                    span = None
                    while True:
                        frame = self._enter(name, extra, span)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            span = self._exit(frame)
                        span["items"] += 1
                        yield item

                return traced()

            return wrapper

        return wrap

    def counted(self, key: str, fn):
        """Count calls of `fn` without timing them (for per-sample callbacks)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.counted_as = key
        return wrapper

    # -- patching ---------------------------------------------------------------

    def patch(self, owner, attr: str, wrap) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        payload = {"spans": self.spans, "counts": dict(self.counts)}
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _level(delta: float) -> int:
    return int(round(-math.log2(delta)))


def instrument(tracer: Tracer) -> None:
    """Wrap the public spde_pv functions at the bindings the package itself calls."""
    from spde_pv import cli, harness, limits, simulator, variations

    t = tracer
    # simulator: one span per additive path (tagged with its mesh level), one per bulk draw
    t.patch(harness, "iter_additive_states", t.generator(
        "simulator.iter_additive_states",
        lambda a: {"level": _level(a["config"].delta), "modes": a["config"].modes}))
    t.patch(harness, "sample_additive_increments", t.timed(
        "simulator.sample_additive_increments",
        lambda a: {"level": _level(a["config"].delta), "modes": a["config"].modes, "count": a["count"]}))
    # harness entry points and target computation
    replicates = lambda a: {"replicates": a["spec"].replicates * len(a["spec"].delta_grid)}
    t.patch(harness, "run_convergence", t.timed("harness.run_convergence", replicates))
    t.patch(harness, "estimate_holder", t.timed("harness.estimate_holder", replicates))
    t.patch(harness, "theoretical_limit_rate", t.timed("harness.theoretical_limit_rate"))

    # limits: the Gaussian-functional sampler, whose functional calls are counted ...
    def sampler(fn):
        timed = t.timed("limits.mu_rF_estimate", lambda a: {"samples": a["samples"]})(fn)

        @functools.wraps(fn)
        def wrapper(F, *args, **kwargs):
            key = "limits.functional_calls"
            return timed(F if getattr(F, "counted_as", None) == key else t.counted(key, F), *args, **kwargs)

        return wrapper

    t.patch(harness, "mu_rF_estimate", sampler)

    # ... and the closed-form constants (the limit process returns a closure)
    def limit_process(fn):
        timed = t.timed("limits.limit_process_general_sigma")(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return t.timed("limits.limit_process")(timed(*args, **kwargs))

        return wrapper

    t.patch(harness, "limit_process_general_sigma", limit_process)
    for name in ("limit_constant_even_power", "k_r"):
        t.patch(harness, name, t.timed(f"limits.{name}"))
    t.patch(cli, "holder_exponent", t.timed("limits.holder_exponent"))
    t.patch(variations, "tau_n", t.timed("limits.tau_n"))
    # variations: series assembly and point evaluation
    elems = lambda key: (lambda a: {"elems": len(a[key])})
    t.patch(harness, "series_from_norms", t.timed("variations.series_from_norms", elems("norms")))
    t.patch(harness, "series_from_values", t.timed("variations.series_from_values", elems("values")))
    t.patch(harness, "resolve_normalizer", t.timed("variations.resolve_normalizer"))
    t.patch(variations.VariationSeries, "value_at", t.timed("variations.value_at", aggregate=True))
    # spectrum and combinatorics, wherever the package calls them
    for module in (harness, simulator, limits):
        t.patch(module, "eigenvalues", t.timed("spectrum.eigenvalues"))
    zeta = lambda a: {"terms": a["truncation"]}
    for module in (harness, limits):
        t.patch(module, "spectral_zeta", t.timed("spectrum.spectral_zeta", zeta))
    t.patch(limits, "complete_bell", t.timed("combinatorics.complete_bell"))


def layer_metrics(tracer: Tracer, body_seconds: float) -> dict[str, float]:
    """Per-layer counts and busy (self) times from the spans of one traced body."""
    spans = tracer.spans

    def total(field, pred):
        return float(sum(s[field] for s in spans if pred(s)))

    def layer(name):
        return lambda s: s["name"].split(".", 1)[0] == name

    def named(name):
        return lambda s: s["name"] == name

    sim = layer("simulator")
    normals = sum(s["modes"] * (s["items"] if "items" in s else s["count"]) for s in spans if sim(s))
    sim_busy = total("self", sim)
    replicates = total("replicates", lambda s: "replicates" in s)
    harness_self = total("self", layer("harness"))
    samples = total("samples", named("limits.mu_rF_estimate"))
    mu_busy = total("self", named("limits.mu_rF_estimate"))
    out = {
        "simulator.busy_s": sim_busy,
        "simulator.steps": total("items", named("simulator.iter_additive_states")),
        "simulator.normals": float(normals),
        "simulator.ns_per_normal": 1e9 * sim_busy / normals if normals else 0.0,
    }
    for lv in SIMULATOR_LEVELS:
        out[f"simulator.level{lv}.busy_s"] = total("self", lambda s, lv=lv: sim(s) and s["level"] == lv)
    out.update({
        "simulator.increments.busy_s": total("self", named("simulator.sample_additive_increments")),
        "harness.self_s": harness_self,
        "harness.self_s_per_replicate": harness_self / replicates if replicates else 0.0,
        "harness.targets_s": total("busy", named("harness.theoretical_limit_rate")),
        "harness.replicates": replicates,
        "limits.mu_rF.busy_s": mu_busy,
        "limits.mu_rF.samples": samples,
        "limits.mu_rF.ns_per_sample": 1e9 * mu_busy / samples if samples else 0.0,
        "limits.functional_calls": float(tracer.counts["limits.functional_calls"]),
        "limits.closed_form.busy_s": total("self", lambda s: layer("limits")(s) and s["name"] != "limits.mu_rF_estimate"),
        "variations.busy_s": total("self", layer("variations")),
        "variations.series_elems": total("elems", lambda s: "elems" in s),
        "variations.value_at_calls": total("calls", named("variations.value_at")),
        "spectrum.busy_s": total("self", layer("spectrum")),
        "spectrum.calls": total("calls", layer("spectrum")),
        "spectrum.zeta_terms": total("terms", named("spectrum.spectral_zeta")),
        "combinatorics.busy_s": total("self", layer("combinatorics")),
        "combinatorics.calls": total("calls", layer("combinatorics")),
        "cli.self_s": total("self", layer("cli")),
        "trace.coverage": total("busy", lambda s: s["parent"] is None) / body_seconds,
    })
    return out
