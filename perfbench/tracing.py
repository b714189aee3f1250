"""Per-layer spans recorded from outside the library.

The tracer wraps public functions of the seven ``blochbounds`` modules. A
wrapper replaces every module attribute that refers to the original
function, so it sits wherever a caller looks the name up: a call to
``all_tensors`` from ``bounds`` and one from ``cli`` are both seen. The
wrappers exist only while a traced pass runs; untraced passes call the
library unmodified.

A span is (name, start, end, parent span, op id, tag, amount). Spans stay
in memory and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import time
from pathlib import Path

import numpy as np

from workloads import ANALYZE_GRID, ROOF_GRID

LAYERS = ("linalg", "generators", "tensors", "bounds", "states", "cli",
          "selfcheck")

TRACED = {
    "linalg": ("partial_trace", "validate_density"),
    "generators": ("su_generators", "apply_local_unitaries"),
    "tensors": ("all_tensors",),
    "bounds": ("analyze", "reduced_purity_sum", "convex_roof_upper_estimate",
               "pure_concurrence_purity"),
    "states": ("make_state", "haar_unitary", "threshold_scan"),
    "cli": ("main",),
    "selfcheck": ("run_verification",),
}

COUNT = "count/pass"
SECONDS = "s/pass"


def _tag(n, d):
    return f"n{n}d{d}"


def _per_layer_spec():
    # (name, unit, better); counts and busy times are per pass over the
    # workload's input list, so counts repeat exactly from run to run
    spec = [
        ("tensors.all_tensors.calls", COUNT, "lower"),
        ("tensors.all_tensors.busy_s", SECONDS, "lower"),
        ("tensors.entries", COUNT, "lower"),
        ("tensors.entries_per_s", "1/s", "higher"),
    ]
    spec += [(f"tensors.all_tensors.ms.{_tag(n, d)}", "ms", "lower")
             for n, d in ANALYZE_GRID]
    spec += [
        ("bounds.analyze.calls", COUNT, "lower"),
        ("bounds.analyze.busy_s", SECONDS, "lower"),
        ("bounds.analyze.self_s", SECONDS, "lower"),
        ("bounds.reduced_purity_sum.calls", COUNT, "lower"),
        ("bounds.reduced_purity_sum.busy_s", SECONDS, "lower"),
        ("bounds.convex_roof_upper_estimate.calls", COUNT, "lower"),
        ("bounds.convex_roof_upper_estimate.busy_s", SECONDS, "lower"),
        ("bounds.pure_concurrence_purity.calls", COUNT, "lower"),
        ("bounds.pure_concurrence_purity.busy_s", SECONDS, "lower"),
        ("bounds.roof.samples", COUNT, "lower"),
    ]
    spec += [(f"bounds.roof.ms_per_sample.{_tag(n, d)}", "ms", "lower")
             for n, d in ROOF_GRID]
    spec += [
        ("bounds.roof.gap", "1", "lower"),
        ("linalg.partial_trace.calls", COUNT, "lower"),
        ("linalg.partial_trace.busy_s", SECONDS, "lower"),
        ("linalg.validate_density.calls", COUNT, "lower"),
        ("linalg.validate_density.busy_s", SECONDS, "lower"),
        ("linalg.errors", COUNT, "lower"),
        ("generators.su_generators.calls", COUNT, "lower"),
        ("generators.su_generators.busy_s", SECONDS, "lower"),
        ("generators.apply_local_unitaries.calls", COUNT, "lower"),
        ("generators.apply_local_unitaries.busy_s", SECONDS, "lower"),
        ("states.make_state.calls", COUNT, "lower"),
        ("states.make_state.busy_s", SECONDS, "lower"),
        ("states.haar_unitary.calls", COUNT, "lower"),
        ("states.haar_unitary.busy_s", SECONDS, "lower"),
        ("states.threshold_scan.busy_s", SECONDS, "lower"),
        ("states.threshold_scan.iterations", COUNT, "lower"),
        ("cli.main.calls", COUNT, "lower"),
        ("cli.main.busy_s", SECONDS, "lower"),
        ("cli.main.self_s", SECONDS, "lower"),
        ("cli.bytes_in", "B/pass", "lower"),
        ("cli.bytes_out", "B/pass", "lower"),
        ("cli.exit_nonzero", COUNT, "lower"),
        ("selfcheck.run_verification.calls", COUNT, "lower"),
        ("selfcheck.run_verification.busy_s", SECONDS, "lower"),
    ]
    spec += [(f"layer.{layer}.self_s", SECONDS, "lower") for layer in LAYERS]
    spec.append(("trace.overhead", "ratio", "lower"))
    return tuple(spec)


PER_LAYER = _per_layer_spec()


def _tensor_note(args, kwargs, result):
    ctx = args[0].ctx
    return (_tag(ctx.n_parties, ctx.local_dim),
            ctx.local_dim ** (2 * ctx.n_parties) - 1)


def _roof_note(args, kwargs, result):
    ctx = args[0].ctx
    samples = args[1] if len(args) > 1 else kwargs.get("n_samples", 200)
    return _tag(ctx.n_parties, ctx.local_dim), samples


def _scan_note(args, kwargs, result):
    return None, result.iterations


# what a span records besides its timing: a tag and an amount of work
NOTES = {
    "tensors.all_tensors": _tensor_note,
    "bounds.convex_roof_upper_estimate": _roof_note,
    "states.threshold_scan": _scan_note,
}


class Tracer:
    """Installs span-recording wrappers and turns spans into metrics."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.names = [f"{layer}.{fn}" for layer, fns in TRACED.items()
                      for fn in fns]
        self.spans = []
        self.stack = []
        self.errors = {}
        self.op_id = 0
        self._patches = []

    def _wrap(self, name_id, name, fn):
        note = NOTES.get(name)
        spans, stack, errors = self.spans, self.stack, self.errors
        validation_error = self.modules["linalg"].ValidationError
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1,
                    self.op_id, None, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except validation_error:
                errors[name] = errors.get(name, 0) + 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5], span[6] = note(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Point every reference to a traced function at its wrapper."""
        for name_id, name in enumerate(self.names):
            layer, fn_name = name.split(".")
            original = getattr(self.modules[layer], fn_name)
            wrapper = self._wrap(name_id, name, original)
            for module in self.modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def metrics(self, passes: int, roof_gap: float, factors: list) -> dict:
        """Every per-layer metric; per-pass values divide by ``passes``.

        ``factors[k]`` is the speed factor of op ``k + 1``; each span's
        duration is scaled by its op's factor, so per-layer times are on
        the same scale as the end-to-end ones.
        """
        names = self.names
        n_spans = len(self.spans)
        dur = np.empty(n_spans)
        child = np.zeros(n_spans)
        calls = {name: 0 for name in names}
        busy = {name: 0.0 for name in names}
        self_s = {name: 0.0 for name in names}
        tagged = {}
        amount = {name: 0 for name in names}
        for i, (name_id, start, end, parent, op, tag, work) in enumerate(self.spans):
            dur[i] = (end - start) * factors[op - 1]
            if parent >= 0:
                child[parent] += dur[i]
            name = names[name_id]
            calls[name] += 1
            busy[name] += dur[i]
            if work is not None:
                amount[name] += work
            if tag is not None:
                per = dur[i] / work if name == "bounds.convex_roof_upper_estimate" \
                    else dur[i]
                tagged.setdefault((name, tag), []).append(per * 1e3)
        for i, span in enumerate(self.spans):
            self_s[names[span[0]]] += dur[i] - child[i]

        def median_ms(name, tag):
            values = tagged.get((name, tag))
            return statistics.median(values) if values else 0.0

        out = {}
        for layer, fns in TRACED.items():
            for fn in fns:
                name = f"{layer}.{fn}"
                out[f"{name}.calls"] = calls[name] / passes
                out[f"{name}.busy_s"] = busy[name] / passes
                out[f"{name}.self_s"] = self_s[name] / passes
            out[f"layer.{layer}.self_s"] = sum(
                self_s[f"{layer}.{fn}"] for fn in fns) / passes
        tensors = "tensors.all_tensors"
        out["tensors.entries"] = amount[tensors] / passes
        out["tensors.entries_per_s"] = (amount[tensors] / busy[tensors]
                                        if busy[tensors] else 0.0)
        for n, d in ANALYZE_GRID:
            out[f"{tensors}.ms.{_tag(n, d)}"] = median_ms(tensors, _tag(n, d))
        roof = "bounds.convex_roof_upper_estimate"
        out["bounds.roof.samples"] = amount[roof] / passes
        for n, d in ROOF_GRID:
            out[f"bounds.roof.ms_per_sample.{_tag(n, d)}"] = median_ms(roof, _tag(n, d))
        out["bounds.roof.gap"] = roof_gap
        out["linalg.errors"] = sum(v for k, v in self.errors.items()
                                   if k.startswith("linalg.")) / passes
        out["states.threshold_scan.iterations"] = \
            amount["states.threshold_scan"] / passes
        return out

    def save(self, path: Path):
        """Write the spans as columns of one compressed archive."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tags = sorted({s[5] for s in self.spans if s[5] is not None})
        tag_ids = {t: i for i, t in enumerate(tags)}
        np.savez_compressed(
            path,
            names=np.array(self.names),
            tags=np.array(tags),
            name=np.array([s[0] for s in self.spans], dtype=np.int16),
            start=np.array([s[1] for s in self.spans]),
            end=np.array([s[2] for s in self.spans]),
            parent=np.array([s[3] for s in self.spans], dtype=np.int64),
            op=np.array([s[4] for s in self.spans], dtype=np.int64),
            tag=np.array([tag_ids.get(s[5], -1) for s in self.spans],
                         dtype=np.int16),
        )
