"""In-memory span recorder that wraps rigidlab's layer entry points from
outside the package.

A span records name, start, end and parent.  A layer's self time is the sum
of its spans' durations minus the durations of their direct children.  A call
made while the innermost open span already carries the same name (a layer
calling itself) is folded into that span, so spans mark layer boundaries.

Names are wrapped wherever they are bound: ``demos`` imports
``build_measure_for_group``, ``fourier_coefficient``, ``fs_tail`` and
``skew_correlation`` by name, so every ``rigidlab`` module (and the package
namespace) that holds the original function gets the wrapper.  A target
absent from the program is reported as missing, never as a crash.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from time import perf_counter

# Layers measured as a whole: every public module-level function is an entry
# point.  Class methods (CircleSet, Lattice) are not wrapped, so their time
# stays with the calling layer.
WHOLE_LAYERS = ("lattice", "families", "deciders", "haar", "circleset", "behrend", "gaussians")

NOT_APPLICABLE = {
    "wait_s": "rigidlab is single-threaded and has no queues: no layer waits for another",
    "retries": "no layer retries an operation",
}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self.missing: dict[str, str] = {}  # target -> reason
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------
    def call(self, name, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else -1
        if parent >= 0 and self.spans[parent][0] == name:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent])
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            self.spans[idx][2] = perf_counter()

    def high(self, key: str, value) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    # -- wrapping -----------------------------------------------------------
    def _bind(self, original, wrapper) -> None:
        """Replace ``original`` by ``wrapper`` in every rigidlab namespace."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "rigidlab" or modname.startswith("rigidlab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _wrapper(self, original, span, before, after, failed):
        rec = self

        def wrapper(*args, **kwargs):
            name = before(args) if before else span
            try:
                result = rec.call(name, original, args, kwargs) if name else original(*args, **kwargs)
            except Exception as exc:
                if failed:
                    failed(exc)
                raise
            if after:
                after(args, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def wrap_function(self, module, attr: str, span: str | None, before=None, after=None,
                      failed=None) -> None:
        """Wrap ``module.attr`` wherever it is bound.  ``span`` None counts
        without opening a span; ``before(args)`` runs first and returns the
        span name instead, ``after(args, result)`` sees the result and
        ``failed(exc)`` an error."""
        original = getattr(module, attr, None)
        if not callable(original):
            target = f"{module.__name__}.{attr}"
            self.missing[target] = f"{target} is not defined in this version of rigidlab"
            return
        self._bind(original, self._wrapper(original, span, before, after, failed))

    def wrap_method(self, module, cls_name: str, attr: str, before) -> None:
        cls = getattr(module, cls_name, None)
        original = getattr(cls, attr, None) if cls is not None else None
        if not callable(original):
            target = f"{module.__name__}.{cls_name}.{attr}"
            self.missing[target] = f"{target} is not defined in this version of rigidlab"
            return
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, None, before, None, None))

    def wrap_layer(self, module, layer: str) -> None:
        entries = [
            name for name, fn in vars(module).items()
            if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ == module.__name__
        ]
        if not entries:
            self.missing[module.__name__] = f"{module.__name__} has no public functions"
        for name in entries:
            self.wrap_function(module, name, layer)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- summaries ----------------------------------------------------------
    def self_times(self) -> tuple[Counter, Counter]:
        """(self seconds, span count) per span name."""
        self_s, calls = Counter(), Counter()
        for name, start, end, _ in self.spans:
            self_s[name] += end - start
            calls[name] += 1
        for name, start, end, parent in self.spans:
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        return self_s, calls


def _is_structured(measure) -> bool:
    flag = getattr(measure, "is_structured", None)
    return flag if flag is not None else getattr(measure, "codes", None) is not None


def install(rec: Recorder) -> None:
    """Wrap every layer entry point of the imported rigidlab package."""
    import importlib

    mods = {}
    for name in ("cli", "demos", "measure", "skew", "schedule") + WHOLE_LAYERS:
        try:
            mods[name] = importlib.import_module(f"rigidlab.{name}")
        except ImportError as exc:
            rec.missing[f"rigidlab.{name}"] = f"module not importable: {exc}"
    c = rec.counts

    for layer in WHOLE_LAYERS:
        if layer in mods:
            rec.wrap_layer(mods[layer], layer)

    if "cli" in mods:
        rec.wrap_function(mods["cli"], "run", "cli")

    if "schedule" in mods:
        sch = mods["schedule"]
        exhausted = getattr(sys.modules.get("rigidlab.errors"), "SearchExhausted", ())

        def build(args, result):
            rec.high("schedule.depth_reached", getattr(result, "depth", 0))

        def build_failed(exc):
            if isinstance(exc, exhausted):
                c["schedule.search_exhausted"] += 1

        rec.wrap_function(sch, "build_schedule", "schedule.build", after=build, failed=build_failed)
        rec.wrap_function(sch, "check_schedule", "schedule.check")

    if "measure" in mods:
        ms = mods["measure"]

        def phases(args):
            m = args[0]
            if not _is_structured(m):
                c["measure.plain_phase_atoms"] += len(m.atoms)
                return None  # plain Fraction path stays in the caller's self time
            words, cols = m.codes.shape
            c["measure.phases_calls"] += 1
            c["measure.phase_gathers"] += words * cols
            # per gather: one code read, one category phase read, one
            # accumulator read and write; then one read and write for mod 1
            c["measure.phase_bytes_computed"] += words * cols * (m.codes.itemsize + 8 + 16) + words * 16
            return "measure.phases"

        def sampled(args, result):
            codes = getattr(result, "codes", None)
            if codes is not None:
                c["measure.distinct_words"] += codes.shape[0]
                rec.high("measure.columns", codes.shape[1])

        def fourier(args, result):
            c["measure.fourier_calls"] += 1

        rec.wrap_method(ms, "AtomicMeasure", "phases", before=phases)
        rec.wrap_function(ms, "sample_sigma", "measure.sample", after=sampled)
        rec.wrap_function(ms, "fourier_coefficient", None, after=fourier)
        rec.wrap_function(ms, "verify_dichotomy", "measure.dichotomy")
        rec.wrap_function(ms, "build_measure_for_group", "measure.build")

    if "skew" in mods:
        sk = mods["skew"]

        def intersection(args):
            base, B, shifts = args[:3]
            c["skew.intersection_calls"] += 1
            c["skew.atom_evals"] += len(base.codes) * len(shifts)
            if len(B.intervals) > 1:
                c["skew.multi_interval_calls"] += 1
            return "skew.intersection"

        rec.wrap_function(sk, "shifted_intersection_values", None, before=intersection)
        rec.wrap_function(sk, "skew_correlation", "skew.correlation")
        rec.wrap_function(sk, "fs_tail", "skew.fs_tail")

    if "demos" in mods:
        dm = mods["demos"]

        def scanned(args, result):
            c["demos.points_evaluated"] += len(result.points)

        def cutoff(args, result):
            k0, scans = result
            if k0 is not None:
                c["demos.points_reported"] += len(scans[k0].points)

        rec.wrap_function(dm, "scan_fs_tail", None, after=scanned)
        rec.wrap_function(dm, "smallest_passing_cutoff", "demos.scan", after=cutoff)
        for demo in ("cor65_demo", "cor66_demo", "cor67_demo"):
            rec.wrap_function(dm, demo, "demos.demo")


# metric -> (unit, wrapped targets it needs)
_PHASES = ("rigidlab.measure.AtomicMeasure.phases",)
LAYER_METRICS = {
    "demos.points_evaluated": ("count", ("rigidlab.demos.scan_fs_tail",)),
    "demos.points_reported": ("count", ("rigidlab.demos.smallest_passing_cutoff",)),
    "demos.useful_point_ratio": ("ratio", ("rigidlab.demos.scan_fs_tail", "rigidlab.demos.smallest_passing_cutoff")),
    "demos.scan_self_s": ("s", ("rigidlab.demos.smallest_passing_cutoff",)),
    "measure.phases_calls": ("count", _PHASES),
    "measure.phases_self_s": ("s", _PHASES),
    "measure.phase_gathers": ("count", _PHASES),
    "measure.phase_bytes_computed": ("bytes", _PHASES),
    "measure.sample_self_s": ("s", ("rigidlab.measure.sample_sigma",)),
    "measure.distinct_words": ("count", ("rigidlab.measure.sample_sigma",)),
    "measure.columns": ("count", ("rigidlab.measure.sample_sigma",)),
    "measure.plain_phase_atoms": ("count", _PHASES),
    "measure.fourier_calls": ("count", ("rigidlab.measure.fourier_coefficient",)),
    "measure.dichotomy_self_s": ("s", ("rigidlab.measure.verify_dichotomy",)),
    "skew.intersection_calls": ("count", ("rigidlab.skew.shifted_intersection_values",)),
    "skew.intersection_self_s": ("s", ("rigidlab.skew.shifted_intersection_values",)),
    "skew.atom_evals": ("count", ("rigidlab.skew.shifted_intersection_values",)),
    "skew.multi_interval_calls": ("count", ("rigidlab.skew.shifted_intersection_values",)),
    "schedule.build_calls": ("count", ("rigidlab.schedule.build_schedule",)),
    "schedule.build_self_s": ("s", ("rigidlab.schedule.build_schedule",)),
    "schedule.check_self_s": ("s", ("rigidlab.schedule.check_schedule",)),
    "schedule.depth_reached": ("count", ("rigidlab.schedule.build_schedule",)),
    "schedule.search_exhausted": ("count", ("rigidlab.schedule.build_schedule",)),
    **{
        f"{layer}.{kind}": (unit, (f"rigidlab.{layer}",))
        for layer in WHOLE_LAYERS
        for kind, unit in (("calls", "count"), ("self_s", "s"))
    },
    "cli.calls": ("count", ("rigidlab.cli.run",)),
    "cli.self_s": ("s", ("rigidlab.cli.run",)),
    "cli.bytes_written": ("bytes", ()),
    "trace.wall_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
}

_SPAN_OF = {
    "demos.scan_self_s": "demos.scan",
    "measure.phases_self_s": "measure.phases",
    "measure.sample_self_s": "measure.sample",
    "measure.dichotomy_self_s": "measure.dichotomy",
    "skew.intersection_self_s": "skew.intersection",
    "schedule.build_self_s": "schedule.build",
    "schedule.check_self_s": "schedule.check",
    "cli.self_s": "cli",
    **{f"{layer}.self_s": layer for layer in WHOLE_LAYERS},
}
_CALLS_OF = {"schedule.build_calls": "schedule.build", "cli.calls": "cli",
             **{f"{layer}.calls": layer for layer in WHOLE_LAYERS}}


def layer_metrics(rec: Recorder, extra: dict) -> tuple[dict, dict]:
    """Every per-layer metric, or a missing marker with its reason; and a
    note per metric whose value is a convention rather than a measurement."""
    self_s, calls = rec.self_times()
    notes = {}
    values = dict(rec.counts)
    values.update(rec.maxima)
    values.update(extra)
    for metric, span in _SPAN_OF.items():
        values[metric] = self_s.get(span, 0.0)
    for metric, span in _CALLS_OF.items():
        values[metric] = calls.get(span, 0)
    evaluated = values.get("demos.points_evaluated", 0)
    if evaluated:
        values["demos.useful_point_ratio"] = values.get("demos.points_reported", 0) / evaluated
    else:
        # 0/0: the result line must carry a number, and 0 would read as the
        # worst value; nothing evaluated means nothing wasted
        values["demos.useful_point_ratio"] = 1.0
        notes["demos.useful_point_ratio"] = "no scan runs in this workload: reported as 1.0"
    out = {}
    for metric, (unit, needs) in LAYER_METRICS.items():
        absent = [reason for key, reason in rec.missing.items()
                  if any(n == key or n.startswith(key + ".") for n in needs)]
        if absent:
            out[metric] = {"value": None, "unit": unit, "missing": "; ".join(absent)}
        else:
            out[metric] = {"value": values.get(metric, 0), "unit": unit}
    return out, notes


def top_self_times(rec: Recorder, n: int = 12) -> list:
    self_s, calls = rec.self_times()
    return [[name, round(s, 4), calls[name]] for name, s in self_s.most_common(n)]
