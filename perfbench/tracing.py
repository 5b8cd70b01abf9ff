"""Traced run: per-layer spans and counts from wrapped qramprep functions.

Tracing replaces each public function and method of the layer modules by
name, in every qramprep module namespace that binds it, so calls made
inside the library are seen too (``verify.run_preparation`` calling
``memory.build_memory_image``, ``simulator`` calling ``memory.query``).
Each call records a span: name, start, end, parent span and op id, plus the
branch counts of any state it takes or returns. Spans stay in memory until
the run ends. Functions that run once per cell or tree node get no span,
which keeps a traced op at about a hundred spans rather than a million:
those a metric counts are counted, the others are left unwrapped.

A layer metric whose functions no longer exist is reported as absent, so a
refactor that removes, say, ``splitting_angle`` does not break the trace.
"""
from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("matrix", "weight_tree", "angles", "fixedpoint", "memory", "simulator", "verify")

# Called once per cell or tree node: never spanned.
PER_CELL = frozenset({"angles.splitting_angle", "weight_tree.sibling_weights",
                      "weight_tree.level_position"})
PER_CELL_LAYERS = frozenset({"fixedpoint"})

PREPARE = ("simulator.prepare_complex", "simulator.prepare_real")

# metric -> functions whose inclusive span time, per op, it sums
SPAN_SECONDS = {
    "matrix.load_s": ("matrix.load_matrix",),
    "weight_tree.build_s": ("weight_tree.build_weight_tree",),
    "angles.angle_tree_s": ("angles.build_angle_tree",),
    "angles.leaf_s": ("angles.build_phase_layer", "angles.build_sign_layer"),
    "memory.layout_s": ("memory.layout_complex", "memory.layout_real_signed"),
    "memory.to_json_s": ("memory.MemoryImage.to_json",),
    "memory.from_json_s": ("memory.MemoryImage.from_json_dict",),
    "memory.query_s": ("memory.query",),
    "simulator.prepare_s": PREPARE,
    "simulator.ry_cascade_s": ("simulator.ry_cascade",),
    "simulator.shift_s": ("simulator.circular_shift",),
    "simulator.leaf_s": ("simulator.phase_cascade", "simulator.controlled_z_sign"),
    "simulator.dump_s": ("simulator.dump_state",),
    "verify.oracle_s": ("verify.oracle_state",),
    "verify.state_error_s": ("verify.state_error",),
}

# metric -> functions whose calls, per op, it counts
CALLS = {
    "weight_tree.build_calls": ("weight_tree.build_weight_tree",),
    "angles.splitting_angle_calls": ("angles.splitting_angle",),
    "fixedpoint.encode_calls": ("fixedpoint.encode_magnitude_angle", "fixedpoint.encode_phase"),
    "memory.query_calls": ("memory.query",),
}

COUNTED = frozenset(name for names in CALLS.values() for name in names)

# metrics taken from the spans of prepare_* and of its direct children
PREPARE_DERIVED = ("simulator.self_s", "simulator.branches_touched", "simulator.max_branches",
                   "simulator.pruned_branches", "memory.access_log_entries")


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "n_in", "n_out", "log_entries")

    def __init__(self, name, parent, op, n_in):
        self.name, self.parent, self.op, self.n_in = name, parent, op, n_in
        self.start = self.end = 0.0
        self.n_out = self.log_entries = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _branch_count(obj) -> int | None:
    branches = getattr(obj, "branches", None)
    try:
        return len(branches)
    except TypeError:
        return None


def _log_entries(obj) -> int | None:
    log = getattr(obj, "access_log", None)
    return None if log is None else sum(len(entry) for entry in log)


def _first(values):
    return next((v for v in values if v is not None), None)


def _targets(package):
    """(qualified name, owner class or None, attribute, raw attribute) of each public callable."""
    for layer in LAYERS:
        module = sys.modules.get(f"{package.__name__}.{layer}")
        if module is None:
            continue
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                yield f"{layer}.{attr}", None, attr, value
            elif inspect.isclass(value):
                for method, raw in list(vars(value).items()):
                    func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    if not method.startswith("_") and inspect.isfunction(func):
                        yield f"{layer}.{attr}.{method}", value, method, raw


@contextmanager
def substituted(package, replacements: dict):
    """Bind ``replacements[original]`` wherever a package module binds ``original``."""
    by_id = {id(orig): (orig, new) for orig, new in replacements.items()}
    undo = []
    for name, module in list(sys.modules.items()):
        if name != package.__name__ and not name.startswith(package.__name__ + "."):
            continue
        for attr, value in list(vars(module).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                undo.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)


class Tracer:
    """Wraps the package's layer functions while installed and keeps what they record."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.available: set[str] = set()
        self.ops: list[tuple[float, float, Counter]] = []  # (start, end, calls) per op
        self.op: int | None = None
        self._stack: list[int] = []
        self._op_start = 0.0
        self._op_base: Counter = Counter()

    def begin_op(self) -> None:
        self.op = len(self.ops)
        self._op_base = Counter(self.calls)
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        end = time.perf_counter()
        self.ops.append((self._op_start, end, self.calls - self._op_base))
        self.op = None

    def _wrap(self, name, func):
        """Span or count wrapper for ``func``; None for a per-cell function no metric counts."""
        calls = self.calls
        if name in PER_CELL or name.split(".", 1)[0] in PER_CELL_LAYERS:
            if name not in COUNTED:
                return None

            @functools.wraps(func)
            def counted(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return counted

        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def spanned(*args, **kwargs):
            calls[name] += 1
            span = Span(name, stack[-1] if stack else None, self.op,
                        _first(_branch_count(a) for a in args))
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            parts = result if isinstance(result, tuple) else (result,)
            span.n_out = _first(_branch_count(p) for p in parts)
            span.log_entries = _first(_log_entries(p) for p in parts)
            return result
        return spanned

    @contextmanager
    def installed(self):
        functions = {}
        undo = []
        for name, owner, attr, raw in _targets(self.package):
            self.available.add(name)
            bound = isinstance(raw, (classmethod, staticmethod))
            wrapped = self._wrap(name, raw.__func__ if bound else raw)
            if wrapped is None:
                continue
            if owner is None:
                functions[raw] = wrapped
                continue
            setattr(owner, attr, type(raw)(wrapped) if bound else wrapped)
            undo.append((owner, attr, raw))
        try:
            with substituted(self.package, functions):
                yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    # ---- metrics ----------------------------------------------------------------

    def _per_op(self) -> list[dict]:
        by_op = defaultdict(list)
        children = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span.op is not None:
                by_op[span.op].append(index)
            if span.parent is not None:
                children[span.parent].append(span)
        rows = []
        for op, (start, end, calls) in enumerate(self.ops):
            spans = [self.spans[i] for i in by_op[op]]
            row = {metric: sum(s.seconds for s in spans if s.name in names)
                   for metric, names in SPAN_SECONDS.items()}
            row.update({metric: sum(calls[n] for n in names) for metric, names in CALLS.items()})
            row["bench.unattributed_s"] = (end - start) - sum(
                s.seconds for s in spans if s.parent is None)
            row.update(_prepare_metrics(
                [(self.spans[i], children[i]) for i in by_op[op] if self.spans[i].name in PREPARE]))
            rows.append(row)
        return rows

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """Median per op of every layer metric, and the names of the absent ones."""
        rows = self._per_op()
        absent = {metric for metric, names in {**SPAN_SECONDS, **CALLS}.items()
                  if not self.available.intersection(names)}
        if not self.available.intersection(PREPARE):
            absent.update(PREPARE_DERIVED)
        out = {}
        for metric in (*SPAN_SECONDS, *CALLS, *PREPARE_DERIVED, "bench.unattributed_s"):
            values = [row[metric] for row in rows if metric in row]
            if metric in absent or not rows or len(values) < len(rows):
                absent.add(metric)
            else:
                out[metric] = statistics.median(values)
        return out, sorted(absent)

    def dump(self, path) -> None:
        """Write every span and per-op call count as JSON."""
        doc = {
            "fields": list(Span.__slots__),
            "spans": [[getattr(s, f) for f in Span.__slots__] for s in self.spans],
            "ops": [{"start": s, "end": e, "calls": dict(c)} for s, e, c in self.ops],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


def _prepare_metrics(prepares: list[tuple[Span, list[Span]]]) -> dict:
    """Self time, branch counts and access-log size from prepare spans and their children.

    A branch count missing from every child (a state without ``branches``)
    leaves the branch metrics out; the caller reports them as absent.
    """
    self_s = touched = widest = pruned = 0
    log = None
    counted = False
    for prep, kids in prepares:
        self_s += prep.seconds - sum(k.seconds for k in kids)
        previous = None  # branches the last state-returning child left
        for kid in kids:
            for n in (kid.n_in, kid.n_out):
                if n is not None:
                    counted = True
                    widest = max(widest, n)
            if kid.n_in is not None:
                touched += kid.n_in
                if previous is not None:
                    pruned += max(0, previous - kid.n_in)
            if kid.n_out is not None:
                previous = kid.n_out
        if previous is not None and prep.n_out is not None:
            pruned += max(0, previous - prep.n_out)
        if prep.log_entries is not None:
            log = (log or 0) + prep.log_entries
    row = {"simulator.self_s": self_s}
    if counted or not prepares:
        row.update({"simulator.branches_touched": touched, "simulator.max_branches": widest,
                    "simulator.pruned_branches": pruned})
    if log is not None or not prepares:
        row["memory.access_log_entries"] = log or 0
    return row
