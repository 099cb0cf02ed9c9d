"""Span tracer that wraps kummerlab's callables from outside the package.

Installing the tracer replaces every public function, method, property and
cached property of the traced modules (plus ``__init__`` and the arithmetic
and container dunders) with a wrapper that records one span per call:
``[name, start_ns, end_ns, parent, op, tag]``.  Spans are kept in memory; the
caller writes them out when the run ends.  Uninstalling restores every
original object, so untraced operations in the same process pay nothing.

Private helpers (a leading underscore) are not wrapped: their time is billed
to the public callable that invoked them.  A span's self time is its duration
minus the durations of its direct children, so self times never count an
interval twice and add up to the duration of the root span of each op.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("cli", "checks", "kummer_ns", "nikulin", "fibration", "covers", "nodecode", "lattice")
# ``labels`` holds only constants and is not traced.

DUNDERS = frozenset(
    ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
     "__xor__", "__and__", "__or__", "__contains__")
)

NAME, START, END, PARENT, OP, TAG = range(6)


def _check_id(args, result):
    return args[0].id


def _truth(args, result):
    return bool(result)


# span name -> function computing the span's tag from (args, result)
TAGGERS = {
    "checks.run_check": _check_id,
    "lattice.SublatticeModel.contains_scaled": _truth,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.op, None])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = perf_counter_ns()
        if self.stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    def take(self) -> list[list]:
        """Hand over the recorded spans and start a fresh list."""
        if self.stack:
            raise RuntimeError("spans still open")
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, fn, name: str):
        tracer = self
        stack = self.stack
        clock = perf_counter_ns
        tagger = TAGGERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            index = len(spans)
            record = [name, 0, 0, stack[-1] if stack else -1, tracer.op, None]
            spans.append(record)
            stack.append(index)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if tagger is not None:
                record[TAG] = tagger(args, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"kummerlab.{layer}") for layer in LAYERS}
        rebind: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    if attr == obj.__name__ and not issubclass(obj, BaseException):
                        self._wrap_class(layer, obj)
                elif callable(obj) and not attr.startswith("_"):
                    rebind[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        # a function imported by name into another module is rebound there too
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                wrapped = rebind.get(id(obj))
                if wrapped is not None:
                    self._set(module, attr, wrapped)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, functools.cached_property):
                new = functools.cached_property(self._wrap(raw.func, name))
                new.__set_name__(cls, attr)
            elif isinstance(raw, property):
                new = property(self._wrap(raw.fget, name), raw.fset, raw.fdel, raw.__doc__)
            elif isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(raw.__func__, name))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, name)
            else:
                continue
            self._set(cls, attr, new)

    def _set(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

# metric -> (kind, span names); kinds: calls, self (ms), total (ms, inclusive)
SPAN_METRICS = {
    "lattice.inner.calls": ("calls", ("lattice.QuadraticSpace.inner",)),
    "lattice.inner.self_ms": ("self", ("lattice.QuadraticSpace.inner",)),
    "lattice.vector.created": ("calls", ("lattice.RationalVector.__init__",)),
    "lattice.contains.calls": ("calls", ("lattice.SublatticeModel.contains",)),
    "lattice.contains_scaled.calls": ("calls", ("lattice.SublatticeModel.contains_scaled",)),
    "lattice.contains_scaled.self_ms": ("self", ("lattice.SublatticeModel.contains_scaled",)),
    "lattice.sublattice.created": ("calls", ("lattice.SublatticeModel.__init__",)),
    "lattice.discriminant_group.self_ms": ("self", ("lattice.SublatticeModel.discriminant_group",)),
    "lattice.coordinate_section.self_ms": ("self", ("lattice.SublatticeModel.coordinate_section",)),
    "lattice.json.self_ms": ("self", ("lattice.vector_to_json", "lattice.vector_from_json")),
    "kummer_ns.even_sets_ms": ("total", ("kummer_ns.JacobianKummerNS.even_sets",)),
    "kummer_ns.model_build_ms": ("total", ("kummer_ns.JacobianKummerNS.__init__",)),
    "nikulin.roots_ms": ("total", ("nikulin.roots",)),
    "fibration.build.calls": ("calls", ("fibration.build_fibration",)),
    "fibration.transform.self_ms": ("self", ("fibration.transform_double_cover",)),
    "nodecode.code_from_even_sets.calls": ("calls", ("nodecode.code_from_even_sets",)),
    "checks.context.model_ms": ("total", ("checks.CheckContext.model",)),
    "checks.context.eights_ms": ("total", ("checks.CheckContext.eights",)),
    "checks.context.fibration_ms": ("total", ("checks.CheckContext.fibration",)),
    "checks.context.transformed_ms": ("total", ("checks.CheckContext.transformed",)),
    "cli.import_ms": ("total", ("cli.import",)),
    "cli.render_json_ms": ("total", ("cli.render_json",)),
}

CHECK_GROUPS = (
    "alpha", "code", "config", "containment", "cover", "cross", "delta",
    "even_sets", "fibration", "nikulin", "ns", "oq", "polarization",
)

CONTEXT_PREFIX = "checks.CheckContext."
SCAN = "kummer_ns.JacobianKummerNS.even_sets"
CONTAINS_SCALED = "lattice.SublatticeModel.contains_scaled"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def per_op(spans: list[list]) -> dict[int, dict]:
    """Aggregate spans op by op.

    Each op must have exactly one root span (parent -1) named ``bench.*``;
    every other span nests inside its parent without overlapping a sibling.
    Returns, per op id, the metric values, the per-check table and the
    accounting identity (layer self times plus benchmark overhead equals the
    root span's duration).
    """
    children: dict[int, list[int]] = defaultdict(list)
    roots: dict[int, int] = {}
    for i, s in enumerate(spans):
        if s[PARENT] < 0:
            if s[OP] in roots or not s[NAME].startswith("bench."):
                raise ValueError(f"unexpected root span {s[NAME]!r} in op {s[OP]}")
            roots[s[OP]] = i
        else:
            children[s[PARENT]].append(i)

    results = {}
    for op, root in roots.items():
        self_ns: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        layer_self: dict[str, int] = defaultdict(int)
        check_ns: dict[str, int] = {}
        scan_calls = scan_hits = 0
        # walk the tree; ``check`` is the enclosing check outside any context
        # build and ``in_scan`` marks spans under the even-set scan
        todo = [(root, None, False)]
        while todo:
            i, check, in_scan = todo.pop()
            s = spans[i]
            name, dur = s[NAME], s[END] - s[START]
            if dur < 0 or s[END] == 0:
                raise ValueError(f"span {name!r} never closed")
            kids = children.get(i, ())
            covered = 0
            last_end = s[START]
            for k in sorted(kids, key=lambda k: spans[k][START]):
                c = spans[k]
                if c[START] < last_end or c[END] > s[END] or c[OP] != op:
                    raise ValueError(f"span {c[NAME]!r} overlaps its siblings or parent")
                last_end = c[END]
                covered += c[END] - c[START]
            self_ns[name] += dur - covered
            total_ns[name] += dur
            calls[name] += 1
            layer_self[layer_of(name)] += dur - covered
            if name == "checks.run_check":
                check = s[TAG]
                check_ns[check] = check_ns.get(check, 0) + dur
            elif name.startswith(CONTEXT_PREFIX):
                # a shared context build is billed to itself, not to the check
                # that first touched it; nested builds are inside this one
                if check is not None:
                    check_ns[check] -= dur
                check = None
            if name == CONTAINS_SCALED and in_scan:
                scan_calls += 1
                scan_hits += bool(s[TAG])
            in_scan = in_scan or name == SCAN
            todo.extend((k, check, in_scan) for k in kids)

        root_ns = spans[root][END] - spans[root][START]
        metrics: dict[str, float] = {}
        for metric, (kind, names) in SPAN_METRICS.items():
            if kind == "calls":
                metrics[metric] = sum(calls[n] for n in names)
            elif kind == "self":
                metrics[metric] = sum(self_ns[n] for n in names) / 1e6
            else:
                metrics[metric] = sum(total_ns[n] for n in names) / 1e6
        for layer in LAYERS:
            metrics[f"{layer}.self_ms"] = layer_self[layer] / 1e6
        metrics["bench.self_ms"] = layer_self["bench"] / 1e6
        metrics["kummer_ns.even_sets.hit_ratio"] = scan_hits / scan_calls if scan_calls else 0.0
        for group in CHECK_GROUPS:
            metrics[f"checks.group.{group}_ms"] = sum(
                ns for cid, ns in check_ns.items() if cid.split(".", 1)[0] == group
            ) / 1e6
        accounted = sum(layer_self.values())
        if accounted != root_ns:
            raise ValueError(f"self times add up to {accounted} ns, op {op} took {root_ns} ns")
        results[op] = {
            "wall_ms": root_ns / 1e6,
            "metrics": metrics,
            "checks_ms": {cid: ns / 1e6 for cid, ns in sorted(check_ns.items())},
        }
    return results


def write_jsonl(path, spans: list[list]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({
                "id": i, "name": s[NAME], "start_ns": s[START], "end_ns": s[END],
                "parent": s[PARENT], "op": s[OP], "tag": s[TAG],
            }, separators=(",", ":")) + "\n")
