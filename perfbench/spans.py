"""Spans around the calls into each wehrlkit layer, recorded from outside.

``install`` replaces every public function of the six layer modules, the
methods of ``CovarianceModel``, and the evaluator methods ``log_q``,
``log_q_radial``, ``polar_slab_factory`` (and the slab it returns) and
``log_f`` with wrappers that record a span.  A function is replaced in
every wehrlkit module that holds a reference to it, because callers look
names up in their own module (``wehrlkit.cli.eur_report``, for example).

A span holds its name, layer, start and end (``perf_counter``), the span
that was open when it began, the operation it belongs to, the minor page
faults (``getrusage``) at both ends, and for evaluator calls the number
of points evaluated; a quadrature span also keeps ``nodes_used`` of its
result.  Spans stay in memory until ``write_jsonl``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import resource
import sys
import time

import numpy as np

LAYERS = ("cli", "eur", "entropies", "quadrature", "husimi", "gaussian")
EVALUATOR_METHODS = ("log_q", "log_q_radial", "polar_slab_factory", "log_f")

# Span fields, stored as lists for speed.
NAME, LAYER, START, END, PARENT, OP, FLT0, FLT1, POINTS, NODES, OBJ, DIM = range(12)


def _faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Recorder:
    """In-memory span store with a stack of the spans currently open."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def open(self, layer, name, obj=None, points=None, dim=None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent, self.op,
                           _faults(), None, points, None, obj, dim])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, result=None):
        span = self.spans[idx]
        span[FLT1] = _faults()
        span[END] = time.perf_counter()
        if span[LAYER] == "quadrature":
            nodes = getattr(result, "nodes_used", None)
            span[NODES] = None if nodes is None else int(nodes)
        popped = self.stack.pop()
        if popped != idx:  # wrappers close in order unless threads share a recorder
            raise RuntimeError("span stack out of order")

    def write_jsonl(self, path: str, origin: float):
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": s[NAME], "layer": s[LAYER],
                    "start": s[START] - origin, "end": s[END] - origin,
                    "parent": s[PARENT], "op": s[OP],
                    "minor_faults": s[FLT1] - s[FLT0],
                    "points": s[POINTS], "nodes": s[NODES],
                }) + "\n")


def _span_function(rec: Recorder, layer: str, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(layer, name)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(idx, getattr(exc, "result", None))
            raise
        rec.close(idx, out)
        return out

    return wrapper


def _span_slab(rec: Recorder, obj_id: int, slab):
    def traced_slab(cos_u):
        idx = rec.open("husimi", "slab", obj_id)
        try:
            out = slab(cos_u)
        finally:
            rec.close(idx)
        rec.spans[idx][POINTS] = int(np.size(out))
        return out

    return traced_slab


def _span_method(rec: Recorder, cls_name: str, method: str, fn):
    name = f"{cls_name}.{method}"

    @functools.wraps(fn)
    def wrapper(self, arg, *args, **kwargs):
        if method == "log_q":
            shape = np.shape(arg)
            points, dim = math.prod(shape[:-1]), shape[-1]
        elif method == "polar_slab_factory":
            points, dim = 0, None
        else:
            points, dim = int(np.size(arg)), None
        idx = rec.open("husimi", name, id(self), points, dim)
        try:
            out = fn(self, arg, *args, **kwargs)
        finally:
            rec.close(idx)
        if method == "polar_slab_factory":
            return _span_slab(rec, id(self), out)
        return out

    return wrapper


def install(rec: Recorder):
    """Wrap the layer functions and evaluator methods of the loaded package."""
    replaced = {}
    for layer in LAYERS:
        module = importlib.import_module(f"wehrlkit.{layer}")
        for name, obj in list(vars(module).items()):
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                replaced[obj] = _span_function(rec, layer, name, obj)

    gaussian = importlib.import_module("wehrlkit.gaussian")
    model = gaussian.CovarianceModel
    for name, attr in list(vars(model).items()):
        if name.startswith("_"):
            continue
        if isinstance(attr, classmethod):
            fn = _span_function(rec, "gaussian", f"CovarianceModel.{name}", attr.__func__)
            setattr(model, name, classmethod(fn))
        elif inspect.isfunction(attr):
            setattr(model, name, _span_function(rec, "gaussian", f"CovarianceModel.{name}", attr))

    husimi = importlib.import_module("wehrlkit.husimi")
    bases = (husimi.HusimiEvaluator, husimi.PositionDensity)
    for cls in list(vars(husimi).values()):
        if isinstance(cls, type) and issubclass(cls, bases):
            for method in EVALUATOR_METHODS:
                fn = cls.__dict__.get(method)
                if inspect.isfunction(fn):
                    setattr(cls, method, _span_method(rec, cls.__name__, method, fn))

    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "wehrlkit" or module_name.startswith("wehrlkit.")):
            continue
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(module, name, replaced[obj])


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _perfect_power(count: int, dim: int) -> bool:
    root = round(count ** (1.0 / dim))
    return any((root + d) ** dim == count for d in (-1, 0, 1))


def _levels(children: list[list]) -> list[int]:
    """Node counts of the refinement levels of one integral.

    ``children`` are the evaluator spans called directly by the runner, in
    order.  Only calls on the first evaluator seen count (a relative
    entropy also evaluates its reference).  The polar runner builds one
    slab factory per level; the radial and line runners make one call per
    level; the cartesian runner splits a level of m^dim nodes into chunks,
    so a level ends where the running node count is a whole dim-th power.
    """
    if not children:
        return []
    primary = children[0][OBJ]
    calls = [s for s in children if s[OBJ] == primary]
    levels: list[int] = []
    if any(s[NAME].endswith("polar_slab_factory") for s in calls):
        for s in calls:
            if s[NAME].endswith("polar_slab_factory"):
                levels.append(0)
            elif levels:
                levels[-1] += s[POINTS]
        return levels
    if all(s[DIM] is None for s in calls):
        return [s[POINTS] for s in calls]
    acc = 0
    for s in calls:
        acc += s[POINTS]
        if _perfect_power(acc, s[DIM]):
            levels.append(acc)
            acc = 0
    if acc:
        levels.append(acc)
    return levels


def layer_metrics(spans: list[list], bytes_out: int) -> dict:
    """Aggregate one round's spans into the per-layer metrics."""
    n = len(spans)
    child_time = [0.0] * n
    child_faults = [0] * n
    children: list[list[int]] = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            child_time[p] += s[END] - s[START]
            child_faults[p] += s[FLT1] - s[FLT0]
            children[p].append(i)

    def in_layer_above(i: int, layer: str) -> bool:
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][LAYER] == layer:
                return True
            p = spans[p][PARENT]
        return False

    out = {f"{layer}.{key}": 0 for layer in LAYERS for key in ("calls", "self_s")}
    faults = {layer: 0 for layer in LAYERS}
    husimi_points = 0
    husimi_entry_s = 0.0
    reports = 0
    integrals = nodes = 0
    level_nodes: list[list[int]] = []
    leaf_nodes = 0
    for i, s in enumerate(spans):
        layer = s[LAYER]
        dur = s[END] - s[START]
        out[f"{layer}.self_s"] += dur - child_time[i]
        faults[layer] += (s[FLT1] - s[FLT0]) - child_faults[i]
        parent = s[PARENT]
        entry = parent < 0 or spans[parent][LAYER] != layer
        if entry:
            out[f"{layer}.calls"] += 1
        if layer == "husimi" and entry:
            husimi_points += s[POINTS] or 0
            husimi_entry_s += dur
        if layer == "eur" and s[NAME] == "eur_report":
            reports += 1
        if layer == "quadrature":
            if not in_layer_above(i, "quadrature"):
                integrals += 1
                nodes += s[NODES] or 0
            direct = [spans[c] for c in children[i] if spans[c][LAYER] == "husimi"]
            if direct:
                level_nodes.append(_levels(direct))
                leaf_nodes += s[NODES] or 0

    all_level_nodes = sum(sum(lv) for lv in level_nodes)
    last_level_nodes = sum(lv[-1] for lv in level_nodes if lv)
    out.update({
        "quadrature.integrals": integrals,
        "quadrature.nodes": nodes,
        "quadrature.levels": sum(len(lv) for lv in level_nodes),
        "quadrature.escalations": sum(max(0, len(lv) - 2) for lv in level_nodes),
        "quadrature.last_level_node_share": (
            last_level_nodes / all_level_nodes if all_level_nodes else 0.0),
        "quadrature.minor_faults": faults["quadrature"],
        "husimi.minor_faults": faults["husimi"],
        "husimi.points": husimi_points,
        "husimi.points_per_s": husimi_points / husimi_entry_s if husimi_entry_s > 0 else 0.0,
        "eur.reports": reports,
        "cli.bytes_out": bytes_out,
    })
    # The level split is read from evaluator calls; it must account for
    # every node the integrals report, or the level metrics are wrong.
    out["level_nodes_consistent"] = all_level_nodes == leaf_nodes
    return out
