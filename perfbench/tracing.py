"""Span tracer for the traced benchmark run.

``instrument`` wraps, from outside the library, every public function of the
eight steinerdh layers at every module binding it has (``forms.gradient_direct``
and ``nullspace.gradient_direct`` alike), plus a few constructors and
operators.  Each wrapped call becomes a span: name, start, end and the span
that caused it, tagged with the op it belongs to.  The hot leaves
(``CycNum.__mul__``, ``Tree.steiner``, ``SparsePoly.__mul__``,
``scalar.euler_phi`` and ``mpmath.qr_solve``) are only counted and timed in
aggregate.  A frame's self time is its duration minus the durations of the
frames it opened.  ``instrument`` returns a function that puts every original
back.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from fractions import Fraction

import mpmath

import steinerdh
from steinerdh import (cli, distmatrix, errors, forms, hypermatrix, nullspace,
                       scalar, smalldet, trees)

LAYERS = {"trees": trees, "scalar": scalar, "forms": forms, "nullspace": nullspace,
          "hypermatrix": hypermatrix, "distmatrix": distmatrix, "smalldet": smalldet,
          "cli": cli}

# (owner, attribute, frame name, recorded as a span)
_METHODS = [
    (trees.Tree, "__init__", "trees.Tree.__init__", True),
    (distmatrix.RatMatrix, "__matmul__", "distmatrix.RatMatrix.__matmul__", True),
    (trees.Tree, "steiner", "trees.Tree.steiner", False),
    (scalar.CycNum, "__mul__", "scalar.CycNum.__mul__", False),
    (scalar.CycNum, "__rmul__", "scalar.CycNum.__mul__", False),
    (forms.SparsePoly, "__mul__", "forms.SparsePoly.__mul__", False),
    (forms.SparsePoly, "__rmul__", "forms.SparsePoly.__mul__", False),
    (mpmath, "qr_solve", "nullspace.mpmath.qr_solve", False),
]
_LEAF_FUNCTIONS = {"scalar.euler_phi"}


def _gradient_kind(args, kwargs) -> str:
    point = kwargs.get("point", args[2] if len(args) > 2 else ())
    exact = (any(isinstance(x, scalar.CycNum) for x in point)
             or all(isinstance(x, (int, Fraction)) for x in point))
    return "forms.gradient_direct." + ("exact" if exact else "numeric")


_NAMERS = {"forms.gradient_direct": _gradient_kind}
_COUNTERS = {
    "hypermatrix.build_steiner": ("hypermatrix.entries", lambda h: h.entries.size),
    "hypermatrix.export_json": ("hypermatrix.export_bytes", len),
}


class Tracer:
    """Open frames, per-name totals, recorded spans and counters of one traced run."""

    def __init__(self):
        self.totals: dict[str, list] = {}     # name -> [calls, self_s, total_s]
        self.counters: dict[str, int] = {}
        self.spans: list[dict] = []
        self.op: int | None = None
        self._stack: list[list] = []          # [name, start, child_s, span id, parent id]
        self._open_span: int | None = None
        self._next_id = 0

    def push(self, name: str, record: bool) -> list:
        frame = [name, 0.0, 0.0, None, self._open_span]
        if record:
            frame[3] = self._open_span = self._next_id
            self._next_id += 1
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def pop(self, frame: list) -> None:
        end = time.perf_counter()
        name, start, child_s, span_id, parent_id = frame
        duration = end - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][2] += duration
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += duration - child_s
        total[2] += duration
        if span_id is not None:
            self._open_span = parent_id
            self.spans.append({"id": span_id, "parent": parent_id, "op": self.op,
                               "name": name, "start": start, "end": end})

    @contextmanager
    def span(self, name: str, op: int | None = None):
        """A recorded span opened by the benchmark itself; `op` tags it and its children."""
        self.op = op
        frame = self.push(name, True)
        try:
            yield
        finally:
            self.pop(frame)
            self.op = None

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def calls(self, *names: str) -> int:
        return sum(self.totals.get(n, (0,))[0] for n in names)

    def self_s(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0.0))[1] for n in names)

    def layer_self_s(self, layer: str) -> float:
        return sum(t[1] for n, t in self.totals.items() if n.split(".")[0] == layer)


def _wrap(tracer: Tracer, fn, name: str, record: bool):
    namer = _NAMERS.get(name)
    counter = _COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.push(namer(args, kwargs) if namer else name, record)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.pop(frame)
        if counter:
            tracer.count(counter[0], counter[1](result))
        return result

    return traced


def instrument(tracer: Tracer):
    """Route every layer entry point through the tracer; returns the undo function."""
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                     else getattr(owner, attr)))
        setattr(owner, attr, new)

    wrappers = {}
    for layer, module in LAYERS.items():
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = _wrap(tracer, obj, name, name not in _LEAF_FUNCTIONS)
    for module in (steinerdh, errors, *LAYERS.values()):
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                replace(module, attr, wrappers[id(obj)])
    for owner, attr, name, record in _METHODS:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        replace(owner, attr, _wrap(tracer, original, name, record))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, as name -> (value, unit)."""
    t = tracer
    m = {
        "trees.steiner_calls": (t.calls("trees.Tree.steiner"), "count"),
        "trees.steiner_s": (t.self_s("trees.Tree.steiner"), "s"),
        "trees.build_s": (t.self_s("trees.Tree.__init__", "trees.random_tree",
                                   "trees.prufer_decode"), "s"),
        "scalar.cyc_mul_calls": (t.calls("scalar.CycNum.__mul__"), "count"),
        "scalar.cyc_mul_s": (t.self_s("scalar.CycNum.__mul__"), "s"),
        "scalar.euler_phi_calls": (t.calls("scalar.euler_phi"), "count"),
        "forms.gradient_exact_calls": (t.calls("forms.gradient_direct.exact"), "count"),
        "forms.gradient_exact_s": (t.self_s("forms.gradient_direct.exact"), "s"),
        "forms.gradient_numeric_calls": (t.calls("forms.gradient_direct.numeric"), "count"),
        "forms.gradient_numeric_s": (t.self_s("forms.gradient_direct.numeric"), "s"),
        "forms.hessian_calls": (t.calls("forms.hessian_direct"), "count"),
        "forms.hessian_s": (t.self_s("forms.hessian_direct"), "s"),
        "forms.poly_mul_calls": (t.calls("forms.SparsePoly.__mul__"), "count"),
        "forms.poly_mul_s": (t.self_s("forms.SparsePoly.__mul__"), "s"),
        "forms.steiner_form_s": (t.self_s("forms.steiner_form"), "s"),
        "forms.divide_s": (t.self_s("forms.divide_by_linear"), "s"),
        "nullspace.solve_calls": (t.calls("nullspace.mpmath.qr_solve"), "count"),
        "nullspace.solve_s": (t.self_s("nullspace.mpmath.qr_solve"), "s"),
        "nullspace.search_self_s": (t.self_s("nullspace.numeric_search"), "s"),
        "nullspace.verify_s": (t.self_s("nullspace.verify_nullvector",
                                        "nullspace.verify_form_nullvector"), "s"),
        "hypermatrix.build_s": (t.self_s("hypermatrix.build_steiner"), "s"),
        "hypermatrix.entries": (t.counters.get("hypermatrix.entries", 0), "count"),
        "hypermatrix.export_s": (t.self_s("hypermatrix.export_json"), "s"),
        "hypermatrix.export_bytes": (t.counters.get("hypermatrix.export_bytes", 0), "bytes"),
        "hypermatrix.import_s": (t.self_s("hypermatrix.import_json"), "s"),
        "distmatrix.det_s": (t.self_s("distmatrix.determinant_exact"), "s"),
        "distmatrix.gl_inverse_s": (t.self_s("distmatrix.gl_inverse"), "s"),
        "distmatrix.matmul_s": (t.self_s("distmatrix.RatMatrix.__matmul__"), "s"),
        "smalldet.scan_s": (t.self_s("smalldet.verify_k2_no_nullvector",
                                     "smalldet.two_vertex_nullvector_witness"), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (t.layer_self_s(layer), "s")
    return m
