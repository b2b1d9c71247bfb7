"""Spans around the public functions of each hilb4n layer.

The wrappers are installed from outside the program.  ``from … import``
copies a function into every importing module, so each wrapped function is
replaced in every hilb4n module that binds it, and methods are replaced on
their class.  After installing, no hilb4n module may still hold an original:
a call that bypassed its wrapper would be missing from the trace without any
sign of it.

Each wrapped call records a span (name, start, end, parent span, op id).
Spans stay in memory and are written out when the measuring process ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter_ns
from typing import Callable, Dict, List

# (module, attribute): the public functions of each layer that get a span.
# The module name is also the layer name.
WRAPPED = (
    ("poly", "Polynomial.substitute"),
    ("poly", "LinearChange.apply"),
    ("linalg", "rref"),
    ("linalg", "kernel_basis"),
    ("linalg", "Subspace.extended"),
    ("hilbert", "standard_monomial_count"),
    ("hilbert", "hilbert_function"),
    ("hilbert", "hilbert_polynomial"),
    ("groebner", "buchberger"),
    ("groebner", "normal_form_poly"),
    ("groebner", "reduce_by_linear_forms"),
    ("ideals", "groebner_basis"),
    ("ideals", "Ideal.groebner_basis"),
    ("ideals", "Ideal.graded_piece"),
    ("ideals", "saturate"),
    ("ideals", "saturate_irrelevant"),
    ("ideals", "intersect"),
    ("gin", "generic_initial_ideal"),
    ("families", "family_limit_data"),
    ("families", "limit_graded_piece"),
    ("tangent", "tangent_dimension"),
    ("borel", "enumerate_borel_ideals"),
    ("borel", "is_strongly_stable"),
    ("strata", "classify"),
)

OP_SPAN = "op"  # root span of one op; its self time is code no wrapper covers


def _count_cells(key: str):
    def pre(tracer, args, kwargs):
        m = args[0] if args else kwargs["m"]
        tracer.counters[key] += len(m) * len(m[0]) if len(m) else 0
    return pre


def _add_size(key: str, size: Callable):
    def post(tracer, state, result):
        tracer.counters[key] += size(result)
    return post


def _gin_fresh(tracer, args, kwargs) -> bool:
    ideal = args[0] if args else kwargs["I"]
    return ideal._gin is None and not ideal.is_zero()


def _gin_post(tracer, fresh, result):
    # read off each GinResult this call computed; a cached one adds nothing
    if not fresh:
        return
    counters = tracer.counters
    counters["gin.fresh"] += 1
    counters["gin.trials"] += result.trials
    if result.trials:
        counters["gin.fresh_nonmonomial"] += 1
        # the coefficient bound starts at 10 and doubles on each escalation
        counters["gin.escalations"] += (result.coefficient_bound // 10).bit_length() - 1


def _gb_misses(tracer, args, kwargs) -> int:
    return tracer.calls[tracer.nid["ideals.groebner_basis"]]


def _gb_hit(tracer, misses_before, result):
    if tracer.calls[tracer.nid["ideals.groebner_basis"]] == misses_before:
        tracer.counters["ideals.Ideal.groebner_basis.hits"] += 1


# name -> (hook before the call, hook after it); the first one's value is
# handed to the second
HOOKS = {
    "poly.Polynomial.substitute": (
        None, _add_size("poly.Polynomial.substitute.terms_out", lambda p: len(p.terms))),
    "linalg.rref": (_count_cells("linalg.rref.cells_in"), None),
    "linalg.kernel_basis": (_count_cells("linalg.kernel_basis.cells_in"), None),
    "groebner.buchberger": (None, _add_size("groebner.buchberger.basis_out", len)),
    "ideals.Ideal.groebner_basis": (_gb_misses, _gb_hit),
    "gin.generic_initial_ideal": (_gin_fresh, _gin_post),
    "tangent.tangent_dimension": (
        None, _add_size("tangent.tangent_dimension.constraint_rows",
                        lambda r: r.constraint_count)),
    "borel.enumerate_borel_ideals": (None, _add_size("borel.enumerate_borel_ideals.found", len)),
}
COUNTERS = (
    "poly.Polynomial.substitute.terms_out",
    "linalg.rref.cells_in",
    "linalg.kernel_basis.cells_in",
    "groebner.buchberger.basis_out",
    "ideals.Ideal.groebner_basis.hits",
    "gin.fresh",
    "gin.fresh_nonmonomial",
    "gin.trials",
    "gin.escalations",
    "tangent.tangent_dimension.constraint_rows",
    "borel.enumerate_borel_ideals.found",
)


class Tracer:
    """Span recorder; wrappers record only while an op is open."""

    def __init__(self):
        self.names: List[str] = [OP_SPAN]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: List[int] = []
        self._child_ns: List[int] = []
        self.calls: List[int] = [0]
        self.self_ns: List[int] = [0]
        self.total_ns: List[int] = [0]
        self.nid: Dict[str, int] = {OP_SPAN: 0}
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.active = False
        self.op = -1
        self._op_span = -1

    # -- spans ------------------------------------------------------------

    def _open(self, nid: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0)
        self._stack.append(sid)
        self._child_ns.append(0)
        self.span_start.append(perf_counter_ns())
        return sid

    def _close(self, sid: int, nid: int):
        end = perf_counter_ns()
        self.span_end[sid] = end
        self._stack.pop()
        covered = self._child_ns.pop()
        duration = end - self.span_start[sid]
        self.calls[nid] += 1
        self.total_ns[nid] += duration
        self.self_ns[nid] += duration - covered
        if self._child_ns:
            self._child_ns[-1] += duration

    def begin_op(self, op: int):
        self.op = op
        self.active = True
        self._op_span = self._open(0)

    def end_op(self):
        self._close(self._op_span, 0)
        self.active = False

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        self.total_ns.append(0)
        self.nid[name] = nid
        tracer = self
        pre, post = HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = pre(tracer, args, kwargs) if pre is not None else None
            sid = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, nid)
            if post is not None:
                post(tracer, state, result)
            return result

        return traced

    def install(self):
        """Replace every wrapped function in every hilb4n module binding it."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "hilb4n" or n.startswith("hilb4n."))]
        originals = {}
        for module_name, path in WRAPPED:
            module = importlib.import_module(f"hilb4n.{module_name}")
            name = f"{module_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(name, original))
            else:
                original = getattr(module, path)
                traced = self._wrap(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, traced)
            originals[id(original)] = name
        for m in modules:
            for key, value in vars(m).items():
                held = value.values() if isinstance(value, dict) else (
                    value if isinstance(value, (list, tuple, set, frozenset)) else (value,))
                for v in held:
                    if id(v) in originals:
                        raise RuntimeError(
                            f"{m.__name__}.{key} still holds {originals[id(v)]} unwrapped")

    # -- results ----------------------------------------------------------

    def summary(self) -> Dict:
        return {
            "functions": {
                name: {"calls": self.calls[i], "self_ns": self.self_ns[i],
                       "total_ns": self.total_ns[i]}
                for i, name in enumerate(self.names)
            },
            "counters": dict(self.counters),
            "spans": len(self.span_name),
        }

    def write_spans(self, path: str, op_ids: List[int]):
        """One tab-separated line per span, in the order spans opened; op_ids
        maps this process's op index to the op's id in the pool."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for sid in range(len(self.span_name)):
                op = self.span_op[sid]
                out.write(
                    f"{op_ids[op]}\t{sid}\t{self.span_parent[sid]}\t"
                    f"{self.names[self.span_name[sid]]}\t{self.span_start[sid]}\t"
                    f"{self.span_end[sid]}\n")
