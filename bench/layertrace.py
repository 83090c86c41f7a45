"""Outside-in per-layer tracing of trivertex, from the benchmark's own files.

`install()` replaces each traced public function of the library with a
wrapper that records a span around the call, and rebinds every name that
refers to the original: module globals (including names imported by other
trivertex modules, such as `verify.apply_layer`) and class attributes
(including aliases such as `LaurentPoly.__radd__ = __add__`).  Nothing in the
library is edited and no private state is touched.

For each target the tracer keeps `calls`, `self_s` (span time minus the time
covered by traced child spans) and any counters the target defines.  A
target whose module or attribute no longer exists is listed in `absent`
and reports zero, so a refactor that deletes a function does not break the
trace.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# metric prefix -> (module, attribute path)
TARGETS: Dict[str, Tuple[str, str]] = {
    "network.apply_layer": ("trivertex.network", "apply_layer"),
    "network.enumerate_layer_terms": ("trivertex.network", "enumerate_layer_terms"),
    "network.layer_transitions": ("trivertex.network", "layer_transitions"),
    "network.build_Y": ("trivertex.network", "build_Y"),
    "network.apply_strip": ("trivertex.network", "apply_strip"),
    "network.strip_vev": ("trivertex.network", "strip_vev"),
    "network.resolve_convention": ("trivertex.network", "resolve_convention"),
    "poly.mul": ("trivertex.poly", "LaurentPoly.__mul__"),
    "poly.add": ("trivertex.poly", "LaurentPoly.__add__"),
    "poly.pow": ("trivertex.poly", "LaurentPoly.__pow__"),
    "poly.derivative": ("trivertex.poly", "LaurentPoly.derivative"),
    "poly.substitute": ("trivertex.poly", "LaurentPoly.substitute"),
    "poly.exact_divide": ("trivertex.poly", "exact_divide"),
    "symfunc.det_poly": ("trivertex.symfunc", "det_poly"),
    "symfunc.elementary": ("trivertex.symfunc", "elementary"),
    "symfunc.schur_jacobi_trudi": ("trivertex.symfunc", "schur_jacobi_trudi"),
    "symfunc.schur_bialternant": ("trivertex.symfunc", "schur_bialternant"),
    "symfunc.schur_pragacz": ("trivertex.symfunc", "schur_pragacz"),
    "symfunc.loop_elementary_general": ("trivertex.symfunc", "loop_elementary_general"),
    "fock.apply_local": ("trivertex.fock", "apply_local"),
    "lattice.local_tensor": ("trivertex.lattice", "local_tensor"),
    "lattice.tetrahedron_check": ("trivertex.lattice", "tetrahedron_check"),
    "cli.main": ("trivertex.cli", "main"),
    "cli.render_poly": ("trivertex.cli", "render_poly"),
    "cli.load_or_resolve_convention": ("trivertex.cli", "load_or_resolve_convention"),
}


def _size(coeff) -> int:
    """Term count of a coefficient, whatever type carries it."""
    terms = getattr(coeff, "terms", None)
    if terms is not None:
        return len(terms)
    return len(coeff) if hasattr(coeff, "__len__") else 1


# Counters: metric prefix -> function(bound arguments, result) -> {name: value}.
# Each reads only public arguments and results; a counter that cannot read
# them (after a signature change) is skipped, not raised.

def _apply_layer_counts(args, out):
    states_in = len(args["ket"])
    sizes = [_size(c) for c in out.values()]
    return {"pairs": len(args["terms"]) * states_in, "states_out": len(out),
            "max_states": max(states_in, len(out)),
            "max_coeff_terms": max(sizes, default=0)}


COUNTERS: Dict[str, Callable[[dict, object], Dict[str, int]]] = {
    "network.apply_layer": _apply_layer_counts,
    "network.enumerate_layer_terms": lambda args, out: {"terms": len(out)},
    "network.layer_transitions": lambda args, out: {"moves": len(out)},
    "network.apply_strip": lambda args, out: {
        "pairs": len(args["terms"]) * len(args["combo"])},
    "lattice.tetrahedron_check": lambda args, out: {"sectors": out["sectors"]},
}

# counters folded by max instead of sum
MAX_COUNTERS = {"max_states", "max_coeff_terms"}

# targets whose per-call counts are also kept in call order, with a small
# argument key; the self-test reads them
KEEP_CALLS: Dict[str, Callable[[dict], tuple]] = {
    "network.apply_layer": lambda args: (),
    "network.enumerate_layer_terms": lambda args: (args["n"], args["i"]),
}


class Tracer:
    """Figures of one process.  Recording happens only while `on` is true;
    `op` names the operation that kept per-call records belong to."""

    def __init__(self):
        self.on = False
        self.op = "setup"
        self.stats: Dict[str, Dict[str, float]] = {}
        self.calls: Dict[str, List[Tuple[str, tuple, dict]]] = {}
        self.absent: List[str] = []
        self._stack: List[float] = []

    def _wrap(self, key: str, fn: Callable) -> Callable:
        rec = self.stats.setdefault(key, {"calls": 0, "self_s": 0.0})
        counter = COUNTERS.get(key)
        keep = KEEP_CALLS.get(key)
        sig = inspect.signature(fn) if counter else None
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            done = False
            try:
                out = fn(*args, **kwargs)
                done = True
            finally:
                span = clock() - t0
                child = stack.pop()
                rec["calls"] += 1
                rec["self_s"] += span - child
                if stack and not done:
                    stack[-1] += span
            if counter is not None:
                try:
                    bound = sig.bind(*args, **kwargs).arguments
                    counts = counter(bound, out)
                    tag = keep(bound) if keep else None
                except (TypeError, KeyError, AttributeError):
                    counts, tag = {}, None
                for name, v in counts.items():
                    if name in MAX_COUNTERS:
                        rec[name] = max(rec.get(name, 0), v)
                    else:
                        rec[name] = rec.get(name, 0) + v
                if tag is not None:
                    self.calls.setdefault(key, []).append((self.op, tag, counts))
            # the parent's self time excludes this span and the counting
            if stack:
                stack[-1] += clock() - t0
            return out

        return traced

    def install(self, targets: Dict[str, Tuple[str, str]] = TARGETS) -> "Tracer":
        """Wrap every target that exists and rebind it at each import site."""
        replace: Dict[int, Callable] = {}
        for key, (modname, path) in targets.items():
            try:
                obj = importlib.import_module(modname)
                for part in path.split("."):
                    obj = getattr(obj, part)
                if not callable(obj):
                    raise AttributeError(path)
            except (ImportError, AttributeError):
                self.absent.append(key)
                self.stats[key] = {"calls": 0, "self_s": 0.0}
                continue
            replace[id(obj)] = self._wrap(key, obj)
        for mod in [m for name, m in list(sys.modules.items())
                    if name == "trivertex" or name.startswith("trivertex.")]:
            for name, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, name, replace[id(value)])
                elif inspect.isclass(value) and value.__module__.startswith("trivertex"):
                    for attr, member in list(vars(value).items()):
                        if id(member) in replace:
                            setattr(value, attr, replace[id(member)])
        return self

    def metrics(self) -> Dict[str, float]:
        """Flat `<target>.<field>` figures; absent targets read zero."""
        return _with_yield({"%s.%s" % (key, field): v
                            for key, rec in self.stats.items()
                            for field, v in rec.items()})


def _with_yield(flat: Dict[str, float]) -> Dict[str, float]:
    pairs = flat.get("network.apply_layer.pairs", 0)
    if pairs:
        flat["network.apply_layer.yield"] = flat["network.apply_layer.states_out"] / pairs
    return flat


def merge(parts: List[Dict[str, float]]) -> Dict[str, float]:
    """Combine the flat figures of several traced processes."""
    out: Dict[str, float] = {}
    for flat in parts:
        for name, v in flat.items():
            if name.rsplit(".", 1)[-1] in MAX_COUNTERS:
                out[name] = max(out.get(name, 0), v)
            else:
                out[name] = out.get(name, 0) + v
    return _with_yield(out)


def install(targets: Optional[Dict[str, Tuple[str, str]]] = None) -> Tracer:
    return Tracer().install(TARGETS if targets is None else targets)
