"""Outside-in tracing of minitori's public functions.

`install()` wraps each function in `TRACED` and rebinds every global of every
loaded `minitori` module that holds the same function object, because the
modules copy names at import (`from .symmetric import inverse`); a method is
rebound under every name its class stores it by (`__rmul__ = __mul__`).
Nothing inside the package is edited.

For each wrapped function the tracer counts calls, total time (outermost
activations only, so recursion is not counted twice) and self time: total
time minus the time spent in wrapped callees.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# layer (module) -> functions wrapped; "Class.method" names a method.
TRACED = {
    "lattices": ("enumerate_norm", "spectrum", "shortest_vectors", "eigenfunction_index",
                 "rational_points_on_ellipsoid"),
    "scalars": ("isolate_real_roots", "factor_min_poly", "irreducible_degree_le4",
                "AlgebraicScalar.__mul__", "AlgebraicScalar.inverse", "AlgebraicScalar.sign",
                "AlgebraicField.refine"),
    "symmetric": ("inverse", "determinant", "is_positive_definite"),
    "optimize": ("build_slice", "pencil_maximize", "rank4_lagrange", "exact_hull_weights",
                 "caratheodory_reduce", "maximize_logdet_C"),
    "exactlp": ("feasible_point",),
    "certificates": ("verify_matrix_data", "verify_full", "embeddedness",
                     "reduce_target_dimension"),
    "constructions": ("construct_rational", "construct_pencil_3torus", "pythagorean_family",
                      "feasible_diagonal_centroid", "bryant_2torus", "catalog"),
    "io": ("emit", "parse"),
    "cli": ("main",),
}

# extra counters: traced function -> (counter, amount(args, result) added per call)
COUNTERS = {
    "lattices.enumerate_norm": ("lattices.enumerate_norm.classes", lambda a, r: len(r)),
    "lattices.spectrum": ("lattices.spectrum.lines", lambda a, r: len(r)),
    "io.emit": ("io.emit.bytes", lambda a, r: len(r.encode())),
    "io.parse": ("io.parse.bytes", lambda a, r: len(a[0].encode())),
}
COUNTER_NAMES = [name for name, _ in COUNTERS.values()]


def traced_names() -> list[str]:
    return [f"{mod}.{name}" for mod, names in TRACED.items() for name in names]


class Stats:
    __slots__ = ("calls", "total_s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.stats = {name: Stats() for name in traced_names()}
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._children = []   # time spent in wrapped callees, one slot per active call

    def wrap(self, name: str, fn):
        st = self.stats[name]
        counter = COUNTERS.get(name)
        children = self._children
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.depth += 1
            children.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                st.depth -= 1
                st.calls += 1
                st.self_s += elapsed - children.pop()
                if st.depth == 0:
                    st.total_s += elapsed
                if children:
                    children[-1] += elapsed
            if counter:
                counters[counter[0]] += counter[1](args, result)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.total_s"] = st.total_s
            out[f"{name}.self_s"] = st.self_s
        out.update(self.counters)
        return out


def install() -> Tracer:
    """Wrap every function in TRACED wherever a minitori module binds it."""
    tracer = Tracer()
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "minitori" or n.startswith("minitori."))]
    for mod_name, names in TRACED.items():
        home = sys.modules[f"minitori.{mod_name}"]
        for name in names:
            full = f"{mod_name}.{name}"
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                wrapped = tracer.wrap(full, orig)
                for attr, val in list(cls.__dict__.items()):
                    if val is orig:
                        setattr(cls, attr, wrapped)
                continue
            orig = getattr(home, name)
            wrapped = tracer.wrap(full, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
    return tracer
