"""Spans around calls into `nambu`'s public functions, for the traced run.

`Tracer.install()` replaces each function listed in `TARGETS` by a wrapper in
every `nambu` module namespace that binds the same object (`tstar` imports
`nullspace` by name, so `nambu.tstar.nullspace` is wrapped as well as
`nambu.linalg.nullspace`); methods are wrapped on their class. Spans are kept
in memory with their parent span and request and written out when the run
ends. Sizes (`cells`, `nnz`, `rows`, `cols`) are measured outside the span's
clock; the time they take is charged to no layer.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

# (layer, attribute path in nambu.<layer>, metric name, sizer)
#   sizer "args": cells and nnz of the Matrix arguments (self included)
#   sizer "result": rows, cols and nnz of the returned Matrix
TARGETS = [
    ("cli", "main", "main", None),
    ("fileformat", "load", "load", None),
    ("fileformat", "to_json_str", "to_json_str", None),
    ("linalg", "nullspace", "nullspace", "args"),
    ("linalg", "rank", "rank", "args"),
    ("linalg", "solve_affine", "solve_affine", "args"),
    ("linalg", "Matrix.__mul__", "matmul", "args"),
    ("linalg", "Subspace.from_vectors", "Subspace.from_vectors", None),
    ("linalg", "Subspace.sum", "Subspace.sum", None),
    ("linalg", "Subspace.intersect", "Subspace.intersect", None),
    ("linalg", "Subspace.annihilator", "Subspace.annihilator", None),
    ("linalg", "Subspace.orthogonal_complement", "Subspace.orthogonal_complement", None),
    ("linalg", "Subspace.contains_vector", "Subspace.contains_vector", None),
    ("cohomology", "coboundary", "coboundary", None),
    ("cohomology", "coboundary_matrix", "coboundary_matrix", "result"),
    ("cohomology", "cohomology_dims", "cohomology_dims", None),
    ("cohomology", "cochain_basis", "cochain_basis", None),
    ("cohomology", "alternating_subspace", "alternating_subspace", None),
    ("cohomology", "adjoint_rep", "adjoint_rep", None),
    ("cohomology", "verify_representation", "verify_representation", None),
    ("core", "verify_algebra", "verify_algebra", None),
    ("core", "verify_metric", "verify_metric", None),
    ("core", "verify_morphism", "verify_morphism", None),
    ("core", "series", "series", None),
    ("core", "is_hom_ideal", "is_hom_ideal", None),
    ("core", "quotient", "quotient", None),
    ("tstar", "coadjoint_rep", "coadjoint_rep", None),
    ("tstar", "tstar_extend", "tstar_extend", None),
    ("tstar", "theta_spaces", "theta_spaces", None),
    ("tstar", "equivalence", "equivalence", None),
    ("tstar", "decompose", "decompose", None),
    ("tstar", "canonical_isotropic_ideal", "canonical_isotropic_ideal", None),
    ("tstar", "extend_to_maximal_isotropic", "extend_to_maximal_isotropic", None),
    ("tstar", "reconstruct_as_tstar", "reconstruct_as_tstar", None),
    ("tstar", "adjoin_line", "adjoin_line", None),
    ("extensions", "build_extension", "build_extension", None),
    ("extensions", "extract_cocycle", "extract_cocycle", None),
]
SIZE_STATS = {"args": ("cells", "nnz"), "result": ("rows", "cols", "nnz")}


def metric_names():
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = []
    for layer, _, name, sizer in TARGETS:
        base = f"{layer}.{name}"
        names.append((f"{base}.calls", "count"))
        names.append((f"{base}.self_s", "s"))
        for stat in SIZE_STATS.get(sizer, ()):
            names.append((f"{base}.{stat}", "count"))
    return names


def _nnz(m):
    return sum(1 for x in m.data if x != 0)


class Tracer:
    def __init__(self):
        self.spans = []  # [metric, parent, start_ns, end_ns, sizes, request, pass, sizing_ns]
        self.stack = []
        self.request = None
        self.pass_no = 0
        self._restore = []

    def install(self):
        matrix_cls = sys.modules["nambu.linalg"].Matrix
        modules = [m for name, m in sys.modules.items() if name == "nambu" or name.startswith("nambu.")]
        for layer, path, name, sizer in TARGETS:
            owner = sys.modules[f"nambu.{layer}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                is_cm = isinstance(raw, classmethod)
                func = raw.__func__ if is_cm else raw
                wrapped = self._wrap(f"{layer}.{name}", func, sizer, matrix_cls)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, classmethod(wrapped) if is_cm else wrapped)
                continue
            func = getattr(owner, path)
            wrapped = self._wrap(f"{layer}.{name}", func, sizer, matrix_cls)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is func:
                        self._restore.append((mod, key, func))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _wrap(self, metric, func, sizer, matrix_cls):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [metric, stack[-1] if stack else -1, 0, 0, None, self.request, self.pass_no, 0]
            stack.append(len(spans))
            spans.append(span)
            if sizer == "args":
                t = clock()
                mats = [a for a in args if isinstance(a, matrix_cls)]
                span[4] = {"cells": sum(m.rows * m.cols for m in mats), "nnz": sum(_nnz(m) for m in mats)}
                span[7] += clock() - t
            span[2] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if sizer == "result":
                t = clock()
                span[4] = {"rows": result.rows, "cols": result.cols, "nnz": _nnz(result)}
                span[7] += clock() - t
            return result

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        traced.__doc__ = func.__doc__
        return traced

    # -- reduction ---------------------------------------------------------

    def self_times_ns(self):
        """Span duration minus the part its child spans (and their sizing) cover."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= (s[3] - s[2]) + s[7]
        return own

    def per_layer(self, passes):
        """Per-pass metrics: counts of pass 0 (a pass repeats exactly the same
        calls), self time as the median over passes of the per-pass sum."""
        own = self.self_times_ns()
        names = [n for n, _ in metric_names()]
        counts = {n: 0 for n in names}
        self_ns = [{n: 0 for n in names if n.endswith(".self_s")} for _ in range(passes)]
        for span, t in zip(self.spans, own):
            metric, _, _, _, sizes, _, pass_no, _ = span
            self_ns[pass_no][f"{metric}.self_s"] += t
            if pass_no != 0:
                continue
            counts[f"{metric}.calls"] += 1
            for stat, value in (sizes or {}).items():
                counts[f"{metric}.{stat}"] += value
        out = {}
        for name, unit in metric_names():
            if name.endswith(".self_s"):
                value = statistics.median(p[name] for p in self_ns) / 1e9
            else:
                value = counts[name]
            out[name] = {"value": value, "unit": unit}
        return out

    def dump(self, path, requests, extra):
        own = self.self_times_ns()
        with open(path, "w") as fh:
            json.dump(
                {
                    "requests": requests,
                    "fields": ["name", "parent", "start_ns", "end_ns", "sizes", "request", "pass", "self_ns"],
                    "spans": [s[:7] + [t] for s, t in zip(self.spans, own)],
                    **extra,
                },
                fh,
            )
