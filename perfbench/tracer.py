"""Per-layer tracing from outside the program.

The layers are arithdt's modules.  ``Tracer.install`` wraps the public entry
points of each module and rebinds every name that refers to them: the module
attribute, every other arithdt module that imported the function by name, and
class-attribute aliases such as ``__rmul__ = __mul__``.  Each call records a
span (name, start, end, parent) in flat in-memory arrays; the per-layer
metrics are computed from them when the run ends.

A span's self time is its duration minus the durations of its direct
children.  Its ``.s`` counts only spans with no ancestor of the same name, so
recursive calls (``TruncatedSeries.__pow__``) and nested ring operations
(``GwElement.__sub__`` calling ``__add__``) are not counted twice.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from fractions import Fraction
from time import perf_counter

# (span name, module, attribute path) of every wrapped entry point
ENTRY_POINTS = (
    ("cli.dispatch", "arithdt.cli", "dispatch"),
    ("dt.partition_function", "arithdt.dt", "partition_function"),
    ("dt.z_motivic", "arithdt.dt", "z_motivic"),
    ("series.mul", "arithdt.series", "TruncatedSeries.__mul__"),
    ("series.inverse", "arithdt.series", "TruncatedSeries.inverse"),
    ("series.pow", "arithdt.series", "TruncatedSeries.__pow__"),
    ("motivic.mul", "arithdt.motivic", "MotivicClass.__mul__"),
    ("motivic.chi_a1", "arithdt.motivic", "chi_a1"),
    ("gw.ring_ops", "arithdt.gw", "GwElement.__add__"),
    ("gw.ring_ops", "arithdt.gw", "GwElement.__sub__"),
    ("gw.ring_ops", "arithdt.gw", "GwElement.__mul__"),
    ("gw.gw_equal", "arithdt.gw", "GwElement.gw_equal"),
    ("gw.diagonalize_symmetric", "arithdt.gw", "diagonalize_symmetric"),
    ("fields.squarefree_part", "arithdt.fields", "squarefree_part"),
    ("fields.prime_factors", "arithdt.fields", "prime_factors"),
    ("groebner.buchberger", "arithdt.groebner", "buchberger"),
    ("groebner.of_ideal", "arithdt.groebner", "QuotientAlgebra.of_ideal"),
    ("groebner.normal_form", "arithdt.groebner", "normal_form"),
    ("groebner.basis_product", "arithdt.groebner", "QuotientAlgebra.basis_product"),
    ("ekl.ekl_class", "arithdt.ekl", "ekl_class"),
    ("castelnuovo.gv_compare", "arithdt.castelnuovo", "gv_compare"),
    ("nearby.nearby_class", "arithdt.nearby", "nearby_class"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in ENTRY_POINTS))


def _bits(x) -> int:
    x = Fraction(x)
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _terms(m) -> int:
    return len(m.u_terms) + sum(len(c) for _, c in m.extras)


# Deterministic work counters, taken from a call's arguments and result:
# span name -> (counter name, how to combine, value of one call)
COUNTERS = {
    "fields.squarefree_part": ("fields.squarefree_part.max_bits", max, lambda a, r: abs(a[0]).bit_length()),
    "fields.prime_factors": ("fields.prime_factors.max_bits", max, lambda a, r: abs(a[0]).bit_length()),
    "gw.diagonalize_symmetric": ("gw.diagonalize_symmetric.n_max", max, lambda a, r: len(a[0])),
    "groebner.buchberger": ("groebner.buchberger.basis_size", sum, lambda a, r: len(r)),
    "groebner.of_ideal": ("groebner.of_ideal.algebra_dim", sum, lambda a, r: r.dimension),
    "ekl.ekl_class": ("ekl.gram_max_bits", max,
                      lambda a, r: max((_bits(x) for row in r.gram for x in row), default=0)),
    "motivic.chi_a1": ("motivic.chi_a1.terms", sum, lambda a, r: _terms(a[0])),
}
COUNTER_NAMES = tuple(c for c, _, _ in COUNTERS.values()) + ("cli.out_bytes",)


class Tracer:
    """Records spans around the wrapped entry points while installed."""

    def __init__(self) -> None:
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.reset()
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.outermost = array("b")
        self.stack: list[int] = []
        self.depth = [0] * len(SPAN_NAMES)
        self.counters = {name: 0 for name in COUNTER_NAMES}

    def _wrap(self, name: str, fn):
        name_id = self.name_ids[name]
        counter = COUNTERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.names)
            tracer.names.append(name_id)
            tracer.parents.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.outermost.append(tracer.depth[name_id] == 0)
            tracer.ends.append(0.0)
            tracer.stack.append(idx)
            tracer.depth[name_id] += 1
            tracer.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = perf_counter()
                tracer.depth[name_id] -= 1
                tracer.stack.pop()
            if counter is not None:
                key, combine, value = counter
                tracer.counters[key] = combine((tracer.counters[key], value(args, result)))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every entry point and rebind every reference to it."""
        loaded = _arithdt_modules()
        for name, module_name, path in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
                self._rebind(owner, raw, wrapped)
                continue
            wrapped = self._wrap(name, raw)
            self._rebind(owner, raw, wrapped)
            if not cls_path:
                for module in loaded:
                    if module is not owner:
                        self._rebind(module, raw, wrapped)

    def _rebind(self, namespace, original, wrapped) -> None:
        for key, value in list(vars(namespace).items()):
            if value is original:
                setattr(namespace, key, wrapped)
                self._restore.append((namespace, key, original))

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._restore):
            setattr(namespace, key, original)
        self._restore.clear()

    def metrics(self) -> dict[str, float]:
        """Per span name: calls, outermost time, self time; then the counters."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        calls = [0] * len(SPAN_NAMES)
        total = [0.0] * len(SPAN_NAMES)
        own = [0.0] * len(SPAN_NAMES)
        for i in range(n):
            k = self.names[i]
            dur = self.ends[i] - self.starts[i]
            calls[k] += 1
            if self.outermost[i]:
                total[k] += dur
            own[k] += dur - child[i]
        out: dict[str, float] = {}
        for k, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.s"] = total[k]
            out[f"{name}.self_s"] = own[k]
        out.update(self.counters)
        return out

    def deterministic(self) -> dict[str, int]:
        """The counts that must repeat exactly between two traced runs."""
        m = self.metrics()
        return {k: v for k, v in m.items() if k.endswith(".calls") or k in self.counters}

    def write_spans(self, path: str) -> None:
        """Write the spans as tab-separated name, start, end, parent lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.names)):
                fh.write(f"{SPAN_NAMES[self.names[i]]}\t{self.starts[i]:.9f}\t"
                         f"{self.ends[i]:.9f}\t{self.parents[i]}\n")


def _arithdt_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "arithdt" or n.startswith("arithdt."))]
