"""Layer tracing installed from outside the library.

``Tracer`` replaces the public functions of each slotrank layer with
wrappers that record a span (name, parent, start, end) and the engine's
``cost_snapshot()`` delta across it.  Engine methods are patched on the
``HESimulator`` class; module functions are rebound in every loaded
slotrank module that holds them, which covers both the defining module and
each ``from .x import y`` copy, and inside module-level tables such as
``ranking._KERNELS``.  ``uninstall`` puts every original back.

A span's self time is its duration minus the time its child spans cover,
wrapper overhead of the children included, so tracing cost lands in no
layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field, fields

from slotrank.engine import Ciphertext, CostReport, HESimulator

ENGINE_OPS = (
    "rotate", "add", "sub", "add_plain", "negate", "mul", "mul_plain", "ideal_map", "encrypt", "decrypt",
)
LAYER_FUNCTIONS = {
    "chebyshev": (
        "ps_eval", "compare_kernel", "compare_gt_kernel", "compare_ge_kernel", "indicator_kernel",
        "equality_from_compare", "goldschmidt_inverse", "cheb_fit",
    ),
    "matrix": ("mask", "sum_axis", "replicate", "transpose_vector"),
    "ranking": ("rank_pipeline", "tie_offset", "multi_rank_pipeline", "block_split", "block_merge"),
    "select": ("order_statistic_value", "order_statistic_mask", "median", "percentile"),
    "sorting": ("sort_full", "multi_sort"),
}
COMPARE = {"chebyshev.compare_kernel", "chebyshev.compare_gt_kernel", "chebyshev.compare_ge_kernel"}
# Summable counters; levels_consumed and critical_rotations are maxima.
ADDITIVE = tuple(f.name for f in fields(CostReport) if f.name not in ("levels_consumed", "critical_rotations"))
# Slot vectors an engine op reads plus writes, for the computed-bytes figure;
# ideal_map reads one per ciphertext argument and writes one.
_VECTORS = {
    "add": 3, "sub": 3, "add_plain": 3, "mul": 3, "mul_plain": 3,
    "negate": 2, "rotate": 2, "encrypt": 1, "decrypt": 2,
}


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    deltas: dict = field(default_factory=lambda: dict.fromkeys(ADDITIVE, 0))
    max_levels: int = 0
    bytes: int = 0


@dataclass
class _Open:
    name: str
    span_id: int
    child_s: float = 0.0


class Tracer:
    """Span recorder; use as a context manager to install and remove the wrappers."""

    def __init__(self, keep_spans: bool = True):
        self.keep_spans = keep_spans
        self.call = -1
        self.spans: list[tuple] = []
        self.stats: dict[str, LayerStats] = {}
        self.compare_calls = 0
        self._stack: list[_Open] = []
        self._next_id = 0
        self._restore: list[tuple] = []
        self._t0 = time.perf_counter()

    def reset(self) -> dict[str, LayerStats]:
        """Start new per-layer totals; returns the old ones."""
        old = self.stats
        self.stats, self.compare_calls = {}, 0
        return old

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self):
        originals = {}
        for op in ENGINE_OPS:
            fn = HESimulator.__dict__[op]
            self._replace(HESimulator, op, self._wrap(f"engine.{op}", fn))
        for mod_name, names in LAYER_FUNCTIONS.items():
            mod = importlib.import_module(f"slotrank.{mod_name}")
            for name in names:
                fn = getattr(mod, name)
                originals[id(fn)] = (fn, self._wrap(f"{mod_name}.{name}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "slotrank" or mod_name.startswith("slotrank."):
                self._rebind(mod, originals)

    def uninstall(self):
        for owner, key, old in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._restore = []

    def _replace(self, owner, key, new):
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._restore.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, new)

    def _rebind(self, mod, originals):
        def swap(value):
            hit = originals.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        for key, value in list(vars(mod).items()):
            new = swap(value)
            if new is not None:
                self._replace(mod, key, new)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if isinstance(v, tuple):
                        swapped = tuple(swap(x) or x for x in v)
                        if any(a is not b for a, b in zip(swapped, v)):
                            self._replace(value, k, swapped)
                    elif swap(v) is not None:
                        self._replace(value, k, swap(v))

    def _wrap(self, name, fn):
        tracer = self
        op = name.removeprefix("engine.")
        vectors = _VECTORS.get(op)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_start = time.perf_counter()
            engine = args[0] if args and isinstance(args[0], HESimulator) else None
            parent = tracer._stack[-1] if tracer._stack else None
            span = _Open(name, tracer._next_id)
            tracer._next_id += 1
            before = engine.cost_snapshot() if engine is not None else None
            tracer._stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
            st = tracer.stats.setdefault(name, LayerStats())
            st.calls += 1
            st.self_s += end - start - span.child_s
            if engine is not None:
                after = engine.cost_snapshot()
                for c in ADDITIVE:
                    st.deltas[c] += getattr(after, c) - getattr(before, c)
                n_slots = engine.params.slot_count
                if op == "ideal_map":
                    st.bytes += 8 * n_slots * (1 + sum(isinstance(a, Ciphertext) for a in args[2:]))
                elif vectors is not None and not (op == "rotate" and result is args[1]):
                    st.bytes += 8 * n_slots * vectors
                if name == "chebyshev.ps_eval":
                    st.max_levels = max(st.max_levels, args[1].level - result.level)
            if name in COMPARE and (parent is None or parent.name not in COMPARE):
                tracer.compare_calls += 1
            if tracer.keep_spans:
                tracer.spans.append(
                    (tracer.call, span.span_id, parent.span_id if parent else None, name,
                     start - tracer._t0, end - tracer._t0)
                )
            if parent is not None:
                parent.child_s += time.perf_counter() - outer_start
            return result

        return traced


def layer_metrics(stats: dict[str, LayerStats], warm: dict[str, LayerStats], calls: int,
                  kernel_evals: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as means per workload call unless named otherwise.

    ``stats`` covers ``calls`` traced calls; ``warm`` covers the first call
    of the process, where the cached fits are made.
    """
    def st(name):
        return stats.get(name, LayerStats())

    out = {}

    def add(name, calls_and_self=True, **counters):
        if calls_and_self:
            out[f"{name}.calls"] = (st(name).calls / calls, "count")
            out[f"{name}.self_ms"] = (st(name).self_s * 1e3 / calls, "ms")
        for metric, counter in counters.items():
            out[f"{name}.{metric}"] = (st(name).deltas[counter] / calls, "count")

    for op in ENGINE_OPS:
        add(f"engine.{op}")
    engine_bytes = sum(s.bytes for name, s in stats.items() if name.startswith("engine."))
    out["engine.bytes_computed_mb"] = (engine_bytes / calls / 1e6, "MB")
    for layer, names in LAYER_FUNCTIONS.items():
        for name in names:
            add(f"{layer}.{name}", **({"rotations": "rotations"} if layer == "matrix" else {}))
    add("chebyshev.ps_eval", False, ctpt_mults="ctpt_mults", ctct_mults="ctct_mults")
    out["chebyshev.ps_eval.levels"] = (st("chebyshev.ps_eval").max_levels, "count")
    add("chebyshev.goldschmidt_inverse", False, ctct_mults="ctct_mults")
    fits = st("chebyshev.cheb_fit").calls
    out["chebyshev.fit_reuse_ratio"] = (1.0 - fits / kernel_evals if kernel_evals else 1.0, "ratio")
    out["chebyshev.cheb_fit.setup_ms"] = (warm.get("chebyshev.cheb_fit", LayerStats()).self_s * 1e3, "ms")
    for name in LAYER_FUNCTIONS["sorting"]:
        add(f"sorting.{name}", False, ctct_mults="ctct_mults")
    return out


def reconcile(stats: dict[str, LayerStats], compare_calls: int, totals: dict[str, int]) -> dict[str, tuple[int, int]]:
    """Traced count against the engine's own total, for each identity that must hold exactly."""
    def delta(names, counter):
        return sum(stats[n].deltas[counter] for n in names if n in stats)

    def calls(name):
        return stats.get(name, LayerStats()).calls

    return {
        "engine.rotate.calls == he_rotations": (calls("engine.rotate"), totals["rotations"]),
        "compare kernel calls == cmp_evals": (compare_calls, totals["cmp_evals"]),
        "indicator_kernel calls == ind_evals": (calls("chebyshev.indicator_kernel"), totals["ind_evals"]),
        "ct-pt deltas of mul_plain == he_ctpt_mults": (delta(["engine.mul_plain"], "ctpt_mults"), totals["ctpt_mults"]),
        "ct-ct deltas of mul == he_ctct_mults": (delta(["engine.mul"], "ctct_mults"), totals["ctct_mults"]),
        "addition deltas of add/sub/add_plain == he_additions": (
            delta(["engine.add", "engine.sub", "engine.add_plain"], "additions"), totals["additions"]),
    }
