"""Outside-in tracer for llschain.

Wraps the public functions and methods of each layer from outside the
package.  Each call opens a span (name, start, end, parent span); when the
span closes it is folded into per-name aggregates:

* ``calls``   -- number of calls;
* ``total_s`` -- wall time of the outermost activations of the name;
* ``self_s``  -- span time minus the time its child spans cover.

The modules bind copies of each other's names (``from .exactla import
kernel``), so every binding of a wrapped object, in every llschain module,
is replaced.  Cache hits and misses come from ``cache_info()`` of the
``lru_cache`` functions.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import time

import llschain
from llschain import chain_model, cli, exactla, generator, lattice, lls_core, simple_basis

MODULES = (llschain, exactla, lattice, chain_model, lls_core, simple_basis, generator, cli)

CALLS_SELF = ("calls", "self_s")
FULL = ("calls", "total_s", "self_s")
CACHE = ("hits", "misses", "self_s")

# (metric prefix, owner, attribute, stats reported).  Functions are rebound
# wherever an llschain module holds them; methods are wrapped on the class;
# CACHE entries are lru_cache functions.
TARGETS = (
    ("exactla.rref", exactla, "rref", CALLS_SELF),
    ("exactla.rref_with_transform", exactla, "rref_with_transform", CALLS_SELF),
    ("exactla.kernel", exactla, "kernel", CALLS_SELF),
    ("exactla.image", exactla, "image", CALLS_SELF),
    ("exactla.preimage", exactla, "preimage", CALLS_SELF),
    ("exactla.complement_in", exactla, "complement_in", CALLS_SELF),
    ("exactla.vec_matmul", exactla, "vec_matmul", CALLS_SELF),
    ("exactla.Matrix.matmul", exactla.Matrix, "__matmul__", CALLS_SELF),
    ("exactla.Subspace.span", exactla.Subspace, "span", CALLS_SELF),
    ("exactla.Subspace.and", exactla.Subspace, "__and__", CALLS_SELF),
    ("exactla.Subspace.add", exactla.Subspace, "__add__", CALLS_SELF),
    ("exactla.Subspace.apply", exactla.Subspace, "apply", CALLS_SELF),
    ("exactla.Subspace.le", exactla.Subspace, "__le__", CALLS_SELF),
    ("exactla.Subspace.contains", exactla.Subspace, "__contains__", CALLS_SELF),
    ("chain_model.skeleton", chain_model, "skeleton", FULL),
    ("chain_model.verify_sheaf_laws", chain_model, "verify_sheaf_laws", FULL),
    ("chain_model.h0_basis", chain_model, "h0_basis", CACHE),
    ("chain_model.twist_matrix", chain_model, "twist_matrix", CACHE),
    ("chain_model.vanishing_subspace", chain_model, "vanishing_subspace", CACHE),
    ("chain_model.canonical_matrix", chain_model, "canonical_matrix", CACHE),
    ("lattice.canonical_path", lattice, "canonical_path", ("calls",)),
    ("lls_core.load_instance", lls_core, "load_instance", FULL),
    ("lls_core.save_instance", lls_core, "save_instance", FULL),
    ("lls_core.validate", lls_core, "validate", FULL),
    ("lls_core.exactness", lls_core, "exactness", FULL),
    ("lls_core.codim_report", lls_core, "codim_report", FULL),
    ("lls_core.identity_suite", lls_core, "identity_suite", FULL),
    ("lls_core.distributive_at", lls_core, "distributive_at", FULL),
    ("lls_core.vanishing_in_v", lls_core, "vanishing_in_v", FULL),
    ("lls_core.canonical_matrix", lls_core, "canonical_matrix", FULL),
    ("simple_basis.is_simple", simple_basis, "is_simple", FULL),
    ("simple_basis.extract_certificate", simple_basis, "extract_certificate", FULL),
    ("simple_basis.verify_certificate", simple_basis, "verify_certificate", FULL),
    ("simple_basis.save_certificate", simple_basis, "save_certificate", FULL),
    ("generator.gen_simple", generator, "gen_simple", FULL),
    ("generator.gen_exact_search", generator, "gen_exact_search", FULL),
    ("generator.degrade", generator, "degrade", FULL),
)

COUNTERS = ("gen_simple.attempts", "gen_exact_search.expansions", "gen_exact_search.found")

STAGES = ("gen", "validate", "analyze", "certify")

_UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "hits": "count", "misses": "count"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    units: dict[str, str] = {}
    for prefix, _, _, stats in TARGETS:
        for stat in stats:
            units[f"{prefix}.{stat}"] = _UNITS[stat]
        if prefix == "exactla.Subspace.contains":
            units["exactla.entry_bits_max"] = "bits"
    for name in COUNTERS:
        units[f"generator.{name}"] = "count"
    units["generator.gen_simple.accept_ratio"] = "ratio"
    for stage in STAGES:
        units[f"cli.{stage}.total_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


class Tracer:
    """Installs the wrappers and collects aggregates until ``uninstall``."""

    def __init__(self) -> None:
        # name -> [calls, total_s, self_s, open activations]
        self.stats: dict[str, list] = {}
        self.cache: dict[str, list[int]] = {}
        self.counters = {name: 0 for name in COUNTERS}
        self.entry_bits_max = 0
        self._stack: list[float] = []  # child time covered, one slot per open span
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, on_result=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat[3] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stat[3] -= 1
                stat[0] += 1
                stat[2] += span - stack.pop()
                if not stat[3]:
                    stat[1] += span
                if stack:
                    stack[-1] += span
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _patch(self, holder, attr: str, replacement) -> None:
        self._patches.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, replacement)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {
            "generator.gen_simple": self._count_attempts,
            "generator.gen_exact_search": self._count_search,
            "exactla.Subspace.span": self._track_bits,
        }
        for prefix, owner, attr, stats in TARGETS:
            hook = hooks.get(prefix)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    self._patch(owner, attr, staticmethod(self._wrap(prefix, raw.__func__, hook)))
                else:
                    self._patch(owner, attr, self._wrap(prefix, raw, hook))
                continue
            original = getattr(owner, attr)
            if stats is CACHE:
                info = original.cache_info()
                self.cache[prefix] = [-info.hits, -info.misses]
            wrapped = self._wrap(prefix, original, hook)
            for module in MODULES:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapped)
        return self

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)
        for prefix, owner, attr, stats in TARGETS:
            if stats is CACHE:
                info = getattr(owner, attr).cache_info()
                self.cache[prefix][0] += info.hits
                self.cache[prefix][1] += info.misses

    def _count_attempts(self, result) -> None:
        self.counters["gen_simple.attempts"] += result.attempts

    def _count_search(self, result) -> None:
        self.counters["gen_exact_search.expansions"] += result.expansions
        self.counters["gen_exact_search.found"] += int(result.found)

    def _track_bits(self, subspace) -> None:
        bits = self.entry_bits_max
        for e in subspace.basis.entries:
            if e:
                bits = max(bits, e.numerator.bit_length(), e.denominator.bit_length())
        self.entry_bits_max = bits

    def aggregates(self) -> dict:
        """JSON-ready totals; call after ``uninstall``."""
        return {
            "stats": {name: stat[:3] for name, stat in self.stats.items()},
            "cache": {name: list(pair) for name, pair in self.cache.items()},
            "counters": dict(self.counters),
            "entry_bits_max": self.entry_bits_max,
        }


def merge(parts: list[dict]) -> dict:
    """Sum the aggregates of several traced processes (max for bit lengths)."""
    out = {"stats": {}, "cache": {}, "counters": {name: 0 for name in COUNTERS},
           "entry_bits_max": 0}
    for part in parts:
        for name, values in part["stats"].items():
            acc = out["stats"].setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += values[k]
        for name, values in part["cache"].items():
            acc = out["cache"].setdefault(name, [0, 0])
            acc[0] += values[0]
            acc[1] += values[1]
        for name, value in part["counters"].items():
            out["counters"][name] += value
        out["entry_bits_max"] = max(out["entry_bits_max"], part["entry_bits_max"])
    return out


def layer_metrics(agg: dict) -> dict[str, float]:
    """Per-layer values from merged aggregates.  The ``cli.*`` stage totals
    and ``trace.overhead_frac`` are measured by the caller."""
    values: dict[str, float] = {}
    for prefix, _, _, stats in TARGETS:
        calls, total, self_s = agg["stats"].get(prefix, (0, 0.0, 0.0))
        hits, misses = agg["cache"].get(prefix, (0, 0))
        measured = {"calls": calls, "total_s": total, "self_s": self_s,
                    "hits": hits, "misses": misses}
        for stat in stats:
            values[f"{prefix}.{stat}"] = measured[stat]
    values["exactla.entry_bits_max"] = agg["entry_bits_max"]
    for name in COUNTERS:
        values[f"generator.{name}"] = agg["counters"][name]
    attempts = agg["counters"]["gen_simple.attempts"]
    calls = agg["stats"].get("generator.gen_simple", (0,))[0]
    values["generator.gen_simple.accept_ratio"] = calls / attempts if attempts else 0.0
    return values
