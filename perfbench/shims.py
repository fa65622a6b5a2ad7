"""Timing shims around the public functions of three cubespec layers.

The traced run installs a wrapper around every public function of
``complex_model``, ``hyperplane_engine`` and ``verifier``, in every
``cubespec`` module that binds it, so the program itself is not edited.
Each call of a wrapped function is a span: name, start, end, parent span
and command id.  Spans are kept in memory and written when the run ends.

Two kinds of function are not spans:

* per-cell helpers the builder calls hundreds of thousands of times
  (``PER_CELL``) are not wrapped, because a wrapper would distort the
  builder it sits in; the same holds for ``coeff_group``, which is not
  wrapped at all;
* per-witness functions (``PER_WITNESS``) and generators are aggregated
  per parent span into one record of calls and seconds.  A generator is
  timed only inside its own ``next`` calls, so the consumer's loop body
  is not charged to it.

A layer's self time is its span duration minus the time its child spans
and aggregates cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

from workloads import OSC_CASE_PREFIXES

LAYERS = ("complex_model", "hyperplane_engine", "verifier")
PER_CELL = frozenset(
    {"canonical_vertex", "edge_endpoints", "square_boundary", "vertex_id", "edge_id", "square_id"}
)
PER_WITNESS = frozenset(
    {"classify_osculation", "revalidate_osculation", "revalidate_crossing", "revalidate_one_sided"}
)
NOT_MATCHED = ("benign_nonadjacent", "unmatched")  # no enumerated configuration

# per-layer metrics: name -> unit; the traced run reports every one
LAYER_METRICS = {
    "complex_model.build_s": "s",
    "complex_model.build_calls": "count",
    "complex_model.cells": "count",
    "complex_model.validate_s": "s",
    "complex_model.to_json_s": "s",
    "complex_model.doc_bytes": "bytes",
    "complex_model.from_json_s": "s",
    "complex_model.check_npc_s": "s",
    "cli.self_s": "s",
    "hyperplane_engine.compute_hyperplanes_s": "s",
    "hyperplane_engine.classes": "count",
    "hyperplane_engine.interaction_report_s": "s",
    "hyperplane_engine.osculation_walk_s": "s",
    "hyperplane_engine.osc_pairs": "count",
    "hyperplane_engine.square_corner_pairs_s": "s",
    "hyperplane_engine.square_corner_pairs_calls": "count",
    "hyperplane_engine.core_edge_count": "count",
    "verifier.hidden_build_s": "s",
    "verifier.classify_s": "s",
    "verifier.witnesses_classified": "count",
    "verifier.matched_ratio": "ratio",
    "verifier.cross_validate_s": "s",
    "verifier.structural_s": "s",
    "verifier.certificates_s": "s",
    "verifier.configs_enumerated": "count",
    "verifier.nonempty_certificates": "count",
    "verifier.fallback_searches": "count",
    "trace.overhead_s": "s",
    "e2e.build_s": "s",
    "e2e.check_s": "s",
    "e2e.cross_validate_s": "s",
}


class Tracer:
    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.command: Optional[int] = None
        self.spans: list[dict] = []
        # (name, parent span id, command id) -> calls, seconds, extra count
        self.aggregates: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0])
        self._stack: list[dict] = []
        self._next_id = 0

    def parent_id(self) -> Optional[int]:
        return self._stack[-1]["id"] if self._stack else None

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": self._next_id,
            "name": name,
            "parent": self.parent_id(),
            "cmd": self.command,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self._next_id += 1
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def aggregate(self, name: str, parent: Optional[int], seconds: float, extra: int) -> None:
        agg = self.aggregates[(name, parent, self.command)]
        agg[0] += 1
        agg[1] += seconds
        agg[2] += extra

    def dump(self) -> list[dict]:
        """Spans and aggregates as JSON records, times relative to start."""
        out = [
            {**s, "start": s["start"] - self.origin, "end": s["end"] - self.origin}
            for s in sorted(self.spans, key=lambda s: s["id"])
        ]
        for (name, parent, cmd), (calls, seconds, extra) in self.aggregates.items():
            out.append(
                {"aggregate": name, "parent": parent, "cmd": cmd,
                 "calls": calls, "seconds": seconds, "count": extra}
            )
        return out


# ---------------------------------------------------------------------------
# wrappers


def _observe(name: str, result) -> dict:
    """Counts read off a span's result; cheap attribute and length reads."""
    if name == "complex_model.build_quotient_complex":
        return {"cells": sum(result.counts().values())}
    if name == "hyperplane_engine.compute_hyperplanes":
        return {"classes": result.n_classes}
    if name == "hyperplane_engine.core_edges":
        return {"core_edges": len(result)}
    return {}


def _span_shim(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def shim(*args, **kwargs):
        with tracer.span(name) as rec:
            result = fn(*args, **kwargs)
        rec["counts"].update(_observe(name, result))
        return result

    return shim


def _per_witness_shim(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def shim(*args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        seconds = time.perf_counter() - t0
        matched = isinstance(result, dict) and result.get("case_id") not in NOT_MATCHED
        tracer.aggregate(name, tracer.parent_id(), seconds, int(matched))
        return result

    return shim


def _generator_shim(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def shim(*args, **kwargs):
        it = fn(*args, **kwargs)
        parent = tracer.parent_id()
        seconds, yields = 0.0, 0
        try:
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    seconds += time.perf_counter() - t0
                    return
                seconds += time.perf_counter() - t0
                yields += 1
                yield item
        finally:
            it.close()
            tracer.aggregate(name, parent, seconds, yields)

    return shim


def _make_shim(tracer: Tracer, name: str, fn: Callable) -> Callable:
    if inspect.isgeneratorfunction(fn):
        return _generator_shim(tracer, name, fn)
    if fn.__name__ in PER_WITNESS:
        return _per_witness_shim(tracer, name, fn)
    return _span_shim(tracer, name, fn)


@contextmanager
def installed(tracer: Tracer):
    """Install the shims for the duration of the block; yields cli.main."""
    cli = importlib.import_module("cubespec.cli")
    shims = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"cubespec.{layer}")
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and attr not in PER_CELL
            ):
                shims[obj] = _make_shim(tracer, f"{layer}.{attr}", obj)
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "cubespec" and not modname.startswith("cubespec."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in shims:
                setattr(mod, attr, shims[obj])
                patched.append((mod, attr, obj))
    try:
        yield cli.main
    finally:
        for mod, attr, obj in patched:
            setattr(mod, attr, obj)


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer: Tracer, outcomes: list) -> dict[str, float]:
    """Per-layer metrics of one traced pass; 0 where a layer did not run.

    ``outcomes`` are the checked outcomes of the traced commands; the
    certificate counts and the document size come from their documents.
    """
    by_id = {s["id"]: s for s in tracer.spans}
    covered: dict[int, float] = defaultdict(float)
    for s in tracer.spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    agg_by_name: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
    for (name, parent, _cmd), (calls, seconds, extra) in tracer.aggregates.items():
        if parent is not None:
            covered[parent] += seconds
        total = agg_by_name[name]
        total[0] += calls
        total[1] += seconds
        total[2] += extra

    def self_s(name: str, parent_name: Optional[str] = None) -> float:
        return sum(
            s["end"] - s["start"] - covered[s["id"]]
            for s in tracer.spans
            if s["name"] == name
            and (parent_name is None
                 or (s["parent"] is not None and by_id[s["parent"]]["name"] == parent_name))
        )

    def calls(name: str) -> int:
        return sum(1 for s in tracer.spans if s["name"] == name)

    def count(name: str, key: str) -> int:
        return sum(s["counts"].get(key, 0) for s in tracer.spans if s["name"] == name)

    build = "complex_model.build_quotient_complex"
    classify = agg_by_name["verifier.classify_osculation"]
    walk = agg_by_name["hyperplane_engine.iter_osculations"]
    osc_certs = [
        c
        for o in outcomes
        if o.document is not None
        for c in o.document.get("certificates", [])
        if c["case_id"].startswith(OSC_CASE_PREFIXES)
    ]
    return {
        "complex_model.build_s": self_s(build),
        "complex_model.build_calls": calls(build),
        "complex_model.cells": count(build, "cells"),
        "complex_model.validate_s": self_s("complex_model.validate_complex"),
        "complex_model.to_json_s": self_s("complex_model.complex_to_json"),
        "complex_model.doc_bytes": sum(o.doc_bytes for o in outcomes if o.command.kind == "build"),
        "complex_model.from_json_s": self_s("complex_model.complex_from_json"),
        "complex_model.check_npc_s": self_s("complex_model.check_npc"),
        "cli.self_s": self_s("cli.main"),
        "hyperplane_engine.compute_hyperplanes_s": self_s("hyperplane_engine.compute_hyperplanes"),
        "hyperplane_engine.classes": count("hyperplane_engine.compute_hyperplanes", "classes"),
        "hyperplane_engine.interaction_report_s": self_s("hyperplane_engine.interaction_report"),
        "hyperplane_engine.osculation_walk_s": walk[1],
        "hyperplane_engine.osc_pairs": walk[2],
        "hyperplane_engine.square_corner_pairs_s": self_s("hyperplane_engine.square_corner_pairs"),
        "hyperplane_engine.square_corner_pairs_calls": calls("hyperplane_engine.square_corner_pairs"),
        "hyperplane_engine.core_edge_count": count("hyperplane_engine.core_edges", "core_edges"),
        "verifier.hidden_build_s": self_s(build, parent_name="verifier.verify_all"),
        "verifier.classify_s": classify[1],
        "verifier.witnesses_classified": classify[0],
        "verifier.matched_ratio": classify[2] / classify[0] if classify[0] else 0.0,
        "verifier.cross_validate_s": self_s("verifier.cross_validate"),
        "verifier.structural_s": self_s("verifier.check_structural_conditions"),
        "verifier.certificates_s": self_s("verifier.check_self_osculation_cases")
        + self_s("verifier.check_inter_osculation_cases"),
        "verifier.configs_enumerated": sum(c["enumerated"] for c in osc_certs),
        "verifier.nonempty_certificates": sum(1 for c in osc_certs if not c["empty"]),
        "verifier.fallback_searches": sum(
            1 for c in osc_certs if c["empty"] and c["named_character_valid"] is False
        ),
    }
