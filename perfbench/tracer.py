"""Span recorder for the traced run, wrapped around the program's layers.

The benchmark owns this instrumentation: nothing under ``src/`` changes.
``Tracer.install`` replaces each public layer function named in
``SPANS`` at every place it is bound -- the defining module, every module
that imported it by name, and the package namespace -- and patches the
class methods on their classes.  Spans (op, name, parent, start, end,
attributes) stay in memory until the worker writes them out.  Wreath
products run millions of times, so they are only counted.

Spans are recorded only while ``active`` is set, which the worker does
around each timed op, so checks and bookkeeping never show up as layer
time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _pairs(args, kwargs, result):
    left, right = args
    if not hasattr(right, "terms"):        # scalar multiple, no convolution
        return {"pairs": 0, "out": len(result)}
    return {"pairs": len(left) * len(right), "out": len(result)}


def _size(key):
    return lambda args, kwargs, result: {key: len(result)}


# span name -> (module, attribute or Class.method, attributes from the call)
SPANS = {
    "cli.main": ("lamplighter.cli", "main", None),
    "parsing.parse_ring_element": ("lamplighter.parsing", "parse_ring_element", None),
    "groupring.mul": ("lamplighter.groupring", "GroupRingElement.__mul__", _pairs),
    "groupring.left_mul_matrix": ("lamplighter.groupring", "left_mul_matrix",
                                  lambda a, k, r: {"cells": int(r.size)}),
    "groupring.to_json": ("lamplighter.groupring", "GroupRingElement.to_json", None),
    "foxwords.boundary_from_relators": ("lamplighter.foxwords",
                                        "boundary_from_relators", None),
    "foxwords.boundary_from_generators": ("lamplighter.foxwords",
                                          "boundary_from_generators", None),
    "certificates.certify": ("lamplighter.certificates", "certify", None),
    "certificates.zerodivisor_from_coefficients": (
        "lamplighter.certificates", "zerodivisor_from_coefficients", None),
    "certificates.right_annihilator": ("lamplighter.certificates",
                                       "right_annihilator", None),
    "certificates.lamp_subgroup": ("lamplighter.certificates", "lamp_subgroup",
                                   _size("elements")),
    "certificates.finite_subgroup_annihilator": (
        "lamplighter.certificates", "finite_subgroup_annihilator", _size("members")),
    "oresearch.window_elements": ("lamplighter.oresearch", "Window.elements",
                                  _size("count")),
    "oresearch.build_system": ("lamplighter.oresearch", "build_system", None),
    "oresearch.nullspace": ("lamplighter.oresearch", "nullspace", _size("dim")),
    "oresearch.annihilator_search": ("lamplighter.oresearch", "annihilator_search",
                                     lambda a, k, r: {"found": r is not None}),
    "oresearch.run_search": ("lamplighter.oresearch", "run_search", None),
    "linalg.nullspace_mod_p": ("lamplighter.linalg", "nullspace_mod_p", None),
    "linalg.rref_mod_p": ("lamplighter.linalg", "rref_mod_p",
                          lambda a, k, r: {"p": a[1], "cells": int(a[0].size)}),
}
COUNTED = {"wreath.mul": ("lamplighter.wreath", "WreathElement.__mul__")}


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans: list[list] = []     # [op, name, parent, start, end, attrs]
        self.stack: list[int] = []
        self.counts: dict[str, list[int]] = {}
        self.active = False
        self.op = -1
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, name, fn, attrs):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            rec = [tracer.op, name, tracer.stack[-1] if tracer.stack else -1,
                   clock(), None, None]
            tracer.spans.append(rec)
            tracer.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                tracer.stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, kwargs, result)
            return result
        return wrapper

    def _counter(self, name, fn):
        # Counts whether or not a span is open; the worker takes per-op
        # differences.  Kept minimal: it runs millions of times.
        cell = self.counts[name] = [0]

        @functools.wraps(fn)
        def wrapper(left, right):
            cell[0] += 1
            return fn(left, right)
        return wrapper

    def _patch(self, module_name, attr, make):
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "lamplighter" or name.startswith("lamplighter.")):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, binding, original))
                    setattr(mod, binding, wrapper)

    def install(self) -> "Tracer":
        """Wrap every layer function at every binding site."""
        import lamplighter  # noqa: F401  (loads every submodule)
        for name, (module, attr, attrs) in SPANS.items():
            self._patch(module, attr, lambda fn, n=name, a=attrs: self._span(n, fn, a))
        for name, (module, attr) in COUNTED.items():
            self._patch(module, attr, lambda fn, n=name: self._counter(n, fn))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Children run nested on one thread, so their intervals are disjoint and
    their durations add up to the covered part of the parent.
    """
    covered = [0.0] * len(spans)
    for _, _, parent, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (_, _, _, start, end, _), c in zip(spans, covered)]


def layer_metrics(spans, wreath_muls: int, cache_delta) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, as name -> (value, unit)."""
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    attr = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        _, name, _, start, end, attrs = span
        attrs = attrs or {}
        if name == "linalg.rref_mod_p":
            name = "linalg.rref_gf2" if attrs.get("p") == 2 else "linalg.rref_gfp"
        calls[name] += 1
        total[name] += end - start
        own[name] += self_s
        for key, value in attrs.items():
            attr[f"{name}.{key}"] += value

    def ratio(num, den):
        return num / den if den else 0.0

    hits, misses = cache_delta
    mul_pairs = attr["groupring.mul.pairs"]
    searches = calls["oresearch.annihilator_search"]
    m = {
        "cli.main.calls": (calls["cli.main"], "count"),
        "cli.main.self_s": (own["cli.main"], "s"),
        "parsing.parse_ring_element.calls": (calls["parsing.parse_ring_element"], "count"),
        "parsing.parse_ring_element.s": (total["parsing.parse_ring_element"], "s"),
        "wreath.mul.calls": (wreath_muls, "count"),
        "groupring.mul.calls": (calls["groupring.mul"], "count"),
        "groupring.mul.pairs": (mul_pairs, "count"),
        "groupring.mul.self_s": (own["groupring.mul"], "s"),
        "groupring.mul.pairs_per_s": (ratio(mul_pairs, own["groupring.mul"]), "1/s"),
        "groupring.mul.out_per_pair": (ratio(attr["groupring.mul.out"], mul_pairs), "ratio"),
        "groupring.left_mul_matrix.calls": (calls["groupring.left_mul_matrix"], "count"),
        "groupring.left_mul_matrix.cells": (attr["groupring.left_mul_matrix.cells"], "count"),
        "groupring.left_mul_matrix.s": (total["groupring.left_mul_matrix"], "s"),
        "groupring.to_json.s": (total["groupring.to_json"], "s"),
        "foxwords.boundary_from_relators.s": (total["foxwords.boundary_from_relators"], "s"),
        "foxwords.boundary_from_generators.s": (total["foxwords.boundary_from_generators"],
                                                "s"),
        "foxwords.relator_fox_derivative.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "certificates.zerodivisor_from_coefficients.s": (
            total["certificates.zerodivisor_from_coefficients"], "s"),
        "certificates.right_annihilator.s": (total["certificates.right_annihilator"], "s"),
        "certificates.lamp_subgroup.elements": (
            attr["certificates.lamp_subgroup.elements"], "count"),
        "certificates.finite_subgroup_annihilator.s": (
            total["certificates.finite_subgroup_annihilator"], "s"),
        "certificates.finite_subgroup_annihilator.members": (
            attr["certificates.finite_subgroup_annihilator.members"], "count"),
        "oresearch.window_elements.count": (attr["oresearch.window_elements.count"], "count"),
        "oresearch.window_elements.s": (total["oresearch.window_elements"], "s"),
        "oresearch.build_system.s": (total["oresearch.build_system"], "s"),
        "oresearch.nullspace.dim": (attr["oresearch.nullspace.dim"], "count"),
        "oresearch.annihilator_search.calls": (searches, "count"),
        "oresearch.annihilator_search.self_s": (own["oresearch.annihilator_search"], "s"),
        "oresearch.annihilator_search.found_ratio": (
            ratio(attr["oresearch.annihilator_search.found"], searches), "ratio"),
        "oresearch.run_search.self_s": (own["oresearch.run_search"], "s"),
        "linalg.rref_gf2.s": (total["linalg.rref_gf2"], "s"),
        "linalg.rref_gfp.s": (total["linalg.rref_gfp"], "s"),
        "linalg.rref.cells": (attr["linalg.rref_gf2.cells"] + attr["linalg.rref_gfp.cells"],
                              "count"),
        "linalg.nullspace_mod_p.self_s": (own["linalg.nullspace_mod_p"], "s"),
    }
    return {k: (float(v), u) for k, (v, u) in m.items()}
