"""Spans and counters recorded around calls into finring's public functions.

`install` rebinds each traced function, in every loaded ``finring`` module
that holds it, to a wrapper that opens a span for the call; methods are
replaced on their class.  Nothing in ``src/finring`` changes, and
`Installation.remove` puts every original back.

A span's self time is its duration minus the time covered by its direct
child spans.  In one thread children never overlap, so this equals the
duration minus the part of the interval covered by any descendant.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# condition name -> the decider whose top-level call is charged to it;
# `gaussian` is the ring verdict that classify() computes before run()
DECIDERS = {
    "reduced": "decide_reduced",
    "semihereditary": "decide_semihereditary",
    "weak_dim_class": "decide_weak_dim",
    "arithmetical": "decide_arithmetical",
    "gaussian": "gaussian_ring_verdict",
    "pruefer": "decide_pruefer",
    "total_quotient_ring": "decide_total_quotient",
    "pseudo_arithmetical": "decide_pseudo_arithmetical",
    "zero_ideal_locally_irreducible": "decide_zero_locally_irreducible",
}


class Tracer:
    """Aggregates nested spans by name: calls, self time, and the inclusive
    time of outermost calls (a call not nested in a span of its own group)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []   # [group, tag, start, child_s, excluded_s]
        self._open: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.outer_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def begin(self, group: str, tag=None) -> None:
        self._open[group] = self._open.get(group, 0) + 1
        self._stack.append([group, tag, self.clock(), 0.0, 0.0])

    def end(self, name: str) -> float:
        """Close the innermost span, recording it under `name`; returns its
        duration."""
        group, _tag, start, child_s, excluded_s = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child_s
        if self._stack:
            self._stack[-1][3] += duration
        self._open[group] -= 1
        if self._open[group] == 0:
            self.outer_s[name] = (self.outer_s.get(name, 0.0)
                                  + duration - excluded_s)
        return duration

    def exclude_from_outer(self, group: str, tag, seconds: float) -> bool:
        """Take `seconds` out of the outer time of the outermost open span
        of `group` if that span carries `tag`; returns whether it did.

        This charges a shared build (a ring's ideal lattice) to its own
        span instead of to whichever decider happened to trigger it first.
        """
        for frame in self._stack:
            if frame[0] == group:
                if frame[1] is tag:
                    frame[4] += seconds
                    return True
                return False
        return False


def _span(tracer: Tracer, fn, name: str, group: str | None = None,
          before=None, after=None, tag=None):
    """Wrap `fn` in a span of `group` (default: its own name).
    `before(args)` returns a note that `after(args, result, note, duration)`
    receives; `tag(args)` labels the span for `Tracer.exclude_from_outer`."""
    group = group or name

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        note = before(args) if before is not None else None
        tracer.begin(group, tag(args) if tag is not None else None)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.end(name)
            raise
        duration = tracer.end(name)
        if after is not None:
            after(args, result, note, duration)
        return result

    return traced


class Installation:
    """The rebinding made by `install`; `remove` restores the originals."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def rebind_function(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "finring" and not mod_name.startswith("finring."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def rebind_method(self, cls, attr: str, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap the public entry points of every finring layer."""
    mods = {name: importlib.import_module(f"finring.{name}")
            for name in ("rings", "ideals", "polys", "classify", "corpus",
                         "harness", "reports", "specfile")}
    rings, ideals, polys = mods["rings"], mods["ideals"], mods["polys"]
    inst = Installation()

    def function(module, attr, name, group=None, before=None, after=None,
                 tag=None):
        original = getattr(module, attr)
        inst.rebind_function(
            original, _span(tracer, original, name, group, before, after, tag))

    def method(cls, attr, name, group=None, before=None, after=None):
        inst.rebind_method(
            cls, attr, _span(tracer, cls.__dict__[attr], name, group, before,
                             after))

    # rings: element operations and ring construction
    def elements(op):
        def after(args, result, _note, _duration):
            size = int(np.size(result))
            tracer.count(f"rings.{op}.elems", size)
            if args[0]._tables is None:
                tracer.count("rings.structural_elems", size)
        return after

    method(rings.FiniteRing, "mul_arr", "rings.mul_arr",
           after=elements("mul_arr"))
    method(rings.FiniteRing, "add_arr", "rings.add_arr",
           after=elements("add_arr"))
    for cls in (rings.ZmodRing, rings.GFRing, rings.ProductRing,
                rings.QuotientRing, rings.TrivialExtensionRing):
        method(cls, "__init__", "rings.build", group="rings.build")
    method(rings.RingHom, "verify", "rings.hom_verify")

    # ideals: the four per-ring caches count hits and misses
    def cached(kind, present):
        def before(args):
            hit = present(*args)
            tracer.count("ideals.cache.calls")
            tracer.count("ideals.cache.hits", int(hit))
            if not hit:
                tracer.count(f"ideals.{kind}.builds")
            return hit
        return before

    def lattice_built(args, result, hit, duration):
        if not hit:
            tracer.count("ideals.lattice_ideals", len(result))
            if tracer.exclude_from_outer("decider", args[0], duration):
                tracer.count("classify.shared_lattice_s", duration)

    function(ideals, "enumerate_ideals", "ideals.enumerate_ideals",
             before=cached("enumerate_ideals",
                           lambda ring, *_: "lattice" in ring._cache),
             after=lattice_built)
    function(ideals, "localize_at", "ideals.localize_at",
             before=cached("localize_at", lambda ring, maximal: maximal.mask
                           in ring._cache.get("localizations", {})))
    function(ideals, "content_calculus", "ideals.content_calculus",
             before=cached("content_calculus",
                           lambda ring: "content_calc" in ring._cache))
    function(ideals, "element_units_guarded", "ideals.units",
             before=cached("units", lambda ring: "units" in ring._cache))
    method(ideals.ContentCalculus, "content_ids", "ideals.content_ids",
           after=lambda args, _r, _n, _d: tracer.count(
               "ideals.content_ids.polys", int(np.size(args[1][0]))
               if args[1] else 0))
    for attr, name in (
            ("additive_closure_indices", "ideals.additive_closure"),
            ("principal_ideal_masks", "ideals.principal_masks"),
            ("is_locally_principal", "ideals.is_locally_principal"),
            ("is_invertible", "ideals.is_invertible"),
            ("is_principal", "ideals.is_principal"),
            ("is_local", "ideals.is_local"),
            ("maximal_ideals", "ideals.maximal_ideals"),
            ("ideal_generated_by", "ideals.ideal_generated_by"),
            ("ideal_product", "ideals.ideal_product"),
            ("make_quotient", "ideals.make_quotient"),
            ("zero_ideal_locally_irreducible",
             "ideals.zero_ideal_locally_irreducible")):
        function(ideals, attr, name)

    # polys: the two Gaussian searches and single-polynomial certification
    def witness_found(args, g, _note, _duration):
        f, degree_bound = args[0], args[1]
        n = f.ring.order
        if g is None:
            position = polys.cumulative_poly_count(n, degree_bound)
        else:
            coeffs = list(g.coeffs)
            d = len(coeffs) - 1
            index = sum(c * n**j for j, c in enumerate(coeffs)) - n**d
            position = polys.cumulative_poly_count(n, d - 1) + index + 1
        tracer.count("polys.witness_search.candidates", position)

    function(polys, "gaussian_witness_search", "polys.witness_search",
             after=witness_found)
    function(polys, "ring_gaussian_refutation_search", "polys.pair_search",
             after=lambda _a, result, _n, _d: tracer.count(
                 "polys.pair_search.pairs", result[2]))
    function(polys, "certify_gaussian", "polys.certify",
             before=lambda _args: tracer.calls.get("polys.witness_search", 0),
             after=lambda _a, _r, searches, _d: tracer.count(
                 "polys.certify.searched",
                 int(tracer.calls.get("polys.witness_search", 0) > searches)))

    # classify: the driver and the nine deciders
    function(mods["classify"], "classify", "classify.classify")
    for condition, attr in DECIDERS.items():
        function(mods["classify"], attr, f"classify.{condition}",
                 group="decider", tag=lambda args: args[0])

    # front ends
    function(mods["specfile"], "build_ring", "specfile.build_ring")
    function(mods["specfile"], "parse_ring_spec", "specfile.parse_ring_spec")
    function(mods["corpus"], "generate_corpus", "corpus.generate_corpus")
    function(mods["harness"], "build_residue_idealization",
             "harness.build_residue_idealization")
    function(mods["reports"], "to_json", "reports.to_json")
    return inst
