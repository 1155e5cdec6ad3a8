"""Per-layer metrics derived from a Tracer after a traced repetition."""

from __future__ import annotations

from tracing import DECIDERS, Tracer

# layers whose self time inside the timed region is reported as a whole
LAYERS = ("rings", "ideals", "polys", "classify")

# metric -> unit; run.py reports exactly these with --trace 1
LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "rings.mul_arr.calls": "count",
    "rings.mul_arr.elems": "count",
    "rings.mul_arr.self_s": "s",
    "rings.add_arr.calls": "count",
    "rings.add_arr.elems": "count",
    "rings.add_arr.self_s": "s",
    "rings.structural_elems_frac": "fraction",
    "rings.ns_per_elem": "ns",
    "rings.build.count": "count",
    "rings.build_s": "s",
    "ideals.enumerate_ideals.calls": "count",
    "ideals.enumerate_ideals.builds": "count",
    "ideals.enumerate_ideals.self_s": "s",
    "ideals.lattice_ideals": "count",
    "ideals.additive_closure.calls": "count",
    "ideals.additive_closure.self_s": "s",
    "ideals.principal_masks.self_s": "s",
    "ideals.localize_at.calls": "count",
    "ideals.localize_at.builds": "count",
    "ideals.localize_at.self_s": "s",
    "ideals.units.self_s": "s",
    "ideals.is_locally_principal.self_s": "s",
    "ideals.is_invertible.self_s": "s",
    "ideals.content_ids.polys": "count",
    "ideals.content_ids.self_s": "s",
    "ideals.cache_hit_ratio": "fraction",
    "polys.witness_search.calls": "count",
    "polys.witness_search.candidates": "count",
    "polys.witness_search.self_s": "s",
    "polys.witness_search.cands_per_s": "1/s",
    "polys.pair_search.pairs": "count",
    "polys.pair_search.self_s": "s",
    "polys.pair_search.pairs_per_s": "1/s",
    "polys.certify.calls": "count",
    "polys.certify.searched_frac": "fraction",
    **{f"classify.{c}.s": "s" for c in DECIDERS},
    "classify.shared_lattice.s": "s",
    "classify.unattributed_frac": "fraction",
    "certs.replay_s": "s",
    "certs.replay.conditions": "count",
    "specfile.build_s": "s",
    "corpus.generate_s": "s",
    "reports.to_json_s": "s",
    "trace.wall_s": "s",
    "trace.self_coverage": "fraction",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "fraction",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, timed_self: dict[str, float],
                  replay: tuple[float, int]) -> dict[str, float]:
    """Every LAYER_UNITS metric except the two trace.overhead ones, which
    need an untraced run.  `timed_self` is each span's self time inside the
    timed region; the other metrics cover set-up as well."""
    calls, self_s, outer, ctr = (tracer.calls, tracer.self_s, tracer.outer_s,
                                 tracer.counters)
    out: dict[str, float] = {
        f"{layer}.self_s": sum((v for name, v in timed_self.items()
                                if name.startswith(layer + ".")), 0.0)
        for layer in LAYERS}
    for op in ("mul_arr", "add_arr"):
        out[f"rings.{op}.calls"] = calls.get(f"rings.{op}", 0)
        out[f"rings.{op}.elems"] = ctr.get(f"rings.{op}.elems", 0)
        out[f"rings.{op}.self_s"] = self_s.get(f"rings.{op}", 0.0)
    elems = out["rings.mul_arr.elems"] + out["rings.add_arr.elems"]
    out["rings.structural_elems_frac"] = _ratio(
        ctr.get("rings.structural_elems", 0), elems)
    out["rings.ns_per_elem"] = _ratio(
        1e9 * (out["rings.mul_arr.self_s"] + out["rings.add_arr.self_s"]),
        elems)
    out["rings.build.count"] = calls.get("rings.build", 0)
    out["rings.build_s"] = outer.get("rings.build", 0.0)

    for name in ("enumerate_ideals", "localize_at"):
        out[f"ideals.{name}.calls"] = calls.get(f"ideals.{name}", 0)
        out[f"ideals.{name}.builds"] = ctr.get(f"ideals.{name}.builds", 0)
        out[f"ideals.{name}.self_s"] = self_s.get(f"ideals.{name}", 0.0)
    out["ideals.lattice_ideals"] = ctr.get("ideals.lattice_ideals", 0)
    out["ideals.additive_closure.calls"] = calls.get(
        "ideals.additive_closure", 0)
    for name in ("additive_closure", "principal_masks", "units",
                 "is_locally_principal", "is_invertible", "content_ids"):
        out[f"ideals.{name}.self_s"] = self_s.get(f"ideals.{name}", 0.0)
    out["ideals.content_ids.polys"] = ctr.get("ideals.content_ids.polys", 0)
    out["ideals.cache_hit_ratio"] = _ratio(ctr.get("ideals.cache.hits", 0),
                                           ctr.get("ideals.cache.calls", 0))

    ws_s = self_s.get("polys.witness_search", 0.0)
    ws_cands = ctr.get("polys.witness_search.candidates", 0)
    out["polys.witness_search.calls"] = calls.get("polys.witness_search", 0)
    out["polys.witness_search.candidates"] = ws_cands
    out["polys.witness_search.self_s"] = ws_s
    out["polys.witness_search.cands_per_s"] = _ratio(ws_cands, ws_s)
    ps_s = self_s.get("polys.pair_search", 0.0)
    pairs = ctr.get("polys.pair_search.pairs", 0)
    out["polys.pair_search.pairs"] = pairs
    out["polys.pair_search.self_s"] = ps_s
    out["polys.pair_search.pairs_per_s"] = _ratio(pairs, ps_s)
    out["polys.certify.calls"] = calls.get("polys.certify", 0)
    out["polys.certify.searched_frac"] = _ratio(
        ctr.get("polys.certify.searched", 0), out["polys.certify.calls"])

    conditions = 0.0
    for condition in DECIDERS:
        value = outer.get(f"classify.{condition}", 0.0)
        out[f"classify.{condition}.s"] = value
        conditions += value
    lattice = ctr.get("classify.shared_lattice_s", 0.0)
    out["classify.shared_lattice.s"] = lattice
    total = outer.get("classify.classify", 0.0)
    out["classify.unattributed_frac"] = _ratio(total - conditions - lattice,
                                               total)

    out["certs.replay_s"], out["certs.replay.conditions"] = replay
    out["specfile.build_s"] = outer.get("specfile.build_ring", 0.0)
    out["corpus.generate_s"] = outer.get("corpus.generate_corpus", 0.0)
    out["reports.to_json_s"] = outer.get("reports.to_json", 0.0)
    out["trace.wall_s"] = wall_s
    out["trace.self_coverage"] = _ratio(sum(timed_self.values()), wall_s)
    return out
