"""Independent replay of classification certificates.

Every replay function takes a ring plus the JSON-shaped result of one
condition ({"verdict", "certificate", "witness"?, "bound"?}) and re-checks
the claim from scratch: witnesses are re-encoded from literals and their
defining property is recomputed directly, structural rules re-verify their
premises, and universal positives are re-derived with O(n) element checks
and replay's own localizations.  Nothing from the original search (indices,
internal ids) is trusted; the one cached fact replay reads, the certified
unit partition, is read with its witnesses, which replay checks again with
its own products.  A failed replay raises ConsistencyError; bounded
verdicts replay vacuously (there is nothing to certify) but still get
their bound sanity-checked.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import ConsistencyError
from .ideals import (additive_closure_indices, ideal_generated_by, is_local,
                     localize_at, maximal_ideals, principal_ideal, push_ideal)
from .polys import content, make_poly, poly_mul
from .rings import (CACHE_BLOCK, FiniteRing, TrivialExtensionRing, blocks,
                    unit_partition)


def _fail(ring: FiniteRing, name: str, detail: str) -> None:
    raise ConsistencyError(f"replay of {name} on {ring.name} failed: {detail}")


def _as_literal(lit):
    """JSON arrays come back as lists; element literals use tuples."""
    if isinstance(lit, list):
        return tuple(_as_literal(x) for x in lit)
    return lit


def _encode(ring: FiniteRing, lit) -> int:
    return ring.encode_literal(_as_literal(lit))


def _encode_all(ring: FiniteRing, lits) -> list[int]:
    return [_encode(ring, lit) for lit in lits]


def _encode_poly(ring: FiniteRing, lits):
    return make_poly(ring, _encode_all(ring, lits))


def _square_is_zero(ring: FiniteRing, a: int) -> bool:
    return ring.mul(a, a) == ring.zero


def _principal_generator(ideal) -> int | None:
    """Scan every member as a candidate single generator; the first that
    generates the ideal, or None."""
    ring = ideal.ring
    for t in ideal.indices.tolist():
        if principal_ideal(ring, t).mask == ideal.mask:
            return t
    return None


def _localization(ring: FiniteRing, maximal):
    """R_m and the push of ideals of R into it: a local ring is its own,
    with no quotient copy, and any other R_m is R/mᵏ (`localize_at`)."""
    if is_local(ring) is not None:
        return ring, lambda ideal: ideal
    localized, hom = localize_at(ring, maximal)
    return localized, partial(push_ideal, hom)


def _arithmetical_ideal_count(ring: FiniteRing) -> int | None:
    """The number of ideals of R, or None when R is not arithmetical.

    Each localization R_m (a local ring is its own) must have a principal
    maximal ideal (π): every ideal of R_m is then a power of (π)
    (Atiyah–Macdonald, Prop. 8.8), the powers shrink strictly until they
    reach 0 (Nakayama), and the ideals of R are the products of theirs
    (Thm 8.7).  No lattice is read, so any order is answered."""
    count = 1
    for m in maximal_ideals(ring):
        local, push = _localization(ring, m)
        pi = _principal_generator(push(m))
        if pi is None:
            return None
        power, length = local.one, 1
        while power != local.zero:
            power, length = local.mul(power, pi), length + 1
        count *= length
    return count


def _check_ideal_count(ring: FiniteRing, certificate: dict, name: str) -> None:
    """The deciders read `ideal_count` from a formula; count it again."""
    count = _arithmetical_ideal_count(ring)
    if count is None:
        _fail(ring, name, "a non-locally-principal ideal exists")
    if certificate["ideal_count"] != count:
        _fail(ring, name, "ideal count mismatch")


def _require_local(ring: FiniteRing, name: str):
    maximal = is_local(ring)
    if maximal is None:
        _fail(ring, name, "ring claimed local is not local")
    return maximal


# ---------------------------------------------------------------------------


def _require_reduced(ring: FiniteRing, name: str) -> None:
    """No nonzero element squares to 0, from one O(n) product."""
    idx = np.arange(ring.order, dtype=np.int64)
    squares = ring.mul_arr(idx, idx)
    if bool(np.any((squares == ring.zero) & (idx != ring.zero))):
        _fail(ring, name, "a square-zero element exists")


def replay_reduced(ring: FiniteRing, result: dict) -> bool:
    if result["verdict"] is True:
        _require_reduced(ring, "reduced")
        return True
    a = _encode(ring, result["witness"]["element"])
    if a == ring.zero or not _square_is_zero(ring, a):
        _fail(ring, "reduced", "witness is not a nonzero square-zero element")
    return True


def _replay_vn_negative(ring: FiniteRing, witness: dict, name: str) -> None:
    a = _encode(ring, witness["element"])
    if a == ring.zero:
        _fail(ring, name, "witness element is zero")
    if witness["reason"] != "square_zero_witness":
        _fail(ring, name, f"unknown witness reason {witness['reason']!r}")
    if not _square_is_zero(ring, a):
        _fail(ring, name, "witness square is nonzero")


def replay_semihereditary(ring: FiniteRing, result: dict) -> bool:
    """A positive claim is von Neumann regularity, which for a finite ring
    is reducedness: a reduced finite ring is Artinian, hence a product of
    fields (Atiyah–Macdonald, Thm 8.7), and a square-zero a ≠ 0 has no x
    with a = a²x.  `localizations_are_fields` is read from replay's own
    localizations (`_localization`): each pushed maximal ideal is 0."""
    name = "semihereditary"
    if result["verdict"] is not True:
        _replay_vn_negative(ring, result["witness"], name)
        return True
    _require_reduced(ring, name)
    pushed = [_localization(ring, m)[1](m) for m in maximal_ideals(ring)]
    fields = all(ideal.is_zero() for ideal in pushed)
    if result["certificate"].get("localizations_are_fields") is not fields:
        _fail(ring, name, "localizations_are_fields contradicts the "
              "localizations")
    return True


def replay_weak_dim(ring: FiniteRing, result: dict) -> bool:
    """Zero is von Neumann regularity, replayed as reducedness (see
    `replay_semihereditary`)."""
    if result["verdict"] == "Zero":
        _require_reduced(ring, "weak_dim_class")
    elif result["verdict"] == "Infinite":
        _replay_vn_negative(ring, result["witness"], "weak_dim_class")
    else:
        _fail(ring, "weak_dim_class", f"verdict {result['verdict']!r} outside "
              "the finite-ring dichotomy")
    return True


# ---------------------------------------------------------------------------


def _claimed_localization(ring: FiniteRing, maximal_gens, name: str):
    """The claimed maximal ideal m, rebuilt from its generator literals,
    with R_m and its push (`_localization`)."""
    maximal = ideal_generated_by(ring, _encode_all(ring, maximal_gens))
    if maximal not in maximal_ideals(ring):
        _fail(ring, name, "claimed maximal ideal is not a maximal ideal")
    return (maximal, *_localization(ring, maximal))


def _replay_non_locally_principal(ring: FiniteRing, ideal, witness: dict,
                                  name: str):
    """Re-establish that the localization of the rebuilt ideal at the
    witness's maximal ideal is not principal, and check the witness's
    `localization_order`; returns the pushed ideal."""
    _, localized, push = _claimed_localization(ring, witness["maximal_gens"],
                                               name)
    if localized.order != witness["localization_order"]:
        _fail(ring, name, "localization order mismatch")
    pushed = push(ideal)
    if _principal_generator(pushed) is not None:
        _fail(ring, name, "pushed ideal is principal at the claimed maximal")
    return pushed


def replay_arithmetical(ring: FiniteRing, result: dict) -> bool:
    if result["verdict"] is True:
        _check_ideal_count(ring, result["certificate"], "arithmetical")
        return True
    witness = result["witness"]
    ideal = ideal_generated_by(ring, _encode_all(ring, witness["ideal_gens"]))
    if ideal.size != witness["ideal_order"]:
        _fail(ring, "arithmetical", "ideal order mismatch")
    pushed = _replay_non_locally_principal(ring, ideal, witness, "arithmetical")
    if pushed.size != witness["pushed_order"]:
        _fail(ring, "arithmetical", "pushed order mismatch")
    return True


# ---------------------------------------------------------------------------


def _replay_gaussian_yes(ring: FiniteRing, certificate: dict) -> None:
    rule = certificate["rule"]
    if rule == "arithmetical":
        if _arithmetical_ideal_count(ring) is None:
            _fail(ring, "gaussian", "arithmetical premise fails")
    elif rule == "local_square_zero_maximal":
        members = _require_local(ring, "gaussian").indices
        prods = ring.mul_arr(members[:, None], members[None, :])
        if bool(np.any(prods != ring.zero)):
            _fail(ring, "gaussian", "maximal ideal does not square to zero")
    elif rule == "gaussian_base_idealization":
        if not isinstance(ring, TrivialExtensionRing):
            _fail(ring, "gaussian", "ring is not a trivial extension")
        base, module = ring.base_ring, ring.ext_module
        maximal = _require_local(base, "gaussian")
        if module.order <= 1:
            _fail(ring, "gaussian", "extension module is zero")
        acts = module.act_arr(maximal.indices[:, None],
                              np.arange(module.order, dtype=np.int64)[None, :])
        if bool(np.any(acts != module.mzero)):
            _fail(ring, "gaussian", "maximal ideal does not annihilate the module")
        _replay_gaussian_yes(base, certificate["base_certificate"])
    elif rule == "local_factor_decomposition":
        _replay_decomposition(ring, certificate)
    else:
        _fail(ring, "gaussian", f"unknown positive rule {rule!r}")


def _replay_decomposition(ring: FiniteRing, certificate: dict) -> None:
    maximals = maximal_ideals(ring)
    if len(maximals) < 2:
        _fail(ring, "gaussian", "decomposition rule on a local ring")
    # R → Π R/K is a ring hom, since each R → R/K is a quotient map, and
    # bijective iff the kernels K meet in 0 and the orders multiply to |R|
    factors, meet, order = [], np.ones(ring.order, dtype=bool), 1
    for m in maximals:
        localized, hom = localize_at(ring, m)
        factors.append(localized)
        meet &= hom.map == localized.zero
        order *= localized.order
    if np.count_nonzero(meet) != 1 or order != ring.order:
        _fail(ring, "gaussian", "localization map is not bijective")
    details = certificate["factors"]
    if len(details) != len(factors):
        _fail(ring, "gaussian", "factor count mismatch")
    for factor, detail in zip(factors, details):
        if factor.order != detail["localization_order"]:
            _fail(ring, "gaussian", "factor order mismatch")
        if detail["status"] != "Yes":      # Yes only when every factor is
            _fail(ring, "gaussian", f"factor status {detail['status']!r}")
        _replay_gaussian_yes(factor, detail["certificate"])


def _replay_gaussian_no(ring: FiniteRing, witness: dict) -> None:
    """c(f)·c(g) is closed from all member products, not from generators."""
    f = _encode_poly(ring, witness["f"])
    g = _encode_poly(ring, witness["g"])
    lhs = content(poly_mul(f, g))
    prods = ring.mul_arr(content(f).indices[:, None], content(g).indices[None, :])
    rhs = additive_closure_indices(ring, prods.ravel())
    if np.array_equal(lhs.indices, rhs):
        _fail(ring, "gaussian", "witness pair satisfies the content formula")


def replay_gaussian(ring: FiniteRing, result: dict) -> bool:
    verdict = result["verdict"]
    if verdict == "Yes":
        _replay_gaussian_yes(ring, result["certificate"])
    elif verdict == "No":
        _replay_gaussian_no(ring, result["witness"])
    elif verdict == "BoundedYes":
        if result.get("bound") is None or result["bound"] < -1:
            _fail(ring, "gaussian", "bounded verdict without a usable bound")
    else:
        _fail(ring, "gaussian", f"unknown verdict {verdict!r}")
    return True


# ---------------------------------------------------------------------------


def _certified_unit_count(ring: FiniteRing, name: str) -> int:
    """The number of units of the certified partition (`unit_partition`),
    whose witnesses replay checks again with its own O(n) product a·w: 1
    for a unit, and 0 with w ≠ 0 for any other element.  A unit u with
    u·w = 0 has w = u⁻¹·u·w = 0, so no element passes both tests, and a
    mask whose witnesses all pass is exactly the units."""
    partition = unit_partition(ring)
    units, witness = partition.units, partition.witness
    prods = ring.mul_arr(np.arange(ring.order, dtype=np.int64), witness)
    if not (bool(np.all(prods[units] == ring.one))
            and bool(np.all(prods[~units] == ring.zero))
            and bool(np.all(witness[~units] != ring.zero))):
        _fail(ring, name, "a unit or zerodivisor witness fails")
    return int(np.count_nonzero(units))


def replay_pruefer(ring: FiniteRing, result: dict) -> bool:
    """Finite-ring collapse: a regular ideal contains a non-zerodivisor,
    which is a unit, and an ideal containing a unit absorbs 1, so R is the
    one regular ideal.  An arithmetical ring's `ideal_count` is counted by
    its chain rings at every order; any other ring's `unit_count` is checked
    against the units of the certified partition (`_certified_unit_count`)."""
    if result["verdict"] is not True:
        _fail(ring, "pruefer", "negative Prüfer verdict cannot arise over a "
              "finite commutative ring; refusing to replay")
    cert = result["certificate"]
    if cert["kind"] == "all_regular_ideals_invertible":
        _check_ideal_count(ring, cert, "pruefer")
        if cert["regular_ideal_count"] != 1:
            _fail(ring, "pruefer", "regular ideal count mismatch")
    elif cert["kind"] == "regular_ideals_collapse":
        if cert.get("unit_count") != _certified_unit_count(ring, "pruefer"):
            _fail(ring, "pruefer", "unit count mismatch")
    else:
        _fail(ring, "pruefer", f"unknown kind {cert['kind']!r}")
    return True


def replay_total_quotient(ring: FiniteRing, result: dict) -> bool:
    """Every element is a unit or a zerodivisor; the counts are checked
    against the certified partition (`_certified_unit_count`)."""
    name = "total_quotient_ring"
    if result["verdict"] is not True:
        _fail(ring, name, "negative verdict cannot arise over a finite "
              "commutative ring; refusing to replay")
    cert = result["certificate"]
    if cert["kind"] != "unit_zerodivisor_partition":
        _fail(ring, name, f"unknown kind {cert['kind']!r}")
    unit_count = _certified_unit_count(ring, name)
    if cert.get("unit_count") != unit_count:
        _fail(ring, name, "unit count mismatch")
    if cert.get("zerodivisor_count") != ring.order - unit_count:
        _fail(ring, name, "zerodivisor count mismatch")
    return True


# ---------------------------------------------------------------------------


def replay_pseudo_arithmetical(ring: FiniteRing, result: dict) -> bool:
    verdict = result["verdict"]
    if verdict == "Yes":
        _check_ideal_count(ring, result["certificate"], "pseudo_arithmetical")
        return True
    if verdict == "BoundedYes":
        if result.get("bound") is None:
            _fail(ring, "pseudo_arithmetical", "bounded verdict without bound")
        return True
    witness = result["witness"]
    f = _encode_poly(ring, witness["f"])
    claimed = ideal_generated_by(ring, _encode_all(ring, witness["content_gens"]))
    if content(f).mask != claimed.mask:
        _fail(ring, "pseudo_arithmetical",
              "witness content differs from the claimed ideal")
    if claimed.size != witness["content_order"]:
        _fail(ring, "pseudo_arithmetical", "content order mismatch")
    _replay_non_locally_principal(ring, claimed, witness["non_principal_at"],
                                  "pseudo_arithmetical")
    reason = witness["gaussian_reason"]
    if reason["rule"] == "ring_certified_gaussian":
        _replay_gaussian_yes(ring, reason["ring_certificate"])
    else:
        _fail(ring, "pseudo_arithmetical",
              f"Gaussian reason {reason['rule']!r} is not a sound rule for a "
              "proper-content polynomial")
    return True


def _socle_atom_count(local: FiniteRing, maximal, name: str) -> int:
    """The minimal nonzero ideals of a local ring (S, n), counted from its
    socle {x : x·n = 0}, found by multiplying every element by every member
    of n (the decider uses n's generators).  They are the lines of the
    socle over S/n, so there are (|soc| − 1)/(q − 1) for q = |S|/|n|; a
    field (n = 0) has none."""
    if maximal.is_zero():
        return 0
    n = local.order
    idx = np.arange(n, dtype=np.int64)
    members = maximal.indices
    socle = np.ones(n, dtype=bool)
    for start, stop in blocks(members.size, n, CACHE_BLOCK):
        prods = local.mul_arr(idx[:, None], members[None, start:stop])
        socle &= (prods == local.zero).all(axis=1)
    atoms, rest = divmod(int(socle.sum()) - 1, n // maximal.size - 1)
    if rest:
        _fail(local, name, "socle is not a space over the residue field")
    return atoms


def replay_zero_locally_irreducible(ring: FiniteRing, result: dict) -> bool:
    """Check every field of every row against the socle of replay's own
    localization (`_localization`), and a `false` verdict's witness against
    the first reducible row."""
    name = "zero_ideal_locally_irreducible"
    rows = result["certificate"]["localizations"]
    if len(rows) != len(maximal_ideals(ring)):
        _fail(ring, name, "localization count mismatch")
    seen, reducible = set(), None
    for row in rows:
        maximal, localized, push = _claimed_localization(
            ring, row["maximal_gens"], name)
        if maximal.mask in seen:
            _fail(ring, name, "a maximal ideal has two rows")
        seen.add(maximal.mask)
        if localized.order != row["localization_order"]:
            _fail(ring, name, "localization order mismatch")
        local_maximal = push(maximal)
        atoms = _socle_atom_count(localized, local_maximal, name)
        if atoms != row["atom_count"]:
            _fail(ring, name, "atom count mismatch")
        if row["field_like"] is not local_maximal.is_zero():
            _fail(ring, name, "field_like contradicts the localization")
        if row["irreducible"] is not (atoms <= 1):
            _fail(ring, name, "irreducible contradicts the recomputed atom count")
        if reducible is None and atoms >= 2:
            reducible = row
    if result["verdict"] is not (reducible is None):
        _fail(ring, name, "verdict contradicts recomputed atom counts")
    if reducible is not None and result.get("witness") != {
            key: reducible[key]
            for key in ("maximal_gens", "atom_count", "localization_order")}:
        _fail(ring, name, "witness is not the first reducible row")
    return True


# ---------------------------------------------------------------------------


_REPLAYERS = {
    "reduced": replay_reduced,
    "semihereditary": replay_semihereditary,
    "weak_dim_class": replay_weak_dim,
    "arithmetical": replay_arithmetical,
    "gaussian": replay_gaussian,
    "pruefer": replay_pruefer,
    "total_quotient_ring": replay_total_quotient,
    "pseudo_arithmetical": replay_pseudo_arithmetical,
    "zero_ideal_locally_irreducible": replay_zero_locally_irreducible,
}


def replay_condition(ring: FiniteRing, name: str, result: dict) -> bool:
    """Replay one condition: True, or ConsistencyError naming the first
    check that fails."""
    replayer = _REPLAYERS.get(name)
    if replayer is None:
        raise ConsistencyError(f"no replayer for condition {name!r}")
    return replayer(ring, result)


def replay_report(ring: FiniteRing, report: dict) -> int:
    """Replay every condition in a classification report dict; returns the
    number of conditions checked."""
    conditions = report["conditions"]
    for name, result in conditions.items():
        replay_condition(ring, name, result)
    return len(conditions)
