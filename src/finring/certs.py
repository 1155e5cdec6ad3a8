"""Independent replay of classification certificates.

Every replay function takes a ring plus the JSON-shaped result of one
condition ({"verdict", "certificate", "witness"?, "bound"?}) and re-checks
the claim from scratch: witnesses are re-encoded from literals and their
defining property is recomputed directly, structural rules re-verify their
premises, and universal positives are re-scanned.  Nothing from the original
search (indices, internal ids, cached masks) is trusted.  A failed replay
raises ConsistencyError; bounded verdicts replay vacuously (there is nothing
to certify) but still get their bound sanity-checked.
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError
from .ideals import (LATTICE_LIMIT, additive_closure_indices,
                     enumerate_ideals, ideal_generated_by, is_local,
                     localize_at, maximal_ideals, principal_ideal,
                     principal_in_local_ring, push_ideal)
from .polys import content, make_poly, poly_mul
from .rings import (CACHE_BLOCK, KIND_SCAN_LIMIT, FiniteRing, ProductRing,
                    RingHom, TrivialExtensionRing, blocks, element_units)


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


def _locally_principal_by_localization(ideal) -> tuple[bool, dict | None]:
    """Principal after pushing into every localization R_m, each built as
    the quotient by its annihilator kernel (`localize_at`), so replay shares
    none of the deciders' corner arithmetic.  A local ring is its own
    localization.  Returns (verdict, counterexample) like the deciders'
    `is_locally_principal`: the first failing maximal ideal, the order of
    the pushed ideal and the order of the localization."""
    ring = ideal.ring
    local = is_local(ring)
    if local is not None:
        if principal_in_local_ring(ideal)[0]:
            return True, None
        return False, {"maximal": local, "pushed_order": ideal.size,
                       "localization_order": ring.order}
    for m in maximal_ideals(ring):
        localized, hom = localize_at(ring, m)
        pushed = push_ideal(hom, ideal)
        if not principal_in_local_ring(pushed)[0]:
            return False, {"maximal": m, "pushed_order": pushed.size,
                           "localization_order": localized.order}
    return True, None


def _arithmetical_ideal_count(ring: FiniteRing) -> int | None:
    """The number of ideals of R, or None when R is not arithmetical.

    At lattice scale the whole lattice is re-scanned for an ideal that is
    not locally principal, and counted.  Above it each localization R_m (a
    local ring is its own) must have a principal maximal ideal (π): every
    ideal of R_m is then a power of (π) (Atiyah–Macdonald, Prop. 8.8), the
    powers shrink strictly until they reach 0 (Nakayama), and the ideals of
    R are the products of theirs (Thm 8.7)."""
    if ring.order <= LATTICE_LIMIT:
        lattice = enumerate_ideals(ring)
        if not all(_locally_principal_by_localization(ideal)[0]
                   for ideal in lattice.ideals):
            return None
        return len(lattice)
    factors = ([ring] if is_local(ring) is not None else
               [localize_at(ring, m)[0] for m in maximal_ideals(ring)])
    count = 1
    for local in factors:
        pi = _principal_generator(is_local(local))
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


def replay_reduced(ring: FiniteRing, result: dict) -> bool:
    if result["verdict"] is True:
        idx = np.arange(ring.order, dtype=np.int64)
        squares = ring.mul_arr(idx, idx)
        if bool(np.any((squares == ring.zero) & (idx != ring.zero))):
            _fail(ring, "reduced", "a square-zero element exists")
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


def _replay_vn_positive(ring: FiniteRing, name: str) -> None:
    n = ring.order
    idx = np.arange(n, dtype=np.int64)
    squares = ring.mul_arr(idx, idx)
    for start, stop in blocks(n, n, CACHE_BLOCK):
        rows = np.arange(start, stop, dtype=np.int64)
        ok = (ring.mul_arr(squares[rows][:, None], idx[None, :])
              == rows[:, None]).any(axis=1)
        if not bool(np.all(ok)):
            _fail(ring, name, "an element has no quasi-inverse")


def replay_semihereditary(ring: FiniteRing, result: dict) -> bool:
    if result["verdict"] is True:
        _replay_vn_positive(ring, "semihereditary")
    else:
        _replay_vn_negative(ring, result["witness"], "semihereditary")
    return True


def replay_weak_dim(ring: FiniteRing, result: dict) -> bool:
    if result["verdict"] == "Zero":
        _replay_vn_positive(ring, "weak_dim_class")
    elif result["verdict"] == "Infinite":
        _replay_vn_negative(ring, result["witness"], "weak_dim_class")
    else:
        _fail(ring, "weak_dim_class", f"verdict {result['verdict']!r} outside "
              "the finite-ring dichotomy")
    return True


# ---------------------------------------------------------------------------


def _replay_non_locally_principal(ring: FiniteRing, ideal, witness: dict,
                                  name: str):
    """Re-establish that the localization of the rebuilt ideal at the
    witness's maximal ideal is not principal, and check the witness's
    `localization_order`; returns the pushed ideal.  A local ring is its own
    localization, so it is not scanned for its kernel."""
    maximal = ideal_generated_by(ring, _encode_all(ring, witness["maximal_gens"]))
    if not maximal.is_proper():
        _fail(ring, name, "claimed maximal ideal is the unit ideal")
    local = is_local(ring)
    if local is not None:
        if maximal.mask != local.mask:
            _fail(ring, name, "claimed maximal ideal is not the maximal ideal")
        localized, pushed = ring, ideal
    else:
        localized, hom = localize_at(ring, maximal)
        pushed = push_ideal(hom, ideal)
    if localized.order != witness["localization_order"]:
        _fail(ring, name, "localization order mismatch")
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
    factors = []
    combined = np.zeros(ring.order, dtype=np.int64)
    for m in maximals:
        localized, hom = localize_at(ring, m)
        factors.append(localized)
        combined = combined * localized.order + hom.map
    product = factors[0]
    for extra in factors[1:]:
        product = ProductRing(product, extra, spec=None)
    if sorted(combined.tolist()) != list(range(ring.order)):
        _fail(ring, "gaussian", "localization map is not bijective")
    if not RingHom(ring, product, combined).verify():
        _fail(ring, "gaussian", "localization map is not a ring hom")
    details = certificate["factors"]
    if len(details) != len(factors):
        _fail(ring, "gaussian", "factor count mismatch")
    for factor, detail in zip(factors, details):
        if factor.order != detail["localization_order"]:
            _fail(ring, "gaussian", "factor order mismatch")
        if detail["status"] == "Yes":
            _replay_gaussian_yes(factor, detail["certificate"])
        # bounded factors carry no certificate to replay


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


def replay_pruefer(ring: FiniteRing, result: dict) -> bool:
    """Finite-ring collapse, re-derived: a regular ideal contains a unit,
    units are re-identified (constructively above the scan cap), and an ideal
    containing a unit absorbs 1, so it is the whole ring.  An arithmetical
    ring's `ideal_count` is checked on the lattice at lattice scale, where
    every regular ideal is re-scanned, and by its chain rings above it."""
    if result["verdict"] is not True:
        _fail(ring, "pruefer", "negative Prüfer verdict cannot arise over a "
              "finite commutative ring; refusing to replay")
    units = element_units(ring)
    cert = result["certificate"]
    if cert["kind"] == "all_regular_ideals_invertible":
        if ring.order > LATTICE_LIMIT:
            count = _arithmetical_ideal_count(ring)
        else:
            ideals = enumerate_ideals(ring).ideals
            if any(units[ideal.indices].any() and not ideal.is_unit_ideal()
                   for ideal in ideals):
                _fail(ring, "pruefer", "a proper ideal contains a unit")
            count = len(ideals)
        if (cert["ideal_count"], cert["regular_ideal_count"]) != (count, 1):
            _fail(ring, "pruefer", "ideal count mismatch")
    expected = cert.get("unit_count")
    if expected is not None and int(units.sum()) != expected:
        _fail(ring, "pruefer", "unit count mismatch")
    return True


def replay_total_quotient(ring: FiniteRing, result: dict) -> bool:
    if result["verdict"] is not True:
        _fail(ring, "total_quotient_ring", "negative verdict cannot arise over "
              "a finite commutative ring; refusing to replay")
    units = element_units(ring)
    cert = result["certificate"]
    if cert["kind"] != "unit_zerodivisor_partition":
        _fail(ring, "total_quotient_ring", f"unknown kind {cert['kind']!r}")
    n = ring.order
    if n * n <= KIND_SCAN_LIMIT:   # above it, the partition's own witnesses
        idx = np.arange(n, dtype=np.int64)
        zd = np.zeros(n, dtype=bool)
        zd[ring.zero] = True
        for start, stop in blocks(n, n, CACHE_BLOCK):
            rows = np.arange(start, stop, dtype=np.int64)
            prods = ring.mul_arr(rows[:, None], idx[None, 1:])
            zd[rows] |= (prods == ring.zero).any(axis=1)
        if not bool(np.all(units ^ zd)):
            _fail(ring, "total_quotient_ring", "partition failed")
    if int(units.sum()) != cert["unit_count"]:
        _fail(ring, "total_quotient_ring", "unit count mismatch")
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


def replay_zero_locally_irreducible(ring: FiniteRing, result: dict) -> bool:
    """Check every field of every row against the lattice of a localization
    built by the full kernel scan (the decider reads socles instead)."""
    name = "zero_ideal_locally_irreducible"
    rows = result["certificate"]["localizations"]
    if len(rows) != len(maximal_ideals(ring)):
        _fail(ring, name, "localization count mismatch")
    saw_reducible = False
    for row in rows:
        maximal = ideal_generated_by(ring, _encode_all(ring, row["maximal_gens"]))
        localized, _ = localize_at(ring, maximal)
        lattice = enumerate_ideals(localized)
        atoms = lattice.atoms
        if len(atoms) != row["atom_count"]:
            _fail(ring, name, "atom count mismatch")
        if localized.order != row["localization_order"]:
            _fail(ring, name, "localization order mismatch")
        if row["field_like"] is not (len(lattice) == 2):
            _fail(ring, name, "field_like contradicts the localization's lattice")
        if row["irreducible"] is not (len(atoms) <= 1):
            _fail(ring, name, "irreducible contradicts the recomputed atom count")
        if len(atoms) >= 2:
            saw_reducible = True
            if (atoms[0].mask & atoms[1].mask) != 1:
                _fail(ring, name, "two atoms share a nonzero element")
    if result["verdict"] is not (not saw_reducible):
        _fail(ring, name, "verdict contradicts recomputed atom counts")
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
