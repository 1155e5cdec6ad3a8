"""Package imports follow the layer order rings → ideals → polys → classify →
corpus/harness/cli, so each fact (the unit/zerodivisor partition in
rings.py, say) has one home below everything that reads it.  Replay
(certs.py) sits on rings, ideals and polys and never reads the deciders or
the front ends, and only replay localizes (`ideals.localize_at`, the
quotient by the stable power of a maximal ideal).  The per-ring cache and the block-size rule of the
numpy scans live in rings.py alone: other modules go through FiniteRing.memo
and rings.blocks.  So do the element tables, whose storage dtype depends on
the order: other modules go through the ring and module operations, which
return intp.  A local factor's corner mask is named in ideals.py alone:
other modules read the fields of its factor record.  Neither the deciders
nor replay build a product ring or check a hom: `ideals.local_factors`
checks that R is the product of its local factors, and replay reads
R ≅ Π R_m from the kernels of its quotient maps by the Chinese remainder
theorem.  The deciders
read no scale constant: `ideals.enumerate_ideals` enforces the lattice bound
and `rings.unit_partition` the scan bound, and classify.py names the lattice
bound only to echo it in reports.  Replay builds no ideal lattice and
scans no n² products, so it re-checks every certificate at every order:
certs.py names neither the lattice nor either scale constant."""

import ast
from pathlib import Path

# read, not imported: a cycle the check should report would break the import
SOURCE = Path(__file__).resolve().parents[1] / "src" / "finring"

# module -> the only package modules it may import from
ALLOWED = {
    "rings": {"errors"},
    "ideals": {"rings", "errors"},
    "polys": {"ideals", "rings", "errors"},
    "certs": {"rings", "ideals", "polys", "errors"},
}
# the modules that may name `localize_at`: its home, replay, and the export
LOCALIZERS = {"ideals", "certs", "__init__"}
# the attributes that hold element tables, named in rings.py alone
TABLE_ATTRS = {"_tables", "_madd", "_mneg", "_act"}
# the mask of a local factor's corner eR, named in ideals.py alone
CORNER = "corner"
# the product ring and hom check that neither the deciders nor replay build
PRODUCT_CHECK = {"ProductRing", "RingHom"}
# the order bounds, which the modules that build lattices and scans enforce
SCALE_CONSTANTS = {"LATTICE_LIMIT", "KIND_SCAN_LIMIT"}
# the one place in classify.py that names one: the bound echoed in reports
SCALE_ECHO = {("ClassifyConfig.public_dict", "LATTICE_LIMIT")}
# the lattice and the two scale constants, which replay never names
LATTICE_NAMES = {"LATTICE_LIMIT", "KIND_SCAN_LIMIT", "enumerate_ideals"}
# module -> the package modules it must not import from
FORBIDDEN = {
    "classify": {"corpus", "harness", "cli", "specfile"},
}


def _package_imports(path: Path) -> set[str]:
    """Names of the package modules imported by `from .x import ...` or
    `from . import x`, at any nesting depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


def test_imports_follow_the_layer_order():
    imports = {p.stem: _package_imports(p) for p in SOURCE.glob("*.py")}
    assert set(ALLOWED) | set(FORBIDDEN) <= set(imports)
    violations = []
    for module, allowed in ALLOWED.items():
        violations += [(module, m) for m in sorted(imports[module] - allowed)]
    for module, forbidden in FORBIDDEN.items():
        violations += [(module, m) for m in sorted(imports[module] & forbidden)]
    assert violations == []


def test_layer_check_sees_nested_and_bare_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import corpus\n"
                     "def f():\n"
                     "    from .ideals import Ideal\n")
    assert _package_imports(probe) == {"corpus", "ideals"}


def _names(path: Path) -> set[str]:
    """Every identifier, attribute, definition, imported name (and its
    alias) and string constant in one module."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.FunctionDef):
            found.add(node.name)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(name for name in (node.name, node.asname) if name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_only_replay_localizes():
    naming = {p.stem for p in SOURCE.glob("*.py") if "localize_at" in _names(p)}
    assert naming <= LOCALIZERS
    assert {"ideals", "certs"} <= naming


def test_only_rings_reads_the_tables():
    naming = {p.stem: _names(p) & TABLE_ATTRS for p in SOURCE.glob("*.py")}
    assert {stem: names for stem, names in naming.items()
            if names and stem != "rings"} == {}
    assert naming["rings"] == TABLE_ATTRS


def test_replay_reads_no_lattice():
    assert _names(SOURCE / "certs.py") & LATTICE_NAMES == set()


def test_lattice_check_sees_aliases_and_attributes(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .ideals import LATTICE_LIMIT as BOUND\n"
                     "def f(ideals, rings, ring):\n"
                     "    assert ring.order ** 2 <= rings.KIND_SCAN_LIMIT\n"
                     "    return ideals.enumerate_ideals(ring)\n")
    assert _names(probe) & LATTICE_NAMES == LATTICE_NAMES


def test_deciders_build_no_product_ring():
    for module in ("classify", "certs"):
        assert _names(SOURCE / f"{module}.py") & PRODUCT_CHECK == set(), module


def test_product_check_sees_imports_and_attributes(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .rings import ProductRing\n"
                     "def f(rings, a, b, m):\n"
                     "    return rings.RingHom(a, b, m).verify()\n")
    assert _names(probe) & PRODUCT_CHECK == PRODUCT_CHECK


def _corner_names(path: Path) -> set[str]:
    """The names in one module that name a factor's corner, unpacked under
    an underscore name too."""
    return {name for name in _names(path)
            if name == CORNER or name.endswith("_" + CORNER)}


def test_only_ideals_names_the_corner():
    naming = {p.stem for p in SOURCE.glob("*.py") if _corner_names(p)}
    assert naming == {"ideals"}


def test_corner_check_sees_fields_and_unpacking(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text('"""Read each corner eR."""\n'
                     "def f(factors, bad):\n"
                     "    for _m, _e, _corner in factors:\n"
                     "        pass\n"
                     "    return bad.corner\n")
    assert _corner_names(probe) == {"_corner", "corner"}


def _home_violations(path: Path) -> list[str]:
    """Uses of the per-ring cache, and hand-rolled `max(1, a // b)` block
    sizes, in one module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr == "_cache":
            found.append(f"{path.stem}:{node.lineno}: _cache")
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "max" and len(node.args) == 2
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == 1
                and isinstance(node.args[1], ast.BinOp)
                and isinstance(node.args[1].op, ast.FloorDiv)):
            found.append(f"{path.stem}:{node.lineno}: block size")
    return found


def test_cache_and_block_sizes_live_in_rings():
    violations = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.stem != "rings":
            violations += _home_violations(path)
    assert violations == []


def test_home_check_sees_cache_and_block_sizes(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(ring, n):\n"
                     "    ring._cache.get('lattice')\n"
                     "    return max(1, CHUNK // max(1, n))\n")
    assert sorted(_home_violations(probe)) == ["probe:2: _cache",
                                               "probe:3: block size"]


def _scale_names(path: Path) -> set[tuple[str, str]]:
    """(scope, constant) for each name, attribute or import alias of a
    scale constant in one module, where the scope is the dotted names of
    the enclosing classes and functions, "" at module level."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Name):
                names = {child.id}
            elif isinstance(child, ast.Attribute):
                names = {child.attr}
            elif isinstance(child, ast.alias):
                names = {child.name, child.asname}
            else:
                names = set()
            found.update((scope, name) for name in names & SCALE_CONSTANTS)
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_deciders_read_no_scale_constant():
    assert _scale_names(SOURCE / "classify.py") == SCALE_ECHO


def test_scale_check_sees_imports_aliases_and_attributes(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .ideals import LATTICE_LIMIT as BOUND\n"
                     "class ClassifyConfig:\n"
                     "    def public_dict(self):\n"
                     "        from .ideals import LATTICE_LIMIT\n"
                     "        return LATTICE_LIMIT\n"
                     "def decide(ring, rings):\n"
                     "    return ring.order ** 2 > rings.KIND_SCAN_LIMIT\n")
    assert _scale_names(probe) == SCALE_ECHO | {
        ("", "LATTICE_LIMIT"), ("decide", "KIND_SCAN_LIMIT")}
