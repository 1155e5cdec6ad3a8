"""Package imports follow the layer order rings → ideals → polys → classify →
corpus/harness/cli, so each fact (the unit/zerodivisor partition in
rings.py, say) has one home below everything that reads it."""

import ast
from pathlib import Path

# read, not imported: a cycle the check should report would break the import
SOURCE = Path(__file__).resolve().parents[1] / "src" / "finring"

# module -> the only package modules it may import from
ALLOWED = {
    "rings": {"errors"},
    "ideals": {"rings", "errors"},
    "polys": {"ideals", "rings", "errors"},
}
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
