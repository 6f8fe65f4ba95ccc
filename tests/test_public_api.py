"""Every public top-level function and class in ``src/spellcap`` has a caller
in the program or the benchmark, not only in tests.

A reference is a name, an attribute, or a string constant equal to the name
(the benchmark's ``layers.WRAPPED`` table names the functions it wraps as
strings). An import alone is not a reference, so a package re-export that
nothing reads does not keep a function alive.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# word_error_rate gets its caller with the per-slice eval report
# (ROADMAP item 2).
ALLOWED = {"word_error_rate"}


def _trees(paths):
    return {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths}


def test_every_public_definition_has_a_program_caller():
    src = _trees(sorted((ROOT / "src" / "spellcap").rglob("*.py")))
    bench = _trees(sorted((ROOT / "perfbench").glob("*.py")))
    defined = {
        node.name: path.relative_to(ROOT)
        for path, tree in src.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    used = set()
    for tree in [*src.values(), *bench.values()]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    unused = {f"{path}:{name}" for name, path in defined.items()
              if name not in used and name not in ALLOWED}
    assert not unused, f"public definitions only tests call: {sorted(unused)}"
