"""Every top-level function and class in ``src/spellcap`` has a caller in the
program or the benchmark, not only in tests.

A reference is a name, an attribute, or a string constant equal to the name
(the benchmark's ``layers.WRAPPED`` table names the functions it wraps as
strings). An import alone is not a reference, so a package re-export that
nothing reads does not keep a function alive. A private helper must also be
referenced outside its own definition, so a recursive call does not keep it
alive.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# word_error_rate gets its caller with the per-slice eval report
# (ROADMAP item 3).
ALLOWED = {"word_error_rate"}


def _trees(paths):
    return {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths}


def _references(tree) -> Counter:
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used[node.value] += 1
    return used


SRC = _trees(sorted((ROOT / "src" / "spellcap").rglob("*.py")))
BENCH = _trees(sorted((ROOT / "perfbench").glob("*.py")))
USED = sum((_references(tree) for tree in [*SRC.values(), *BENCH.values()]), Counter())
DEFINED = [(path.relative_to(ROOT), node)
           for path, tree in SRC.items()
           for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def test_every_public_definition_has_a_program_caller():
    unused = {f"{path}:{node.name}" for path, node in DEFINED
              if not node.name.startswith("_")
              and not USED[node.name] and node.name not in ALLOWED}
    assert not unused, f"public definitions only tests call: {sorted(unused)}"


def test_every_private_helper_is_referenced_outside_its_definition():
    unused = {f"{path}:{node.name}" for path, node in DEFINED
              if node.name.startswith("_")
              and USED[node.name] == _references(node)[node.name]}
    assert not unused, f"private definitions nothing else references: {sorted(unused)}"
