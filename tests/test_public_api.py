"""Every top-level function, class and assigned name (a namedtuple record, a
table, a constant) in ``src/spellcap`` has a caller in the program or the
benchmark, not only in tests.

A reference is a name, an attribute, or a string constant equal to the name
(the benchmark's ``layers.WRAPPED`` table names the functions it wraps as
strings). An import alone is not a reference, so a package re-export that
nothing reads does not keep a function alive. A reference inside the
defining statement does not count either, so neither a recursive call nor an
assignment's own target keeps a name alive. Dunder names such as
``__version__`` are read by tools outside the program and are exempt.
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


def _names(node):
    """The names a top-level statement defines: a function or class, or the
    plain names an assignment binds (records, tables, constants)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return []


# (file, name, references inside the defining statement)
DEFINED = [(path.relative_to(ROOT), name, _references(node)[name])
           for path, tree in SRC.items()
           for node in tree.body
           for name in _names(node)]


def test_every_public_definition_has_a_program_caller():
    unused = {f"{path}:{name}" for path, name, own in DEFINED
              if not name.startswith("_")
              and USED[name] == own and name not in ALLOWED}
    assert not unused, f"public definitions only tests call: {sorted(unused)}"


def test_every_private_helper_is_referenced_outside_its_definition():
    unused = {f"{path}:{name}" for path, name, own in DEFINED
              if name.startswith("_") and not name.startswith("__")
              and USED[name] == own}
    assert not unused, f"private definitions nothing else references: {sorted(unused)}"
