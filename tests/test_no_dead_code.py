"""Every top-level function and class in petmine has a caller.

A definition counts as used when its name appears in ``src/petmine`` or
``pipeline_bench`` outside its own body: as a name, as an attribute, or as
a part of a dotted string such as a ``SPANS`` entry.  Tests do not count,
so code that only a test reaches shows up here.  This reads the sources
with ``ast``; nothing is imported.
"""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "petmine"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted(
    (ROOT / "pipeline_bench").rglob("*.py"))

# reached by the tests alone, on purpose
EXCEPTIONS = {
    # the probe test_kernels checks the counter-based stream with, in both
    # kernel modes; the sampler kernels inline the same draw
    "kernels.draw_uniform",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _names(tree) -> collections.Counter:
    """Every name, attribute and dotted-string part under ``tree``."""
    found = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            found.update(node.value.split("."))
    return found


def _unreferenced() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    everywhere = sum(map(_names, trees.values()), collections.Counter())
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = _names(node)[node.name]
                if everywhere[node.name] <= own:
                    unused.append(f"{path.stem}.{node.name}")
    return unused


def test_every_top_level_definition_has_a_caller():
    assert set(_unreferenced()) == EXCEPTIONS
