"""Every public name of the library has a caller outside the tests, and the
package top level re-exports exactly what README's "Library use" imports.

A public module-level function or class, or a public method or property, of
``src/relaygame`` must be named as a whole word somewhere in the library
(outside ``__init__.py`` and outside its own definition), in ``bench/`` or in
``tools/``.  A name that only the tests use is code kept for the tests.
``bench/spans.py`` does not count: its ``TRACED`` list times a name when
something calls it, so a mention there keeps nothing alive.  The names it alone
mentions are listed in ``TRACER_ONLY``, so a new one fails and so does a stale
entry.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "relaygame"
TRACER = ROOT / "bench" / "spans.py"

#: Public names with no caller: only the tracer's list mentions them.
TRACER_ONLY = {"throughput.optimize_messages", "throughput.throughput_general"}


def sources() -> dict[Path, list[str]]:
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += [p for p in sorted((ROOT / "bench").rglob("*.py")) if p != TRACER]
    files += sorted((ROOT / "tools").rglob("*.py"))
    return {p: p.read_text().splitlines() for p in files}


def public_definitions(tree: ast.Module):
    """(name, first line, last line) of each public top-level def or class and
    of each public def inside a top-level class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds[:2]) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.lineno, item.end_lineno


def test_every_public_name_has_a_caller_outside_the_tests():
    texts = sources()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for qualname, first, last in public_definitions(ast.parse("\n".join(texts[path]))):
            word = re.compile(rf"\b{re.escape(qualname.rsplit('.', 1)[-1])}\b")
            named = any(word.search(line)
                        for other, lines in texts.items()
                        for k, line in enumerate(lines, start=1)
                        if not (other == path and first <= k <= last))
            if not named:
                unused.append(f"{path.stem}.{qualname}")
    assert set(unused) == TRACER_ONLY


def readme_library_imports() -> set[str]:
    """Names the first code block under README's "Library use" imports from
    the package top level."""
    text = (ROOT / "README.md").read_text().split("## Library use", 1)[1]
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    return {alias.name for node in ast.walk(ast.parse(block))
            if isinstance(node, ast.ImportFrom) and node.module == "relaygame"
            for alias in node.names}


def test_package_top_level_is_what_readme_imports():
    import relaygame

    assert sorted(relaygame.__all__) == sorted(readme_library_imports() | {"__version__"})
    assert all(hasattr(relaygame, name) for name in relaygame.__all__)
