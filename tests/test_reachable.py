"""Every top-level function and class in `src/fou` is reachable from a command.

A stdlib `ast` check in the style of `test_imports.py`.  Starting from
`cli.entry`, `cli.main` and the functions that `BENCHMARK.json` names per
layer, it follows name references through the bodies of top-level
definitions and assignments: a bare name defined in the same module, a name
bound by `from .module import name`, and `module.name` through
`from . import module`.  A top-level function or class that no chain
reaches is read only by tests, and fails the test.
"""
import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = {p.stem: p.read_text() for p in sorted((ROOT / "src" / "fou").glob("*.py"))}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
ROOTS = {("cli", "entry"), ("cli", "main")} | {
    tuple(m["name"].split(".")[:2]) for m in BENCHMARK["per_layer"]
    if m["name"].count(".") == 2 and m["name"].endswith((".calls", ".self_s"))}


def unreachable(sources: dict, roots) -> list[str]:
    """Top-level functions and classes of `sources` (module name -> source)
    that no chain of name references from `roots` ((module, name) pairs)
    reaches, as "module.name"."""
    refs, defs = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        names, modules, top = {}, {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        names[alias.asname or alias.name] = (node.module, alias.name)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                top[node.name] = node
                defs.add((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if isinstance(target, ast.Name):
                        top[target.id] = node
        for name, node in top.items():
            out = refs.setdefault((module, name), set())
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id in top:
                    out.add((module, sub.id))
                elif isinstance(sub, ast.Name) and sub.id in names:
                    out.add(names[sub.id])
                elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                      and sub.value.id in modules):
                    out.add((modules[sub.value.id], sub.attr))
    seen, stack = set(), list(roots)
    while stack:
        key = stack.pop()
        if key not in seen:
            seen.add(key)
            stack.extend(refs.get(key, ()))
    return sorted(f"{m}.{n}" for m, n in defs - seen)


def test_check_flags_an_unreachable_definition():
    sources = {
        "cli": "from . import core as c\nfrom .util import helper\n"
               "def main():\n    return c.run() + helper()\n",
        "core": "TABLE = {'a': lambda: _step()}\ndef _step():\n    return 1\n"
                "def run():\n    return TABLE\nclass Dead:\n    pass\n"
                "def orphan():\n    return run()\n",
        "util": "def helper():\n    return 0\ndef unused():\n    return helper()\n",
    }
    assert unreachable(sources, {("cli", "main")}) == ["core.Dead", "core.orphan", "util.unused"]


def test_every_definition_is_reachable():
    assert unreachable(SOURCES, ROOTS) == []


def test_only_the_benchmark_keeps_the_kernels_alive():
    # a definition that only a BENCHMARK.json name reaches is production code
    # no command runs; `fgn.gram_weights` is the one left, kept while the
    # benchmark names it
    cli_roots = {("cli", "entry"), ("cli", "main")}
    assert unreachable(SOURCES, cli_roots) == ["fgn.gram_weights"]
