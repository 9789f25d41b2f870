"""Grid and model admission live in `cli.resolve_horizons` only.

A stdlib `ast` check in the style of `test_fft_home.py`.  A horizon's
model, cell count and ceiling are decided in one place: `resolve_horizons`
checks theta and H, admits every horizon of a command, sizes its grid
and checks the count against `fgn.MAX_CELLS` or `bounds.MAX_BOUND_CELLS`.
Every other function takes the params and grid it is given, as
`ModelParams` and `Grid` are plain records that check nothing.  A
function makes admission policy when it calls `Grid(...)` or
`ModelParams(...)` or reads either ceiling, by its bare name or as a
module attribute; an assignment that defines a ceiling is not a read.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fou"
CEILINGS = {"MAX_CELLS", "MAX_BOUND_CELLS"}
RECORDS = {"Grid", "ModelParams"}
HOME = "cli.resolve_horizons"


def _name(node) -> str | None:
    return getattr(node, "id", None) or getattr(node, "attr", None)


def policy_sites(module: str, source: str) -> set[str]:
    """"module.function" of every function of `source` that calls Grid(...)
    or ModelParams(...) or reads a ceiling, and "module" itself for one at
    module level."""
    sites = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if (isinstance(node, ast.Call) and _name(node.func) in RECORDS
                or isinstance(node, (ast.Name, ast.Attribute))
                and isinstance(node.ctx, ast.Load) and _name(node) in CEILINGS):
            sites.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), module)
    return sites


def all_sites(sources: dict) -> set[str]:
    return set().union(*(policy_sites(module, source) for module, source in sources.items()))


def test_check_flags_every_form():
    source = ("from .fgn import Grid, MAX_CELLS\nfrom . import bounds\nLIMIT = MAX_CELLS\n"
              "MAX_BOUND_CELLS = 4\n"
              "def a(t):\n    return Grid(t, 4)\n"
              "def b(n):\n    return n > bounds.MAX_BOUND_CELLS\n"
              "class C:\n    def c(self, fgn):\n        return fgn.Grid(1.0, 2)\n"
              "def d(grid):\n    return grid.n\n"
              "def e(t):\n    return constants.ModelParams(1.0, 0.6, t)\n")
    assert policy_sites("m", source) == {"m", "m.a", "m.b", "m.C.c", "m.e"}


def test_check_flags_a_planted_violation():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    sources["montecarlo"] += "\n\ndef planted(t, dt):\n    return Grid(t, round(t / dt))\n"
    sources["bounds"] += ("\n\ndef planted(params, t):\n"
                          "    return ModelParams(params.theta, params.hurst, t)\n")
    assert all_sites(sources) == {HOME, "montecarlo.planted", "bounds.planted"}


def test_grid_policy_only_in_resolve_horizons():
    assert all_sites({p.stem: p.read_text() for p in SRC.glob("*.py")}) == {HOME}
