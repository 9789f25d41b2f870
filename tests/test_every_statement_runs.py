"""Every statement of `src/fou` runs from a command.

`test_reachable.py` follows name references between top-level
definitions; this check runs the commands.  A fresh interpreter (this
file run as a script) installs a line tracer, `sys.settrace` and
`threading.settrace` for the worker threads, before it imports `fou.cli`,
so import-time lines and the first call of a cached function are seen.
It then runs a fixed corpus of argvs through `fou.cli.main`, with
FOU_THREADS=2 and every --out in a temporary directory:

* the argvs of `goldens.json`, with --format json;
* the exit-2 and exit-3 cases of `argvs.py`;
* `EXTRA` below: CSV output, an I/O error, the environment, the cell
  ceilings, the argv checks that the lists above leave out, and the
  series branches of `constants` that no golden reaches;
* one argv through `runpy`, as `python -m fou.cli` runs it, for `entry`
  and the `__main__` call.

Each case must exit with its expected code.  A statement is an `ast.stmt`
outside docstrings, and it ran if the tracer saw its first line.  A
statement that never ran fails the check unless `ALLOWED` lists it, by
its function and its text, with the reason it stays.  An `ALLOWED`
statement that now runs, or no longer exists, fails the check too.
"""
import ast
import contextlib
import functools
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

from argvs import EXIT_2, EXIT_3

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "fou"
SOURCES = {p.stem: p.read_text() for p in sorted(PKG.glob("*.py"))}

# function -> (its statements that no command runs, why they stay)
ALLOWED = {
    "fgn.gram_weights": (
        ("k = np.arange(grid.n)",
         "return increment_autocov(grid, hurst)[np.abs(k[:, None] - k)]"),
        "BENCHMARK.json names it as a per-layer metric; no command calls it"),
    "constants.gamma_p": (
        ('raise NumericsError(f"P(a, x) series did not converge at a = {a}, x = {x}")',),
        "a bounded loop says when it hits its bound; test_constants.py shows the "
        "documented (a, x) range converging with MAX_TERMS to spare"),
    "constants.kummer_1f1": (
        ('raise NumericsError(f"1F1(1; a+1; -x) did not converge at a = {a}, x = {x}")',),
        "a bounded loop says when it hits its bound; test_constants.py shows the "
        "documented (a, x) range converging with MAX_TERMS to spare"),
}

# (argv, expected exit code, environment, id); "{tmp}" is the run's directory
EXTRA = [
    (["estimate", "--theta", "1", "--hurst", "0.6", "--t", "10", "--n", "16", "--reps", "3"],
     0, {}, "csv_output"),
    (["bounds", "--theta", "1", "--hurst", "0.6", "--t", "10", "--n", "16",
      "--out", "{tmp}/no_such_dir/out.csv"], 4, {}, "out_in_missing_dir"),
    (["kolmogorov", "--theta", "1", "--hurst", "0.6", "--t", "10", "--n", "16", "--reps", "100"],
     2, {"FOU_THREADS": "abc"}, "threads_malformed"),
    (["kolmogorov", "--theta", "1", "--hurst", "0.6", "--t", "10", "--n", "16", "--reps", "100"],
     2, {"FOU_THREADS": "0"}, "threads_zero"),
    (["simulate", "--theta", "1", "--hurst", "0.6", "--t", "10", "--n", "4194305"],
     2, {}, "n_above_max_cells"),
    (["bounds", "--theta", "1", "--hurst", "0.6", "--t", "10", "--n", "8193"],
     2, {}, "n_above_max_bound_cells"),
    (["rate-fit", "--theta", "1", "--hurst", "0.6", "--t", "10,20", "--reps", "100"],
     2, {}, "rate_fit_two_horizons"),
    (["bounds", "--theta", "1", "--hurst", "0.6"], 2, {}, "no_horizon"),
    (["bounds", "--theta", "1", "--hurst", "0.8", "--t", "10", "--n", "16"],
     2, {}, "hurst_above_range"),
    (["kolmogorov", "--theta", "1", "--hurst", "0.75", "--t", "1,2", "--reps", "100"],
     2, {}, "three_quarters_unit_horizon"),
    # b_T's series below theta T = 1, and Kummer's asymptotic series from theta T = 80 on
    (["bounds", "--theta", "0.01", "--hurst", "0.6", "--t", "10,10000", "--n", "64"],
     0, {}, "theta_t_series_branches"),
]
# run as `python -m fou.cli`: `entry` and the `__main__` call
MODULE_ARGV = ["bounds", "--theta", "1", "--hurst", "0.6", "--t", "10", "--n", "16"]


def corpus():
    """(argv, expected exit code, environment, id) of every case but the
    `runpy` one."""
    goldens = json.loads((Path(__file__).parent / "goldens.json").read_text())
    return ([(case["argv"] + ["--format", "json"], 0, {}, f"golden_{name}")
             for name, case in sorted(goldens.items())]
            + [(argv, 2, {}, case_id) for argv, _, case_id in EXIT_2]
            + [(argv, 3, {}, case_id) for argv, _, case_id in EXIT_3]
            + EXTRA)


def trace_corpus(tmp: str) -> dict:
    """Run the corpus under a line tracer in this interpreter, which must not
    have imported `fou` yet; returns {"codes": {id: [exit code, stderr]},
    "lines": {module: lines run}}."""
    hits = {str(p): set() for p in PKG.glob("*.py")}

    def trace(frame, event, arg):
        lines = hits.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(trace)
    sys.settrace(trace)
    codes = {}

    def run(case_id, call, env):
        saved = dict(os.environ)
        os.environ.update(env)
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                code = call()
        except SystemExit as exc:
            code = exc.code
        finally:
            os.environ.clear()
            os.environ.update(saved)
        codes[case_id] = [code, err.getvalue()[-500:]]

    sys.argv = ["fou", *MODULE_ARGV, "--out", f"{tmp}/module.csv"]
    run("module", lambda: runpy.run_module("fou.cli", run_name="__main__"), {})
    import fou.cli

    for i, (argv, _, env, case_id) in enumerate(corpus()):
        argv = [a.format(tmp=tmp) for a in argv]
        if "--out" not in argv:
            argv += ["--out", f"{tmp}/{i}.out"]
        run(case_id, lambda: fou.cli.main(argv), env)
    sys.settrace(None)
    threading.settrace(None)
    assert Path(fou.cli.__file__).resolve().parent == PKG, fou.cli.__file__
    return {"codes": codes, "lines": {Path(p).stem: sorted(s) for p, s in hits.items()}}


@functools.lru_cache(maxsize=None)
def corpus_run() -> dict:
    """`trace_corpus` in a fresh interpreter, once per pytest run."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, FOU_THREADS="2")
    with tempfile.TemporaryDirectory() as tmp:
        res = subprocess.run([sys.executable, __file__, tmp], capture_output=True, text=True,
                             env=env, cwd=tmp)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def statements(module: str, source: str) -> list[tuple[str, int, str]]:
    """(enclosing function or class as module.name, first line, text with
    whitespace collapsed) of every statement of `source` outside docstrings."""
    out, lines = [], source.encode().splitlines()

    def text(node):  # `ast.get_source_segment` without re-splitting the source
        first, last = node.lineno - 1, node.end_lineno - 1
        chunk = b"\n".join(lines[first:last + 1])
        chunk = chunk[node.col_offset:len(chunk) - len(lines[last]) + node.end_col_offset]
        return " ".join(chunk.decode().split())

    def visit(node, scope):
        body = getattr(node, "body", None)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and not (
                    isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
                    and child is body[0] and isinstance(child, ast.Expr)
                    and isinstance(child.value, ast.Constant)
                    and isinstance(child.value.value, str)):
                out.append((scope, child.lineno, text(child)))
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if named else scope)

    visit(ast.parse(source), module)
    return out


def unexplained(sources: dict, lines: dict, allowed: dict) -> list[str]:
    """Statements of `sources` (module -> source) whose first line is not
    in `lines` (module -> lines run) and that `allowed` (function -> (texts,
    reason)) does not list, and `allowed` texts that ran or are gone."""
    problems, never, every = [], set(), set()
    for module, source in sources.items():
        run = set(lines.get(module, ()))
        for scope, line, text in statements(module, source):
            every.add((scope, text))
            if line not in run:
                never.add((scope, text))
                if text not in allowed.get(scope, ((), ""))[0]:
                    problems.append(f"{scope} line {line} never runs: {text}")
    for scope, (texts, _) in allowed.items():
        for text in texts:
            if (scope, text) not in never:
                state = "runs" if (scope, text) in every else "no longer exists"
                problems.append(f"allowed statement of {scope} {state}: {text}")
    return problems


def test_every_case_exits_as_expected():
    expected = {case_id: code for _, code, _, case_id in corpus()} | {"module": 0}
    codes = corpus_run()["codes"]
    assert {k: c for k, (c, _) in codes.items()} == expected, {
        k: err for k, (c, err) in codes.items() if c != expected.get(k)}


def test_every_statement_runs():
    assert len(ALLOWED) <= 3
    assert unexplained(SOURCES, corpus_run()["lines"], ALLOWED) == []


def test_check_flags_a_statement_that_never_runs():
    sources = {"m": 'def f(x):\n    """Doc."""\n    if x:\n        raise ValueError(\n'
                    '            x)\n    return x\n'}
    lines = {"m": [1, 3, 6]}
    assert unexplained(sources, lines, {}) == ["m.f line 4 never runs: raise ValueError( x)"]
    assert unexplained(sources, lines, {"m.f": (("raise ValueError( x)",), "why")}) == []
    # a planted function in a real module, against the corpus's lines
    lines = corpus_run()["lines"]
    planted = dict(SOURCES, fgn=SOURCES["fgn"] + "\n\ndef planted():\n    return 0\n")
    end = SOURCES["fgn"].count("\n")
    assert unexplained(planted, lines, ALLOWED) == [
        f"fgn line {end + 3} never runs: def planted(): return 0",
        f"fgn.planted line {end + 4} never runs: return 0"]


def test_check_flags_a_stale_allowance():
    lines = corpus_run()["lines"]
    stale = dict(ALLOWED, **{"cli.entry": (("raise SystemExit(main())",), "why")},
                 **{"fgn.Grid.step": (("return self.n",), "why")})
    assert unexplained(SOURCES, lines, stale) == [
        "allowed statement of cli.entry runs: raise SystemExit(main())",
        "allowed statement of fgn.Grid.step no longer exists: return self.n"]


if __name__ == "__main__":
    print(json.dumps(trace_corpus(sys.argv[1])))
