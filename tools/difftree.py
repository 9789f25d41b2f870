"""Run the CLI corpus through two source trees and report what differs.

    python3 tools/difftree.py PARENT_DIR

PARENT_DIR and the new tree (`ROOT`, the tree that holds this file) are
checkouts of the repository.  The corpus is read from the new tree:

* every argv of `tests/goldens.json`, once with CSV and once with JSON
  output;
* the argv of every `perfbench/run.py` workload, at --seed 42;
* every failure argv of `tests/argvs.py` (each list named `EXIT_<code>`).

Each argv runs in a fresh interpreter (`python -m fou.cli`, importing `fou`
from the tree's `src/`) once per tree and per FOU_THREADS value of
`THREADS`, in an
empty working directory with the relative `--out` of the same name, so
the stderr and the JSON `config.out` of both trees name the same path.
For each run it prints whether the exit code, the stderr and the output
bytes match, and the largest relative difference over the numeric cells
of the two outputs; then a summary.  Exit status 0 when every run
matches, 1 otherwise.  Only the standard library is used.
"""
from __future__ import annotations

import argparse
import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREADS = ("1", "2", "8")
PERFBENCH_SEED = "42"


def corpus(root: Path) -> list[tuple[str, list[str]]]:
    """(case id, argv without --out) of every run of the corpus of `root`."""
    goldens = json.loads((root / "tests" / "goldens.json").read_text())
    cases = [(f"golden_{name}_{fmt}", [*case["argv"], "--format", fmt])
             for name, case in sorted(goldens.items()) for fmt in ("csv", "json")]
    tree = ast.parse((root / "perfbench" / "run.py").read_text())
    workloads = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                     and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["WORKLOADS"])
    for key, value in zip(workloads.keys, workloads.values):
        argv = ast.literal_eval(value.elts[0])
        cases.append((f"perfbench_{ast.literal_eval(key)}", [*argv, "--seed", PERFBENCH_SEED]))
    lists = runpy.run_path(str(root / "tests" / "argvs.py"))
    for name in sorted(k for k in lists if k.startswith("EXIT_")):
        cases.extend((f"{name.lower()}_{case_id}", argv) for argv, _, case_id in lists[name])
    return cases


def run(tree: Path, argv: list[str], threads: str) -> tuple[int, str, bytes | None]:
    """(exit code, stderr, output bytes or None) of one CLI run on `tree`."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONPATH=str(tree / "src"), FOU_THREADS=threads)
    out = "out.json" if "json" in argv else "out.csv"
    with tempfile.TemporaryDirectory() as cwd:
        res = subprocess.run([sys.executable, "-m", "fou.cli", *argv, "--out", out],
                             capture_output=True, text=True, env=env, cwd=cwd)
        path = Path(cwd) / out
        return res.returncode, res.stderr, path.read_bytes() if path.exists() else None


def cells(data: bytes) -> list[str]:
    """Every cell of a CSV output, or every row value of a JSON one, as text."""
    text = data.decode()
    if text.startswith("{"):
        return [str(v) for row in json.loads(text)["rows"] for v in row.values()]
    return [cell for line in text.splitlines()[1:] for cell in line.split(",")]


def max_rel_diff(a: bytes, b: bytes) -> float | None:
    """Largest |x - y| / max(|x|, |y|) over the cells that are numbers on
    both sides; None when the two outputs do not have the same cell count."""
    ca, cb = cells(a), cells(b)
    if len(ca) != len(cb):
        return None
    worst = 0.0
    for x, y in zip(ca, cb):
        try:
            x, y = float(x), float(y)
        except ValueError:
            continue
        if x != y:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def compare(old, new) -> dict:
    """What matches between two `run` results."""
    (code_a, err_a, out_a), (code_b, err_b, out_b) = old, new
    both = out_a is not None and out_b is not None
    return {"exit": code_a == code_b, "codes": (code_a, code_b), "stderr": err_a == err_b,
            "output": out_a == out_b, "written": (out_a is not None, out_b is not None),
            "max_rel": max_rel_diff(out_a, out_b) if both else None}


def line(case_id: str, threads: str, c: dict) -> str:
    same = c["exit"] and c["stderr"] and c["output"]
    output = ("same" if c["output"] else "differs") if any(c["written"]) else "none"
    rel = "n/a" if c["max_rel"] is None else f"{c['max_rel']:.3g}"
    return (f"{'same' if same else 'DIFF':4}  {case_id}  FOU_THREADS={threads}: "
            f"exit {c['codes'][0]}/{c['codes'][1]}, stderr {'same' if c['stderr'] else 'differs'}, "
            f"output {output}, max rel diff {rel}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    parent = ap.parse_args(argv).parent
    differ = {}
    runs = 0
    for case_id, case_argv in corpus(ROOT):
        for threads in THREADS:
            c = compare(run(parent, case_argv, threads), run(ROOT, case_argv, threads))
            print(line(case_id, threads, c), flush=True)
            runs += 1
            if not (c["exit"] and c["stderr"] and c["output"]):
                differ.setdefault(case_id, []).append(threads)
    print(f"summary: {runs} runs, {runs - sum(map(len, differ.values()))} identical, "
          f"{sum(map(len, differ.values()))} differ in {len(differ)} case(s)")
    for case_id, threads in differ.items():
        print(f"  differs: {case_id} (FOU_THREADS={','.join(threads)})")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
