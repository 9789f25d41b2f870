"""`tools/difftree.py` compares two synthetic trees whose CLI differs in one factor.

Each tree holds a stand-in `fou.cli` that writes one row (CSV or JSON) and
fails on the argv `fail`, a `tests/goldens.json`, a `tests/argvs.py` and a
`perfbench/run.py`; the corpus is read from the new tree."""
import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("difftree", ROOT / "tools" / "difftree.py")
difftree = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(difftree)

CLI = '''import json
import sys

FACTOR = {factor}


def main(argv):
    out = argv[argv.index("--out") + 1]
    if argv[0] == "fail":
        print("[fou] invalid configuration: bad", file=sys.stderr)
        return 2
    x = float(argv[1]) * FACTOR
    if "json" in argv:
        text = json.dumps({{"config": {{"out": out}}, "rows": [{{"T": 1.0, "x": x, "m": "a"}}]}})
    else:
        text = f"T,x,m\\n1.0,{{x!r}},a\\n"
    with open(out, "w") as fh:
        fh.write(text)
    print(f"[fou] wrote 1 row(s) to {{out}}", file=sys.stderr)
    return 0


raise SystemExit(main(sys.argv[1:]))
'''


def make_tree(root: Path, factor: float) -> Path:
    (root / "src" / "fou").mkdir(parents=True)
    (root / "src" / "fou" / "__init__.py").write_text("")
    (root / "src" / "fou" / "cli.py").write_text(CLI.format(factor=factor))
    (root / "tests").mkdir()
    (root / "tests" / "goldens.json").write_text(
        json.dumps({"g": {"argv": ["scale", "2"], "rows": []}}))
    (root / "tests" / "argvs.py").write_text(
        'EXIT_2 = [(["fail"], "bad", "fail_case")]\nOTHER = [(["scale", "9"], "", "x")]\n')
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text(
        'WORKLOADS = {\n    "w": (["scale", "3"], 3 * 1),\n}\n')
    return root


def test_corpus_of_synthetic_tree(tmp_path):
    tree = make_tree(tmp_path / "t", 1.0)
    assert difftree.corpus(tree) == [
        ("golden_g_csv", ["scale", "2", "--format", "csv"]),
        ("golden_g_json", ["scale", "2", "--format", "json"]),
        ("perfbench_w", ["scale", "3", "--seed", "42"]),
        ("exit_2_fail_case", ["fail"]),
    ]


def test_identical_trees_match(tmp_path, capsys, monkeypatch):
    old = make_tree(tmp_path / "old", 1.0)
    monkeypatch.setattr(difftree, "ROOT", shutil.copytree(old, tmp_path / "new"))
    monkeypatch.setattr(difftree, "THREADS", ("1", "2"))
    assert difftree.main([str(old)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9
    assert all(line.startswith("same ") for line in lines[:8])
    assert lines[-1] == "summary: 8 runs, 8 identical, 0 differ in 0 case(s)"
    assert lines[6] == ("same  exit_2_fail_case  FOU_THREADS=1: exit 2/2, stderr same, "
                        "output none, max rel diff n/a")


def test_changed_factor_is_reported(tmp_path, capsys, monkeypatch):
    old = make_tree(tmp_path / "old", 1.0)
    monkeypatch.setattr(difftree, "ROOT", make_tree(tmp_path / "new", 1.001))
    monkeypatch.setattr(difftree, "THREADS", ("8",))
    assert difftree.main([str(old)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == [
        "DIFF  golden_g_csv  FOU_THREADS=8: exit 0/0, stderr same, output differs, "
        "max rel diff 0.000999",
        "DIFF  golden_g_json  FOU_THREADS=8: exit 0/0, stderr same, output differs, "
        "max rel diff 0.000999",
        "DIFF  perfbench_w  FOU_THREADS=8: exit 0/0, stderr same, output differs, "
        "max rel diff 0.000999",
        "same  exit_2_fail_case  FOU_THREADS=8: exit 2/2, stderr same, output none, "
        "max rel diff n/a",
    ]
    assert lines[4:] == ["summary: 4 runs, 1 identical, 3 differ in 3 case(s)",
                         "  differs: golden_g_csv (FOU_THREADS=8)",
                         "  differs: golden_g_json (FOU_THREADS=8)",
                         "  differs: perfbench_w (FOU_THREADS=8)"]


def test_max_rel_diff_skips_text_and_needs_equal_shapes():
    assert difftree.max_rel_diff(b"T,x\n1,2\n", b"T,x\n1,2\n") == 0.0
    assert difftree.max_rel_diff(b"T,q\n1,a\n", b"T,q\n1,b\n") == 0.0
    assert difftree.max_rel_diff(b"T,x\n1,4\n", b"T,x\n1,5\n") == 0.2
    assert difftree.max_rel_diff(b"T,x\n1,4\n", b"T,x\n1,4\n2,4\n") is None
