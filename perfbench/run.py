"""Benchmark of the `fou` CLI: one workload, closed loop, one command at a time.

    python3 perfbench/run.py --workload mc_chaos --seed 42 --seconds 40 --trace 0

Each command runs in a fresh interpreter (child.py) that imports `fou`
from this checkout's `src/` and calls `fou.cli.main(argv)`.  The next
command starts when the previous one has exited, as long as it is
expected to end within `--seconds` or fewer than MIN_COMMANDS commands
have run.  Every output is checked against the stored reference
(check.py); a command that exits nonzero or fails the check counts as
failed.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json as
medians over the commands.  --trace 1 alternates untraced and traced
commands and reports the per-layer metrics (tracer.py) as medians over
the traced commands, with the tracing overhead against the untraced
median.  The second-to-last stdout line records the environment and
every sample; the last line is the result object.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check_output
from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

THREADS = "2"
MIN_COMMANDS = 3
DEADLINE_S = 170.0  # the whole run must end within 180 s

# argv of each workload's command and the replications x horizons it draws
# (one per horizon for bounds_dense, which draws none).
WORKLOADS = {
    "mc_chaos": (["kolmogorov", "--theta", "1", "--hurst", "0.6", "--t", "50,100,200,400",
                  "--reps", "5000"], 5000 * 4),
    "estimate_pathwise": (["estimate", "--theta", "1", "--hurst", "0.7", "--t", "50,100,200,400",
                           "--reps", "2000"], 2000 * 4),
    "bounds_dense": (["asymptotics", "--theta", "1", "--hurst", "0.6", "--t", "25,50,100,200",
                      "--n", "2048"], 4),
}


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fou").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _run_child(argv, spans_path, deadline) -> dict | None:
    env = dict(os.environ, FOU_THREADS=THREADS, OPENBLAS_NUM_THREADS=THREADS)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), spans_path, "--", *argv]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("command timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "fou" / "cli.py").is_file():
        print(f"no fou sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    start = time.monotonic()
    deadline = start + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    # Compile once up front, so no command's import pays for byte-compiling.
    compileall.compile_dir(str(SRC / "fou"), quiet=1)

    base_argv, units = WORKLOADS[args.workload]
    spans_path = WORK / f"{args.workload}-spans.json"
    samples = {"setup_s": [], "wall_s": [], "cpu_s": [], "peak_rss_mb": []}
    traced_wall, layer_samples = [], []
    attempted = failed = 0
    versions = None
    durations = []
    while True:
        traced = bool(args.trace) and attempted % 2 == 1
        out_path = WORK / f"{args.workload}-{os.getpid()}-{attempted}.csv"
        cmd = [*base_argv, "--seed", str(args.seed), "--out", str(out_path)]
        attempted += 1
        t0 = time.monotonic()
        res = _run_child(cmd, str(spans_path) if traced else "-", deadline)
        durations.append(time.monotonic() - t0)
        problems = ["command crashed"] if res is None else (
            [f"exit code {res['rc']}"] if res["rc"] != 0 else
            check_output(args.workload, args.seed, out_path))
        out_path.unlink(missing_ok=True)
        if problems:
            failed += 1
            print(f"command {attempted} failed: {problems[0]}", file=sys.stderr)
        if res is not None:
            versions = res["versions"]
            samples["setup_s"].append(res["setup_s"])
            if traced:
                traced_wall.append(res["wall_s"])
                dump = json.loads(spans_path.read_text())
                layer_samples.append(layer_metrics(dump, res["wall_s"], int(THREADS)))
            else:
                for key in ("wall_s", "cpu_s", "peak_rss_mb"):
                    samples[key].append(res[key])
        elapsed = time.monotonic() - start
        enough = len(samples["setup_s"]) >= MIN_COMMANDS and (layer_samples or not args.trace)
        if (enough and elapsed + statistics.median(durations) > args.seconds) \
                or elapsed >= DEADLINE_S / 2 or failed == attempted >= MIN_COMMANDS:
            break

    if not samples["wall_s"] or (args.trace and not layer_samples):
        print("no command completed", file=sys.stderr)
        return 1

    wall = statistics.median(samples["wall_s"])
    if args.trace:
        computed = {k: statistics.median([s[k] for s in layer_samples])
                    for k in layer_samples[0]}
        computed["trace.overhead_frac"] = statistics.median(traced_wall) / wall - 1.0
    else:
        computed = {k: statistics.median(v) for k, v in samples.items()}
        computed["paths_per_s"] = units / wall
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if missing:
        print(f"metrics not computed: {missing}", file=sys.stderr)
        return 1

    env = {"cpu_count": os.cpu_count(), **(versions or {}),
           "FOU_THREADS": THREADS, "OPENBLAS_NUM_THREADS": THREADS,
           "seed": args.seed, "git_commit": _git_commit(), "src_sha256": _source_digest()}
    print(json.dumps({"workload": args.workload, "trace": args.trace, "environment": env,
                      "samples": {**samples, "traced_wall_s": traced_wall}}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
