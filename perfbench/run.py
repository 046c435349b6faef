"""vista benchmark: three workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload predict-pairs --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py                  # every workload, one after another
    python3 perfbench/run.py --self-check     # tiny sizes; names, units, directions

Each workload runs in its own fresh process with the BLAS thread count fixed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0`` and the per-layer metrics with ``--trace 1``. Every run's
record (machine, versions, thread counts, every sample) is appended to
``perfbench/runs/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"

# BENCHMARK.json is the one list of workloads and metrics (name, unit, direction).
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in BENCH["workloads"])
END_TO_END = {m["name"]: (m["unit"], m["better"]) for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]}
# One BLAS thread: the matmuls are 8 to 32 wide, and a second thread on a
# 2-core machine competes with the Python thread instead of helping it.
BLAS_THREADS = 1
# A run ends within 170 s at the benchmark's --seconds. A longer --seconds
# gets the measuring loop's cap (four times its length) plus a margin for
# set-up and the final checks. The worker stops measuring early when one
# more op and the final checks would overrun its budget, so a much slower
# program still reports its numbers.
RUN_TIMEOUT_S = 170
SETUP_FINISH_MARGIN_S = 60
WORKER_SLACK_S = 15


def run_timeout(seconds: float) -> float:
    return max(RUN_TIMEOUT_S, 4 * seconds + SETUP_FINISH_MARGIN_S)


def run_workload(workload, seed, seconds, trace, tiny=False) -> dict | None:
    """Start one worker process, wait for it, and return its result."""
    RUNS.mkdir(exist_ok=True)
    result_path = RUNS / f"result-{os.getpid()}-{time.monotonic_ns()}.json"
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env = dict(os.environ)
    env.update({
        "OPENBLAS_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
        "MKL_NUM_THREADS": threads,
        "VISTA_THREADS": threads,
        "PYTHONHASHSEED": "0",
    })
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--result", str(result_path),
    ] + (["--tiny"] if tiny else [])
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        _out, err = proc.communicate(timeout=run_timeout(seconds))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"{workload}: worker exceeded {run_timeout(seconds)} s", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    try:
        if proc.returncode != 0:
            sys.stderr.write(err)
            print(f"{workload}: worker exited with {proc.returncode}", file=sys.stderr)
            return None
        result = json.loads(result_path.read_text())
    finally:
        result_path.unlink(missing_ok=True)
    with open(RUNS / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(result["record"] | {"metrics": result["metrics"]}) + "\n")
    return result


def report_lines(workload, result, trace) -> list[str]:
    spec = PER_LAYER if trace else END_TO_END
    rec = result["record"]
    lines = [
        f"== {workload} seed={rec['seed']} trace={trace}: "
        f"{rec['cpu_model']}, nproc {rec['nproc']}, python {rec['python']}, "
        f"numpy {rec['numpy']}, {rec['blas']}, BLAS threads {rec['blas_threads']}, "
        f"VISTA_THREADS {rec['vista_threads']}",
        f"   measured {rec['measured_wall_s']:.2f} s wall, {rec['measured_cpu_s']:.2f} s CPU; "
        f"{len(rec['op_samples'])} ops; attempted {result['attempted']}, failed {result['failed']}",
    ]
    for name, (unit, better) in spec.items():
        value = result["metrics"].get(name, {}).get("value")
        shown = "missing" if value is None else f"{value:.6g}"
        lines.append(f"   {name:34s} {shown:>12s} {unit:12s} ({better} is better)")
    for message in rec["failures"]:
        lines.append(f"   FAILED: {message}")
    return lines


def final_line(correct, attempted, failed, metrics) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def self_check() -> int:
    """Tiny runs of every workload, traced and not: every metric named in
    BENCHMARK.json is printed with its unit and direction."""
    problems = []
    for trace, spec in ((0, END_TO_END), (1, PER_LAYER)):
        for workload in WORKLOAD_NAMES:
            result = run_workload(workload, 0, 1, trace, tiny=True)
            if result is None:
                problems.append(f"{workload} trace={trace}: no result")
                continue
            lines = report_lines(workload, result, trace)
            print("\n".join(lines))
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: outputs failed their checks")
            for name, (unit, better) in spec.items():
                got = result["metrics"].get(name, {})
                printed = any(
                    ln.split()[:1] == [name] and f" {unit} " in ln and f"({better} is better)" in ln
                    for ln in lines
                )
                if got.get("unit") != unit or not printed:
                    problems.append(f"{workload} trace={trace}: {name} not printed as {unit}, {better}")
    for p in problems:
        print(f"SELF-CHECK FAILED: {p}")
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        print("\n".join(report_lines(workload, result, args.trace)), flush=True)
        results[workload] = result
    if len(names) == 1:
        r = results[names[0]]
        print(final_line(r["correct"], r["attempted"], r["failed"], r["metrics"]))
    else:
        metrics = {
            f"{w}/{name}": m for w, r in results.items() for name, m in r["metrics"].items()
        }
        print(final_line(
            all(r["correct"] for r in results.values()),
            sum(r["attempted"] for r in results.values()),
            sum(r["failed"] for r in results.values()),
            metrics,
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
