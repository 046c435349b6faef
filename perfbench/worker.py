"""One benchmark run of one workload, in a fresh process.

``run.py`` starts this with the BLAS thread count fixed in the environment,
which numpy reads once at import. The result (metrics, every sample, the run
record) goes to the JSON file named by ``--result``.

    python3 perfbench/worker.py --workload predict-pairs --seed 0 \
        --seconds 30 --trace 0 --result out.json
"""

from __future__ import annotations

import argparse
import atexit
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from coreclock import CoreClock  # noqa: E402

# Every timed region, the import of vista included, is read off this clock.
CLOCK = CoreClock()
CLOCK.start()
# Stop the timer on every way out, or its signal could end the process
# with -SIGALRM instead of its exit code.
atexit.register(CLOCK.stop)
_t_import = time.perf_counter()
try:
    import vista  # noqa: E402,F401
except ImportError as exc:
    print(f"cannot import vista from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(3)
if not Path(vista.__file__).resolve().is_relative_to(ROOT / "src"):
    print(f"vista imported from {vista.__file__}, not this checkout", file=sys.stderr)
    sys.exit(3)

from run import END_TO_END, PER_LAYER, WORKER_SLACK_S, run_timeout  # noqa: E402
from tracer import Tracer, Unwrapped  # noqa: E402
from workloads import WORKLOADS, FixtureError  # noqa: E402

# Importing the program is part of set-up: work moved to import time shows.
IMPORT_S = CLOCK.core_s(_t_import, time.perf_counter())

SETUP_REPEATS = 5
MAX_SPANS = 3_000_000
BLOCKS = 5
# Stored reference values are compared within this relative tolerance: the
# same machine reproduces them bit for bit, and another BLAS build or CPU
# changes at most the last few bits of a float64 sum.
REFERENCE_RTOL = 1e-9
REFERENCE = HERE / "reference.json"


class Tally:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, problems, operations=1):
        """Count ``operations`` attempted, of which one per problem failed."""
        self.attempted += operations
        self.failed += min(len(problems), operations)
        self.messages.extend(problems[:3])

    def attempt(self, name, fn):
        """Run one operation ``fn``, which returns its problems; raising is one."""
        try:
            problems = fn()
        except (FixtureError, KeyboardInterrupt):
            raise
        except Exception as exc:  # a failed operation is counted, the run goes on
            problems = [f"{name}: {type(exc).__name__}: {exc}"]
        self.record(problems)


def timed_op(workload, tally: Tally, i: int, tracer=None):
    """Run op ``i`` once, check its output outside the timed region, and
    return its sample, or None when it raised."""
    prepared = workload.prepare(i)
    if tracer is not None:
        tracer.current_op = i
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        n, output = workload.op(i, prepared)
    except (FixtureError, KeyboardInterrupt):
        raise
    except Exception as exc:  # a failed op is counted and the loop goes on
        tally.record([f"op {i}: {type(exc).__name__}: {exc}"])
        return None
    finally:
        t1, c1 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.current_op = -1
    tally.attempt(f"check {i}", lambda: workload.check(i, output))
    return {"op": i, "windows": n, "wall_s": t1 - t0, "core_s": CLOCK.core_s(t0, t1), "cpu_s": c1 - c0}


def measure(workload, tally: Tally, seconds: float, min_windows: int, deadline: float, tracer=None):
    """Closed loop: start the next op when the last one is checked, until
    ``seconds`` (and ``min_windows``) are covered, or until one more op and
    the final checks would not end before ``deadline`` (a ``perf_counter``
    time): a much slower program then still reports. Returns the untraced
    samples and, with a tracer, the traced ones: each op then runs untraced
    and at once again traced on the same inputs, so the two times pair up
    under the same machine conditions."""
    samples, traced = [], []
    windows = 0
    t_start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - t_start
        if samples:
            rounds = sum(s["wall_s"] for s in samples + traced) / len(samples)
            if elapsed + rounds / 2 >= seconds and windows >= min_windows:
                break
            if elapsed > 4 * seconds or (tracer is not None and tracer.full()):
                break
            if time.perf_counter() + rounds * (1 + workload.finish_ops()) > deadline:
                break
        sample = timed_op(workload, tally, i)
        if sample is None:
            if tally.failed > 3 and tally.failed == tally.attempted:
                break
        else:
            samples.append(sample)
            windows += sample["windows"]
            if tracer is not None:
                with tracer.installed():
                    again = timed_op(workload, tally, i, tracer)
                if again is not None:
                    traced.append(again)
        i += 1
    return samples, traced


def timing_metrics(samples):
    """Times at the reference core speed (``coreclock``); the run record
    keeps the wall times too."""
    per_window = [s["core_s"] * 1e3 / s["windows"] for s in samples]
    blocks = np.array_split(np.arange(len(samples)), min(BLOCKS, len(samples)))
    rates = [
        sum(samples[j]["windows"] for j in b) / sum(samples[j]["core_s"] for j in b)
        for b in blocks
    ]
    return {
        "windows_per_s": statistics.median(rates),
        "window_ms.p50": statistics.median(per_window),
        "window_ms.p90": float(np.percentile(per_window, 90)),
    }


def layer_metrics(tracer: Tracer, samples, setups, untraced):
    """Reduce the spans of the traced ops to the per-layer metrics. A metric
    whose wrap target no longer exists is reported as missing (None)."""
    s = tracer.summary([x["op"] for x in samples])
    setup = tracer.summary(setups)
    windows = sum(x["windows"] for x in samples)
    wall = sum(x["wall_s"] for x in samples)

    def ms_per_window(*names):
        return sum(s.inclusive(n) for n in names) * 1e3 / windows

    def calls_per_window(name):
        return s.count(name) / windows

    def ms_per_call(name, summaries=(s,)):
        calls = sum(x.count(name) for x in summaries)
        return sum(x.inclusive(name) for x in summaries) * 1e3 / calls if calls else 0.0

    def graph_nodes_per_window():
        s.count("tensor.backward")
        if tracer.node_walk_error is not None:
            raise Unwrapped(tracer.node_walk_error)
        return tracer.graph_nodes / windows

    def validation_share():
        inside = sum(
            s.inclusive(n, inside="training.train")
            for n in ("model.Model.predict", "model.Model.rollout_with_goals")
        )
        return inside / wall

    def encode_per_forward():
        forwards = s.count("gpm.gpm_forward_batch")
        return s.count("gpm.encode_gpm_input") / forwards if forwards else 0.0

    formulas = {
        "tensor.nodes_per_window": graph_nodes_per_window,
        "tensor.backward_ms_per_window": lambda: ms_per_window("tensor.backward"),
        "attention.calls_per_window": lambda: calls_per_window("attention.multi_head_attention"),
        "attention.ms_per_window": lambda: ms_per_window("attention.multi_head_attention"),
        "gpm.ttst_ms_per_agent": lambda: ms_per_call("gpm.ttst_sample"),
        "gpm.ttst_calls_per_window": lambda: calls_per_window("gpm.ttst_sample"),
        "gpm.forward_ms_per_window": lambda: ms_per_window("gpm.gpm_forward_batch"),
        "gpm.encode_calls_per_forward": encode_per_forward,
        "model.sample_goals_ms_per_window": lambda: ms_per_window("model.Model.sample_goals"),
        "tpm.rollout_calls_per_window": lambda: calls_per_window("tpm.rollout"),
        "tpm.rollout_ms_per_window": lambda: ms_per_window("tpm.rollout"),
        "tpm.trace_write_ms_per_window": lambda: ms_per_window("tpm.save_trace_json"),
        "tpm.pred_io_ms_per_window": lambda: ms_per_window(
            "tpm.save_prediction_txt", "tpm.load_prediction_txt"
        ),
        "training.loss_graph_ms_per_window": lambda: ms_per_window("training.window_loss_graph"),
        "training.adam_ms_per_step": lambda: ms_per_call("training.Adam.step"),
        "training.validation_share": validation_share,
        "metrics.evaluate_ms_per_window": lambda: ms_per_window("metrics.evaluate_windows"),
        "data.load_ms_per_window": lambda: ms_per_window("data.load_trajectories", "data.load_raster"),
        "data.synth_s": lambda: setup.inclusive("data.synth_generate") / len(setups),
        "params.load_ms": lambda: ms_per_call("params.ParamStore.load", (s, setup)),
        "cli.self_ms": lambda: s.self_time("cli.") * 1e3 / windows,
        "unattributed_share": lambda: (wall - s.root_time()) / wall,
        "trace.overhead_ratio": lambda: overhead_ratio(untraced, samples),
    }
    values, missing = {}, []
    for name, formula in formulas.items():
        try:
            values[name] = formula()
        except Unwrapped:
            values[name] = None
            missing.append(name)
    return values, missing, s.n_spans()


def overhead_ratio(untraced, traced):
    """Median over ops of traced over untraced wall time of the same op."""
    base = {s["op"]: s["wall_s"] for s in untraced}
    return statistics.median(s["wall_s"] / base[s["op"]] for s in traced)


def reference_problems(workload_name, seed, quality, tiny) -> list[str]:
    """Differences from the guards stored for this seed, if any are stored."""
    if tiny or not REFERENCE.exists():
        return []
    stored = json.loads(REFERENCE.read_text()).get(workload_name, {}).get(str(seed))
    if stored is None:
        return []
    problems = []
    for key, want in stored.items():
        got = quality.get(key)
        if got is None or not math.isclose(got, want, rel_tol=REFERENCE_RTOL, abs_tol=1e-12):
            problems.append(f"{key} = {got!r}, stored reference {want!r}")
    return problems


def run_record(args):
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "vista_threads": os.environ.get("VISTA_THREADS"),
        "started_unix": time.time(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=RUNS))
    try:
        result = run(args, workdir)
    except FixtureError as exc:
        print(f"fixture check failed: {exc}", file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.result).write_text(json.dumps(result))
    return 0


def run(args, workdir: Path) -> dict:
    record = run_record(args)
    workload = WORKLOADS[args.workload](args.seed, workdir, args.tiny)
    tracer = Tracer(MAX_SPANS) if args.trace else None
    tally = Tally()

    setup_s, setup_ops = [], []
    for r in range(2 if args.tiny else SETUP_REPEATS):
        setup_ops.append(-2 - r)
        t0 = time.perf_counter()
        if tracer is None:
            workload.setup(r)
        else:
            with tracer.installed():
                tracer.current_op = setup_ops[-1]
                workload.setup(r)
                tracer.current_op = -1
        setup_s.append(CLOCK.core_s(t0, time.perf_counter()))

    if workload.warm_up:
        tally.attempt("warm-up", lambda: workload.check(0, workload.op(0, workload.prepare(0))[1]))

    wall0, cpu0 = time.perf_counter(), time.process_time()
    # End before run.py's timeout kills the worker.
    deadline = T_START + run_timeout(args.seconds) - WORKER_SLACK_S
    if tracer is None:
        min_windows = 0 if args.tiny else workload.min_windows
        samples, untraced = measure(workload, tally, args.seconds, min_windows, deadline)
    else:
        untraced, samples = measure(workload, tally, args.seconds, 0, deadline, tracer)
    wall1, cpu1 = time.perf_counter(), time.process_time()
    CLOCK.stop()
    kernel_s = CLOCK.took

    quality = {}
    if samples:
        # The checks that need more than one op, plus the stored-reference
        # comparison, each count as an operation.
        try:
            quality, operations, problems = workload.finish()
            problems += reference_problems(args.workload, args.seed, quality, args.tiny)
        except FixtureError:
            raise
        except Exception as exc:  # counted as a failure; the result is still printed
            operations, problems = 0, [f"final checks: {type(exc).__name__}: {exc}"]
        tally.record(problems, operations + 1)
    finish_s = time.perf_counter() - wall1

    metrics, missing, n_spans = {}, [], 0
    if samples and tracer is None:
        metrics.update(timing_metrics(samples))
        metrics["setup_s"] = IMPORT_S + statistics.median(setup_s)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["final_loss"] = quality.get("final_loss")
        metrics["min_ade_20"] = quality.get("min_ade_20")
    elif samples:
        metrics, missing, n_spans = layer_metrics(tracer, samples, setup_ops, untraced)
    spec = END_TO_END if tracer is None else PER_LAYER
    metrics = {name: {"value": metrics.get(name), "unit": unit} for name, (unit, _) in spec.items()}

    spans_file = None
    if tracer is not None:
        # The latest traced run's spans per workload; runs.jsonl keeps every record.
        spans_file = RUNS / f"spans-{args.workload}.npz"
        tracer.dump(spans_file)

    record.update({
        "measured_wall_s": wall1 - wall0,
        "measured_cpu_s": cpu1 - cpu0,
        "finish_s": finish_s,
        "import_s": IMPORT_S,
        "kernel_samples": len(kernel_s),
        "kernel_s.p50": statistics.median(kernel_s) if kernel_s else None,
        "setup_samples_s": setup_s,
        "op_samples": samples,
        "untraced_op_samples": untraced,
        "quality": quality,
        "missing_metrics": missing,
        "spans": n_spans,
        "spans_file": None if spans_file is None else str(spans_file.relative_to(ROOT)),
        "failures": tally.messages,
    })
    return {
        "correct": bool(samples) and tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if samples else max(tally.failed, 1),
        "metrics": metrics,
        "record": record,
    }


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
