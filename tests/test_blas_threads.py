"""Outputs do not depend on the BLAS thread count.

Two subprocesses, one with OpenBLAS at 1 thread and one at 2, each run a small
CLI pipeline (synth, train for 2 epochs, predict ``--trace``, evaluate) and
then, under pytest, the checks whose rules hold only on OpenBLAS's kernel
paths: the goal module's blocked inference against the recorded forward, and
the K-means float32 screen and its squared-distance fallback against the dense
reference. Every output file but the
manifests must be byte-identical between the two runs.

Run as a script, this file is one such subprocess:
``python tests/test_blas_threads.py OUT_DIR``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# 4 agents on a 32x32 grid: the goal module runs inference on blocks of one
# agent, and predict runs TTST's K-means on 4 x 2000 points per window.
CONFIG = (
    "[model]\nt_obs=4\nt_fut=3\ngrid=32\n"
    "[train]\nmax_epochs=2\nval_k=2\nbatch_size=2\n"
    "[data]\nval_ratio=0.34\n"
)
CHECKS = [
    "tests/test_gpm.py::TestGpmNode::test_blocked_inference_matches_recorded_bitwise",
    "tests/test_gpm.py::TestTTSTMatchesReference::test_score_assignment_matches_reference_bitwise",
    "tests/test_gpm.py::TestTTSTMatchesReference::test_near_ties_reach_every_screen",
    "tests/test_gpm.py::TestTTSTMatchesReference::test_float32_overflow_matches_reference",
    "tests/test_gpm.py::TestTTSTMatchesReference::test_uniform_points_rarely_need_squared_distances",
]


def run_pipeline(out: Path) -> int:
    """The CLI pipeline into ``out``, then the CHECKS; 0 when all pass."""
    import pytest

    from vista.cli import main

    config = out / "run.cfg"
    config.write_text(CONFIG)
    data, model, pred = out / "data", out / "model", out / "pred"
    steps = [
        ["synth", "--scenario", "crossing", "--n", "4", "--seed", "3", "--windows", "4",
         "--frames", "7", "--grid", "32", "--randomize", "--speed", "0.6", "--out", str(data)],
        ["train", "--data", str(data), "--raster-dir", str(data / "rasters"), "--config",
         str(config), "--out", str(model), "--fold", "ratio"],
        ["predict", "--checkpoint", str(model / "checkpoint_fold0.bin"), "--data", str(data),
         "--raster-dir", str(data / "rasters"), "--config", str(config), "--k", "20",
         "--trace", "--out", str(pred)],
        ["evaluate", "--pred", str(pred), "--gt", str(data), "--raster-dir",
         str(data / "rasters"), "--config", str(config), "--out", str(out / "metrics")],
    ]
    for argv in steps:
        if main(argv):
            return 1
    return pytest.main(["-q", "-p", "no:cacheprovider", *(str(ROOT / c) for c in CHECKS)])


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    runs = {}
    for threads in (1, 2):  # the two subprocesses run side by side, and no others
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        proc = subprocess.Popen(
            [sys.executable, __file__, str(out)], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        runs[threads] = (out, proc)
    for threads, (out, proc) in runs.items():
        log = proc.communicate(timeout=300)[0]
        assert proc.returncode == 0, f"OPENBLAS_NUM_THREADS={threads}:\n{log}"

    def outputs(out):
        files = sorted(p for p in out.rglob("*") if p.is_file() and not p.name.startswith("manifest_"))
        return {p.relative_to(out): p.read_bytes() for p in files}

    one, two = outputs(runs[1][0]), outputs(runs[2][0])
    assert sorted(one) == sorted(two)
    assert any(p.name.startswith("trace_") for p in one) and any(p.suffix == ".bin" for p in one)
    assert [p for p in one if one[p] != two[p]] == []


if __name__ == "__main__":
    sys.exit(run_pipeline(Path(sys.argv[1])))
