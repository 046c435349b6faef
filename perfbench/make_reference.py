"""Record the quality guards of every workload for a range of seeds.

    python3 perfbench/make_reference.py --seeds 0-15

Runs each workload's setup, one operation and its final checks in-process,
with the benchmark's BLAS thread count, and merges the guards (final_loss,
min_ade_20 and, for crowd-cli, every scalar of metrics.json) into
``perfbench/reference.json``. A run whose seed is stored there fails when
its guards differ from the stored values.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from run import BLAS_THREADS  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VISTA_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

from workloads import WORKLOADS  # noqa: E402

REFERENCE = HERE / "reference.json"


def guards(name: str, seed: int) -> dict:
    (HERE / "runs").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=HERE / "runs"))
    try:
        workload = WORKLOADS[name](seed, workdir, tiny=False)
        workload.setup(0)
        problems = workload.check(0, workload.op(0, workload.prepare(0))[1])
        quality, _checks, more = workload.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if problems or more:
        raise RuntimeError(f"{name} seed {seed}: {problems + more}")
    return quality


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-15", help="first-last, inclusive")
    args = parser.parse_args(argv)
    first, last = (int(v) for v in args.seeds.split("-"))
    stored = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in sorted(WORKLOADS):
        for seed in range(first, last + 1):
            stored.setdefault(name, {})[str(seed)] = guards(name, seed)
            REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
            print(name, seed, stored[name][str(seed)]["min_ade_20"], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
