"""Seeded recipe for the trained checkpoint that the predict workloads load.

    python3 perfbench/fixture_recipe.py    # retrain, rewrite the fixture and its digest

The fixture is the "full" variant of the head-on ablation
(``experiments.ablation_config("full", 0)``) trained on
``experiments.head_on_dataset(0)``'s 50 training windows. Float rounding
differs between BLAS builds, so a retrain elsewhere may not reproduce the
bytes; the committed file and its digest in ``fixtures/MANIFEST.json`` are
the reference, and the benchmark's set-up (``workloads.load_fixture``)
refuses a file whose digest differs.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "fixtures" / "head_on_full.bin"
MANIFEST = HERE / "fixtures" / "MANIFEST.json"
RECIPE_SEED = 0


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def expected_digest() -> str:
    return json.loads(MANIFEST.read_text())["sha256"]


def build() -> dict:
    sys.path.insert(0, str(HERE.parent / "src"))
    from vista.experiments import ablation_config, head_on_dataset
    from vista.training import train

    train_scenes, _ = head_on_dataset(RECIPE_SEED)
    cfg = ablation_config("full", RECIPE_SEED)
    t0 = time.monotonic()
    best, report = train(train_scenes, train_scenes, cfg)
    seconds = time.monotonic() - t0
    best.save(FIXTURE)
    manifest = {
        "file": FIXTURE.name,
        "sha256": sha256_of(FIXTURE),
        "recipe": "ablation_config('full', 0) trained on head_on_dataset(0)[0] (50 windows)",
        "epochs": len(report.records),
        "best_epoch": report.best_epoch,
        "best_val_minade": report.best_val_minade,
        "train_seconds": round(seconds, 1),
    }
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return manifest


if __name__ == "__main__":
    print(json.dumps(build(), indent=1, sort_keys=True))
