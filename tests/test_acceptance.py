"""The acceptance gate: the overfit smoke run and the social/goal ablation
on seed 0, the recipes of ``scripts/overfit_smoke.py`` and
``scripts/ablation_social_goal.py``.

Each test trains for minutes (``-m "not slow"`` leaves them out). The
thresholds are the seed-0 figures measured before the gate existed: a
95.0% loss drop and minADE_20 0.129016..., which rounds to 0.1290 but lies
above it, so the bound is 0.1291.
"""

import pytest

from vista.experiments import run_ablation, run_overfit

pytestmark = pytest.mark.slow

LOSS_DROP_MIN = 0.950
MIN_ADE_20_MAX = 0.1291


def test_overfit_smoke_seed0():
    result = run_overfit(0)
    assert result["loss_drop"] >= LOSS_DROP_MIN, result
    assert result["min_ade_20"] <= MIN_ADE_20_MAX, result


def test_ablation_seed0():
    result = run_ablation(0)
    assert result["full"]["cr"] <= result["no-social"]["cr"], result
    assert result["no-goal"]["min_ade"] > result["full"]["min_ade"], result
