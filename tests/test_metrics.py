import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vista.data import AgentTrack, Scene, dihedral_point
from vista.errors import DataError
from vista.metrics import (
    EvalInput,
    ade,
    auc,
    calibrate_epsilon,
    collision_rates,
    evaluate_windows,
    expected_error_curve,
    fde,
    kde_nll,
    min_ade_k,
    min_fde_k,
    miss_rate,
    per_sample_ade,
    save_report_csv,
    save_report_json,
)


def eval_input(pred, gt):
    return EvalInput(predictions=np.asarray(pred, float), ground_truth=np.asarray(gt, float))


def straight_gt(n=1, t=4):
    gt = np.zeros((n, t, 2))
    gt[:, :, 0] = np.arange(t)
    gt[:, :, 1] = 3.0 * np.arange(n)[:, None]
    return gt


class TestAdeFde:
    def test_exact_prediction_is_zero(self):
        gt = straight_gt(2, 5)
        ev = eval_input(np.repeat(gt[:, None], 3, axis=1), gt)
        assert ade(ev) == 0.0
        assert fde(ev) == 0.0

    def test_constant_offset(self):
        gt = straight_gt(2, 5)
        pred = np.repeat(gt[:, None], 3, axis=1) + np.array([0.0, 2.0])
        ev = eval_input(pred, gt)
        assert ade(ev) == pytest.approx(2.0)
        assert fde(ev) == pytest.approx(2.0)

    def test_two_samples_with_errors_one_and_three(self):
        gt = straight_gt(1, 4)
        pred = np.stack([gt[0] + [0.0, 1.0], gt[0] + [0.0, 3.0]])[None]
        ev = eval_input(pred, gt)
        assert ade(ev) == pytest.approx(2.0)


class TestBestOfK:
    def test_one_exact_sample(self):
        gt = straight_gt(2, 4)
        pred = np.repeat(gt[:, None], 4, axis=1)
        pred[:, :3] += 5.0
        ev = eval_input(pred, gt)
        assert min_ade_k(ev) == 0.0
        assert min_fde_k(ev) == 0.0

    def test_k1_equals_plain_metrics(self):
        gt = straight_gt(3, 6)
        pred = gt[:, None] + np.array([1.0, 1.0])
        ev = eval_input(pred, gt)
        assert min_ade_k(ev) == pytest.approx(ade(ev))
        assert min_fde_k(ev) == pytest.approx(fde(ev))

    def test_hand_min_over_samples(self):
        # Agent 0 per-sample ADEs {2, 5}; agent 1 {7, 3} -> minADE 2.5.
        gt = straight_gt(2, 4)
        pred = np.stack(
            [
                np.stack([gt[0] + [0.0, 2.0], gt[0] + [0.0, 5.0]]),
                np.stack([gt[1] + [0.0, 7.0], gt[1] + [0.0, 3.0]]),
            ]
        )
        ev = eval_input(pred, gt)
        np.testing.assert_allclose(per_sample_ade(ev), [[2, 5], [7, 3]])
        assert min_ade_k(ev) == pytest.approx(2.5)


class TestExpectedErrorCurve:
    def test_k3_hand_case_matches_subset_enumeration(self):
        curve = expected_error_curve([1.0, 2.0, 3.0])
        assert curve[1] == pytest.approx((2 / 3) * 1 + (1 / 3) * 2)
        assert curve[1] == pytest.approx((1 + 1 + 2) / 3)

    def test_e1_is_mean_and_ek_is_min_exactly(self):
        rng = np.random.default_rng(0)
        for k in range(2, 9):
            errors = rng.uniform(0.1, 9.0, size=k)
            curve = expected_error_curve(errors)
            assert curve[0] == np.mean(errors)
            assert curve[-1] == np.min(errors)

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(1)
        for k in range(2, 9):
            errors = np.sort(rng.uniform(0.0, 5.0, size=k))
            curve = expected_error_curve(errors)
            for bigk in range(1, k + 1):
                subsets = list(itertools.combinations(errors, bigk))
                brute = np.mean([min(s) for s in subsets])
                assert abs(curve[bigk - 1] - brute) < 1e-12

    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            curve = expected_error_curve(rng.uniform(0, 10, size=rng.integers(2, 12)))
            assert (np.diff(curve) <= 1e-12).all()

    def test_auc_sums_over_agents_and_k(self):
        gt = straight_gt(2, 4)
        pred = np.stack(
            [
                np.stack([gt[0] + [0.0, 1.0], gt[0] + [0.0, 2.0]]),
                np.stack([gt[1] + [0.0, 4.0], gt[1] + [0.0, 2.0]]),
            ]
        )
        ev = eval_input(pred, gt)
        total, curve = auc(ev)
        c0 = expected_error_curve([1.0, 2.0])
        c1 = expected_error_curve([4.0, 2.0])
        np.testing.assert_allclose(curve, c0 + c1, atol=1e-12)
        assert total == pytest.approx(curve.sum())


@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_expected_curve_matches_enumeration_property(k, seed):
    errors = np.random.default_rng(seed).uniform(0, 100, size=k)
    curve = expected_error_curve(errors)
    for bigk in range(1, k + 1):
        brute = np.mean([min(s) for s in itertools.combinations(errors, bigk)])
        assert abs(curve[bigk - 1] - brute) < 1e-12


class TestCalibration:
    def scene_from(self, tracks):
        return Scene(
            "s",
            [AgentTrack(i, np.asarray(t, float), np.arange(len(t))) for i, t in enumerate(tracks)],
        )

    def test_parallel_tracks_at_distance_one(self):
        a = [(float(t), 0.0) for t in range(20)]
        b = [(float(t), 1.0) for t in range(20)]
        eps = calibrate_epsilon([self.scene_from([a, b])])
        assert eps == pytest.approx(1.0 - 1e-9, abs=1e-12)

    def test_three_tracks_min_distance_04(self):
        a = [(float(t), 0.0) for t in range(12)]
        b = [(float(t), 2.0) for t in range(12)]
        c = [(float(t), 0.4) if t == 5 else (float(t), 5.0) for t in range(12)]
        eps = calibrate_epsilon([self.scene_from([a, b, c])])
        assert eps == pytest.approx(0.4 - 1e-9, abs=1e-12)

    def test_coincident_agents_give_zero(self):
        # The minimum distance is 0, and 0 - 1e-9 is a threshold that
        # collision_rates refuses; under its strict < the ground truth,
        # coincident step included, has no collision at 0.
        a = [(float(t), 0.0) for t in range(12)]
        b = [(float(t), 1.0) if t != 9 else (9.0, 0.0) for t in range(12)]
        scene = self.scene_from([a, b])
        with pytest.warns(UserWarning, match="every collision rate will read 0; --epsilon"):
            eps = calibrate_epsilon([scene])
        assert eps == 0.0
        gt = scene.positions()[:, None, 8:]  # (N, k=1, T_fut, 2)
        assert collision_rates(EvalInput(gt, gt[:, 0]), eps).tolist() == [0.0]

    def test_single_agent_errors(self):
        a = [(float(t), 0.0) for t in range(12)]
        with pytest.raises(DataError, match="two co-present"):
            calibrate_epsilon([self.scene_from([a])])


class TestCollisionRate:
    def test_static_agents_beyond_epsilon(self):
        pred = np.zeros((2, 1, 12, 2))
        pred[1, :, :, 1] = 5.0
        gt = pred[:, 0]
        assert collision_rates(eval_input(pred, gt), epsilon=1.0).tolist() == [0.0]

    def test_single_overlap_step_gives_one_twelfth(self):
        pred = np.zeros((2, 1, 12, 2))
        pred[1, :, :, 1] = 5.0
        pred[1, :, 3, 1] = 0.0  # closer than epsilon at exactly one step
        gt = pred[:, 0]
        assert collision_rates(eval_input(pred, gt), epsilon=1.0) == pytest.approx([2 / (2 * 1 * 12)])

    def test_distance_exactly_epsilon_is_no_collision(self):
        pred = np.zeros((2, 1, 4, 2))
        pred[1, :, :, 1] = 1.0
        gt = pred[:, 0]
        assert collision_rates(eval_input(pred, gt), epsilon=1.0).tolist() == [0.0]

    def test_single_agent_warns_and_returns_zero(self):
        pred = np.zeros((1, 2, 4, 2))
        gt = pred[:, 0]
        with pytest.warns(UserWarning):
            assert collision_rates(eval_input(pred, gt), epsilon=1.0).tolist() == [0.0, 0.0]

    def test_per_sample_rates_give_mean_and_best(self):
        pred = np.zeros((2, 2, 4, 2))
        pred[1, 0, :, 1] = 0.1  # sample 0 collides everywhere
        pred[1, 1, :, 1] = 9.0  # sample 1 never collides
        gt = pred[:, 1]
        ev = eval_input(pred, gt)
        assert collision_rates(ev, 1.0).mean() == pytest.approx(0.5)
        assert collision_rates(ev, 1.0).min() == 0.0

    def test_ground_truth_zero_at_calibrated_epsilon(self):
        rng = np.random.default_rng(3)
        tracks = rng.uniform(0, 20, size=(4, 15, 2))
        scene = Scene(
            "s", [AgentTrack(i, tracks[i], np.arange(15)) for i in range(4)]
        )
        eps = calibrate_epsilon([scene])
        ev = eval_input(tracks[:, None, :, :], tracks)
        assert collision_rates(ev, eps).tolist() == [0.0]


class TestKdeNll:
    def test_hand_two_sample_case(self):
        samples = np.array([[0.0, 0.0], [2.0, 0.0]])
        gt = np.array([1.0, 0.0])
        pred = samples[None, :, None, :]
        ev = eval_input(pred, gt[None, None, :])
        std = math.sqrt(samples.var(axis=0).mean())
        h = max(2 ** (-1 / 3) * std, 1e-3)
        density = np.exp(-0.5 * ((samples - gt) ** 2).sum(-1) / h**2).mean() / (
            2 * math.pi * h**2
        )
        assert kde_nll(ev) == pytest.approx(-math.log(density), rel=1e-12)

    def test_gt_at_cloud_center_beats_far_gt(self):
        samples = np.array([[-1.0, 0.0], [1.0, 0.0]])
        pred = samples[None, :, None, :]
        near = eval_input(pred, np.zeros((1, 1, 2)))
        far = eval_input(pred, np.full((1, 1, 2), 50.0))
        assert kde_nll(near) < kde_nll(far)

    def test_collapsed_cloud_stays_finite(self):
        pred = np.zeros((1, 5, 3, 2))
        gt = np.zeros((1, 3, 2))
        value = kde_nll(eval_input(pred, gt))
        assert math.isfinite(value)
        # Floored bandwidth: density peak is 1 / (2 pi h^2) at h = 1e-3.
        assert value == pytest.approx(-math.log(1 / (2 * math.pi * 1e-6)), rel=1e-9)

    def test_needs_two_samples(self):
        with pytest.raises(DataError):
            kde_nll(eval_input(np.zeros((1, 1, 3, 2)), np.zeros((1, 3, 2))))


class TestMissRate:
    def test_exact_sample_never_misses(self):
        gt = straight_gt(3, 4)
        pred = np.repeat(gt[:, None], 2, axis=1)
        assert miss_rate(eval_input(pred, gt), threshold=2.0) == 0.0

    def test_all_samples_beyond_threshold(self):
        gt = straight_gt(2, 4)
        pred = np.repeat(gt[:, None], 2, axis=1)
        pred[:, :, -1, :] += [0.0, 4.0]
        assert miss_rate(eval_input(pred, gt), threshold=2.0) == 1.0

    def test_half_missing(self):
        gt = straight_gt(2, 4)
        pred = np.repeat(gt[:, None], 2, axis=1)
        pred[1, :, -1, :] += [0.0, 5.0]
        assert miss_rate(eval_input(pred, gt), threshold=2.0) == 0.5


class TestOrderingProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_min_variants_bounded_by_means(self, seed):
        rng = np.random.default_rng(seed)
        n, k, t = rng.integers(1, 4), rng.integers(1, 5), rng.integers(2, 6)
        pred = rng.normal(scale=3.0, size=(n, k, t, 2))
        gt = rng.normal(scale=3.0, size=(n, t, 2))
        ev = eval_input(pred, gt)
        assert min_ade_k(ev) <= ade(ev) + 1e-12
        assert min_fde_k(ev) <= fde(ev) + 1e-12

    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=50, deadline=None)
    def test_isometry_invariance_under_dihedral(self, seed, tid):
        rng = np.random.default_rng(seed)
        n, k, t = 2, 3, 4
        pred = rng.uniform(0, 10, size=(n, k, t, 2))
        gt = rng.uniform(0, 10, size=(n, t, 2))
        ev = eval_input(pred, gt)
        moved = eval_input(dihedral_point(pred, tid, 11), dihedral_point(gt, tid, 11))
        assert ade(moved) == pytest.approx(ade(ev), abs=1e-9)
        assert fde(moved) == pytest.approx(fde(ev), abs=1e-9)
        assert min_ade_k(moved) == pytest.approx(min_ade_k(ev), abs=1e-9)
        assert min_fde_k(moved) == pytest.approx(min_fde_k(ev), abs=1e-9)
        assert auc(moved)[0] == pytest.approx(auc(ev)[0], abs=1e-9)
        assert kde_nll(moved) == pytest.approx(kde_nll(ev), abs=1e-9)
        assert miss_rate(moved, 2.0) == miss_rate(ev, 2.0)
        assert collision_rates(moved, 1.5).mean() == collision_rates(ev, 1.5).mean()


class TestReport:
    def test_schema_and_serialization(self, tmp_path):
        rng = np.random.default_rng(5)
        evs = [
            eval_input(rng.uniform(0, 9, size=(2, 3, 4, 2)), rng.uniform(0, 9, size=(2, 4, 2))),
            eval_input(rng.uniform(0, 9, size=(3, 3, 4, 2)), rng.uniform(0, 9, size=(3, 4, 2))),
        ]
        report = evaluate_windows(evs, epsilon=0.5)
        expected_keys = {
            "ade", "fde", "min_ade", "min_fde", "auc", "auc_mean", "auc_curve",
            "cr_mean", "cr_best", "cr", "kde_nll", "miss_rate", "epsilon",
            "n_agents", "n_scenes",
        }
        assert set(report) == expected_keys
        assert report["n_agents"] == 5
        assert report["n_scenes"] == 2
        save_report_json(tmp_path / "m.json", report)
        save_report_csv(tmp_path / "m.csv", report)
        import json

        loaded = json.loads((tmp_path / "m.json").read_text())
        assert loaded["ade"] == report["ade"]
        lines = (tmp_path / "m.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].split(",")[0] == "ade"


# -- loop references ------------------------------------------------------------
# The per-agent, per-step and per-sample loops that the array forms in
# vista.metrics replaced, kept as the oracle for them.


def reference_errors(ev):
    diff = ev.predictions - ev.ground_truth[:, None, :, :]
    return np.sqrt((diff**2).sum(-1))


def reference_curve(sample_errors):
    errors = np.sort(np.asarray(sample_errors, dtype=np.float64))
    k = len(errors)
    curve = np.empty(k)
    for bigk in range(1, k + 1):
        weights = np.zeros(k)
        for j in range(1, k - bigk + 2):
            weights[j - 1] = float(math.comb(k - j, bigk - 1))
        curve[bigk - 1] = np.sum(weights * errors) / math.comb(k, bigk)
    return curve


def reference_auc(ev):
    errors = reference_errors(ev).mean(axis=2)
    curve = np.zeros(ev.k)
    for i in range(ev.n_agents):
        curve += reference_curve(errors[i])
    return float(curve.sum()), curve


def reference_collision_rates(ev, epsilon):
    n, k, t, _ = ev.predictions.shape
    per_sample = np.empty(k)
    offdiag = ~np.eye(n, dtype=bool)
    for j in range(k):
        traj = ev.predictions[:, j]
        diff = traj[:, None, :, :] - traj[None, :, :, :]
        dist = np.sqrt((diff**2).sum(-1))
        per_sample[j] = (dist < epsilon)[offdiag].sum() / (n * (n - 1) * t)
    return per_sample


def reference_kde_nll(ev, bandwidth_floor=1e-3):
    n, k, t, _ = ev.predictions.shape
    nll = 0.0
    for i in range(n):
        for step in range(t):
            cloud = ev.predictions[i, :, step, :]
            std = math.sqrt(cloud.var(axis=0).mean())
            h = max(k ** (-1.0 / 3.0) * std, bandwidth_floor)
            d2 = ((cloud - ev.ground_truth[i, step]) ** 2).sum(-1)
            density = np.exp(-0.5 * d2 / (h * h)).mean() / (2.0 * math.pi * h * h)
            nll -= math.log(max(density, 1e-300))
    return nll / (n * t)


def assert_rel(got, want, rel=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(got - want) <= rel * np.abs(want)), (got, want)


@given(
    n=st.integers(1, 12),
    k=st.integers(1, 24),
    t=st.integers(1, 15),
    seed=st.integers(0, 2**31 - 1),
    collapsed=st.booleans(),
    epsilon=st.sampled_from([0.0, 0.5, 2.0, 6.0]),
)
@settings(max_examples=150, deadline=None)
def test_array_metrics_match_loop_references(n, k, t, seed, collapsed, epsilon):
    rng = np.random.default_rng(seed)
    pred = rng.normal(scale=3.0, size=(n, k, t, 2)) + rng.normal(scale=4.0, size=(n, 1, t, 2))
    if collapsed:  # every sample at one point: zero spread, floored bandwidth
        pred[:] = pred[:, :1]
    ev = eval_input(pred, rng.normal(scale=4.0, size=(n, t, 2)))
    errors = reference_errors(ev)
    assert ev.errors.tobytes() == errors.tobytes()
    assert ade(ev) == float(errors.mean())
    assert fde(ev) == float(errors[:, :, -1].mean())
    assert per_sample_ade(ev).tobytes() == errors.mean(axis=2).tobytes()
    assert min_ade_k(ev) == float(errors.mean(axis=2).min(axis=1).mean())
    assert min_fde_k(ev) == float(errors[:, :, -1].min(axis=1).mean())
    assert miss_rate(ev, 2.0) == float((errors[:, :, -1].min(axis=1) > 2.0).mean())
    if n >= 2:
        assert collision_rates(ev, epsilon).tobytes() == reference_collision_rates(ev, epsilon).tobytes()
    total, curve = auc(ev)
    ref_total, ref_curve = reference_auc(ev)
    assert_rel(total, ref_total)
    assert_rel(curve, ref_curve)
    if k >= 2:
        assert_rel(kde_nll(ev), reference_kde_nll(ev))


def test_batched_curve_is_each_row_curve_bitwise():
    errors = np.random.default_rng(4).uniform(0, 9, size=(3, 5, 24))
    batched = expected_error_curve(errors)
    for index in np.ndindex(3, 5):
        assert batched[index].tobytes() == reference_curve(errors[index]).tobytes()
