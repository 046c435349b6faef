import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from test_cli import BOUNDARY_TOKENS, EXTRA_TOKENS, token

from vista.data import (
    AgentTrack,
    ScenarioSpec,
    Scene,
    SceneRaster,
    augment_dihedral,
    dihedral_point,
    load_raster,
    load_trajectories,
    min_pairwise_distance,
    read_records,
    rasterize_gaussian,
    reject_off_grid,
    save_raster,
    save_trajectories,
    split_leave_one_out,
    split_ratio,
    synth_generate,
    uniform_raster,
)
from vista.errors import ConfigError, DataError
from vista.tpm import load_prediction_txt


def write_track_file(path, rows):
    path.write_text("\n".join(" ".join(str(v) for v in row) for row in rows) + "\n")


class TestLoading:
    def test_exact_fit_single_window(self, tmp_path):
        rows = [(f, 1, float(f), 0.0) for f in range(1, 21)]
        f = tmp_path / "a.txt"
        write_track_file(f, rows)
        scenes = load_trajectories(f, t_obs=8, t_fut=12, stride=12)
        assert len(scenes) == 1
        assert scenes[0].n_agents == 1
        assert scenes[0].n_frames == 20

    def test_incomplete_agent_dropped_from_window(self, tmp_path):
        rows = [(f, 1, float(f), 0.0) for f in range(20)]
        rows += [(f, 2, 0.0, float(f)) for f in range(10)]
        f = tmp_path / "a.txt"
        write_track_file(f, rows)
        scenes = load_trajectories(f, t_obs=8, t_fut=12, stride=12)
        assert len(scenes) == 1
        assert scenes[0].agent_ids == [1]

    def test_32_frames_stride_12_gives_two_windows(self, tmp_path):
        rows = [(f, 7, float(f), 1.0) for f in range(1, 33)]
        f = tmp_path / "a.txt"
        write_track_file(f, rows)
        scenes = load_trajectories(f, t_obs=8, t_fut=12, stride=12)
        assert len(scenes) == 2
        np.testing.assert_array_equal(scenes[0].frame_ids, np.arange(1, 21))
        np.testing.assert_array_equal(scenes[1].frame_ids, np.arange(13, 33))

    def test_malformed_line_reports_line_number(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1 1 0.0 0.0\n2 1 oops 0.0\n")
        with pytest.raises(DataError, match="bad.txt:2"):
            load_trajectories(f)

    @pytest.mark.parametrize(
        "bad, match",
        [
            ("3 1 nan 0.0", "non-finite"),
            ("3 1 0.0 inf", "non-finite"),
            ("3 1 -inf 0.0", "non-finite"),
            ("inf 1 0.0 0.0", "non-finite"),
            ("nan 1 0.0 0.0", "non-finite"),
            ("0.5 1 0.0 0.0", "frame and agent ids must be integers"),
            ("3 1.25 0.0 0.0", "frame and agent ids must be integers"),
        ],
    )
    def test_non_finite_field_or_fractional_id_rejected(self, tmp_path, bad, match):
        rows = [f"{f} 1 {float(f)} 0.0" for f in range(20)]
        rows[3] = bad
        f = tmp_path / "bad.txt"
        f.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError, match=f"bad.txt:4: {match}"):
            load_trajectories(f)

    def test_integral_float_ids_load(self, tmp_path):
        f = tmp_path / "trajnet.txt"
        write_track_file(f, [(780.0 + 10 * i, 3.0, float(i), 0.5) for i in range(20)])
        [scene] = load_trajectories(f, t_obs=8, t_fut=12)
        assert scene.agent_ids == [3]
        np.testing.assert_array_equal(scene.frame_ids, 780 + 10 * np.arange(20))

    def test_no_windows_warns(self, tmp_path):
        f = tmp_path / "short.txt"
        write_track_file(f, [(i, 1, 0.0, 0.0) for i in range(5)])
        with pytest.warns(UserWarning):
            assert load_trajectories(f, t_obs=8, t_fut=12) == []

    def test_no_fabricated_positions(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = []
        coords = set()
        for f in range(32):
            for a in (1, 2):
                x, y = rng.normal(), rng.normal()
                coords.add((x, y))
                rows.append((f, a, x, y))
        f = tmp_path / "a.txt"
        write_track_file(f, [(f_, a, repr(x), repr(y)) for f_, a, x, y in rows])
        for scene in load_trajectories(f, t_obs=8, t_fut=12, stride=5):
            for track in scene.tracks:
                for x, y in track.positions:
                    assert (x, y) in coords

    def test_double_underscore_files_group_into_one_scene(self, tmp_path):
        for i in range(3):
            write_track_file(
                tmp_path / f"walk__part{i}.txt",
                [(f, 1, float(f + i), 0.0) for f in range(20)],
            )
        scenes = load_trajectories(tmp_path, t_obs=8, t_fut=12)
        assert len(scenes) == 3
        assert {s.scene_id for s in scenes} == {"walk"}
        assert sorted(s.window_index for s in scenes) == [0, 1, 2]

    def test_trajectory_roundtrip(self, tmp_path):
        spec = ScenarioSpec(scenario="group", n_agents=3, speed=0.4, margin=1.5, grid=16)
        scene = synth_generate(spec)[0]
        path = tmp_path / "g.txt"
        save_trajectories(path, scene)
        loaded = load_trajectories(path, t_obs=8, t_fut=12)[0]
        np.testing.assert_array_equal(loaded.positions(), scene.positions())
        assert loaded.agent_ids == scene.agent_ids


# -- one record reader ------------------------------------------------------
# The two loops that ``read_records`` replaced, kept verbatim as its
# references: the trajectory loop (with its line parser) and the prediction
# loop of ``load_prediction_txt``.


def reference_track_line(line, lineno, path):
    parts = line.split()
    if len(parts) != 4:
        raise DataError(f"{path}:{lineno}: expected 'frame agent x y', got {line!r}")
    try:
        frame, agent, x, y = (float(p) for p in parts)
    except ValueError:
        raise DataError(f"{path}:{lineno}: non-numeric field in {line!r}") from None
    if not all(map(math.isfinite, (frame, agent, x, y))):
        raise DataError(f"{path}:{lineno}: non-finite field in {line!r}")
    if not (frame.is_integer() and agent.is_integer()):
        raise DataError(f"{path}:{lineno}: frame and agent ids must be integers, got {line!r}")
    return int(frame), int(agent), x, y


def reference_track_records(path):
    records = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            frame, agent, x, y = reference_track_line(line, lineno, path)
            if (frame, agent) in records:
                raise DataError(f"{path}:{lineno}: duplicate record for frame {frame}, agent {agent}")
            records[(frame, agent)] = (x, y)
    return records


def reference_load_prediction_txt(path):
    records = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts:
                continue
            try:
                j, f, a, x, y = parts
                key, xy = (int(j), int(f), int(a)), (float(x), float(y))
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: expected 'sample frame agent x y', got {raw.strip()!r}"
                ) from None
            if not (math.isfinite(xy[0]) and math.isfinite(xy[1])):
                raise DataError(f"{path}:{lineno}: non-finite coordinate in {raw.strip()!r}")
            if key in records:
                raise DataError(f"{path}:{lineno}: duplicate record for (sample, frame, agent) = {key}")
            records[key] = xy
    if not records:
        raise DataError(f"{path}: no prediction records")
    return records


# Each file kind: the reader, its reference, and its id count.
RECORD_READERS = {
    "trajectory": (lambda path: read_records(path, "frame agent x y"), reference_track_records, 2),
    "prediction": (load_prediction_txt, reference_load_prediction_txt, 3),
}


@st.composite
def record_text(draw, kind):
    """A valid record file: unique ids, finite coordinates in several
    spellings, whitespace runs and blank lines, and in trajectory files,
    which the old loop already read so, ``#`` lines and ids such as 780.0."""
    n_ids = RECORD_READERS[kind][2]
    keys = draw(st.lists(st.tuples(*[st.integers(-3, 10**6)] * n_ids), min_size=1, max_size=25, unique=True))
    fillers = ["", "   ", "\t"] + (["# frame agent x y", "#3 1 0.0 0.0"] if kind == "trajectory" else [])
    coord = st.floats(allow_nan=False, allow_infinity=False)
    spell = st.sampled_from([repr, "{:.3f}".format, "{:e}".format, "{:+}".format])
    lines = []
    for key in keys:
        lines += draw(st.lists(st.sampled_from(fillers), max_size=2))
        ids = [f"{i}.0" if kind == "trajectory" and draw(st.booleans()) else str(i) for i in key]
        xy = [draw(spell)(draw(coord)) for _ in range(2)]
        lines.append(draw(st.sampled_from([" ", "\t", "  "])).join(ids + xy))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


@pytest.mark.parametrize("kind", sorted(RECORD_READERS))
@seed(24)
@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_reader_equals_the_loop_it_replaced(tmp_path_factory, kind, data):
    path = tmp_path_factory.getbasetemp() / f"records.{kind}.txt"
    path.write_text(data.draw(record_text(kind)))
    read, reference, _ = RECORD_READERS[kind]
    assert repr(read(path)) == repr(reference(path))


@pytest.mark.parametrize("kind", sorted(RECORD_READERS))
def test_reader_decides_boundary_tokens_as_the_loop_it_replaced(tmp_path, kind):
    # Each boundary token of the CLI properties in each field of the second
    # line, and a "#" line. Prediction files widen the rule in two ways: they
    # skip "#" lines and take an integral float id (1e20), as trajectory
    # files do; every other decision is the old loop's.
    read, reference, n_ids = RECORD_READERS[kind]
    rows = [[str(i), "1", *(["0"] if n_ids == 3 else []), "0.5", "2.5"] for i in range(3)]
    cases = [(None, "# comment")] + [
        (field, token(value)) for field in range(n_ids + 2) for value in [*BOUNDARY_TOKENS, *EXTRA_TOKENS]
    ]
    for field, value in cases:
        lines = [" ".join(row) for row in rows]
        if field is None:
            lines.insert(1, value)
        else:
            lines[1] = " ".join(rows[1][:field] + [value] + rows[1][field + 1 :])
        path = tmp_path / f"{kind}.txt"
        path.write_text("\n".join(lines) + "\n")
        decisions = []
        for load in (read, reference):
            try:
                load(path)
                decisions.append("accept")
            except DataError:
                decisions.append("reject")
        widened = kind == "prediction" and (
            field is None or (field < n_ids and value in ("1e200", "1e308", "1e20"))
        )
        assert decisions == (["accept", "reject"] if widened else decisions[:1] * 2), (field, value)


@pytest.mark.parametrize("kind", sorted(RECORD_READERS))
@pytest.mark.parametrize("sep", ["\x0c", "\x1c", "\x85", "\u2028"])
def test_reader_breaks_lines_where_file_iteration_does(tmp_path, kind, sep):
    # str.splitlines would break the first line at ``sep``; to the file loop
    # it is whitespace between fields, and the bad line is the second.
    read, reference, n_ids = RECORD_READERS[kind]
    path = tmp_path / "records.txt"
    path.write_bytes(f"{sep.join(['1'] * n_ids + ['0.5', '2.5'])}\nbad line\n".encode())
    for load in (read, reference):
        with pytest.raises(DataError, match="records.txt:2: expected"):
            load(path)


class TestRasterIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        scores = rng.uniform(size=(4, 5, 3))
        scores /= scores.sum(axis=2, keepdims=True)
        raster = SceneRaster(scores)
        path = tmp_path / "r.txt"
        save_raster(path, raster)
        loaded = load_raster(path)
        np.testing.assert_array_equal(loaded.scores, scores)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("2 2 1\n0.5 0.5\n")
        with pytest.raises(DataError, match="expected"):
            load_raster(path)

    def test_class_scores_must_sum_to_one(self):
        with pytest.raises(DataError, match="sum to 1"):
            SceneRaster(np.full((2, 2, 2), 0.3))


class TestGaussianRasterization:
    def test_delta_limit(self):
        heat = rasterize_gaussian((3.0, 2.0), (6, 6), sigma=0.05)
        assert heat[2, 3] == pytest.approx(1.0, abs=1e-12)
        assert heat.sum() == pytest.approx(1.0)

    def test_center_of_odd_grid_four_fold_symmetric(self):
        heat = rasterize_gaussian((2.0, 2.0), (5, 5), sigma=1.3)
        np.testing.assert_allclose(heat, heat[::-1, :], atol=1e-15)
        np.testing.assert_allclose(heat, heat[:, ::-1], atol=1e-15)
        np.testing.assert_allclose(heat, heat.T, atol=1e-15)

    def test_closed_form_ratios_sigma_one(self):
        # Unnormalized value is exp(-d^2 / (2 sigma^2)): an axis neighbor is
        # exp(-1/2) of the peak, a diagonal (one cell in both axes) exp(-1).
        heat = rasterize_gaussian((2.0, 2.0), (5, 5), sigma=1.0)
        assert heat[2, 2] / heat[2, 3] == pytest.approx(math.exp(0.5), rel=1e-12)
        assert heat[2, 2] / heat[3, 3] == pytest.approx(math.exp(1.0), rel=1e-12)

    def test_center_outside_grid_still_normalized(self):
        heat = rasterize_gaussian((-3.0, 2.0), (6, 6), sigma=2.0)
        assert heat.sum() == pytest.approx(1.0)
        assert (heat > 0).all()

    def test_sigma_must_be_positive(self):
        with pytest.raises(DataError):
            rasterize_gaussian((0, 0), (4, 4), sigma=0.0)


def compose_dihedral(a: int, b: int) -> int:
    """Index c with T_c = T_a o T_b (first b, then a)."""
    probes = np.array([[0.125, 0.375], [0.875, 0.25]])
    side = 2
    target = dihedral_point(dihedral_point(probes, b, side), a, side)
    for c in range(8):
        if np.allclose(dihedral_point(probes, c, side), target, atol=1e-12):
            return c
    raise AssertionError("dihedral composition escaped the group")


def inverse_dihedral(transform_id: int) -> int:
    for inv in range(8):
        if compose_dihedral(inv, transform_id) == 0:
            return inv
    raise AssertionError("unreachable")


class TestDihedral:
    def test_identity(self):
        pts = np.array([[1.25, 3.5], [0.0, 4.0]])
        np.testing.assert_array_equal(dihedral_point(pts, 0, 5), pts)

    def test_quarter_turn_convention(self):
        # (x, y) -> (y, L-1-x) on a square grid of side L
        out = dihedral_point(np.array([1.0, 2.0]), 1, 5)
        np.testing.assert_array_equal(out, [2.0, 3.0])

    def test_horizontal_flip_is_involution(self):
        pts = np.array([[0.5, 2.25]])
        once = dihedral_point(pts, 4, 7)
        np.testing.assert_allclose(dihedral_point(once, 4, 7), pts, atol=1e-12)

    def test_group_closure_all_64_pairs(self):
        for a in range(8):
            for b in range(8):
                assert 0 <= compose_dihedral(a, b) <= 7

    def test_inverse_recovers_original_scene(self):
        spec = ScenarioSpec(scenario="diverge", n_agents=3, speed=0.4, margin=1.0, grid=16)
        scene = synth_generate(spec)[0]
        for tid in range(8):
            fwd = augment_dihedral(scene, tid)
            back = augment_dihedral(fwd, inverse_dihedral(tid))
            np.testing.assert_allclose(back.positions(), scene.positions(), atol=1e-9)
            np.testing.assert_allclose(back.raster.scores, scene.raster.scores, atol=1e-12)

    def test_raster_moves_with_positions(self):
        # Put a distinctive cell at the location of a known point and check
        # the transformed raster carries it to the transformed point.
        side = 8
        scores = np.zeros((side, side, 2))
        scores[:, :, 0] = 1.0
        scores[3, 5] = [0.0, 1.0]  # cell at (x=5, y=3)
        track = AgentTrack(1, np.tile([5.0, 3.0], (20, 1)), np.arange(20))
        scene = Scene("s", [track], raster=SceneRaster(scores))
        for tid in range(8):
            moved = augment_dihedral(scene, tid)
            x, y = moved.tracks[0].positions[0]
            np.testing.assert_array_equal(moved.raster.scores[int(y), int(x)], [0.0, 1.0])

    def test_rotation_needs_grid_side_without_raster(self):
        track = AgentTrack(1, np.zeros((20, 2)), np.arange(20))
        scene = Scene("s", [track])
        with pytest.raises(DataError, match="grid_side"):
            augment_dihedral(scene, 1)


class TestRejectOffGrid:
    """Cell (r, c) covers [c-0.5, c+0.5) x [r-0.5, r+0.5), so a side-W grid
    holds x in [-0.5, W-0.5)."""

    def scene(self, xy_at_frame_2, raster=None):
        positions = np.full((6, 2), 3.0)
        positions[2] = xy_at_frame_2
        return Scene("s", [AgentTrack(7, positions, np.arange(10, 16))], raster=raster)

    @pytest.mark.parametrize("xy", [(-0.5, 3.0), (3.0, -0.5), (15.49, 15.49)])
    def test_edges_inside(self, xy):
        reject_off_grid(self.scene(xy), 6, 16)

    @pytest.mark.parametrize("xy", [(-0.51, 3.0), (3.0, -0.51), (15.5, 3.0), (3.0, 15.5)])
    def test_outside_names_agent_and_frame(self, xy):
        with pytest.raises(DataError, match=r"agent 7 at frame 12 .* outside the 16x16 raster"):
            reject_off_grid(self.scene(xy), 6, 16)

    def test_only_the_first_frames_are_checked(self):
        reject_off_grid(self.scene((40.0, 3.0)), 2, 16)

    def test_raster_sides_take_precedence(self):
        raster = SceneRaster(np.ones((8, 32, 1)))
        reject_off_grid(self.scene((31.0, 7.0), raster), 6, 16)
        with pytest.raises(DataError, match="outside the 8x32 raster"):
            reject_off_grid(self.scene((3.0, 7.5), raster), 6, 16)


@given(st.integers(0, 7), st.integers(0, 7))
@settings(max_examples=64, deadline=None)
def test_dihedral_composition_is_closed_and_consistent(a, b):
    c = compose_dihedral(a, b)
    pts = np.array([[0.123, 3.456], [4.2, 0.9]])
    side = 6
    lhs = dihedral_point(dihedral_point(pts, b, side), a, side)
    np.testing.assert_allclose(dihedral_point(pts, c, side), lhs, atol=1e-9)


class TestSynthetic:
    def test_constant_velocity_closed_form(self):
        spec = ScenarioSpec(scenario="constant-velocity", n_agents=1, speed=1.0, grid=24)
        scene = synth_generate(spec)[0]
        expected = np.stack([np.arange(20.0), np.zeros(20)], axis=1)
        np.testing.assert_array_equal(scene.tracks[0].positions, expected)

    def test_crossing_paths_intersect_but_not_simultaneously(self):
        spec = ScenarioSpec(scenario="crossing", n_agents=2, speed=1.0, margin=1.0, grid=24)
        scene = synth_generate(spec)[0]
        assert min_pairwise_distance(scene) >= spec.margin
        a, b = scene.tracks[0].positions, scene.tracks[1].positions
        gaps = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))
        assert gaps.min() < 0.75  # spatial intersection at different times

    def test_group_distances_constant_multiples_of_spacing(self):
        spec = ScenarioSpec(scenario="group", n_agents=3, speed=0.5, margin=1.5, grid=24)
        scene = synth_generate(spec)[0]
        pos = scene.positions()
        for i in range(3):
            for j in range(i + 1, 3):
                d = np.sqrt(((pos[i] - pos[j]) ** 2).sum(-1))
                np.testing.assert_allclose(d, d[0], atol=1e-12)
                assert d[0] == pytest.approx(abs(i - j) * spec.margin)

    def test_head_on_avoid_margin_guarantee(self):
        for seed in range(5):
            spec = ScenarioSpec(
                scenario="head-on-avoid", n_agents=2, speed=0.5, margin=1.0,
                grid=24, randomize=True, n_windows=4, seed=seed,
            )
            for scene in synth_generate(spec):
                assert min_pairwise_distance(scene) >= spec.margin - 1e-9

    def test_determinism_given_seed(self):
        spec = ScenarioSpec(
            scenario="diverge", n_agents=4, speed=0.5, margin=1.0, grid=24,
            randomize=True, n_windows=3, seed=11,
        )
        a = [s.positions() for s in synth_generate(spec)]
        b = [s.positions() for s in synth_generate(spec)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_unknown_scenario(self):
        with pytest.raises(DataError, match="unknown scenario"):
            synth_generate(ScenarioSpec(scenario="teleport"))

    def test_spec_text_parsing(self):
        spec = ScenarioSpec.from_text(
            "scenario=crossing\nn_agents=4\nspeed=0.75\nmargin=2.0\nseed=3\n"
        )
        assert spec.scenario == "crossing"
        assert spec.n_agents == 4
        assert spec.speed == 0.75
        assert spec.margin == 2.0
        assert spec.seed == 3

    def test_spec_rejects_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown scenario key"):
            ScenarioSpec.from_text("scenario=group\nwarp=9\n")


class TestSplits:
    def make_scenes(self, ids):
        scenes = []
        for i, sid in enumerate(ids):
            track = AgentTrack(1, np.tile([float(i), 0.0], (20, 1)), np.arange(20))
            scenes.append(Scene(sid, [track], window_index=i))
        return scenes

    def test_nine_ids_give_nine_folds(self):
        scenes = self.make_scenes([f"s{i}" for i in range(9)] * 2)
        folds = split_leave_one_out(scenes)
        assert len(folds) == 9
        for train, test in folds:
            assert len({s.scene_id for s in test}) == 1
            assert len({s.scene_id for s in train}) == 8

    def test_two_ids_give_two_folds(self):
        folds = split_leave_one_out(self.make_scenes(["a", "b"]))
        assert len(folds) == 2

    def test_folds_partition_the_dataset(self):
        scenes = self.make_scenes(["a", "b", "c", "a", "b"])
        folds = split_leave_one_out(scenes)
        test_keys = [s.key() for _, test in folds for s in test]
        assert sorted(test_keys) == sorted(s.key() for s in scenes)
        assert len(set(test_keys)) == len(test_keys)

    def test_single_scene_errors_with_suggestion(self):
        with pytest.raises(DataError, match="ratio"):
            split_leave_one_out(self.make_scenes(["only", "only"]))

    def test_ratio_split_covers_everything(self):
        scenes = self.make_scenes(["a"] * 10)
        train, test = split_ratio(scenes, 0.7, seed=1)
        assert len(train) == 7 and len(test) == 3
        assert sorted(s.window_index for s in train + test) == list(range(10))


def test_uniform_raster_valid():
    raster = uniform_raster(8, 3)
    np.testing.assert_array_equal(raster.scores.sum(axis=2), np.ones((8, 8)))
