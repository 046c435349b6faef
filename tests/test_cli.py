import json
import os
import re

import numpy as np
import pytest

from vista.cli import main


def run(argv, capsys=None):
    return main(argv)


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "data"
    assert main([
        "synth", "--scenario", "crossing", "--n", "2", "--seed", "3",
        "--windows", "6", "--frames", "7", "--randomize", "--speed", "0.6",
        "--out", str(out),
    ]) == 0
    return out


@pytest.fixture
def quick_config(tmp_path):
    path = tmp_path / "quick.cfg"
    path.write_text(
        "[model]\nt_obs=4\nt_fut=3\ngrid=16\n"
        "[train]\nmax_epochs=2\nval_k=2\nbatch_size=2\n"
        "[data]\nval_ratio=0.34\n"
    )
    return path


class TestSynth:
    def test_writes_windows_rasters_and_manifest(self, synth_dir):
        files = sorted(os.listdir(synth_dir))
        assert sum(f.endswith(".txt") for f in files) == 6
        assert "rasters" in files
        assert "manifest_synth.json" in files
        manifest = json.loads((synth_dir / "manifest_synth.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 3
        assert len(manifest["outputs"]) == 7

    def test_unknown_scenario_exits_4(self, tmp_path, capsys):
        code = main(["synth", "--scenario", "warp", "--out", str(tmp_path / "x")])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError"

    @pytest.mark.parametrize("line", ["speed=fast", "randomize=ture"])
    def test_malformed_spec_value_exits_2_naming_key(self, tmp_path, capsys, line):
        spec = tmp_path / "spec.txt"
        spec.write_text(f"scenario=crossing\n{line}\n")
        code = main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert line.split("=")[0] in err["message"]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "flag, value, key",
        [("--n", "0", "n_agents"), ("--n", "-1", "n_agents"), ("--windows", "0", "n_windows"),
         ("--frames", "0", "n_frames"), ("--grid", "-3", "grid"),
         ("--speed", "nan", "speed"), ("--speed", "inf", "speed"), ("--margin", "nan", "margin")],
    )
    def test_bad_spec_value_exits_2_naming_key(self, tmp_path, capsys, flag, value, key):
        out = tmp_path / "x"
        code = main(["synth", "--scenario", "crossing", flag, value, "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and key in err["message"]
        assert not out.exists()
        spec = tmp_path / "spec.txt"
        spec.write_text(f"scenario=crossing\n{key}={value}\n")
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 2
        assert key in json.loads(capsys.readouterr().err)["message"]
        assert not out.exists()

    def test_spec_values_kept_when_flags_unset(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("scenario=crossing\nn_agents=4\nseed=5\nn_windows=3\n")
        out = tmp_path / "x"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        windows = sorted(out.glob("crossing__w*.txt"))
        assert len(windows) == 3
        for path in windows:
            assert len({line.split()[1] for line in path.read_text().splitlines()}) == 4
        assert json.loads((out / "manifest_synth.json").read_text())["seed"] == 5

    def test_mirrors_generator_examples(self, tmp_path):
        out = tmp_path / "cv"
        assert main([
            "synth", "--scenario", "constant-velocity", "--n", "1",
            "--speed", "1.0", "--out", str(out),
        ]) == 0
        rows = [l.split() for l in (out / "constant-velocity__w000.txt").read_text().splitlines()]
        assert [float(r[2]) for r in rows] == list(range(20))
        assert all(float(r[3]) == 0.0 for r in rows)


class TestPrintConfig:
    def test_prints_defaults(self, capsys):
        assert main(["--print-config"]) == 0
        out = capsys.readouterr().out
        assert "[model]" in out and "[train]" in out
        assert "lr=0.001" in out
        assert "lambda_goal=1000.0" in out
        assert "plateau_patience=30" in out
        assert "early_stop_patience=75" in out


REMOVED_KEYS = [
    ("model", "temporal_depth", "2"),
    ("model", "social_depth", "2"),
    ("model", "anchor_coordinates", "false"),
    ("model", "raster_downsample", "2"),
    ("data", "time_jitter", "1"),
    ("eval", "k", "5"),
    ("eval", "cr_mode", "best-sample"),
    ("model", "embed_bias", "false"),
    ("model", "use_fixed_pe", "false"),
    ("model", "use_learnable_pe", "false"),
]


@pytest.mark.parametrize("section,key,value", REMOVED_KEYS)
def test_removed_config_key_exits_2(tmp_path, capsys, section, key, value):
    assert main(["--print-config"]) == 0
    assert f"\n{key}=" not in capsys.readouterr().out
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"[{section}]\n{key}={value}\n")
    code = main(["train", "--data", str(tmp_path), "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["message"] == f"unknown config key [{section}] {key}"


class TestTrain:
    def test_fold_ratio_trains_and_writes_artifacts(self, synth_dir, quick_config, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "train", "--data", str(synth_dir), "--raster-dir", str(synth_dir / "rasters"),
            "--config", str(quick_config), "--out", str(out), "--fold", "ratio",
        ])
        assert code == 0
        files = set(os.listdir(out))
        assert {"checkpoint_fold0.bin", "report_fold0.csv", "state_fold0.bin", "manifest_train.json"} <= files
        assert "best val minADE" in capsys.readouterr().out

    def test_fold_all_gives_one_checkpoint_per_scene_id(self, tmp_path, quick_config):
        data = tmp_path / "data"
        for scen in ("crossing", "group", "constant-velocity"):
            assert main([
                "synth", "--scenario", scen, "--n", "2", "--windows", "4",
                "--randomize", "--speed", "0.5", "--grid", "16", "--out", str(data),
            ]) == 0
        out = tmp_path / "runs"
        code = main([
            "train", "--data", str(data), "--config", str(quick_config),
            "--out", str(out), "--fold", "all",
        ])
        assert code == 0
        ckpts = [f for f in os.listdir(out) if f.startswith("checkpoint_fold")]
        assert len(ckpts) == 3

    def test_fold_index_selects_single_fold(self, tmp_path, quick_config):
        data = tmp_path / "data"
        for scen in ("crossing", "group"):
            assert main([
                "synth", "--scenario", scen, "--n", "2", "--windows", "4",
                "--randomize", "--speed", "0.5", "--grid", "16", "--out", str(data),
            ]) == 0
        out = tmp_path / "run"
        assert main([
            "train", "--data", str(data), "--config", str(quick_config),
            "--out", str(out), "--fold", "1",
        ]) == 0
        assert [f for f in os.listdir(out) if f.startswith("checkpoint_")] == ["checkpoint_fold0.bin"]

    def test_non_finite_coordinate_exits_4(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        rows = [f"{f} 1 {float(f)} 0.0" for f in range(7)]
        rows[5] = "5 1 nan 0.0"
        (data / "walk.txt").write_text("\n".join(rows) + "\n")
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "o")])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError"
        assert "walk.txt:6: non-finite" in err["message"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 x 1\n1.0 1.0\n", "expected 'H W D' integers, then reals (invalid literal"),
            ("1 2 1\n1.0 abc\n", "expected 'H W D' integers, then reals (could not convert"),
            ("-1 -2 1\n0.5 0.5\n", "raster sides must be positive"),
        ],
        ids=["header", "value", "negative_side"],
    )
    def test_malformed_raster_exits_4(self, synth_dir, quick_config, tmp_path, capsys, text, message):
        (synth_dir / "rasters" / "crossing.txt").write_text(text)
        code = main([
            "train", "--data", str(synth_dir), "--raster-dir", str(synth_dir / "rasters"),
            "--config", str(quick_config), "--out", str(tmp_path / "o"),
        ])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError"
        assert f"crossing.txt: {message}" in err["message"]

    def test_bad_config_key_exits_2_naming_key(self, synth_dir, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[train]\nlearning_rate=0.1\n")
        code = main([
            "train", "--data", str(synth_dir), "--config", str(bad),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "learning_rate" in err["message"]


@pytest.fixture
def trained(synth_dir, quick_config, tmp_path):
    out = tmp_path / "trained"
    assert main([
        "train", "--data", str(synth_dir), "--raster-dir", str(synth_dir / "rasters"),
        "--config", str(quick_config), "--out", str(out), "--fold", "ratio",
    ]) == 0
    return out / "checkpoint_fold0.bin"


class TestPredict:
    def test_k1_single_trajectory_per_agent(self, synth_dir, quick_config, trained, tmp_path):
        out = tmp_path / "pred1"
        assert main([
            "predict", "--checkpoint", str(trained), "--data", str(synth_dir),
            "--raster-dir", str(synth_dir / "rasters"), "--config", str(quick_config),
            "--k", "1", "--seed", "0", "--out", str(out),
        ]) == 0
        preds = [f for f in os.listdir(out) if f.startswith("pred_")]
        assert len(preds) == 6
        lines = (out / preds[0]).read_text().splitlines()
        assert all(l.split()[0] == "0" for l in lines)

    def test_same_seed_byte_identical(self, synth_dir, quick_config, trained, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"pred_{tag}"
            assert main([
                "predict", "--checkpoint", str(trained), "--data", str(synth_dir),
                "--raster-dir", str(synth_dir / "rasters"), "--config", str(quick_config),
                "--k", "4", "--seed", "11", "--trace", "--out", str(out),
            ]) == 0
            outs.append(out)
        names = sorted(f for f in os.listdir(outs[0]) if not f.startswith("manifest"))
        assert any(f.startswith("trace_") for f in names)
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_checkpoint_config_mismatch_exits_3(self, synth_dir, trained, tmp_path, capsys):
        other_cfg = tmp_path / "other.cfg"
        other_cfg.write_text("[model]\nt_obs=4\nt_fut=3\ngrid=16\nd_model=16\nn_heads=4\n")
        code = main([
            "predict", "--checkpoint", str(trained), "--data", str(synth_dir),
            "--config", str(other_cfg), "--out", str(tmp_path / "p"),
        ])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "CheckpointError"

    @pytest.mark.parametrize("use_goal", ["true", "false"], ids=["goal", "goal_free"])
    def test_k_below_one_exits_2(self, synth_dir, tmp_path, capsys, use_goal):
        from vista.config import load_config
        from vista.model import init_params

        config = tmp_path / "model.cfg"
        config.write_text(f"[model]\nt_obs=4\nt_fut=3\ngrid=16\nuse_goal={use_goal}\n")
        ckpt = tmp_path / "model.bin"
        init_params(load_config(config).model, seed=0).save(ckpt)
        for k in ("0", "-2"):
            code = main([
                "predict", "--checkpoint", str(ckpt), "--data", str(synth_dir),
                "--config", str(config), "--k", k, "--out", str(tmp_path / "p"),
            ])
            assert code == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ConfigError"
            assert f"k must be >= 1, got {k}" in err["message"]

    def test_rejected_k_creates_no_out_dir(self, synth_dir, quick_config, tmp_path):
        from vista.config import load_config
        from vista.model import init_params

        ckpt = tmp_path / "model.bin"
        init_params(load_config(quick_config).model, seed=0).save(ckpt)
        out = tmp_path / "p"
        code = main([
            "predict", "--checkpoint", str(ckpt), "--data", str(synth_dir),
            "--config", str(quick_config), "--k", "0", "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()

    def test_non_finite_checkpoint_exits_3(self, synth_dir, quick_config, tmp_path, capsys):
        from vista.config import load_config
        from vista.model import init_params

        params = init_params(load_config(quick_config).model, seed=0)
        params["tpm.dec.b2"].data[1] = np.inf
        ckpt = tmp_path / "inf.bin"
        params.save(ckpt)
        code = main([
            "predict", "--checkpoint", str(ckpt), "--data", str(synth_dir),
            "--config", str(quick_config), "--out", str(tmp_path / "p"),
        ])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CheckpointError"
        assert "'tpm.dec.b2'" in err["message"]


def write_off_grid_walk(data_dir):
    """Two agents over 13 frames (three windows) inside a 16x16 grid, except
    agent 2 at frame 2, whose x of 15.5 lies on the far edge of the last
    column."""
    data_dir.mkdir()
    rows = [f"{f} {a} {1.0 + f} {3.0 * a}" for f in range(13) for a in (1, 2)]
    rows[2 * 2 + 1] = "2 2 15.5 6.0"
    (data_dir / "walk.txt").write_text("\n".join(rows) + "\n")


@pytest.mark.parametrize("command", ["predict", "train"])
def test_off_grid_observation_exits_4(trained, quick_config, tmp_path, capsys, command):
    data = tmp_path / "off_grid"
    write_off_grid_walk(data)
    extra = ["--checkpoint", str(trained)] if command == "predict" else ["--fold", "ratio"]
    code = main([
        command, *extra, "--data", str(data), "--config", str(quick_config),
        "--out", str(tmp_path / "o"),
    ])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DataError"
    assert "walk.txt: agent 2 at frame 2 is at (15.5, 6.0), outside the 16x16 raster" in err["message"]


@pytest.mark.parametrize("command", ["predict", "train"])
def test_off_grid_window_writes_nothing(trained, quick_config, tmp_path, capsys, command):
    # predict reads c0 and c1 before the bad c2; train's first leave-one-out
    # fold holds the bad c0 out and would write its checkpoint first.
    bad = {"predict": "c2", "train": "c0"}[command]
    data = tmp_path / "three"
    data.mkdir()
    for name in ("c0", "c1", "c2"):
        rows = [f"{f} {a} {1.0 + f} {3.0 * a}" for f in range(7) for a in (1, 2)]
        if name == bad:
            rows[2 * 2 + 1] = "2 2 15.5 6.0"
        (data / f"{name}.txt").write_text("\n".join(rows) + "\n")
    extra = ["--checkpoint", str(trained)] if command == "predict" else ["--fold", "all"]
    out = tmp_path / "o"
    code = main([
        command, *extra, "--data", str(data), "--config", str(quick_config), "--out", str(out),
    ])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert f"{bad}.txt: agent 2 at frame 2 is at (15.5, 6.0)" in err["message"]
    assert not out.exists()


class TestEvaluate:
    def write_gt_as_predictions(self, synth_dir, out_dir, t_obs, k=3):
        from vista.data import load_trajectories
        from vista.tpm import PredictionSet, save_prediction_txt

        os.makedirs(out_dir, exist_ok=True)
        scenes = load_trajectories(synth_dir, t_obs=4, t_fut=3)
        for scene in scenes:
            gt = scene.positions()[:, t_obs:, :]
            pred = PredictionSet(
                agent_ids=list(scene.agent_ids), trajectories=np.repeat(gt[:, None], k, axis=1)
            )
            save_prediction_txt(
                os.path.join(out_dir, f"pred_{scene.scene_id}__w{scene.window_index:03d}.txt"),
                scene, pred, t_obs,
            )
        return scenes

    def test_gt_duplicated_gives_zero_displacement_metrics(self, synth_dir, quick_config, tmp_path):
        pred_dir = tmp_path / "preds"
        self.write_gt_as_predictions(synth_dir, pred_dir, t_obs=4)
        out = tmp_path / "metrics"
        assert main([
            "evaluate", "--pred", str(pred_dir), "--gt", str(synth_dir),
            "--config", str(quick_config), "--epsilon", "auto", "--out", str(out),
        ]) == 0
        report = json.loads((out / "metrics.json").read_text())
        assert report["ade"] == 0.0
        assert report["fde"] == 0.0
        assert report["min_ade"] == 0.0
        assert report["auc"] == 0.0
        assert report["cr"] == 0.0  # calibrated epsilon reproduces CR=0 on GT

    def test_epsilon_override_lands_in_report(self, synth_dir, quick_config, tmp_path):
        pred_dir = tmp_path / "preds"
        self.write_gt_as_predictions(synth_dir, pred_dir, t_obs=4)
        out = tmp_path / "metrics"
        assert main([
            "evaluate", "--pred", str(pred_dir), "--gt", str(synth_dir),
            "--config", str(quick_config), "--epsilon", "0.125", "--out", str(out),
        ]) == 0
        report = json.loads((out / "metrics.json").read_text())
        assert report["epsilon"] == 0.125

    @pytest.mark.parametrize("flag", ["--epsilon", "--miss-threshold"])
    def test_nan_threshold_exits_4(self, synth_dir, quick_config, tmp_path, capsys, flag):
        pred_dir = tmp_path / "preds"
        self.write_gt_as_predictions(synth_dir, pred_dir, t_obs=4)
        out = tmp_path / "metrics"
        code = main([
            "evaluate", "--pred", str(pred_dir), "--gt", str(synth_dir),
            "--config", str(quick_config), flag, "nan", "--out", str(out),
        ])
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"] == "DataError"
        assert not out.exists()

    def test_alignment_failure_exits_4_with_key(self, synth_dir, quick_config, tmp_path, capsys):
        pred_dir = tmp_path / "preds"
        scenes = self.write_gt_as_predictions(synth_dir, pred_dir, t_obs=4)
        victim = pred_dir / f"pred_{scenes[0].scene_id}__w000.txt"
        lines = victim.read_text().splitlines()
        victim.write_text("\n".join(lines[:-1]) + "\n")
        code = main([
            "evaluate", "--pred", str(pred_dir), "--gt", str(synth_dir),
            "--config", str(quick_config), "--epsilon", "auto",
            "--out", str(tmp_path / "m"),
        ])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "AlignmentError"
        assert re.search(r"\(sample, frame, agent\)", err["message"])


    @pytest.mark.parametrize("edit", ["non_numeric", "duplicate"])
    def test_malformed_prediction_file_exits_4_naming_line(self, synth_dir, quick_config, tmp_path, capsys, edit):
        pred_dir = tmp_path / "preds"
        scenes = self.write_gt_as_predictions(synth_dir, pred_dir, t_obs=4)
        victim = pred_dir / f"pred_{scenes[0].scene_id}__w000.txt"
        lines = victim.read_text().splitlines()
        if edit == "non_numeric":
            lines[4] = "x " + lines[4].split(" ", 1)[1]
            lineno = 5
        else:
            lines.append(lines[0])
            lineno = len(lines)
        victim.write_text("\n".join(lines) + "\n")
        code = main([
            "evaluate", "--pred", str(pred_dir), "--gt", str(synth_dir),
            "--config", str(quick_config), "--out", str(tmp_path / "m"),
        ])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError"
        assert f"{victim}:{lineno}: " in err["message"]
        if edit == "duplicate":
            assert "duplicate record" in err["message"]

    @pytest.mark.parametrize("edit", ["missing", "extra", "id_beyond_int64"])
    def test_alignment_error_names_first_mismatch(self, synth_dir, tmp_path, edit):
        from vista.cli import _eval_inputs_from_files
        from vista.errors import AlignmentError

        pred_dir = tmp_path / "preds"
        scenes = self.write_gt_as_predictions(synth_dir, pred_dir, t_obs=4)
        victim = pred_dir / f"pred_{scenes[0].scene_id}__w{scenes[0].window_index:03d}.txt"
        lines = victim.read_text().splitlines()
        if edit == "missing":
            key = tuple(int(v) for v in lines.pop(5).split()[:3])
        elif edit == "extra":
            key = (1, int(lines[0].split()[1]), 999)
            lines.append(f"{key[0]} {key[1]} {key[2]} 1.0 2.0")
        else:
            key = (0, 10**20, int(lines[0].split()[2]))
            lines.append(f"{key[0]} {key[1]} {key[2]} 1.0 2.0")
        victim.write_text("\n".join(lines) + "\n")
        with pytest.raises(AlignmentError) as info:
            _eval_inputs_from_files(scenes, str(pred_dir), 4)
        assert info.value.first_mismatch == key
        assert str(info.value).endswith(f"(sample, frame, agent) = {key}")


class TestRender:
    def test_single_agent_scene_svg_element_counts(self, tmp_path, quick_config):
        data = tmp_path / "data"
        assert main([
            "synth", "--scenario", "constant-velocity", "--n", "1",
            "--speed", "0.6", "--out", str(data),
        ]) == 0
        pred_dir = tmp_path / "preds"
        TestEvaluate().write_gt_as_predictions(data, pred_dir, t_obs=4, k=1)
        out = tmp_path / "svg"
        assert main([
            "render", "--scene", str(data), "--pred", str(pred_dir),
            "--config", str(quick_config), "--out-svg", str(out),
        ]) == 0
        svg = (out / "scene_constant-velocity__w000.svg").read_text()
        assert svg.count("<polyline") == 3
        assert svg.count("<circle") == 1

    def test_trace_grid_cells_and_shades(self, tmp_path, quick_config):
        trace = {
            "scene_id": "s:w0",
            "sample_index": 0,
            "agent_ids": [3, 1, 2, 0],
            "steps": [{"t": 5, "matrix": (np.eye(4) * 0.7 + 0.075).tolist()}],
        }
        tpath = tmp_path / "trace_s__w000_s00.json"
        tpath.write_text(json.dumps(trace))
        data = tmp_path / "data"
        assert main([
            "synth", "--scenario", "crossing", "--n", "2", "--speed", "0.6",
            "--out", str(data),
        ]) == 0
        pred_dir = tmp_path / "preds"
        TestEvaluate().write_gt_as_predictions(data, pred_dir, t_obs=4, k=1)
        out = tmp_path / "svg"
        assert main([
            "render", "--scene", str(data), "--pred", str(pred_dir),
            "--config", str(quick_config), "--trace", str(tpath),
            "--steps", "all", "--out-svg", str(out),
        ]) == 0
        svg = (out / "trace_s__w000_s00_t05.svg").read_text()
        assert svg.count("<rect") == 16
        for m in re.finditer(r'fill="rgb\((\d+),\d+,\d+\)" [^>]*data-weight="([0-9.eE+-]+)"', svg):
            level, weight = int(m.group(1)), float(m.group(2))
            assert abs(level / 255 - weight) <= 1 / 255

    def test_non_integer_steps_exits_2(self, synth_dir, quick_config, tmp_path, capsys):
        out = tmp_path / "svg"
        code = main([
            "render", "--scene", str(synth_dir), "--pred", str(tmp_path / "preds"),
            "--config", str(quick_config), "--steps", "abc", "--out-svg", str(out),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "--steps" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        '{"steps": [',
        json.dumps({"agent_ids": [0, 1]}),
        json.dumps({"steps": []}),
        json.dumps({"agent_ids": [0, 1], "steps": [{"matrix": [[1.0]]}]}),
        json.dumps({"agent_ids": [0, 1], "steps": [{"t": 5}]}),
        json.dumps({"agent_ids": [0, 1], "steps": [{"t": 5, "matrix": "abc"}]}),
        json.dumps({"agent_ids": [0, 1], "steps": [{"t": "x", "matrix": [[1.0, 0.0], [0.0, 1.0]]}]}),
        json.dumps({"agent_ids": [0], "steps": [{"t": 5, "matrix": [[1.0, 0.0], [0.0, 1.0]]}]}),
    ], ids=[
        "not_json", "no_steps", "no_agent_ids", "step_without_t", "step_without_matrix",
        "matrix_not_numeric", "t_not_integer", "matrix_not_n_by_n",
    ])
    def test_malformed_trace_exits_4_naming_file(self, synth_dir, quick_config, tmp_path, capsys, text):
        tpath = tmp_path / "trace_bad.json"
        tpath.write_text(text)
        out = tmp_path / "svg"
        code = main([
            "render", "--scene", str(synth_dir), "--pred", str(tmp_path / "preds"),
            "--config", str(quick_config), "--trace", str(tpath), "--out-svg", str(out),
        ])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError"
        assert "trace_bad.json" in err["message"]
        assert not out.exists()


def test_unknown_command_shows_help(capsys):
    assert main([]) == 2
