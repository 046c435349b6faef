import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import vista
from vista.cli import main
from vista.data import SCENARIOS
from vista.params import ParamStore
from vista.tpm import RETIRED_PARAMS


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
         ("--speed", "nan", "speed"), ("--speed", "inf", "speed"), ("--margin", "nan", "margin"),
         ("--speed", "-1", "speed"), ("--margin", "-1", "margin"), ("--seed", "-1", "seed")],
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

    @pytest.mark.parametrize("flag", ["--speed", "--margin"])
    def test_zero_speed_or_margin_is_valid(self, tmp_path, flag):
        assert main(["synth", "--scenario", "group", flag, "0", "--out", str(tmp_path / "x")]) == 0

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("frames", ["11", "20"])
    @pytest.mark.parametrize(
        "zeros", [("--speed",), ("--margin",), ("--speed", "--margin")], ids=str
    )
    def test_zero_speed_or_margin_exits_2_or_writes_finite_tracks(
        self, tmp_path, capsys, scenario, frames, zeros
    ):
        out = tmp_path / "x"
        argv = ["synth", "--scenario", scenario, "--frames", frames, "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + [arg for flag in zeros for arg in (flag, "0")])
        assert not caught
        if code == 2:
            assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
            assert not out.exists()
            return
        assert code == 0
        tracks = sorted(out.glob(f"{scenario}__w*.txt"))
        assert tracks and all(np.isfinite(np.loadtxt(path)).all() for path in tracks)

    @pytest.mark.parametrize("randomize", [[], ["--randomize"]], ids=["fixed", "randomized"])
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_speed_beyond_float64_exits_2(self, tmp_path, capsys, scenario, randomize):
        # t * speed leaves float64 at the second frame; clipping would hide the inf.
        out = tmp_path / "x"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["synth", "--scenario", scenario, "--speed", "1e308", "--out", str(out)] + randomize)
        assert not caught
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "float64" in err["message"]
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


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("model", "d_model", "0"),
        ("model", "n_heads", "0"),
        ("model", "dec_width", "0"),
        ("model", "n_classes", "0"),
        ("model", "enc_widths", "0,32"),
        ("model", "enc_widths", "16,0"),
        ("model", "enc_widths", "16"),
        ("train", "val_minade_every", "0"),
        ("train", "val_k", "0"),
        ("data", "val_ratio", "0"),
        ("data", "val_ratio", "1.5"),
        ("data", "stride", "-1"),
        ("train", "lr", "nan"),
        ("model", "goal_sigma", "0"),
        ("model", "traj_sigma", "-1"),
        ("model", "grid", "0"),
        ("train", "beta1", "1"),
        ("train", "adam_eps", "-1"),
        ("train", "lr_factor", "0"),
        ("train", "lambda_goal", "-1"),
        ("train", "seed", "-5"),
        ("eval", "miss_threshold", "0"),
        ("model", "n_raw_samples", "5"),  # below the default val_k of 20
    ],
)
def test_non_positive_count_exits_2(synth_dir, tmp_path, capsys, section, key, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[{section}]\n{key}={value}\n")
    out = tmp_path / "o"
    code = main(["train", "--data", str(synth_dir), "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and key in err["message"]
    assert not out.exists()


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

    @pytest.mark.parametrize("fold", ["ratio", "all"])
    def test_val_ratio_below_rounding_exits_2_before_output(self, synth_dir, tmp_path, capsys, fold):
        # 1 - 1e-17 rounds to 1, which would leave no validation window.
        cfg = tmp_path / "tiny_val.cfg"
        cfg.write_text("[model]\nt_obs=4\nt_fut=3\ngrid=16\n[data]\nval_ratio=1e-17\n")
        out = tmp_path / "o"
        code = main([
            "train", "--data", str(synth_dir), "--config", str(cfg), "--fold", fold, "--out", str(out),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "val_ratio" in err["message"]
        assert not out.exists()

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
            ("16 16 2\n" + "0.5 " * 512, "the model reads 1-class rasters with sides divisible "
             "by 4, got 16x16x2"),
            ("18 18 1\n" + "1.0 " * 324, "the model reads 1-class rasters with sides divisible "
             "by 4, got 18x18x1"),
            ("1 1 1\n0.5\n", "raster class scores must sum to 1 per cell"),
        ],
        ids=["header", "value", "negative_side", "class_count", "side_not_divisible_by_4",
             "class_sum"],
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
        assert not (tmp_path / "o").exists()

    def test_diverging_run_writes_only_its_json_error_line(self, tmp_path):
        # beta2 = 0 overflows the attention logits within three epochs; numpy's
        # RuntimeWarnings used to precede the error line. A child process shows
        # stderr as a user sees it, warnings included.
        data = tmp_path / "data"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", "--scenario", "crossing", "--windows", "6", "--out", str(data)]) == 0
        config = tmp_path / "diverge.cfg"
        config.write_text("[train]\nmax_epochs=3\nbeta2=0\n")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(vista.__file__))}
        proc = subprocess.run([
            sys.executable, "-W", "default", "-m", "vista.cli", "train", "--data", str(data),
            "--fold", "ratio", "--config", str(config), "--out", str(tmp_path / "o"),
        ], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 5
        [line] = proc.stderr.splitlines()
        assert json.loads(line)["error"] == "DivergenceError"

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

    def test_negative_seed_flag_exits_2(self, synth_dir, quick_config, tmp_path, capsys):
        out = tmp_path / "o"
        code = main([
            "train", "--data", str(synth_dir), "--config", str(quick_config),
            "--seed", "-1", "--out", str(out),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "seed" in err["message"]
        assert not out.exists()


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
        assert {"pred_crossing__w000.txt", "trace_crossing__w000_s03.json"} <= set(names)
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_retired_parameters_in_a_checkpoint_change_no_byte(
        self, synth_dir, quick_config, trained, tmp_path
    ):
        # A checkpoint written while the store held tpm.RETIRED_PARAMS loads
        # without them: the same checkpoint with them, whatever their values,
        # writes the same prediction and trace files.
        arrays = {name: t.data for name, t in ParamStore.load(trained).items()}
        d = arrays["tpm.embed.w"].shape[1]
        rng = np.random.default_rng(0)
        for name in RETIRED_PARAMS:
            arrays[name] = rng.normal(size=(d,) if name.endswith(".bq") else (d, d))
        with_retired = tmp_path / "with_retired.bin"
        ParamStore(arrays).save(with_retired)
        files = []
        for checkpoint in (trained, with_retired):
            out = tmp_path / f"pred_{checkpoint.stem}"
            assert main([
                "predict", "--checkpoint", str(checkpoint), "--data", str(synth_dir),
                "--raster-dir", str(synth_dir / "rasters"), "--config", str(quick_config),
                "--k", "4", "--seed", "11", "--trace", "--out", str(out),
            ]) == 0
            names = sorted(f for f in os.listdir(out) if not f.startswith("manifest"))
            files.append({name: (out / name).read_bytes() for name in names})
        assert "trace_crossing__w000_s03.json" in files[0]
        assert files[0] == files[1]

    @pytest.mark.parametrize("text", ["16 16 2\n" + "0.5 " * 512, "20 18 1\n" + "1.0 " * 360],
                             ids=["class_count", "side_not_divisible_by_4"])
    def test_raster_the_model_cannot_read_exits_4(
        self, synth_dir, quick_config, trained, tmp_path, capsys, text
    ):
        (synth_dir / "rasters" / "crossing.txt").write_text(text)
        out = tmp_path / "pred"
        code = main([
            "predict", "--checkpoint", str(trained), "--data", str(synth_dir),
            "--raster-dir", str(synth_dir / "rasters"), "--config", str(quick_config),
            "--out", str(out),
        ])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError" and "crossing.txt: the model reads" in err["message"]
        assert not out.exists()

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

    def test_heatmap_without_mass_exits_4_naming_window_and_agent(
        self, synth_dir, quick_config, tmp_path, capsys
    ):
        # With the head's bias at -1e4 every sigmoid underflows to 0.
        from vista.config import load_config
        from vista.model import init_params

        params = init_params(load_config(quick_config).model, seed=0)
        params["gpm.out.b"].data[:] = -1e4
        ckpt = tmp_path / "massless.bin"
        params.save(ckpt)
        out = tmp_path / "p"
        code = main([
            "predict", "--checkpoint", str(ckpt), "--data", str(synth_dir),
            "--config", str(quick_config), "--out", str(out),
        ])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError"
        window = synth_dir / "crossing__w000.txt"
        assert err["message"] == (
            f"{window}: ttst_sample: the heatmap of agent row 0 has no positive mass"
        )
        assert not out.exists()

    def test_non_finite_rollout_exits_5_naming_the_trajectory_file(
        self, synth_dir, quick_config, tmp_path, capsys
    ):
        # A decoder bias of 1e308 leaves step 1 finite and overflows step 2.
        from vista.config import load_config
        from vista.model import init_params

        params = init_params(load_config(quick_config).model, seed=0)
        params["tpm.dec.b2"].data[:] = 1e308
        ckpt = tmp_path / "overflow.bin"
        params.save(ckpt)
        out = tmp_path / "p"
        code = main([
            "predict", "--checkpoint", str(ckpt), "--data", str(synth_dir),
            "--config", str(quick_config), "--out", str(out),
        ])
        assert code == 5
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DivergenceError"
        window = synth_dir / "crossing__w000.txt"
        assert err["message"] == f"{window}: non-finite prediction at step 2"
        assert not out.exists()

    @pytest.mark.parametrize("how", ["name_not_utf8", "extents_wrap_int64"])
    def test_corrupt_checkpoint_header_exits_3(self, synth_dir, quick_config, tmp_path, capsys, how):
        from test_params import corrupt_first_entry
        from vista.config import load_config
        from vista.model import init_params

        ckpt = tmp_path / "model.bin"
        init_params(load_config(quick_config).model, seed=0).save(ckpt)
        ckpt.write_bytes(corrupt_first_entry(ckpt.read_bytes(), how))
        code = main([
            "predict", "--checkpoint", str(ckpt), "--data", str(synth_dir),
            "--config", str(quick_config), "--out", str(tmp_path / "p"),
        ])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CheckpointError" and "model.bin" in err["message"]


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
    def write_gt_as_predictions(self, synth_dir, out_dir, t_obs, k=3, t_fut=3):
        from vista.data import load_trajectories
        from vista.tpm import PredictionSet, save_prediction_txt

        os.makedirs(out_dir, exist_ok=True)
        scenes = load_trajectories(synth_dir, t_obs=t_obs, t_fut=t_fut)
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

    def test_coincident_ground_truth_agents_give_zero_auto_epsilon(self, tmp_path):
        # This run clips agents onto one grid-edge cell, so every window's
        # minimum distance is 0; the default config, 8 + 12 frames.
        data = tmp_path / "data"
        assert main([
            "synth", "--scenario", "crossing", "--n", "6", "--windows", "4", "--seed", "3",
            "--out", str(data),
        ]) == 0
        pred_dir = tmp_path / "preds"
        self.write_gt_as_predictions(data, pred_dir, t_obs=8, t_fut=12)
        out = tmp_path / "metrics"
        argv = ["evaluate", "--pred", str(pred_dir), "--gt", str(data), "--out", str(out)]
        with pytest.warns(UserWarning, match="every collision rate will read 0; --epsilon"):
            assert main(argv) == 0
        report = json.loads((out / "metrics.json").read_text())
        assert report["epsilon"] == 0.0 and report["cr"] == 0.0

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

    @pytest.mark.parametrize(
        "flag, value, key",
        [("--epsilon", "nan", "--epsilon"), ("--epsilon", "-1", "--epsilon"),
         ("--epsilon", "inf", "--epsilon"), ("--epsilon", "wide", "--epsilon"),
         ("--miss-threshold", "nan", "miss_threshold"), ("--miss-threshold", "-1", "miss_threshold"),
         ("--miss-threshold", "0", "miss_threshold")],
    )
    def test_bad_threshold_exits_2(self, synth_dir, quick_config, tmp_path, capsys, flag, value, key):
        pred_dir = tmp_path / "preds"
        self.write_gt_as_predictions(synth_dir, pred_dir, t_obs=4)
        out = tmp_path / "metrics"
        code = main([
            "evaluate", "--pred", str(pred_dir), "--gt", str(synth_dir),
            "--config", str(quick_config), flag, value, "--out", str(out),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and key in err["message"]
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

    @pytest.mark.parametrize("command", ["evaluate", "render"])
    @pytest.mark.parametrize("value, message", [
        (None, ": no prediction records"),
        ("nan", ":3: non-finite coordinate"),
        ("-inf", ":3: non-finite coordinate"),
        ("1e400", ":3: non-finite coordinate"),
    ], ids=["empty_file", "nan", "minus_inf", "overflow"])
    def test_empty_or_non_finite_prediction_exits_4_naming_file(
        self, synth_dir, quick_config, tmp_path, capsys, command, value, message
    ):
        pred_dir = tmp_path / "preds"
        scenes = self.write_gt_as_predictions(synth_dir, pred_dir, t_obs=4)
        victim = pred_dir / f"pred_{scenes[0].scene_id}__w000.txt"
        lines = victim.read_text().splitlines()
        if value is not None:
            lines[2] = " ".join(lines[2].split()[:3] + [value, "1.0"])
        victim.write_text("\n".join(lines) + "\n" if value is not None else "")
        out = tmp_path / "o"
        code = main(cli_args(command, synth_dir, pred_dir, quick_config, out))
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError" and f"{victim}{message}" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "render"])
    @pytest.mark.parametrize("where", ["prediction", "ground_truth"])
    def test_distance_beyond_float64_exits_4_naming_file(
        self, synth_dir, quick_config, tmp_path, capsys, where, command
    ):
        # A finite coordinate of 1e200 squares to infinity; the scores would
        # read Infinity and NaN, and a figure 300-digit coordinates.
        pred_dir = tmp_path / "preds"
        scenes = self.write_gt_as_predictions(synth_dir, pred_dir, t_obs=4)
        victim = pred_dir / f"pred_{scenes[0].scene_id}__w000.txt"
        if where == "prediction":
            lines = victim.read_text().splitlines()
            lines[2] = " ".join(lines[2].split()[:3] + ["1e200", "1.0"])
            victim.write_text("\n".join(lines) + "\n")
        else:
            source = scenes[0].source
            rows = [line.split() for line in open(source).read().splitlines()]
            frame = str(int(scenes[0].frame_ids[5]))
            row = next(r for r in rows if r[0] == frame)
            row[2] = "1e200"
            with open(source, "w") as fh:
                fh.write("\n".join(" ".join(r) for r in rows) + "\n")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(cli_args(command, synth_dir, pred_dir, quick_config, out))
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError" and str(victim) in err["message"]
        assert "finite" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "render"])
    def test_observed_distance_beyond_float64_exits_4_naming_trajectory_file(
        self, synth_dir, quick_config, tmp_path, capsys, command
    ):
        # Observed frames never reach a prediction check, but calibrate_epsilon
        # and the figure's viewBox read them.
        pred_dir = tmp_path / "preds"
        scenes = self.write_gt_as_predictions(synth_dir, pred_dir, t_obs=4)
        source = scenes[0].source
        rows = [line.split() for line in open(source).read().splitlines()]
        frame = str(int(scenes[0].frame_ids[1]))
        next(r for r in rows if r[0] == frame)[2] = "1e200"
        with open(source, "w") as fh:
            fh.write("\n".join(" ".join(r) for r in rows) + "\n")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(cli_args(command, synth_dir, pred_dir, quick_config, out))
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataError" and source in err["message"]
        assert "finite" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "render"])
    def test_sample_id_gap_names_first_missing_key(self, synth_dir, quick_config, tmp_path, capsys, command):
        pred_dir = tmp_path / "preds"
        scenes = self.write_gt_as_predictions(synth_dir, pred_dir, t_obs=4)
        victim = pred_dir / f"pred_{scenes[0].scene_id}__w000.txt"
        victim.write_text(re.sub(r"(?m)^1 ", "5 ", victim.read_text()))
        out = tmp_path / "o"
        code = main(cli_args(command, synth_dir, pred_dir, quick_config, out))
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        first = (1, int(scenes[0].frame_ids[4]), int(min(scenes[0].agent_ids)))
        assert err["error"] == "AlignmentError" and err["message"].endswith(f"= {first}")
        assert not out.exists()

    def test_sample_count_differing_between_windows_exits_4(self, synth_dir, quick_config, tmp_path, capsys):
        pred_dir = tmp_path / "preds"
        scenes = self.write_gt_as_predictions(synth_dir, pred_dir, t_obs=4, k=2)
        self.write_gt_as_predictions(synth_dir, pred_dir / "k3", t_obs=4)
        first = f"pred_{scenes[0].scene_id}__w000.txt"
        os.replace(pred_dir / "k3" / first, pred_dir / first)
        code = main(cli_args("evaluate", synth_dir, pred_dir, quick_config, tmp_path / "o"))
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "AlignmentError" and "2 samples where the first window has 3" in err["message"]


def cli_args(command, data, pred_dir, config, out):
    """``evaluate`` or ``render`` over one data directory and prediction directory."""
    if command == "evaluate":
        return ["evaluate", "--pred", str(pred_dir), "--gt", str(data), "--config", str(config),
                "--out", str(out)]
    return ["render", "--scene", str(data), "--pred", str(pred_dir), "--config", str(config),
            "--out-svg", str(out)]


def write_trace(path, steps):
    """A two-agent trace file holding the steps ``steps``; returns ``path``."""
    eye = [[1.0, 0.0], [0.0, 1.0]]
    path.write_text(json.dumps({"agent_ids": [0, 1], "steps": [{"t": t, "matrix": eye} for t in steps]}))
    return path


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

    def test_scene_svg_samples_follow_track_order(self):
        # Row i of the (N, k, T_fut, 2) predictions is drawn from track i's
        # last observed position, whatever the agent ids' order.
        from vista.data import AgentTrack, Scene
        from vista.render import render_scene_svg

        t_obs, t_fut, k = 4, 3, 2
        rng = np.random.default_rng(0)
        pos = rng.uniform(1, 14, size=(2, t_obs + t_fut, 2))
        frames = np.arange(t_obs + t_fut)
        scene = Scene("s", [AgentTrack(a, pos[i], frames) for i, a in enumerate([7, 3])])
        predictions = rng.uniform(1, 14, size=(2, k, t_fut, 2))
        svg = render_scene_svg(scene, predictions, t_obs)
        lines = re.findall(r'points="([^"]*)" fill="none" stroke="(\w+)"', svg)
        ends = np.array(re.findall(r'cx="([^"]*)" cy="([^"]*)"', svg), dtype=float)
        assert len(lines) == 2 * (2 + k) and len(ends) == 2 * k
        for i in range(2):
            black, green, *red = lines[i * (2 + k) : (i + 1) * (2 + k)]
            assert (black[1], green[1]) == ("black", "green")
            for j, (points, color) in enumerate(red):
                drawn = np.array([p.split(",") for p in points.split()], dtype=float)
                want = np.concatenate([pos[i, t_obs - 1 : t_obs], predictions[i, j]])
                assert color == "red"
                np.testing.assert_allclose(drawn, want, rtol=0, atol=5e-5)
            np.testing.assert_allclose(ends[i * k : (i + 1) * k], predictions[i, :, -1], atol=5e-5)

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

    def test_traces_sharing_a_stem_exit_2(self, synth_dir, quick_config, tmp_path, capsys):
        # Both would write x_t05.svg.
        trace = {"agent_ids": [0, 1], "steps": [{"t": 5, "matrix": [[1.0, 0.0], [0.0, 1.0]]}]}
        paths = [tmp_path / folder / "x.json" for folder in ("a", "b")]
        for path in paths:
            path.parent.mkdir()
            path.write_text(json.dumps(trace))
        out = tmp_path / "svg"
        argv = cli_args("render", synth_dir, tmp_path / "preds", quick_config, out)
        assert main(argv + ["--trace", *map(str, paths)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert all(str(path) in err["message"] for path in paths)
        assert not out.exists()

    @pytest.mark.parametrize("steps", ["1", "99", "9,99"])
    def test_steps_in_no_trace_exit_2(self, synth_dir, quick_config, tmp_path, capsys, steps):
        # A trace holds t = t_obs+1 ... t_obs+t_fut; a step outside them
        # used to draw no trace SVG and exit 0.
        tpath = write_trace(tmp_path / "trace_x.json", [9, 10, 11])
        out = tmp_path / "svg"
        argv = cli_args("render", synth_dir, tmp_path / "preds", quick_config, out)
        assert main(argv + ["--trace", str(tpath), "--steps", steps]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "--steps [" + steps.split(",")[-1] + "]" in err["message"]
        assert f"{tpath} holds t [9, 10, 11]" in err["message"]
        assert not out.exists()

    def test_steps_without_a_trace_exit_2(self, synth_dir, quick_config, tmp_path, capsys):
        # --steps selects trace steps, so it needs a --trace file to select from.
        out = tmp_path / "svg"
        argv = cli_args("render", synth_dir, tmp_path / "preds", quick_config, out)
        assert main(argv + ["--steps", "9"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "--steps 9" in err["message"] and "--trace" in err["message"]
        assert not out.exists()

    def test_prediction_path_that_is_a_directory_exits_4(self, synth_dir, quick_config, tmp_path, capsys):
        # evaluate exits 4 on the same tree, and render must not skip the window.
        pred_dir = tmp_path / "preds"
        TestEvaluate().write_gt_as_predictions(synth_dir, pred_dir, t_obs=4)
        victim = pred_dir / "pred_crossing__w000.txt"
        victim.unlink()
        victim.mkdir()
        out = tmp_path / "svg"
        assert main(cli_args("render", synth_dir, pred_dir, quick_config, out)) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "IsADirectoryError" and str(victim) in err["message"]
        assert not out.exists()

    def test_steps_held_by_a_trace_render_only_those(self, synth_dir, quick_config, tmp_path):
        tpath = write_trace(tmp_path / "trace_x.json", [9, 10, 11])
        out = tmp_path / "svg"
        argv = cli_args("render", synth_dir, tmp_path / "preds", quick_config, out)
        assert main(argv + ["--trace", str(tpath), "--steps", "9,11"]) == 0
        assert sorted(p.name for p in out.glob("trace_x_*.svg")) == [
            "trace_x_t09.svg", "trace_x_t11.svg",
        ]

    @pytest.mark.parametrize("text", [
        '{"steps": [',
        json.dumps({"agent_ids": [0, 1]}),
        json.dumps({"steps": []}),
        json.dumps({"agent_ids": [0, 1], "steps": [{"matrix": [[1.0]]}]}),
        json.dumps({"agent_ids": [0, 1], "steps": [{"t": 5}]}),
        json.dumps({"agent_ids": [0, 1], "steps": [{"t": 5, "matrix": "abc"}]}),
        json.dumps({"agent_ids": [0, 1], "steps": [{"t": "x", "matrix": [[1.0, 0.0], [0.0, 1.0]]}]}),
        json.dumps({"agent_ids": [0], "steps": [{"t": 5, "matrix": [[1.0, 0.0], [0.0, 1.0]]}]}),
        '{"agent_ids": [0, 1], "steps": [{"t": 5, "matrix": [[NaN, 0.0], [0.0, 1.0]]}]}',
        '{"agent_ids": [0, 1], "steps": [{"t": 5, "matrix": [[1e400, 0.0], [0.0, 1.0]]}]}',
        '{"agent_ids": [0, 1], "steps": [{"t": true, "matrix": [[1.0, 0.0], [0.0, 1.0]]}]}',
        '{"agent_ids": [0, true], "steps": [{"t": 5, "matrix": [[1.0, 0.0], [0.0, 1.0]]}]}',
    ], ids=[
        "not_json", "no_steps", "no_agent_ids", "step_without_t", "step_without_matrix",
        "matrix_not_numeric", "t_not_integer", "matrix_not_n_by_n", "matrix_nan",
        "matrix_overflow", "t_boolean", "agent_id_boolean",
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


# Each command with every path flag it takes; the manifest digests every file they name.
MANIFEST_INPUTS = {
    "synth": ["--spec"],
    "train": ["--data", "--raster-dir", "--config"],
    "predict": ["--checkpoint", "--data", "--raster-dir", "--config"],
    "evaluate": ["--pred", "--gt", "--raster-dir", "--config"],
    "render": ["--scene", "--pred", "--trace", "--config"],
}


@pytest.mark.parametrize("command", sorted(MANIFEST_INPUTS))
def test_manifest_digests_every_file_its_path_flags_name(
    synth_dir, quick_config, trained, tmp_path, command
):
    preds = tmp_path / "preds"
    assert main(["predict", "--checkpoint", str(trained), "--data", str(synth_dir), "--k", "2",
                 "--trace", "--config", str(quick_config), "--out", str(preds)]) == 0
    spec = tmp_path / "run.spec"
    spec.write_text("scenario=crossing\nn_agents=2\nn_windows=2\nn_frames=7\ngrid=16\n")
    paths = {
        "--spec": [spec], "--data": [synth_dir], "--gt": [synth_dir], "--scene": [synth_dir],
        "--raster-dir": [synth_dir / "rasters"], "--config": [quick_config],
        "--checkpoint": [trained], "--pred": [preds], "--trace": sorted(preds.glob("trace_*"))[:2],
    }
    out = tmp_path / "out"
    argv = [command, "--out-svg" if command == "render" else "--out", str(out)]
    for flag in MANIFEST_INPUTS[command]:
        argv += [flag, *map(str, paths[flag])]
    if command == "train":
        argv += ["--fold", "ratio"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    digests = json.loads((out / f"manifest_{command}.json").read_text())["input_digests"]
    named = [f for flag in MANIFEST_INPUTS[command] for p in paths[flag]
             for f in (sorted(p.iterdir()) if p.is_dir() else [p]) if f.is_file()]
    assert len(named) >= len(MANIFEST_INPUTS[command])
    for f in named:
        assert digests.get(str(f)) == hashlib.sha256(f.read_bytes()).hexdigest(), f


# Each text file kind with a byte that is not UTF-8: the exit code of its kind, naming the file.
@pytest.mark.parametrize("kind, code", [
    ("config", 2), ("spec", 2), ("trajectory", 4), ("prediction", 4), ("raster", 4), ("trace", 4),
])
def test_undecodable_byte_exits_with_its_file_kinds_code(
    synth_dir, quick_config, tmp_path, capsys, kind, code
):
    preds = tmp_path / "preds"
    TestEvaluate().write_gt_as_predictions(synth_dir, preds, t_obs=4)
    out = tmp_path / "out"
    argv = ["evaluate", "--pred", str(preds), "--gt", str(synth_dir), "--raster-dir",
            str(synth_dir / "rasters"), "--config", str(quick_config), "--out", str(out)]
    victim = {
        "config": quick_config, "trajectory": synth_dir / "crossing__w000.txt",
        "prediction": preds / "pred_crossing__w000.txt", "spec": tmp_path / "run.spec",
        "raster": synth_dir / "rasters" / "crossing.txt", "trace": tmp_path / "trace.json",
    }[kind]
    if kind == "spec":
        victim.write_text("scenario=crossing\n")
        argv = ["synth", "--spec", str(victim), "--out", str(out)]
    elif kind == "trace":
        victim.write_text("{}")
        argv = cli_args("render", synth_dir, preds, quick_config, out) + ["--trace", str(victim)]
    with open(victim, "ab") as fh:
        fh.write(b"\xff\n")
    assert main(argv) == code
    err = json.loads(capsys.readouterr().err)
    assert f"{victim}: not UTF-8 text" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("where, error", [
    ("directory", "IsADirectoryError"), ("below_a_file", "NotADirectoryError"),
])
@pytest.mark.parametrize("flag", ["--config", "--checkpoint", "--spec", "--trace"])
def test_directory_or_path_below_a_file_as_an_input_file_exits_4(
    synth_dir, quick_config, tmp_path, capsys, flag, where, error
):
    folder = tmp_path / "folder"
    folder.mkdir()
    path = folder if where == "directory" else quick_config / "x"
    out = tmp_path / "out"
    argv = {
        "--config": ["evaluate", "--pred", str(tmp_path), "--gt", str(synth_dir), "--out", str(out)],
        "--checkpoint": ["predict", "--data", str(synth_dir), "--out", str(out)],
        "--spec": ["synth", "--out", str(out)],
        "--trace": cli_args("render", synth_dir, tmp_path, quick_config, out),
    }[flag]
    assert main(argv + [flag, str(path)]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error and str(path) in err["message"]
    assert not out.exists()


def raster_dir_argv(command, synth_dir, quick_config, tmp_path):
    """The argv of ``command`` on ``synth_dir``, up to its ``--raster-dir``."""
    from vista.config import load_config
    from vista.model import init_params

    if command == "train":
        return ["train", "--data", str(synth_dir), "--fold", "ratio"]
    if command == "predict":
        ckpt = tmp_path / "model.bin"
        init_params(load_config(quick_config).model, seed=0).save(ckpt)
        return ["predict", "--checkpoint", str(ckpt), "--data", str(synth_dir)]
    preds = tmp_path / "preds"
    TestEvaluate().write_gt_as_predictions(synth_dir, preds, t_obs=4)
    return ["evaluate", "--pred", str(preds), "--gt", str(synth_dir)]


@pytest.mark.parametrize("where", ["file", "missing"])
@pytest.mark.parametrize("command", ["train", "predict", "evaluate"])
def test_raster_dir_that_is_not_a_directory_exits_4(
    synth_dir, quick_config, tmp_path, capsys, command, where
):
    raster_dir = quick_config if where == "file" else tmp_path / "missing"
    out = tmp_path / "out"
    argv = raster_dir_argv(command, synth_dir, quick_config, tmp_path)
    argv += ["--raster-dir", str(raster_dir), "--config", str(quick_config), "--out", str(out)]
    assert main(argv) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DataError" and str(raster_dir) in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("held", ["nothing", "another_scenes_raster"])
@pytest.mark.parametrize("command", ["train", "predict", "evaluate"])
def test_raster_dir_with_no_loaded_scenes_raster_exits_4(
    synth_dir, quick_config, tmp_path, capsys, command, held
):
    # Every window would silently get the uniform raster: the wrong directory.
    raster_dir = tmp_path / "rasters"
    raster_dir.mkdir()
    if held == "another_scenes_raster":
        shutil.copy(synth_dir / "rasters" / "crossing.txt", raster_dir / "elsewhere.txt")
    out = tmp_path / "out"
    argv = raster_dir_argv(command, synth_dir, quick_config, tmp_path)
    argv += ["--raster-dir", str(raster_dir), "--config", str(quick_config), "--out", str(out)]
    assert main(argv) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DataError" and str(raster_dir) in err["message"]
    assert "crossing" in err["message"]
    assert not out.exists()


def test_raster_dir_may_miss_some_scenes(synth_dir, quick_config, tmp_path):
    # A scene without a raster file is a scene without a raster, so long as
    # the directory holds another loaded scene's.
    shutil.copy(synth_dir / "crossing__w000.txt", synth_dir / "bare__w000.txt")
    out = tmp_path / "out"
    argv = raster_dir_argv("evaluate", synth_dir, quick_config, tmp_path)
    argv += ["--raster-dir", str(synth_dir / "rasters"), "--config", str(quick_config),
             "--out", str(out)]
    assert main(argv) == 0


def test_unreadable_input_file_exits_4(synth_dir, quick_config, tmp_path, capsys, monkeypatch):
    # A root session reads every file, so the reader is made to refuse one.
    import vista.data
    from vista.errors import read_text

    victim = str(synth_dir / "crossing__w000.txt")

    def refusing(path, error):
        if str(path) == victim:
            raise PermissionError(13, "Permission denied", victim)
        return read_text(path, error)

    out = tmp_path / "out"
    argv = raster_dir_argv("evaluate", synth_dir, quick_config, tmp_path)
    monkeypatch.setattr(vista.data, "read_text", refusing)
    assert main(argv + ["--config", str(quick_config), "--out", str(out)]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PermissionError" and victim in err["message"]
    assert not out.exists()


# One field of a prediction or trace file set to a boundary value, as the
# token written into the file; "empty" is an empty field, or the empty
# string in JSON.
BOUNDARY_TOKENS = {
    "empty": ("", '""'), "nan": ("nan", "NaN"), "inf": ("inf", "Infinity"),
    "-inf": ("-inf", "-Infinity"), "1e400": ("1e400", "1e400"), "true": ("true", "true"),
}


@pytest.fixture(scope="module")
def boundary_inputs(tmp_path_factory):
    """Six synthesized windows, a config, a checkpoint trained on them, their
    ground truth written as k=2 predictions, and a trace of the first window."""
    base = tmp_path_factory.mktemp("boundary")
    data = base / "data"
    assert main([
        "synth", "--scenario", "crossing", "--n", "2", "--seed", "3", "--windows", "6",
        "--frames", "7", "--randomize", "--speed", "0.6", "--out", str(data),
    ]) == 0
    config = base / "quick.cfg"
    config.write_text("[model]\nt_obs=4\nt_fut=3\ngrid=16\n[train]\nmax_epochs=1\nval_k=2\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--data", str(data), "--config", str(config), "--fold", "ratio",
                     "--out", str(base / "trained")]) == 0
    scenes = TestEvaluate().write_gt_as_predictions(data, base / "preds", t_obs=4, k=2)
    trace = {"agent_ids": [int(a) for a in scenes[0].agent_ids],
             "steps": [{"t": 5, "matrix": [[0.75, 0.25], [0.5, 0.5]]}]}
    return base, data, config, trace, itertools.count()


@seed(18)
@settings(max_examples=80, deadline=None, database=None)
@given(
    command=st.sampled_from(["evaluate", "render"]),
    target=st.sampled_from(["prediction", "trace"]),
    field=st.integers(0, 4),
    value=st.sampled_from([*BOUNDARY_TOKENS, "duplicate key", "sample-id gap", "empty file"]),
)
@example(command="render", target="trace", field=1, value="true")  # a boolean weight
def test_boundary_field_in_prediction_or_trace_exits_with_a_documented_code(
    boundary_inputs, command, target, field, value
):
    base, data, config, trace, counter = boundary_inputs
    run_dir = base / f"run{next(counter)}"
    shutil.copytree(base / "preds", run_dir / "preds")
    if target == "prediction":
        victim = sorted((run_dir / "preds").iterdir())[0]
        lines = victim.read_text().splitlines()
        if value in BOUNDARY_TOKENS:
            parts = lines[1].split()
            parts[field] = BOUNDARY_TOKENS[value][0]
            lines[1] = " ".join(parts)
        elif value == "duplicate key":
            lines.append(lines[1])
        elif value == "sample-id gap":
            lines = [re.sub(r"^1 ", "2 ", line) for line in lines]
        text = "" if value == "empty file" else "\n".join(lines) + "\n"
        victim.write_text(text)
        extra = []
    else:
        slot = ("t", "matrix", "agent_ids", "t", "matrix")[field]
        entry = dict(trace["steps"][0])
        obj = {"agent_ids": list(trace["agent_ids"]), "steps": [entry]}
        if slot == "t":
            entry["t"] = "@"
        elif slot == "matrix":
            entry["matrix"] = [["@", 0.25], [0.5, 0.5]]
        else:
            obj["agent_ids"][1] = "@"
        text = json.dumps(obj).replace('"@"', BOUNDARY_TOKENS.get(value, ("", "7"))[1])
        if value == "duplicate key":
            text = text.replace('"t": ', '"t": 5, "t": ', 1)
        elif value == "empty file":
            text = ""
        (run_dir / "trace.json").write_text(text)
        extra = ["--trace", str(run_dir / "trace.json")] if command == "render" else []
    out = run_dir / "out"
    code = assert_documented_exit(cli_args(command, data, run_dir / "preds", config, out) + extra, out)
    # Every edit breaks a prediction file. A boundary token or an empty file
    # breaks the trace that render reads; the other two edits leave it valid.
    if target == "prediction" or (
        command == "render" and value not in ("duplicate key", "sample-id gap")
    ):
        assert code == 4


# Boundary tokens of the trajectory, raster and synth spec properties beyond
# BOUNDARY_TOKENS: a negative, a zero and one, and finite values whose
# squares, or sums, leave float64.
EXTRA_TOKENS = ("-1", "0", "1", "1e200", "1e308", "1e20")
NON_FINITE = re.compile(r"(?i)(?<![a-z])(nan|inf|infinity)(?![a-z])")


def assert_documented_exit(argv, out):
    """Run ``argv``: it ends with a documented code and never a traceback; a
    rejected run prints the JSON error line and leaves no ``out``, and an
    accepted one writes no non-finite number outside its manifest and its
    binary checkpoints."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 2, 3, 4, 5)
    if code:
        assert json.loads(err.getvalue())["code"] == code
        assert not out.exists()
    else:
        for path in out.rglob("*"):
            if path.is_file() and path.suffix != ".bin" and not path.name.startswith("manifest"):
                assert not NON_FINITE.search(path.read_text()), path
    return code


def reader_argv(command, base, data=None, preds=None, checkpoint=None, out=None):
    """The argv of ``command`` over the ``boundary_inputs`` files under
    ``base``, any of its data directory, prediction directory and checkpoint
    replaced."""
    data = data or base / "data"
    preds = preds or base / "preds"
    checkpoint = checkpoint or base / "trained" / "checkpoint_fold0.bin"
    argv = {
        "train": ["train", "--data", str(data), "--fold", "ratio"],
        "predict": ["predict", "--data", str(data), "--k", "2", "--checkpoint", str(checkpoint)],
        "evaluate": ["evaluate", "--gt", str(data), "--pred", str(preds)],
        "render": ["render", "--scene", str(data), "--pred", str(preds)],
    }[command]
    flag = "--out-svg" if command == "render" else "--out"
    return argv + ["--config", str(base / "quick.cfg"), flag, str(out)]


def token(value):
    """The file token of ``value``, a key of BOUNDARY_TOKENS or an extra token."""
    return BOUNDARY_TOKENS[value][0] if value in BOUNDARY_TOKENS else value


@seed(19)
@settings(max_examples=200, deadline=None, database=None)
@given(
    command=st.sampled_from(["train", "predict", "evaluate"]),
    field=st.integers(0, 3),
    value=st.sampled_from([*BOUNDARY_TOKENS, *EXTRA_TOKENS, "duplicate line", "empty file"]),
)
def test_boundary_field_in_trajectory_file_exits_with_a_documented_code(
    boundary_inputs, command, field, value
):
    # One field of the second line (frame, agent, x or y) of one trajectory file.
    base, data, _, _, counter = boundary_inputs
    run_dir = base / f"run{next(counter)}"
    shutil.copytree(data, run_dir / "data")
    victim = sorted((run_dir / "data").glob("*.txt"))[0]
    lines = victim.read_text().splitlines()
    if value == "duplicate line":
        lines.append(lines[1])
    else:
        parts = lines[1].split()
        parts[field] = token(value)
        lines[1] = " ".join(parts)
    victim.write_text("" if value == "empty file" else "\n".join(lines) + "\n")
    out = run_dir / "out"
    code = assert_documented_exit(reader_argv(command, base, data=run_dir / "data", out=out), out)
    if value in ("nan", "inf", "-inf", "1e400", "true", "empty", "duplicate line"):
        assert code == 4


@seed(20)
@settings(max_examples=60, deadline=None, database=None)
@given(
    field=st.integers(0, 3),
    value=st.sampled_from([*BOUNDARY_TOKENS, *EXTRA_TOKENS, "empty file"]),
)
def test_boundary_field_in_raster_file_exits_with_a_documented_code(boundary_inputs, field, value):
    # One header extent (H, W or D) or the first class score of the raster
    # that ``train --raster-dir`` reads.
    base, data, config, _, counter = boundary_inputs
    run_dir = base / f"run{next(counter)}"
    shutil.copytree(data / "rasters", run_dir / "rasters")
    victim = run_dir / "rasters" / "crossing.txt"
    header, body = victim.read_text().split("\n", 1)
    parts = header.split() + body.split(None, 1)
    parts[field] = token(value)
    victim.write_text("" if value == "empty file" else f"{' '.join(parts[:3])}\n{' '.join(parts[3:])}\n")
    out = run_dir / "out"
    code = assert_documented_exit([
        "train", "--data", str(data), "--raster-dir", str(run_dir / "rasters"), "--fold", "ratio",
        "--config", str(config), "--out", str(out),
    ], out)
    # The raster is 16 16 1 of ones: D = 1 or a first score of 1 leaves it as it was.
    assert code == (0 if value == "1" and field >= 2 else 4)


@seed(21)
@settings(max_examples=200, deadline=None, database=None)
@given(
    key=st.sampled_from(["scenario", "n_agents", "speed", "margin", "seed", "n_windows",
                         "grid", "n_frames", "randomize"]),
    value=st.sampled_from([*BOUNDARY_TOKENS, *EXTRA_TOKENS, *SCENARIOS]),
)
def test_boundary_value_in_synth_spec_exits_with_a_documented_code(tmp_path_factory, key, value):
    # One key of a spec file that ``synth --spec`` reads with ScenarioSpec.from_text.
    base = tmp_path_factory.mktemp("spec")
    spec = {"scenario": "head-on-avoid", "n_agents": "2", "n_windows": "2", "n_frames": "7",
            "grid": "16", "randomize": "true"}
    spec[key] = token(value)
    (base / "run.spec").write_text("".join(f"{k}={v}\n" for k, v in spec.items()))
    out = base / "out"
    code = assert_documented_exit(["synth", "--spec", str(base / "run.spec"), "--out", str(out)], out)
    if value in ("nan", "inf", "-inf", "1e400", "empty"):
        assert code in (2, 4)


# One byte edit of a file: a byte flipped (xor with a non-zero byte),
# deleted or inserted at a position taken modulo the file's length, the file
# truncated there, or a directory in the file's place.
BYTE_EDITS = st.tuples(
    st.sampled_from(["flip", "delete", "insert", "truncate", "directory"]),
    st.integers(0, 2**24),
    st.integers(1, 255),
)


def edit_bytes(path, edit):
    """Apply ``edit``, one of BYTE_EDITS, to the file ``path``."""
    kind, where, byte = edit
    blob = path.read_bytes()
    i = where % len(blob)
    path.unlink()
    if kind == "directory":
        path.mkdir()
        return
    path.write_bytes({
        "flip": blob[:i] + bytes([blob[i] ^ byte]) + blob[i + 1 :],
        "delete": blob[:i] + blob[i + 1 :],
        "insert": blob[:i] + bytes([byte]) + blob[i:],
        "truncate": blob[:i],
    }[kind])


def edited_copy(boundary_inputs, source, edit, pick=lambda folder: sorted(folder.iterdir())[0]):
    """A fresh run directory holding a copy of the ``boundary_inputs``
    directory ``source``, one of whose files (``pick``'s) took ``edit``;
    returns the run directory and the copy."""
    base, *_, counter = boundary_inputs
    run_dir = base / f"run{next(counter)}"
    copy = run_dir / source
    shutil.copytree(base / source, copy)
    edit_bytes(pick(copy), edit)
    return run_dir, copy


@seed(30)
@settings(max_examples=60, deadline=None, database=None)
@given(command=st.sampled_from(["train", "predict", "evaluate"]), edit=BYTE_EDITS)
def test_byte_edit_of_trajectory_file_exits_with_a_documented_code(boundary_inputs, command, edit):
    run_dir, data = edited_copy(
        boundary_inputs, "data", edit, lambda folder: sorted(folder.glob("*.txt"))[0]
    )
    out = run_dir / "out"
    code = assert_documented_exit(reader_argv(command, boundary_inputs[0], data=data, out=out), out)
    if edit[0] == "directory":
        assert code == 4


@seed(31)
@settings(max_examples=40, deadline=None, database=None)
@given(edit=BYTE_EDITS)
def test_byte_edit_of_raster_file_exits_with_a_documented_code(boundary_inputs, edit):
    base = boundary_inputs[0]
    run_dir, data = edited_copy(
        boundary_inputs, "data", edit, lambda folder: folder / "rasters" / "crossing.txt"
    )
    out = run_dir / "out"
    argv = reader_argv("train", base, data=data, out=out) + ["--raster-dir", str(data / "rasters")]
    code = assert_documented_exit(argv, out)
    if edit[0] == "directory":
        assert code == 4


@seed(32)
@settings(max_examples=60, deadline=None, database=None)
@given(command=st.sampled_from(["evaluate", "render"]), edit=BYTE_EDITS)
def test_byte_edit_of_prediction_file_exits_with_a_documented_code(boundary_inputs, command, edit):
    run_dir, preds = edited_copy(boundary_inputs, "preds", edit)
    out = run_dir / "out"
    code = assert_documented_exit(reader_argv(command, boundary_inputs[0], preds=preds, out=out), out)
    if edit[0] == "directory" and command == "evaluate":
        assert code == 4


@seed(33)
@settings(max_examples=40, deadline=None, database=None)
@given(edit=BYTE_EDITS)
def test_byte_edit_of_trace_file_exits_with_a_documented_code(boundary_inputs, edit):
    base, _, _, trace, counter = boundary_inputs
    run_dir = base / f"run{next(counter)}"
    run_dir.mkdir()
    tpath = run_dir / "trace.json"
    tpath.write_text(json.dumps(trace))
    edit_bytes(tpath, edit)
    out = run_dir / "out"
    code = assert_documented_exit(reader_argv("render", base, out=out) + ["--trace", str(tpath)], out)
    if edit[0] == "directory":
        assert code == 4


@seed(34)
@settings(max_examples=60, deadline=None, database=None)
@given(edit=BYTE_EDITS)
def test_byte_edit_of_checkpoint_exits_with_a_documented_code(boundary_inputs, edit):
    run_dir, trained = edited_copy(
        boundary_inputs, "trained", edit, lambda folder: folder / "checkpoint_fold0.bin"
    )
    out = run_dir / "out"
    checkpoint = trained / "checkpoint_fold0.bin"
    code = assert_documented_exit(
        reader_argv("predict", boundary_inputs[0], checkpoint=checkpoint, out=out), out
    )
    assert code == 4 if edit[0] == "directory" else code in (0, 3)


def test_unknown_command_shows_help(capsys):
    assert main([]) == 2
