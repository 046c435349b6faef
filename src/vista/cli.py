"""Command-line surface: synthesize, train, predict, evaluate, render.

Exit codes: 0 ok, 2 configuration, 3 checkpoint, 4 data/alignment,
5 numeric divergence. Failures print a machine-readable JSON object to
stderr; stdout carries the human summary. ``main`` times each run and
writes its manifest (command, config snapshot, seed, the digest of every
file its path flags name, outputs, timings) next to its outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
import time

import numpy as np

from .config import Config, format_config, load_config
from .data import (
    ScenarioSpec,
    atomic_write,
    load_raster,
    load_trajectories,
    reject_off_grid,
    save_raster,
    save_trajectories,
    split_leave_one_out,
    split_ratio,
    synth_generate,
)
from .errors import (
    AlignmentError,
    CheckpointError,
    ConfigError,
    DataError,
    DivergenceError,
    read_text,
)
from .gpm import check_raster
from .metrics import (
    calibrate_epsilon,
    eval_from_scene,
    evaluate_windows,
    save_report_csv,
    save_report_json,
)
from .model import Model
from .params import ParamStore
from .render import render_scene_svg, render_trace_svg, write_svg
from .tpm import load_prediction_txt, save_prediction_txt, save_trace_json
from .training import model_params, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECKPOINT = 3
EXIT_DATA = 4
EXIT_DIVERGED = 5


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.print_config:
        print(format_config(Config()), end="")
        return EXIT_OK
    if args.command is None:
        parser.print_help()
        return EXIT_CONFIG
    t0 = time.monotonic()
    try:
        out_dir, cfg, seed, outputs = args.func(args)
        _write_manifest(out_dir, args, cfg, seed, outputs, {"wall_s": time.monotonic() - t0})
        return EXIT_OK
    except ConfigError as exc:
        return _fail(exc, EXIT_CONFIG)
    except CheckpointError as exc:
        return _fail(exc, EXIT_CHECKPOINT)
    except (
        AlignmentError, DataError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
        PermissionError,
    ) as exc:
        return _fail(exc, EXIT_DATA)
    except DivergenceError as exc:
        return _fail(exc, EXIT_DIVERGED)


def _fail(exc, code: int) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc), "code": code}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def _build_parser():
    parser = argparse.ArgumentParser(prog="vista")
    parser.add_argument(
        "--print-config", action="store_true", help="print default config and exit"
    )
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth", help="generate synthetic scenario files")
    p.add_argument("--scenario", required=False)
    p.add_argument("--spec", help="key=value scenario spec file")
    # A flag left unset keeps the --spec file's value (or ScenarioSpec's default).
    p.add_argument("--n", type=int, default=None, help="number of agents")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--windows", type=int, default=None)
    p.add_argument("--speed", type=float, default=None)
    p.add_argument("--margin", type=float, default=None)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--frames", type=int, default=None, help="frames per window")
    p.add_argument("--randomize", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth, inputs=("spec",))

    p = sub.add_parser("train", help="train with leave-one-out or ratio folds")
    p.add_argument("--data", required=True)
    p.add_argument("--raster-dir")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--fold", default="all", help="index | all | ratio")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train, inputs=("data", "raster_dir", "config"))

    p = sub.add_parser("predict", help="multimodal prediction from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--raster-dir")
    p.add_argument("--config")
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict, inputs=("checkpoint", "data", "raster_dir", "config"))

    p = sub.add_parser("evaluate", help="metric suite over prediction files")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--raster-dir")
    p.add_argument("--config")
    p.add_argument("--epsilon", default="auto")
    p.add_argument("--miss-threshold", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate, inputs=("pred", "gt", "raster_dir", "config"))

    p = sub.add_parser("render", help="SVG figures for scenes and attention traces")
    p.add_argument("--scene", required=True, help="trajectory data path")
    p.add_argument("--pred", required=True)
    p.add_argument("--trace", nargs="*", default=[], help="trace JSON files")
    p.add_argument("--config")
    p.add_argument("--steps", default="all", help="all | comma-separated step list")
    p.add_argument("--out-svg", required=True)
    p.set_defaults(func=cmd_render, inputs=("scene", "pred", "trace", "config"))
    return parser


# -- shared helpers ----------------------------------------------------------


def _config_from(args, overrides=()) -> Config:
    """The --config file over the defaults, with each (section, key, flag
    value) of ``overrides`` whose flag is set, validated once."""
    cfg = load_config(args.config) if args.config else Config()
    for section, key, value in overrides:
        if value is not None:
            setattr(getattr(cfg, section), key, value)
    cfg.validate()
    return cfg


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _digest_inputs(args) -> dict:
    """sha256 of each file named by the command's path flags (``args.inputs``),
    and of each file directly inside a directory so named."""
    paths = []
    for flag in args.inputs:  # each holds None, a path, or a list of paths (render --trace)
        value = getattr(args, flag)
        paths += value if isinstance(value, list) else [value]
    digests = {}
    for p in filter(None, paths):
        if os.path.isdir(p):
            for name in sorted(os.listdir(p)):
                full = os.path.join(p, name)
                if os.path.isfile(full):
                    digests[full] = _sha256(full)
        elif os.path.isfile(p):
            digests[p] = _sha256(p)
    return digests


def _write_manifest(out_dir, args, cfg, seed, outputs, timings):
    manifest = {
        "command": args.command,
        "args": {k: v for k, v in vars(args).items() if k not in ("func", "inputs")},
        "config": cfg.snapshot() if cfg is not None else None,
        "seed": seed,
        "input_digests": _digest_inputs(args),
        "outputs": sorted(outputs),
        "timings": timings,
    }
    path = os.path.join(out_dir, f"manifest_{args.command}.json")
    atomic_write(path, json.dumps(manifest, indent=1, sort_keys=True) + "\n")


def _load_scenes(data_path, raster_dir, cfg: Config):
    if raster_dir and not os.path.isdir(raster_dir):
        raise DataError(f"--raster-dir {raster_dir}: not a directory")
    scenes = load_trajectories(
        data_path, t_obs=cfg.model.t_obs, t_fut=cfg.model.t_fut, stride=cfg.data.stride or None
    )
    if not scenes:
        raise DataError(f"{data_path}: no usable windows")
    if raster_dir:
        cache = {}
        for scene in scenes:
            if scene.scene_id not in cache:
                path = os.path.join(raster_dir, f"{scene.scene_id}.txt")
                raster = load_raster(path) if os.path.isfile(path) else None
                check_raster(raster, cfg.model, path)
                cache[scene.scene_id] = raster
            scene.raster = cache[scene.scene_id]
        # A scene may have no raster, but a directory with none is the wrong one.
        if all(raster is None for raster in cache.values()):
            raise DataError(f"--raster-dir {raster_dir}: holds no <scene_id>.txt of {sorted(cache)}")
    return scenes


def _window_file(prefix: str, scene, suffix: str) -> str:
    """The file name of one window's output: ``prefix``, the window's stem
    ``{scene_id}__w{window_index:03d}``, then ``suffix``."""
    return f"{prefix}{scene.scene_id}__w{scene.window_index:03d}{suffix}"


# -- commands -----------------------------------------------------------------
# Each returns (output directory, config or None, seed, output paths) for main's manifest.


def cmd_synth(args):
    if args.spec:
        spec = ScenarioSpec.from_text(read_text(args.spec, ConfigError))
    else:
        if not args.scenario:
            raise ConfigError("synth needs --scenario or --spec")
        spec = ScenarioSpec(scenario=args.scenario)
    if args.scenario:
        spec.scenario = args.scenario
    overrides = {"n": "n_agents", "seed": "seed", "windows": "n_windows", "speed": "speed",
                 "margin": "margin", "grid": "grid", "frames": "n_frames"}
    for flag, field in overrides.items():
        if getattr(args, flag) is not None:
            setattr(spec, field, getattr(args, flag))
    if args.randomize:
        spec.randomize = True

    scenes = synth_generate(spec)
    raster_dir = os.path.join(args.out, "rasters")
    os.makedirs(raster_dir, exist_ok=True)  # and args.out
    outputs = []
    for scene in scenes:
        path = os.path.join(args.out, _window_file("", scene, ".txt"))
        save_trajectories(path, scene)
        outputs.append(path)
    raster_path = os.path.join(raster_dir, f"{spec.scenario}.txt")
    save_raster(raster_path, scenes[0].raster)
    outputs.append(raster_path)
    print(f"wrote {len(scenes)} windows of '{spec.scenario}' to {args.out}")
    return args.out, None, spec.seed, outputs


def _fold_sets(scenes, fold: str, cfg: Config):
    if fold == "all":
        return split_leave_one_out(scenes)
    if fold == "ratio":
        train_set, test_set = split_ratio(scenes, 0.8, seed=cfg.train.seed)
        return [(train_set, test_set)]
    try:
        index = int(fold)
    except ValueError:
        raise ConfigError(f"--fold must be an index, 'all', or 'ratio', got {fold!r}") from None
    folds = split_leave_one_out(scenes)
    if not 0 <= index < len(folds):
        raise ConfigError(f"fold index {index} out of range 0..{len(folds) - 1}")
    return [folds[index]]


def cmd_train(args):
    cfg = _config_from(args, [("train", "seed", args.seed)])
    scenes = _load_scenes(args.data, args.raster_dir, cfg)
    folds = _fold_sets(scenes, args.fold, cfg)
    # Reject any fold's bad input before the first fold writes its outputs.
    for i, (train_scenes, _test) in enumerate(folds):
        if len(train_scenes) < 2:
            raise DataError(f"fold {i}: needs >= 2 training windows for a validation split")
        for scene in train_scenes:  # training reads every frame of a window
            reject_off_grid(scene, scene.n_frames, cfg.model.grid)
    os.makedirs(args.out, exist_ok=True)

    outputs = []
    for i, (train_scenes, _test) in enumerate(folds):
        fit_scenes, val_scenes = split_ratio(
            train_scenes, 1.0 - cfg.data.val_ratio, seed=cfg.train.seed
        )
        state_path = os.path.join(args.out, f"state_fold{i}.bin")
        best, report = train(fit_scenes, val_scenes, cfg, state_out=state_path)
        ckpt = os.path.join(args.out, f"checkpoint_fold{i}.bin")
        best.save(ckpt)
        report_path = os.path.join(args.out, f"report_fold{i}.csv")
        report.to_csv(report_path)
        outputs.extend([ckpt, report_path, state_path])
        print(f"fold {i}: {report.summary()}")
    print(f"{len(folds)} fold(s) trained; outputs in {args.out}")
    return args.out, cfg, cfg.train.seed, outputs


def cmd_predict(args):
    cfg = _config_from(args)
    params = model_params(ParamStore.load(args.checkpoint), cfg.model, args.checkpoint)
    model = Model(config=cfg.model, params=params)
    scenes = _load_scenes(args.data, args.raster_dir, cfg)
    for scene in scenes:  # a bad window fails the run before the first file is written
        reject_off_grid(scene, cfg.model.t_obs, cfg.model.grid)

    outputs = []
    for scene in scenes:
        pred = model.predict(scene, k=args.k, seed=args.seed, capture_trace=args.trace)
        os.makedirs(args.out, exist_ok=True)  # made at the first write: a rejected run leaves none
        path = os.path.join(args.out, _window_file("pred_", scene, ".txt"))
        save_prediction_txt(path, scene, pred, cfg.model.t_obs)
        outputs.append(path)
        if args.trace:
            for j, steps in enumerate(pred.traces):
                tpath = os.path.join(args.out, _window_file("trace_", scene, f"_s{j:02d}.json"))
                save_trace_json(tpath, steps, pred.agent_ids, scene.key(), j, cfg.model.t_obs)
                outputs.append(tpath)
    print(f"predicted {len(scenes)} windows (k={args.k}) into {args.out}")
    return args.out, cfg, args.seed, outputs


def _read_prediction(path, scene, t_obs):
    """The window's ``EvalInput`` from a prediction file over ``scene``'s
    future frames, k being the file's count of distinct sample ids.
    AlignmentError names the first (sample, frame, agent) key that is
    missing or extra; DataError names the prediction file, then the window's
    trajectory file, whose distances are beyond float64."""
    records = load_prediction_txt(path)
    k = len({j for j, _, _ in records})
    frames = [int(f) for f in scene.frame_ids[t_obs:]]
    agents = [int(a) for a in scene.agent_ids]
    expected = [(j, f, a) for a in agents for j in range(k) for f in frames]
    xy = list(map(records.get, expected))
    if len(records) != len(expected) or None in xy:
        # Only a failing window pays for the key sets that name the mismatch.
        diff = sorted(set(expected).symmetric_difference(records))
        raise AlignmentError(
            f"{path}: prediction/ground-truth mismatch at (sample, frame, agent) = {diff[0]}",
            first_mismatch=diff[0],
        )
    flat = np.fromiter(itertools.chain.from_iterable(xy), np.float64, count=2 * len(xy))
    try:
        ev = eval_from_scene(scene, flat.reshape(len(agents), k, len(frames), 2), t_obs)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    # calibrate_epsilon and the figure read observed frames too: the window's bounding-box
    # diagonal bounds every distance between its positions.
    with np.errstate(over="ignore"):
        if not np.isfinite(np.square(np.ptp(scene.positions(), axis=(0, 1))).sum()):
            raise DataError(f"{scene.name()}: distances must be finite in float64")
    return ev


def _eval_inputs_from_files(scenes, pred_dir, t_obs):
    evals = []
    for scene in scenes:
        path = os.path.join(pred_dir, _window_file("pred_", scene, ".txt"))
        if not os.path.isfile(path):
            raise AlignmentError(
                f"missing prediction file for {scene.key()}: {path}",
                first_mismatch=scene.key(),
            )
        ev = _read_prediction(path, scene, t_obs)
        if evals and ev.k != evals[0].k:
            raise AlignmentError(
                f"{path}: {ev.k} samples where the first window has {evals[0].k}",
                first_mismatch=scene.key(),
            )
        evals.append(ev)
    return evals


def cmd_evaluate(args):
    cfg = _config_from(args, [("eval", "miss_threshold", args.miss_threshold)])
    try:
        epsilon = None if args.epsilon == "auto" else float(args.epsilon)
    except ValueError:
        epsilon = math.nan
    if epsilon is not None and not 0 <= epsilon < math.inf:
        raise ConfigError(f"--epsilon must be 'auto' or a finite number >= 0, got {args.epsilon!r}")
    scenes = _load_scenes(args.gt, args.raster_dir, cfg)
    evals = _eval_inputs_from_files(scenes, args.pred, cfg.model.t_obs)
    if epsilon is None:
        epsilon = calibrate_epsilon(scenes)
    report = evaluate_windows(evals, epsilon, miss_threshold=cfg.eval.miss_threshold)

    os.makedirs(args.out, exist_ok=True)
    json_path = os.path.join(args.out, "metrics.json")
    csv_path = os.path.join(args.out, "metrics.csv")
    save_report_json(json_path, report)
    save_report_csv(csv_path, report)
    print(
        f"ADE {report['ade']:.4f}  FDE {report['fde']:.4f}  "
        f"minADE {report['min_ade']:.4f}  minFDE {report['min_fde']:.4f}  "
        f"AUC {report['auc']:.4f}  CR {report['cr']:.4%} (eps {report['epsilon']:.4g})"
    )
    return args.out, cfg, None, [json_path, csv_path]


def _load_trace(path) -> dict:
    """A trace JSON written by ``predict --trace``, each step's matrix as an
    array; DataError names the file when it is not JSON or lacks a key that
    ``render`` reads, an agent id is not an integer, or a step is not an
    integer ``t`` with a finite N x N ``matrix`` for the N ``agent_ids``."""
    try:
        obj = json.loads(read_text(path, DataError))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(obj, dict) or not {"steps", "agent_ids"} <= obj.keys():
        raise DataError(f"{path}: a trace needs 'steps' and 'agent_ids'")
    if not isinstance(obj["steps"], list) or not isinstance(obj["agent_ids"], list):
        raise DataError(f"{path}: 'steps' and 'agent_ids' must be lists")
    if any(type(a) is not int for a in obj["agent_ids"]):  # also refuses a JSON boolean
        raise DataError(f"{path}: 'agent_ids' must be integers")
    n = len(obj["agent_ids"])
    for entry in obj["steps"]:
        if not isinstance(entry, dict) or not {"t", "matrix"} <= entry.keys():
            raise DataError(f"{path}: every trace step needs 't' and 'matrix'")
        try:
            if any(type(v) not in (int, float) for row in entry["matrix"] for v in row):
                raise TypeError  # a JSON boolean or string is no weight
            matrix = np.asarray(entry["matrix"], dtype=np.float64)
        except (TypeError, ValueError):
            matrix = np.empty(0)
        if type(entry["t"]) is not int or matrix.shape != (n, n) or not np.isfinite(matrix).all():
            raise DataError(
                f"{path}: step t={entry['t']!r} needs an integer 't' and a {n}x{n} finite 'matrix'"
            )
        entry["matrix"] = matrix
    return obj


def cmd_render(args):
    cfg = _config_from(args)
    wanted = None
    if args.steps != "all":
        try:
            wanted = {int(v) for v in args.steps.split(",")}
        except ValueError:
            raise ConfigError(
                f"--steps must be 'all' or comma-separated integers, got {args.steps!r}"
            ) from None
        if not args.trace:
            raise ConfigError(
                f"--steps {args.steps} selects trace steps, but no --trace file is named"
            )
    stems = {}  # each trace's SVGs are named after its file's stem
    for path in args.trace:
        stem = os.path.splitext(os.path.basename(path))[0]
        if stem in stems:
            raise ConfigError(
                f"--trace {stems[stem]} and {path} share the stem {stem!r}: "
                "their SVG files would overwrite each other"
            )
        stems[stem] = path
    traces = [(stem, _load_trace(path)) for stem, path in stems.items()]
    held = {stems[stem]: sorted({s["t"] for s in obj["steps"]}) for stem, obj in traces}
    missing = sorted(wanted - {t for ts in held.values() for t in ts}) if wanted and held else []
    if missing:  # checked before any SVG is written
        listing = "; ".join(f"{path} holds t {ts}" for path, ts in held.items())
        raise ConfigError(f"--steps {missing} in no --trace file: {listing}")
    scenes = _load_scenes(args.scene, None, cfg)
    preds = []  # read in full before the output directory is made
    for scene in scenes:  # a window with nothing at its prediction path is not drawn
        path = os.path.join(args.pred, _window_file("pred_", scene, ".txt"))
        if os.path.exists(path):  # a directory there fails to open: exit 4
            preds.append((scene, _read_prediction(path, scene, cfg.model.t_obs)))
    os.makedirs(args.out_svg, exist_ok=True)
    outputs = []
    for scene, ev in preds:
        out = os.path.join(args.out_svg, _window_file("scene_", scene, ".svg"))
        write_svg(out, render_scene_svg(scene, ev.predictions, cfg.model.t_obs))
        outputs.append(out)

    for stem, obj in traces:
        steps = obj["steps"]
        if wanted is not None:
            steps = [s for s in steps if s["t"] in wanted]
        for entry in steps:
            out = os.path.join(args.out_svg, f"{stem}_t{entry['t']:02d}.svg")
            write_svg(out, render_trace_svg(entry["matrix"], obj["agent_ids"], entry["t"]))
            outputs.append(out)
    print(f"rendered {len(outputs)} SVG file(s) into {args.out_svg}")
    return args.out_svg, cfg, None, outputs


if __name__ == "__main__":
    sys.exit(main())
