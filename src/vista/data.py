"""Trajectory and raster ingestion, dihedral augmentation, dataset splits,
and seeded synthetic scenario generation.

Coordinate conventions: positions are (x, y) in scene units; grid cell (r, c)
is centered at (x=c, y=r) and spans the half-open square
[c-0.5, c+0.5) x [r-0.5, r+0.5). Rotations act about the grid center of a
square grid of side L, with row = y growing downward.
"""

from __future__ import annotations

import io
import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .config import _coerce, check_domains
from .errors import ConfigError, DataError, read_text

SCENARIOS = ("constant-velocity", "crossing", "group", "diverge", "head-on-avoid")


@dataclass
class AgentTrack:
    agent_id: int
    positions: np.ndarray  # (T, 2) float64, (x, y)
    frame_ids: np.ndarray  # (T,) int64, strictly increasing, uniformly spaced

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.frame_ids = np.asarray(self.frame_ids, dtype=np.int64)
        if self.positions.shape != (len(self.frame_ids), 2):
            raise DataError(
                f"agent {self.agent_id}: positions {self.positions.shape} do not "
                f"match {len(self.frame_ids)} frames"
            )
        diffs = np.diff(self.frame_ids)
        if len(diffs) and (diffs <= 0).any():
            raise DataError(f"agent {self.agent_id}: frame_ids not strictly increasing")
        if len(diffs) > 1 and len(set(diffs.tolist())) > 1:
            raise DataError(f"agent {self.agent_id}: frame_ids not uniformly spaced")


@dataclass
class SceneRaster:
    scores: np.ndarray  # (H, W, D), per-cell class scores summing to 1

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.ndim != 3:
            raise DataError(f"raster must be H x W x D, got shape {self.scores.shape}")
        sums = self.scores.sum(axis=2)
        if not np.allclose(sums, 1.0, atol=1e-6):
            raise DataError("raster class scores must sum to 1 per cell")

    @property
    def height(self):
        return self.scores.shape[0]

    @property
    def width(self):
        return self.scores.shape[1]

    @property
    def n_classes(self):
        return self.scores.shape[2]


@dataclass
class Scene:
    scene_id: str
    tracks: list[AgentTrack]
    raster: SceneRaster | None = None
    unit_scale: float = 0.0  # scene units per meter, 0 if uncalibrated
    window_index: int = 0
    source: str | None = None  # the trajectory file it was read from

    def __post_init__(self):
        if not self.tracks:
            raise DataError(f"scene {self.scene_id}: no tracks")
        ids = [t.agent_id for t in self.tracks]
        if len(set(ids)) != len(ids):
            raise DataError(f"scene {self.scene_id}: duplicate agent_ids")
        base = self.tracks[0].frame_ids
        for t in self.tracks[1:]:
            if not np.array_equal(t.frame_ids, base):
                raise DataError(f"scene {self.scene_id}: tracks do not share one frame window")

    @property
    def n_agents(self):
        return len(self.tracks)

    @property
    def n_frames(self):
        return len(self.tracks[0].frame_ids)

    @property
    def frame_ids(self):
        return self.tracks[0].frame_ids

    @property
    def agent_ids(self):
        return [t.agent_id for t in self.tracks]

    def positions(self) -> np.ndarray:
        """All tracks stacked as (N, T, 2) in track order."""
        return np.stack([t.positions for t in self.tracks], axis=0)

    def key(self) -> str:
        return f"{self.scene_id}:w{self.window_index}"

    def name(self) -> str:
        """The window's name in errors: the file it was read from, else its key."""
        return self.source or self.key()


# -- trajectory text IO ---------------------------------------------------


def read_records(path, fields: str) -> dict:
    """{ids: (x, y)} from a file whose lines hold ``fields``, integer ids
    then x and y ("frame agent x y"); blank and ``#`` lines are skipped.
    DataError names ``path:line`` for another field count, a non-numeric
    field, an id that is not an integer (780.0 is one), a non-finite
    coordinate, or ids that an earlier line holds."""
    names = fields.split()
    records = {}
    # StringIO splits lines as a file does: at "\n" alone, after the newline translation.
    for lineno, raw in enumerate(io.StringIO(read_text(path, DataError)), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != len(names):
            raise DataError(f"{path}:{lineno}: expected '{fields}', got {raw.strip()!r}")
        try:  # int() first: only an id such as 780.0 pays for the checks
            key, xy = tuple(map(int, parts[:-2])), (float(parts[-2]), float(parts[-1]))
        except ValueError:
            key, xy = _checked_fields(parts, names, f"{path}:{lineno}", raw.strip())
        if not (math.isfinite(xy[0]) and math.isfinite(xy[1])):
            raise DataError(f"{path}:{lineno}: non-finite coordinate in {raw.strip()!r}")
        if key in records:
            raise DataError(f"{path}:{lineno}: duplicate record for ({', '.join(names[:-2])}) = {key}")
        records[key] = xy
    return records


def _checked_fields(parts, names, where, line):
    """The ids and coordinates of a record line whose ids ``int()`` refused."""
    try:
        *ids, x, y = map(float, parts)
    except ValueError:
        raise DataError(f"{where}: non-numeric field in {line!r}") from None
    if not all(map(math.isfinite, ids)):
        raise DataError(f"{where}: non-finite id in {line!r}")
    if not all(v.is_integer() for v in ids):
        raise DataError(f"{where}: {' and '.join(names[:-2])} ids must be integers, got {line!r}")
    return tuple(map(int, ids)), (x, y)


def load_trajectories(
    path,
    t_obs: int = 8,
    t_fut: int = 12,
    stride: int | None = None,
) -> list[Scene]:
    """Read trajnet-style text files into complete sliding windows.

    ``path`` may be a single file or a directory of ``*.txt`` files; the file
    stem becomes the scene_id. Windows have length t_obs + t_fut and stride
    ``stride`` (default t_fut), starting at the first frame; an agent joins a
    window only when present at every frame of it. Scenes are numbered by
    window within each scene_id, in file order.
    """
    stride = t_fut if stride is None else stride
    if stride < 1:
        raise DataError(f"stride must be >= 1, got {stride}")
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path) if f.endswith(".txt"))
    if not files:
        raise DataError(f"{path}: no trajectory files found")

    scenes = []
    for f in files:
        scenes.extend(_windows_from_file(f, t_obs + t_fut, stride))
    counters: dict[str, int] = {}
    for scene in scenes:
        scene.window_index = counters.get(scene.scene_id, 0)
        counters[scene.scene_id] = scene.window_index + 1
    if not scenes:
        warnings.warn(f"{path}: no complete windows of length {t_obs + t_fut}")
    return scenes


def _windows_from_file(path, span, stride):
    records = read_records(path, "frame agent x y")
    frames = sorted({f for f, _ in records})
    step = min((b - a for a, b in zip(frames, frames[1:])), default=1)
    agents = sorted({a for _, a in records})
    # Files named "<scene>__<part>.txt" group into one scene_id.
    stem = os.path.splitext(os.path.basename(path))[0].split("__")[0]

    scenes = []
    # Only a window starting at a recorded frame holds a track; a far frame makes the grid huge.
    for first in frames:
        s, off_grid = divmod(first - frames[0], step)
        if off_grid or s % stride:
            continue
        window = range(first, first + span * step, step)
        tracks = []
        for a in agents:
            if all((f, a) in records for f in window):
                pos = np.array([records[(f, a)] for f in window])
                tracks.append(AgentTrack(a, pos, np.array(window)))
        if tracks:
            scenes.append(Scene(stem, tracks, source=str(path)))
    return scenes


def save_trajectories(path, scene: Scene):
    """Write one scene window as 'frame agent x y' lines."""
    lines = []
    for t in scene.tracks:  # tolist() gives Python ints and floats, not one numpy scalar a value
        agent = int(t.agent_id)
        rows = zip(t.frame_ids.tolist(), t.positions.tolist())
        lines += [f"{f} {agent} {x!r} {y!r}" for f, (x, y) in rows]
    atomic_write(path, "\n".join(lines) + "\n")


def atomic_write(path, content):
    """Write text or bytes to a sibling temp file, then rename it over ``path``."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb" if isinstance(content, (bytes, bytearray)) else "w") as fh:
        fh.write(content)
    os.replace(tmp, path)


# -- raster text IO -------------------------------------------------------


def load_raster(path) -> SceneRaster:
    """Raster text format: header 'H W D', then H*W*D reals, class-fastest."""
    header, _, body = read_text(path, DataError).partition("\n")
    try:
        h, w, d = (int(v) for v in header.split())
        values = np.array(body.split(), dtype=np.float64)
    except ValueError as exc:
        raise DataError(f"{path}: expected 'H W D' integers, then reals ({exc})") from None
    if min(h, w, d) < 1:
        raise DataError(f"{path}: raster sides must be positive, got {h} {w} {d}")
    if values.size != h * w * d:
        raise DataError(f"{path}: expected {h * w * d} raster values, got {values.size}")
    try:
        return SceneRaster(values.reshape(h, w, d))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def save_raster(path, raster: SceneRaster):
    h, w, d = raster.scores.shape
    body = " ".join(repr(float(v)) for v in raster.scores.reshape(-1))
    atomic_write(path, f"{h} {w} {d}\n{body}\n")


def uniform_raster(side: int, n_classes: int = 1) -> SceneRaster:
    scores = np.zeros((side, side, n_classes))
    scores[:, :, 0] = 1.0
    return SceneRaster(scores)


def reject_off_grid(scene: Scene, n_frames: int, grid: int):
    """Raise DataError naming the file, agent and frame of the first of the
    scene's first ``n_frames`` positions outside its raster (a ``grid``-sided
    square if it has none), whose cells cover [-0.5, W-0.5) x [-0.5, H-0.5).
    The goal module would otherwise clamp such a position into the grid."""
    h, w = (grid, grid) if scene.raster is None else (scene.raster.height, scene.raster.width)
    pos = scene.positions()[:, :n_frames]
    outside = (pos < -0.5).any(axis=-1) | (pos[..., 0] >= w - 0.5) | (pos[..., 1] >= h - 0.5)
    if outside.any():
        i, t = np.argwhere(outside)[0]
        x, y = pos[i, t]
        raise DataError(
            f"{scene.name()}: agent {scene.agent_ids[i]} at frame "
            f"{int(scene.frame_ids[t])} is at ({float(x)!r}, {float(y)!r}), "
            f"outside the {h}x{w} raster"
        )


# -- Gaussian rasterization ------------------------------------------------


def rasterize_gaussian(center, grid, sigma: float) -> np.ndarray:
    """An (H, W) heatmap of exp(-d^2 / (2 sigma^2)) mass-normalized to 1.

    ``center`` is (x, y) in scene/grid units and may lie outside the grid
    (the in-grid mass is renormalized). If every cell underflows to zero the
    unit mass is placed on the nearest in-grid cell.
    """
    if sigma <= 0:
        raise DataError(f"sigma must be positive, got {sigma}")
    h, w = grid
    cx, cy = float(center[0]), float(center[1])
    cols = np.arange(w, dtype=np.float64)
    rows = np.arange(h, dtype=np.float64)
    d2 = (cols[None, :] - cx) ** 2 + (rows[:, None] - cy) ** 2
    heat = np.exp(-d2 / (2.0 * sigma * sigma))
    total = heat.sum()
    if total <= 0.0:
        heat = np.zeros((h, w))
        heat[int(np.clip(round(cy), 0, h - 1)), int(np.clip(round(cx), 0, w - 1))] = 1.0
        return heat
    return heat / total


# -- dihedral augmentation --------------------------------------------------


def dihedral_point(xy, transform_id: int, side: int) -> np.ndarray:
    """Apply dihedral transform 0..7 to (x, y) points on a square grid.

    transform_id = q + 4*f applies q quarter-turns (x, y) -> (y, L-1-x) and
    then, if f, a horizontal flip (x, y) -> (L-1-x, y).
    """
    if not 0 <= transform_id <= 7:
        raise DataError(f"transform_id must be in 0..7, got {transform_id}")
    p = np.asarray(xy, dtype=np.float64).copy()
    x, y = p[..., 0].copy(), p[..., 1].copy()
    for _ in range(transform_id % 4):
        x, y = y.copy(), side - 1 - x
    if transform_id >= 4:
        x = side - 1 - x
    out = np.stack([x, y], axis=-1)
    return out


def augment_dihedral(scene: Scene, transform_id: int, grid_side: int | None = None) -> Scene:
    """Apply one of the 8 square-grid symmetries to positions and raster."""
    if grid_side is None:
        if scene.raster is None:
            raise DataError("grid_side required when the scene has no raster")
        if scene.raster.height != scene.raster.width:
            raise DataError("dihedral augmentation needs a square raster")
        grid_side = scene.raster.width

    tracks = [
        AgentTrack(t.agent_id, dihedral_point(t.positions, transform_id, grid_side), t.frame_ids.copy())
        for t in scene.tracks
    ]
    raster = scene.raster
    if raster is not None:
        scores = raster.scores
        for _ in range(transform_id % 4):
            scores = np.rot90(scores, k=1, axes=(0, 1))
        if transform_id >= 4:
            scores = scores[:, ::-1, :]
        raster = SceneRaster(np.ascontiguousarray(scores))
    return replace(scene, tracks=tracks, raster=raster)


# -- dataset splits ----------------------------------------------------------


def split_leave_one_out(scenes: list[Scene]) -> list[tuple[list[Scene], list[Scene]]]:
    """One fold per scene_id: train on all other scenes, test on the held-out one."""
    ids = sorted({s.scene_id for s in scenes})
    if len(ids) < 2:
        raise DataError(
            "leave-one-out needs >= 2 distinct scene_ids; use a ratio split instead"
        )
    folds = []
    for held in ids:
        train = [s for s in scenes if s.scene_id != held]
        test = [s for s in scenes if s.scene_id == held]
        folds.append((train, test))
    return folds


def split_ratio(scenes: list[Scene], train_frac: float, seed: int = 0):
    """Single shuffled split by window; at least one window on each side."""
    if not 0.0 < train_frac < 1.0:
        raise DataError(f"train fraction must be in (0, 1), got {train_frac}")
    order = np.random.default_rng(seed).permutation(len(scenes))
    n_train = min(max(int(round(train_frac * len(scenes))), 1), len(scenes) - 1)
    train = [scenes[i] for i in order[:n_train]]
    test = [scenes[i] for i in order[n_train:]]
    return train, test


# -- synthetic scenarios -----------------------------------------------------


@dataclass
class ScenarioSpec:
    """One synthetic scenario: its name, agent count, ``speed`` (cells per
    frame), head-on ``margin`` (cells), seed, window count, grid side and
    frames per window. Every number is finite and positive, except that
    speed, margin and seed may be 0 (``config.check_domains``); crossing
    needs a positive speed."""

    scenario: str
    n_agents: int = 2
    speed: float = 1.0
    margin: float = 1.0
    seed: int = 0
    n_windows: int = 1
    grid: int = 24
    n_frames: int = 20
    randomize: bool = False

    @classmethod
    def from_text(cls, text: str) -> "ScenarioSpec":
        """Parse 'key=value' lines (scenario, n_agents, speed, margin, seed, ...).

        Values are coerced as in a config file; a bad line, key or value is a
        ConfigError naming it."""
        parsed = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"scenario spec line {lineno}: expected key=value")
            key, value = (p.strip() for p in line.split("=", 1))
            if key not in cls.__dataclass_fields__:
                raise ConfigError(f"unknown scenario key: {key}")
            parsed[key] = _coerce("scenario", key, value, cls.__dataclass_fields__[key].type)
        if "scenario" not in parsed:
            raise ConfigError("scenario spec must name a scenario")
        return cls(**parsed)


def synth_generate(spec: ScenarioSpec) -> list[Scene]:
    """Deterministic synthetic scenes for desk-scale experiments.

    With ``randomize`` off the canonical layout is emitted; with it on,
    per-window headings, speeds, and offsets are drawn from the seeded rng.
    head-on-avoid guarantees a ground-truth minimum pairwise distance of at
    least ``margin`` (checked, not just constructed).
    """
    if spec.scenario not in SCENARIOS:
        raise DataError(f"unknown scenario {spec.scenario!r}; choose from {SCENARIOS}")
    if spec.n_agents > 32:
        raise DataError("synthetic scenes support at most 32 agents")
    check_domains(spec)
    if spec.scenario == "crossing" and spec.speed == 0:
        raise ConfigError("speed must be positive for crossing: its agents would never move")
    rng = np.random.default_rng(spec.seed)
    maker = {
        "constant-velocity": _make_constant_velocity,
        "crossing": _make_crossing,
        "group": _make_group,
        "diverge": _make_diverge,
        "head-on-avoid": _make_head_on_avoid,
    }[spec.scenario]

    scenes = []
    for w in range(spec.n_windows):
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            positions = maker(spec, rng if spec.randomize else None)
        if not np.isfinite(positions).all():  # before the clip turns an inf into a grid edge
            raise ConfigError(f"{spec.scenario}: speed or margin too large for float64")
        positions = np.clip(positions, 0.0, spec.grid - 1.0)
        tracks = [
            AgentTrack(i, positions[i], np.arange(spec.n_frames))
            for i in range(positions.shape[0])
        ]
        scene = Scene(
            scene_id=spec.scenario,
            tracks=tracks,
            raster=uniform_raster(spec.grid),
            unit_scale=1.0,
            window_index=w,
        )
        if spec.scenario == "head-on-avoid" and positions.shape[0] >= 2:
            dmin = min_pairwise_distance(scene)
            if dmin < spec.margin - 1e-9:
                raise DataError(
                    f"head-on-avoid window {w}: min distance {dmin:.4f} < margin "
                    f"{spec.margin}; loosen speed/grid so tracks stay in bounds"
                )
        scenes.append(scene)
    return scenes


def min_pairwise_distance(scene: Scene) -> float:
    """Minimum over co-observed timesteps and agent pairs of the l2 distance."""
    pos = scene.positions()
    n = pos.shape[0]
    if n < 2:
        return math.inf
    diffs = pos[:, None, :, :] - pos[None, :, :, :]
    dist = np.sqrt((diffs**2).sum(-1))
    iu = np.triu_indices(n, k=1)
    return float(dist[iu].min())


def _timeline(spec):
    return np.arange(spec.n_frames, dtype=np.float64)


def _rotate(points, angle, center):
    c, s = math.cos(angle), math.sin(angle)
    rel = points - center
    out = np.empty_like(rel)
    out[..., 0] = c * rel[..., 0] - s * rel[..., 1]
    out[..., 1] = s * rel[..., 0] + c * rel[..., 1]
    return out + center


def _make_constant_velocity(spec, rng):
    t = _timeline(spec)
    lanes = []
    for i in range(spec.n_agents):
        speed = spec.speed
        y0 = 2.0 * spec.margin * i
        if rng is not None:
            speed = spec.speed * rng.uniform(0.7, 1.3)
            y0 = rng.uniform(0, spec.grid - 1)
        x = t * speed
        y = np.full_like(t, y0)
        lanes.append(np.stack([x, y], axis=-1))
    pos = np.stack(lanes, axis=0)
    if rng is not None:
        center = np.array([(spec.grid - 1) / 2.0] * 2)
        pos = _rotate(pos, rng.uniform(0, 2 * math.pi), center)
    return pos


def _make_crossing(spec, rng):
    t = _timeline(spec)
    mid = (spec.grid - 1) / 2.0
    speed = spec.speed
    gap = max(math.sqrt(2.0) * spec.margin / speed * 1.25, 2.0)
    if rng is not None:
        speed = spec.speed * rng.uniform(0.8, 1.2)
        gap = max(math.sqrt(2.0) * spec.margin / speed * rng.uniform(1.25, 2.0), 2.0)
    half = spec.n_frames / 2.0
    lanes = []
    for i in range(spec.n_agents):
        tc = half - gap / 2.0 if i % 2 == 0 else half + gap / 2.0
        coord = (t - tc) * speed + mid
        level = np.full_like(t, mid + (i // 2) * 2.0 * spec.margin)
        if i % 2 == 0:
            lanes.append(np.stack([coord, level], axis=-1))
        else:
            lanes.append(np.stack([level, coord], axis=-1))
    return np.stack(lanes, axis=0)


def _make_group(spec, rng):
    t = _timeline(spec)
    speed = spec.speed
    angle = 0.0
    y0 = (spec.grid - 1) / 2.0
    if rng is not None:
        speed = spec.speed * rng.uniform(0.8, 1.2)
        angle = rng.uniform(0, 2 * math.pi)
    lanes = []
    for i in range(spec.n_agents):
        x = t * speed
        y = np.full_like(t, y0 + (i - (spec.n_agents - 1) / 2.0) * spec.margin)
        lanes.append(np.stack([x, y], axis=-1))
    pos = np.stack(lanes, axis=0)
    if rng is not None:
        center = np.array([(spec.grid - 1) / 2.0] * 2)
        pos = _rotate(pos, angle, center)
    return pos


def _make_diverge(spec, rng):
    t = _timeline(spec)
    mid = (spec.grid - 1) / 2.0
    base = rng.uniform(0, 2 * math.pi) if rng is not None else 0.0
    speed = spec.speed * (rng.uniform(0.8, 1.2) if rng is not None else 1.0)
    lanes = []
    for i in range(spec.n_agents):
        theta = base + 2 * math.pi * i / spec.n_agents
        ox = mid + spec.margin * math.cos(theta)
        oy = mid + spec.margin * math.sin(theta)
        x = ox + t * speed * math.cos(theta)
        y = oy + t * speed * math.sin(theta)
        lanes.append(np.stack([x, y], axis=-1))
    return np.stack(lanes, axis=0)


def _make_head_on_avoid(spec, rng):
    """Two agents approach head-on, sidestep, and then veer toward one of
    three exit headings.

    The sidestep onset depends on both speeds jointly (not inferable from one
    agent's history), and the exit choice is drawn independently of the
    observed segment, so the future is genuinely multimodal: destination
    knowledge, not extrapolation, resolves it.
    """
    t = _timeline(spec)
    mid = (spec.grid - 1) / 2.0
    sa = sb = spec.speed
    exit_a = exit_b = 0.0
    if rng is not None:
        sa = spec.speed * rng.uniform(0.7, 1.3)
        sb = spec.speed * rng.uniform(0.7, 1.3)
        exit_a = rng.choice([-0.6, 0.0, 0.6])
        exit_b = rng.choice([-0.6, 0.0, 0.6])
    # Meeting point sits inside the prediction segment of the window.
    t_meet = 0.7 * (spec.n_frames - 1)
    xa = mid + sa * (t - t_meet)
    xb = mid - sb * (t - t_meet)
    gap = xb - xa
    trigger = 4.0 * spec.margin
    ramp = np.zeros_like(t)  # a zero margin needs no sidestep
    if trigger > 0:
        closeness = np.clip((trigger - gap) / trigger, 0.0, 1.0)
        # Raised-cosine ramp keeps the lateral motion smooth; half the margin
        # of lateral offset per agent leaves a little over one margin of
        # clearance at the closest pass.
        ramp = 0.5 * (1.0 - np.cos(math.pi * closeness))
    lateral = 0.55 * spec.margin
    ya = mid + lateral * ramp
    yb = mid - lateral * ramp
    # After passing (two frames beyond the meeting point, so the exit drift
    # cannot eat into the encounter clearance), each agent veers onto its
    # exit heading: a lateral drift proportional to the distance traveled.
    past_a = np.maximum(sa * (t - t_meet - 2.0), 0.0)
    past_b = np.maximum(sb * (t - t_meet - 2.0), 0.0)
    ya = ya + exit_a * past_a
    yb = yb - exit_b * past_b
    return np.stack(
        [np.stack([xa, ya], axis=-1), np.stack([xb, yb], axis=-1)], axis=0
    )
