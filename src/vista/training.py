"""Joint optimization of the goal and trajectory modules: Adam, plateau LR
halving on validation ADE, early stopping on validation minADE, and fully
resumable training state.

Scheduling semantics (epochs are 1-based): the LR halves at the first epoch
whose validation ADE completes ``plateau_patience`` consecutive
non-improvements, and training stops at the epoch that completes
``early_stop_patience`` consecutive non-improvements of validation minADE,
i.e. exactly ``early_stop_patience`` epochs after the best one.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .config import Config, ModelConfig, TrainConfig
from .data import Scene, atomic_write, reject_off_grid
from .errors import CheckpointError, DataError, DivergenceError
from .gpm import check_raster, encode_gpm_input, goal_target, gpm_forward_batch, heatmap_from_logits
from .metrics import eval_from_scene, per_sample_ade
from .model import Model, init_params, stable_seed
from .params import ParamStore
from .tensor import _node, backward
from .tpm import rollout


# -- loss -----------------------------------------------------------------


def window_constants(scene: Scene, model_cfg: ModelConfig):
    """The GPM input channels and the stack of goal targets of one window,
    or None without goal conditioning. Both are pure functions of the
    window, so ``train`` computes them once for every epoch."""
    if not model_cfg.use_goal:
        return None
    positions = scene.positions()
    channels = encode_gpm_input(
        positions[:, : model_cfg.t_obs], scene.raster, model_cfg, scene.source or scene.key()
    )
    targets = np.stack(
        [goal_target(g, channels.shape[1:3], model_cfg.goal_sigma) for g in positions[:, -1]]
    )
    return channels, targets


def window_loss_graph(
    params: ParamStore,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    scene: Scene,
    constants: tuple | None = None,
):
    """Differentiable total loss of one scene window (graph-tracked).

    Training rollouts use the ground-truth goal and the model's own recursive
    position feedback. ``constants`` may carry the window's precomputed
    ``window_constants``. Returns (total Tensor, goal part, traj part) with
    the parts as floats for reporting.

    The total is one ``"loss"`` node over the rollout positions and, when
    the goal term is on, the goal logits: lambda_traj times the sum over
    agents of the mean squared error per step, plus lambda_goal times the
    sum over agents of the mean binary cross-entropy of each heatmap. The
    cross-entropy uses BCE = softplus(z) - t*z with the stable
    softplus(z) = relu(z) + log(1 + e^-|z|), whose gradient is sigmoid(z) - t.
    """
    positions = scene.positions()
    gt_goals = positions[:, -1, :]
    gt_future = positions[:, model_cfg.t_obs :, :]
    lambda_goal, lambda_traj = train_cfg.lambda_goal, train_cfg.lambda_traj

    result = rollout(scene, gt_goals if model_cfg.use_goal else None, params, model_cfg)
    diff = result.positions.data - gt_future[result.canonical_order]
    per_agent_traj = (diff * diff).sum(axis=2).mean(axis=1)
    traj_part = float(per_agent_traj.mean())
    total = per_agent_traj.sum() * lambda_traj
    parents = (result.positions,)

    goal_part = 0.0
    if model_cfg.use_goal and lambda_goal != 0.0:
        channels, targets = window_constants(scene, model_cfg) if constants is None else constants
        logits = gpm_forward_batch(channels, params)
        z = logits.data
        pos = np.maximum(z, 0.0)
        e = np.exp((pos + np.maximum(z * -1.0, 0.0)) * -1.0)  # e^{-|z|}
        e1 = e + 1.0
        per_agent = ((pos + np.log(e1)) - targets * z).mean(axis=(1, 2))
        goal_part = float(per_agent.mean())
        total = total + per_agent.sum() * lambda_goal
        parents += (logits,)

    def bwd(g):
        g_diff = ((g * lambda_traj) / diff.shape[1]) * diff
        grads = [g_diff + g_diff]
        if len(parents) > 1:
            sigmoid = heatmap_from_logits(z)
            grads.append((sigmoid - targets) * ((g * lambda_goal) / (z.shape[1] * z.shape[2])))
        return grads

    return _node(total, parents, bwd, "loss"), goal_part, traj_part


# -- optimizer and schedules -------------------------------------------------


class Adam:
    """Adam over the store's flat value and gradient vectors. The moments
    ``m`` and ``v`` are flat vectors laid out like ``params.values``, and a
    step updates all three in place with the elementwise arithmetic of
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
    ``p = p - lr*(m/c1) / (sqrt(v/c2) + eps)``."""

    def __init__(self, params: ParamStore, cfg: TrainConfig):
        self.params = params
        self.beta1, self.beta2, self.eps = cfg.beta1, cfg.beta2, cfg.adam_eps
        self.m = np.zeros_like(params.values)
        self.v = np.zeros_like(params.values)
        self.t = 0

    def step(self, lr: float):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        values, g, m, v = self.params.values, self.params.grads, self.m, self.v
        with np.errstate(over="ignore", invalid="ignore"):
            num = g * (1.0 - b1)
            m *= b1
            m += num
            np.multiply(g, 1.0 - b2, out=num)
            num *= g
            v *= b2
            v += num
            np.divide(m, c1, out=num)
            num *= lr
            den = v / c2
            np.sqrt(den, out=den)
            den += self.eps
            num /= den
            values -= num


class Patience:
    """Counts the consecutive updates in which a metric (lower is better)
    fails to improve on its best value; ``update`` returns True once that
    run reaches ``patience``. The best value and its epoch persist when a
    caller restarts the run (``bad = 0``)."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = math.inf
        self.best_epoch = 0
        self.bad = 0

    def update(self, value: float, epoch: int) -> bool:
        if value < self.best:
            self.best, self.best_epoch, self.bad = value, epoch, 0
            return False
        self.bad += 1
        return self.bad >= self.patience


# -- report ------------------------------------------------------------------


@dataclass
class EpochRecord:
    epoch: int
    goal_loss: float
    traj_loss: float
    total: float
    val_ade: float
    val_minade: float  # nan on epochs where it was not evaluated
    lr: float


@dataclass
class TrainReport:
    early_stop: Patience  # on validation minADE: the run's best epoch and value
    records: list = field(default_factory=list)
    stop_reason: str = "max_epochs"

    @property
    def best_epoch(self) -> int:
        return self.early_stop.best_epoch

    @property
    def best_val_minade(self) -> float:
        return self.early_stop.best

    def to_csv(self, path):
        """One column per ``EpochRecord`` field; a value that was not
        evaluated (nan) is an empty cell."""
        lines = [",".join(f.name for f in fields(EpochRecord))]
        for r in self.records:
            lines.append(",".join("" if math.isnan(v) else repr(v) for v in astuple(r)))
        atomic_write(path, "\n".join(lines) + "\n")

    def summary(self) -> str:
        last = self.records[-1] if self.records else None
        lines = [
            f"epochs run: {len(self.records)} (stop: {self.stop_reason})",
            f"best val minADE {self.best_val_minade:.6g} at epoch {self.best_epoch}",
        ]
        if last:
            lines.append(
                f"final total {last.total:.6g} (goal {last.goal_loss:.6g}, "
                f"traj {last.traj_loss:.6g}), val ADE {last.val_ade:.6g}, lr {last.lr:.3g}"
            )
        return "\n".join(lines)


# -- validation ----------------------------------------------------------------


def _validation_score(model: Model, scenes, k: int | None = None, seed: int = 0) -> float:
    """Agent-weighted mean over ``scenes`` of each agent's best-of-k ADE:
    validation ADE when ``k`` is None (the one rollout toward the
    ground-truth goals), else validation minADE over k TTST samples drawn
    with ``seed``."""
    total, count = 0.0, 0
    for scene in scenes:
        if k is None:
            result = model.rollout_with_goals(scene, scene.positions()[:, -1])
            trajectories = result.trajectories[:, None]
        else:
            trajectories = model.predict(scene, k=k, seed=seed).trajectories
        ev = eval_from_scene(scene, trajectories, model.config.t_obs)
        best = per_sample_ade(ev).min(axis=1)
        total += best.sum()
        count += len(best)
    return float(total / count)


# -- training state (resume support) ------------------------------------------


STOP_REASONS = ("max_epochs", "early_stop", "target_reached")


@dataclass
class _Progress:
    epoch: int  # the last completed epoch
    lr: float
    first_total: float = math.nan  # mean loss of the first epoch, for the target stop
    stop: int = 0  # STOP_REASONS index; a state resumes training only from 0


def _state_slots(progress: _Progress, adam: Adam, plateau: Patience, stop: Patience) -> dict:
    """Every scalar a state file carries: entry name -> (owner, attribute).
    Saving and resuming both walk this one table."""
    slots = {f"_state.{attr}": (progress, attr) for attr in ("epoch", "lr", "first_total", "stop")}
    slots["_state.adam_t"] = (adam, "t")
    for prefix, counter in (("plateau", plateau), ("stop", stop)):
        slots.update({f"_state.{prefix}_{a}": (counter, a) for a in ("best", "best_epoch", "bad")})
    return slots


def save_train_state(path, params: ParamStore, adam: Adam, best_values, slots: dict):
    """The parameters, then Adam's moments and the best values as flat
    vectors laid out like ``params.values``, then one entry per scalar slot."""
    arrays = {name: t.data for name, t in params.items()}
    arrays.update({"_opt.m": adam.m, "_opt.v": adam.v})
    if best_values is not None:
        arrays["_best"] = best_values
    arrays.update({name: [float(getattr(owner, attr))] for name, (owner, attr) in slots.items()})
    ParamStore(arrays).save(path)


def _restore_train_state(blob: ParamStore, adam: Adam, slots: dict):
    """Load a state file's moments and scalars into ``adam`` and the slots;
    returns its best values, or None if it has none."""
    for name in ("_opt.m", "_opt.v", *slots):
        if name not in blob:
            raise CheckpointError(f"training state has no entry {name!r}")
    if any(blob[n].shape != adam.m.shape for n in ("_opt.m", "_opt.v", "_best") if n in blob):
        raise CheckpointError("training state vectors do not match the parameters")
    adam.m[...] = blob["_opt.m"].data
    adam.v[...] = blob["_opt.v"].data
    for name, (owner, attr) in slots.items():
        # Each slot keeps its type, so epochs and counts stay integers.
        kind, value = type(getattr(owner, attr)), blob[name].data[0]
        if kind is int and not value.is_integer():
            raise CheckpointError(f"training state entry {name!r} holds {value}, not an integer")
        setattr(owner, attr, kind(value))
    return blob["_best"].data if "_best" in blob else None


def strip_train_state(blob: ParamStore) -> ParamStore:
    """Model-only parameters from a checkpoint that may carry training state:
    every entry whose name does not start with ``_``."""
    return ParamStore({name: t.data for name, t in blob.items() if not name.startswith("_")})


def check_model_params(params: ParamStore, model_cfg: ModelConfig, source):
    """CheckpointError naming ``source`` unless ``params`` holds exactly the
    parameter names and shapes that ``init_params`` makes for ``model_cfg``."""
    expected = init_params(model_cfg, seed=0)
    got = {n: params[n].shape for n in params.names()}
    want = {n: expected[n].shape for n in expected.names()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        reshaped = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        raise CheckpointError(
            f"{source}: parameters do not match the model config "
            f"(missing {missing[:3]}, unexpected {extra[:3]}, reshaped {reshaped[:3]})"
        )


# -- main loop -----------------------------------------------------------------


@np.errstate(all="ignore")  # a non-finite value ends the run in DivergenceError instead
def train(train_scenes, val_scenes, config: Config, resume_from=None, state_out=None):
    """Optimize on ``train_scenes`` and schedule/stop on ``val_scenes``.

    Deterministic given config.train.seed: epoch shuffles are seeded by
    (seed, epoch), batches accumulate mean gradients in a fixed order, and
    the validation sampler seed is fixed. It holds one window's graph at a
    time, releasing each once its backward has run. A ``resume_from`` state
    whose run stopped early or reached its target runs no epoch; any other
    trains on to ``max_epochs``. Returns (best_params, report); raises DataError,
    before the first epoch, naming the file of a window with a frame count
    other than t_obs + t_fut, a raster ``check_raster`` refuses or a
    position outside the grid; CheckpointError on a ``resume_from`` file
    that lacks an entry, holds a non-integer in an integer slot or whose
    parameters are not the model config's; and DivergenceError (with the
    partial report attached) on NaN loss.
    """
    cfg = config.train
    mcfg = config.model
    config.validate()
    if not train_scenes or not val_scenes:
        raise DataError("train and validation sets must be non-empty")
    for scene in (*train_scenes, *val_scenes):  # training reads every frame of a window
        source = scene.source or scene.key()
        if scene.n_frames != mcfg.t_total:
            raise DataError(f"{source}: {scene.n_frames} frames, not t_obs + t_fut = {mcfg.t_total}")
        check_raster(scene.raster, mcfg, source)
        reject_off_grid(scene, scene.n_frames, mcfg.grid)

    if resume_from is not None:
        blob = ParamStore.load(resume_from)
        params = strip_train_state(blob)
        check_model_params(params, mcfg, resume_from)
    else:
        params = init_params(mcfg, seed=cfg.seed)

    model = Model(config=mcfg, params=params)
    adam = Adam(params, cfg)
    plateau = Patience(cfg.plateau_patience)
    report = TrainReport(Patience(cfg.early_stop_patience))
    progress = _Progress(epoch=0, lr=cfg.lr)
    slots = _state_slots(progress, adam, plateau, report.early_stop)
    best_values = None if resume_from is None else _restore_train_state(blob, adam, slots)
    if not 0 <= progress.stop < len(STOP_REASONS):
        raise CheckpointError(f"training state has no stop reason {progress.stop}")
    report.stop_reason = STOP_REASONS[progress.stop]
    last_epoch = cfg.max_epochs if report.stop_reason == "max_epochs" else progress.epoch

    val_seed = stable_seed(cfg.seed, "validation-ttst")
    constants = [window_constants(s, mcfg) for s in train_scenes]

    for epoch in range(progress.epoch + 1, last_epoch + 1):
        shuffle = np.random.default_rng(stable_seed(cfg.seed, "shuffle", epoch))
        order = shuffle.permutation(len(train_scenes))

        goal_parts, traj_parts, totals = [], [], []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            params.zero_grad()
            for i in batch:
                graph, goal_part, traj_part = window_loss_graph(
                    params, mcfg, cfg, train_scenes[i], constants[i]
                )
                totals.append(graph.item())
                if not math.isfinite(totals[-1]):
                    report.stop_reason = "diverged"
                    raise DivergenceError(f"non-finite loss in epoch {epoch}", report=report)
                backward(graph, seed=1.0 / len(batch))
                del graph  # before the next window's graph is built
                goal_parts.append(goal_part)
                traj_parts.append(traj_part)
            adam.step(progress.lr)

        epoch_total = float(np.mean(totals))
        if math.isnan(progress.first_total):
            progress.first_total = epoch_total

        try:
            val_ade = _validation_score(model, val_scenes)
            evaluate_minade = epoch % cfg.val_minade_every == 0 or epoch == cfg.max_epochs
            val_minade = math.nan
            if evaluate_minade:
                val_minade = _validation_score(model, val_scenes, cfg.val_k, val_seed)
        except (DataError, DivergenceError) as exc:
            # A model whose heatmaps have no mass or whose rollouts blow up
            # is numerically degenerate even if every parameter is finite.
            report.stop_reason = "diverged"
            raise DivergenceError(
                f"validation failed in epoch {epoch}: {exc}", report=report
            ) from exc

        if plateau.update(val_ade, epoch):
            progress.lr *= cfg.lr_factor
            plateau.bad = 0
        report.records.append(
            EpochRecord(
                epoch=epoch,
                goal_loss=float(np.mean(goal_parts)),
                traj_loss=float(np.mean(traj_parts)),
                total=epoch_total,
                val_ade=val_ade,
                val_minade=val_minade,
                lr=progress.lr,
            )
        )
        progress.epoch = epoch

        if evaluate_minade:
            should_stop = report.early_stop.update(val_minade, epoch)
            if report.best_epoch == epoch:
                best_values = params.values.copy()
            if should_stop:
                report.stop_reason = "early_stop"
                break
            if (
                cfg.target_loss_frac > 0.0
                and cfg.target_minade > 0.0
                and epoch_total <= cfg.target_loss_frac * progress.first_total
                and val_minade < cfg.target_minade
            ):
                report.stop_reason = "target_reached"
                break

    if state_out is not None:
        progress.stop = STOP_REASONS.index(report.stop_reason)
        save_train_state(state_out, params, adam, best_values, slots)

    return ParamStore(params.split(params.values if best_values is None else best_values)), report
