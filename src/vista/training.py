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
from dataclasses import dataclass, field

import numpy as np

from .config import Config, ModelConfig, TrainConfig
from .data import Scene, atomic_write, reject_off_grid
from .errors import DataError, DivergenceError
from .gpm import encode_gpm_input, goal_target, gpm_forward_batch
from .model import Model, init_params, stable_seed
from .params import ParamStore
from .tensor import backward, bce_with_logits_mean, constant, scale
from .tpm import rollout


# -- loss -----------------------------------------------------------------


def window_constants(scene: Scene, model_cfg: ModelConfig):
    """The GPM input channels and the stack of goal targets of one window,
    or None without goal conditioning. Both are pure functions of the
    window, so ``train`` computes them once for every epoch."""
    if not model_cfg.use_goal:
        return None
    positions = scene.positions()
    channels = encode_gpm_input(positions[:, : model_cfg.t_obs], scene.raster, model_cfg)
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
    """
    positions = scene.positions()
    gt_goals = positions[:, -1, :]
    gt_future = positions[:, model_cfg.t_obs :, :]

    goal_sum = None
    goal_part = 0.0
    if model_cfg.use_goal and train_cfg.lambda_goal != 0.0:
        channels, targets = window_constants(scene, model_cfg) if constants is None else constants
        obs = positions[:, : model_cfg.t_obs, :]
        logits = gpm_forward_batch(obs, scene.raster, params, model_cfg, channels=channels)
        per_agent = bce_with_logits_mean(logits, targets, axis=(1, 2))
        goal_sum = per_agent.sum()
        goal_part = float(per_agent.data.mean())

    result = rollout(scene, gt_goals if model_cfg.use_goal else None, params, model_cfg)
    diff = result.positions - constant(gt_future[result.canonical_order])
    sq = (diff * diff).sum(axis=2)  # (N, T_fut)
    per_agent_traj = sq.mean(axis=1)
    traj_sum = per_agent_traj.sum()
    traj_part = float(per_agent_traj.data.mean())

    total = scale(traj_sum, train_cfg.lambda_traj)
    if goal_sum is not None:
        total = total + scale(goal_sum, train_cfg.lambda_goal)
    return total, goal_part, traj_part


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


class PlateauHalver:
    """Halve the LR once a metric has failed to improve for ``patience``
    consecutive updates; the best value persists across halvings."""

    def __init__(self, patience: int, factor: float):
        self.patience = patience
        self.factor = factor
        self.best = math.inf
        self.bad = 0

    def update(self, value: float, lr: float) -> float:
        if value < self.best:
            self.best = value
            self.bad = 0
            return lr
        self.bad += 1
        if self.bad >= self.patience:
            self.bad = 0
            return lr * self.factor
        return lr


class EarlyStopper:
    """True once the metric has not improved for ``patience`` consecutive updates."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = math.inf
        self.best_epoch = 0
        self.bad = 0

    def update(self, value: float, epoch: int) -> bool:
        if value < self.best:
            self.best = value
            self.best_epoch = epoch
            self.bad = 0
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
    records: list = field(default_factory=list)
    stop_reason: str = "max_epochs"
    best_epoch: int = 0
    best_val_minade: float = math.inf

    def to_csv(self, path):
        lines = ["epoch,goal_loss,traj_loss,total,val_ade,val_minade,lr"]
        for r in self.records:
            minade = "" if math.isnan(r.val_minade) else repr(r.val_minade)
            lines.append(
                f"{r.epoch},{r.goal_loss!r},{r.traj_loss!r},{r.total!r},"
                f"{r.val_ade!r},{minade},{r.lr!r}"
            )
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


# -- validation metrics -------------------------------------------------------


def _validation_ade(model: Model, scenes) -> float:
    """k=1 rollout with the ground-truth goal; agent-weighted mean ADE."""
    total, count = 0.0, 0
    for scene in scenes:
        gt = scene.positions()[:, model.config.t_obs :, :]
        result = model.rollout_with_goals(scene, model.gt_goals(scene))
        err = np.sqrt(((result.trajectories - gt) ** 2).sum(-1)).mean(axis=1)
        total += err.sum()
        count += len(err)
    return total / count


def _validation_minade(model: Model, scenes, k: int, seed: int) -> float:
    """Best-of-k ADE over TTST-sampled goals with a fixed seed."""
    total, count = 0.0, 0
    for scene in scenes:
        gt = scene.positions()[:, model.config.t_obs :, :]
        pred = model.predict(scene, k=k, seed=seed)
        err = np.sqrt(((pred.trajectories - gt[:, None]) ** 2).sum(-1)).mean(axis=2)
        total += err.min(axis=1).sum()
        count += err.shape[0]
    return total / count


# -- training state (resume support) ------------------------------------------


_STATE_SCALARS = (
    "epoch",
    "lr",
    "adam_t",
    "plateau_best",
    "plateau_bad",
    "stop_best",
    "stop_best_epoch",
    "stop_bad",
    "first_total",
)


def save_train_state(path, params, adam, halver, stopper, best_values, epoch, lr, first_total):
    blob = ParamStore()
    for name, t in params.items():
        blob.add(name, t.data)
    m, v = params.split(adam.m), params.split(adam.v)
    for name in params.names():
        blob.add(f"_opt.m.{name}", m[name])
        blob.add(f"_opt.v.{name}", v[name])
    if best_values is not None:
        for name, arr in best_values.items():
            blob.add(f"_best.{name}", arr)
    scalars = dict(
        epoch=epoch,
        lr=lr,
        adam_t=adam.t,
        plateau_best=halver.best,
        plateau_bad=halver.bad,
        stop_best=stopper.best,
        stop_best_epoch=stopper.best_epoch,
        stop_bad=stopper.bad,
        first_total=first_total,
    )
    for name in _STATE_SCALARS:
        blob.add(f"_state.{name}", np.array([float(scalars[name])]))
    blob.save(path)


def _split_state(blob: ParamStore):
    params = ParamStore()
    opt_m, opt_v, best, scalars = {}, {}, {}, {}
    for name, t in blob.items():
        if name.startswith("_opt.m."):
            opt_m[name[len("_opt.m.") :]] = t.data
        elif name.startswith("_opt.v."):
            opt_v[name[len("_opt.v.") :]] = t.data
        elif name.startswith("_best."):
            best[name[len("_best.") :]] = t.data
        elif name.startswith("_state."):
            scalars[name[len("_state.") :]] = float(t.data[0])
        else:
            params.add(name, t.data)
    return params, opt_m, opt_v, best, scalars


def strip_train_state(blob: ParamStore) -> ParamStore:
    """Model-only parameters from a checkpoint that may carry training state."""
    return _split_state(blob)[0]


# -- main loop -----------------------------------------------------------------


def train(
    train_scenes,
    val_scenes,
    config: Config,
    resume_from=None,
    state_out=None,
):
    """Optimize on ``train_scenes`` and schedule/stop on ``val_scenes``.

    Deterministic given config.train.seed: epoch shuffles are seeded by
    (seed, epoch), batches accumulate mean gradients in a fixed order, and
    the validation sampler seed is fixed. Returns (best_params, report);
    raises DataError, before the first epoch, on a position of any window
    outside the grid, and DivergenceError (with the partial report attached)
    on NaN loss.
    """
    cfg = config.train
    mcfg = config.model
    config.validate()
    if not train_scenes or not val_scenes:
        raise DataError("train and validation sets must be non-empty")
    for scene in (*train_scenes, *val_scenes):  # training reads every frame of a window
        reject_off_grid(scene, scene.n_frames, mcfg.grid)

    if resume_from is not None:
        blob = resume_from if isinstance(resume_from, ParamStore) else ParamStore.load(resume_from)
        params, opt_m, opt_v, best_values, scalars = _split_state(blob)
        start_epoch = int(scalars["epoch"])
        lr = scalars["lr"]
        first_total = scalars["first_total"]
        best_values = best_values or None
    else:
        params = init_params(mcfg, seed=cfg.seed)
        start_epoch = 0
        lr = cfg.lr
        first_total = math.nan
        best_values = None

    model = Model(config=mcfg, params=params)
    adam = Adam(params, cfg)
    halver = PlateauHalver(cfg.plateau_patience, cfg.lr_factor)
    stopper = EarlyStopper(cfg.early_stop_patience)
    if resume_from is not None:
        adam.t = int(scalars["adam_t"])
        m, v = params.split(adam.m), params.split(adam.v)
        for name in params.names():
            m[name][...] = opt_m[name]
            v[name][...] = opt_v[name]
        halver.best, halver.bad = scalars["plateau_best"], int(scalars["plateau_bad"])
        stopper.best = scalars["stop_best"]
        stopper.best_epoch = int(scalars["stop_best_epoch"])
        stopper.bad = int(scalars["stop_bad"])

    report = TrainReport()
    report.best_epoch = stopper.best_epoch
    report.best_val_minade = stopper.best
    val_seed = stable_seed(cfg.seed, "validation-ttst")
    constants = [window_constants(s, mcfg) for s in train_scenes]

    for epoch in range(start_epoch + 1, cfg.max_epochs + 1):
        shuffle = np.random.default_rng(stable_seed(cfg.seed, "shuffle", epoch))
        order = shuffle.permutation(len(train_scenes))

        goal_parts, traj_parts, totals = [], [], []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            params.zero_grad()
            for i in batch:
                total, goal_part, traj_part = window_loss_graph(
                    params, mcfg, cfg, train_scenes[i], constants[i]
                )
                if not math.isfinite(total.item()):
                    report.stop_reason = "diverged"
                    raise DivergenceError(
                        f"non-finite loss in epoch {epoch}", report=report
                    )
                backward(scale(total, 1.0 / len(batch)))
                goal_parts.append(goal_part)
                traj_parts.append(traj_part)
                totals.append(total.item())
            adam.step(lr)

        epoch_total = float(np.mean(totals))
        if math.isnan(first_total):
            first_total = epoch_total

        try:
            val_ade = _validation_ade(model, val_scenes)
            evaluate_minade = epoch % cfg.val_minade_every == 0 or epoch == cfg.max_epochs
            val_minade = (
                _validation_minade(model, val_scenes, cfg.val_k, val_seed)
                if evaluate_minade
                else math.nan
            )
        except (DataError, DivergenceError) as exc:
            # A model whose heatmaps have no mass or whose rollouts blow up
            # is numerically degenerate even if every parameter is finite.
            report.stop_reason = "diverged"
            raise DivergenceError(
                f"validation failed in epoch {epoch}: {exc}", report=report
            ) from exc

        lr = halver.update(val_ade, lr)
        report.records.append(
            EpochRecord(
                epoch=epoch,
                goal_loss=float(np.mean(goal_parts)),
                traj_loss=float(np.mean(traj_parts)),
                total=epoch_total,
                val_ade=val_ade,
                val_minade=val_minade,
                lr=lr,
            )
        )

        if evaluate_minade:
            improved = val_minade < stopper.best
            should_stop = stopper.update(val_minade, epoch)
            if improved:
                best_values = params.copy_values()
                report.best_epoch = epoch
                report.best_val_minade = val_minade
            if should_stop:
                report.stop_reason = "early_stop"
                break
            if (
                cfg.target_loss_frac > 0.0
                and cfg.target_minade > 0.0
                and epoch_total <= cfg.target_loss_frac * first_total
                and val_minade < cfg.target_minade
            ):
                report.stop_reason = "target_reached"
                break
    else:
        report.stop_reason = "max_epochs"

    if state_out is not None:
        save_train_state(
            state_out, params, adam, halver, stopper, best_values,
            epoch=report.records[-1].epoch if report.records else start_epoch,
            lr=lr, first_total=first_total,
        )

    best = ParamStore()
    for name, arr in (best_values or params.copy_values()).items():
        best.add(name, arr)
    return best, report
