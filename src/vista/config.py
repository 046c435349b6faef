"""Dataclass configuration with a sectioned key=value text format."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, asdict

from .errors import ConfigError, read_text

# Every int and float key of a config section or of data.ScenarioSpec must be
# finite and positive; the keys in MAY_BE_ZERO may also be 0, and those in
# BELOW_ONE must also be below 1.
MAY_BE_ZERO = frozenset({
    "seed", "stride", "lambda_goal", "lambda_traj", "target_loss_frac", "target_minade",
    "beta1", "beta2", "speed", "margin",
})
BELOW_ONE = frozenset({"beta1", "beta2", "val_ratio", "lr_factor"})


def check_domains(obj):
    """Raise ConfigError naming the first int or float field of the dataclass
    ``obj`` outside its domain. NaN fails every comparison, so it is rejected."""
    for f in fields(obj):
        if f.type in ("int", "float"):
            value = getattr(obj, f.name)
            zero_ok = f.name in MAY_BE_ZERO
            high = 1 if f.name in BELOW_ONE else math.inf
            if not ((0 <= value if zero_ok else 0 < value) and value < high):
                low = "0 <=" if zero_ok else "0 <"
                raise ConfigError(f"{f.name} must satisfy {low} {f.name} < {high}, got {value!r}")


@dataclass
class ModelConfig:
    d_model: int = 32
    n_heads: int = 8
    t_obs: int = 8
    t_fut: int = 12
    grid: int = 24  # raster side assumed when a scene carries no raster
    n_classes: int = 1
    enc_widths: tuple = (16, 32)
    dec_width: int = 16
    goal_sigma: float = 1.5  # cells; spread of the BCE target heatmap
    traj_sigma: float = 1.0  # cells; spread of the trajectory input channels
    n_raw_samples: int = 2000
    kmeans_iters: int = 50
    use_goal: bool = True
    use_social: bool = True

    @property
    def t_total(self) -> int:
        return self.t_obs + self.t_fut

    def validate(self):
        check_domains(self)
        if len(self.enc_widths) != 2 or min(self.enc_widths) < 1:
            raise ConfigError(f"enc_widths must be two positive counts, got {self.enc_widths}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.grid % 4 != 0:
            raise ConfigError(f"grid side {self.grid} must be divisible by 4")


@dataclass
class TrainConfig:
    lr: float = 1e-3
    lambda_goal: float = 1e3
    lambda_traj: float = 1.0
    max_epochs: int = 500
    plateau_patience: int = 30
    early_stop_patience: int = 75
    batch_size: int = 1
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    lr_factor: float = 0.5
    val_k: int = 20
    val_minade_every: int = 1
    target_loss_frac: float = 0.0  # stop once total <= frac * first-epoch total; 0 disables
    target_minade: float = 0.0  # joint target with target_loss_frac; 0 disables


@dataclass
class DataConfig:
    stride: int = 0  # 0 means use t_fut
    val_ratio: float = 0.2  # share of train windows held out for validation


@dataclass
class EvalConfig:
    miss_threshold: float = 2.0


@dataclass
class Config:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def validate(self):
        self.model.validate()
        for section in (self.train, self.data, self.eval):
            check_domains(section)
        n_raw, val_k, val_ratio = self.model.n_raw_samples, self.train.val_k, self.data.val_ratio
        if n_raw < val_k:
            raise ConfigError(f"n_raw_samples must be >= val_k, got {n_raw} < {val_k}")
        if 1.0 - val_ratio == 1.0:  # the split trains on 1 - val_ratio of the windows
            raise ConfigError(f"val_ratio {val_ratio!r} is too small: 1 - val_ratio is 1.0")

    def snapshot(self) -> dict:
        return asdict(self)


_SECTIONS = {"model": ModelConfig, "train": TrainConfig, "data": DataConfig, "eval": EvalConfig}


def _coerce(section, key, value, ftype):
    ftype = str(ftype)
    try:
        if ftype == "int":
            return int(value)
        if ftype == "float":
            return float(value)
        if ftype == "bool":
            if str(value).lower() in ("1", "true", "yes", "on"):
                return True
            if str(value).lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(value)
        if ftype == "tuple":
            return tuple(int(v) for v in str(value).split(",") if v.strip())
        return str(value)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {value!r} as {ftype}") from None


def parse_config_text(text: str) -> Config:
    """Parse '[section]' headers and 'key=value' lines over defaults; a bad
    line, key or value type is a ConfigError. Domains are left to
    ``Config.validate``, so that flags can override a key first."""
    cfg = Config()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown config section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside of any [section]")
        key, value = (p.strip() for p in line.split("=", 1))
        target = getattr(cfg, section)
        ftypes = {f.name: f.type for f in fields(target)}
        if key not in ftypes:
            raise ConfigError(f"unknown config key [{section}] {key}")
        setattr(target, key, _coerce(section, key, value, ftypes[key]))
    return cfg


def load_config(path) -> Config:
    return parse_config_text(read_text(path, ConfigError))


def format_config(cfg: Config) -> str:
    out = []
    for section in _SECTIONS:
        out.append(f"[{section}]")
        target = getattr(cfg, section)
        for f in fields(target):
            value = getattr(target, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            out.append(f"{f.name}={value}")
        out.append("")
    return "\n".join(out)
