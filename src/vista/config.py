"""Dataclass configuration with a sectioned key=value text format."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, asdict

from .errors import ConfigError


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
        for name in (
            "d_model", "n_heads", "t_obs", "t_fut", "n_classes", "dec_width", "kmeans_iters",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive count")
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

    def validate(self):
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        for name in (
            "max_epochs", "plateau_patience", "early_stop_patience", "batch_size",
            "val_k", "val_minade_every",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive count")


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
        self.train.validate()

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


def parse_config_text(text: str, base: Config | None = None) -> Config:
    """Parse '[section]' headers and 'key=value' lines over defaults."""
    cfg = base if base is not None else Config()
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
    cfg.validate()
    return cfg


def load_config(path, base: Config | None = None) -> Config:
    with open(path) as fh:
        return parse_config_text(fh.read(), base)


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
