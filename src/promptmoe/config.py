"""Run configuration: one JSON file drives pretraining, training, and eval.

Keys inside each section are exactly the dataclass field names, and each
field's default is its shipped desk value, so a file may set any subset
of keys and the rest keep their shipped values. Unknown keys, and method
keys the chosen kind ignores (``methods.unread_fields``), are rejected
loudly rather than ignored, since a typo like "warmup_step" or a router
setting on PT silently changing nothing is the worst failure mode a config
system can have.
"""

import dataclasses
import json
from dataclasses import dataclass, field

from .data import TASKS
from .errors import ConfigError
from .methods import MethodConfig, unread_fields
from .pretrain import PretrainConfig
from .trainer import TrainConfig


@dataclass
class DataConfig:
    id_tasks: list = field(default_factory=lambda: ["copy_span", "mod_add"])
    ood_tasks: list = field(default_factory=lambda: ["reverse", "mod_mul"])
    train_count: int = 2000
    test_count: int = 500
    ood_count: int = 150
    train_seed: int = 101
    test_seed: int = 202
    ood_seed: int = 303

    def __post_init__(self):
        for name in ("train_count", "test_count", "ood_count"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for label, tasks in (("id_tasks", self.id_tasks), ("ood_tasks", self.ood_tasks)):
            if not tasks:
                raise ConfigError(f"{label} must not be empty")
            for t in tasks:
                if t not in TASKS:
                    raise ConfigError(f"{label}: unknown task {t!r}, expected one of {TASKS}")
        if self.train_seed == self.test_seed:
            raise ConfigError("train_seed and test_seed must differ (split hygiene)")


@dataclass
class EvalConfig:
    batch_size: int = 64
    max_new: int = 0  # 0 = per-example budget from the target length

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_new < 0:
            raise ConfigError(f"max_new must be >= 0, got {self.max_new}")


@dataclass
class RunConfig:
    method: MethodConfig
    train: TrainConfig
    base: PretrainConfig
    data: DataConfig
    eval: EvalConfig

    def __post_init__(self):
        # a budget too small for rank 1, or a rank above the base width,
        # fails here, before any base is read or any sweep leg trains
        self.method.resolve_rank(self.base.hidden)


_SECTIONS = {
    "method": MethodConfig,
    "train": TrainConfig,
    "base": PretrainConfig,
    "data": DataConfig,
    "eval": EvalConfig,
}


def _build_section(cls, raw, where):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(raw) - names
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}; valid: {sorted(names)}")
    return cls(**raw)


def from_dict(raw):
    if not isinstance(raw, dict):
        raise ConfigError(f"run config must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise ConfigError(
            f"unknown section(s) {sorted(unknown)}; valid: {sorted(_SECTIONS)}"
        )
    parts = {}
    for name, cls in _SECTIONS.items():
        section = raw.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"section {name!r} must be an object")
        parts[name] = _build_section(cls, section, name)
    kind = parts["method"].kind
    unread = set(raw.get("method", {})) & unread_fields(kind)
    if unread:
        raise ConfigError(f"method: {kind} ignores key(s) {sorted(unread)}")
    return RunConfig(**parts)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: not valid JSON: {e}") from None
    return from_dict(raw)


def to_dict(rc):
    """The config as ``from_dict`` takes it, without the method keys its kind ignores."""
    out = {name: dataclasses.asdict(getattr(rc, name)) for name in _SECTIONS}
    for key in unread_fields(rc.method.kind):
        del out["method"][key]
    return out


def default_run_config():
    """The shipped desk-scale setup: every section at its dataclass defaults."""
    return from_dict({})
