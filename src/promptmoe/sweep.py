"""Ablation sweeps: one axis varied, everything else at the run-config value.

Legs run sequentially with the same seed, each through the exact pipeline
a standalone run uses, so a sweep row is comparable to (and for the
default routing mode, bitwise equal to) a plain training run. Partial
results are flushed to disk after every leg, so a failed leg leaves the
completed rows behind.
"""

import dataclasses
import json
import os
from dataclasses import dataclass, field

from .errors import ConfigError
from .methods import unread_fields
from .runner import run_training

AXES = ("prompt_length", "num_experts", "params_budget", "routing_mode", "base_model_size")
ROUTING_MODES = ("S+P", "NS+P", "S+NP", "NS+NP")
PROMPT_LENGTH_RANGE = (20, 80)
NUM_EXPERTS_RANGE = (1, 8)


def parse_routing_mode(label):
    if label not in ROUTING_MODES:
        raise ConfigError(f"unknown routing mode {label!r}, expected one of {ROUTING_MODES}")
    sel, prob = label.split("+")
    return sel == "S", prob == "P"


@dataclass
class SweepSpec:
    axis: str
    values: list = field(default_factory=list)

    def __post_init__(self):
        if self.axis not in AXES:
            raise ConfigError(f"unknown axis {self.axis!r}, expected one of {AXES}")
        if self.axis == "routing_mode":
            if not self.values:
                self.values = list(ROUTING_MODES)
            elif sorted(self.values) != sorted(ROUTING_MODES):
                raise ConfigError(
                    f"routing_mode sweeps enumerate exactly {ROUTING_MODES}, got {self.values}"
                )
            return
        if not self.values:
            raise ConfigError(f"axis {self.axis!r} needs explicit values")
        if self.axis == "prompt_length":
            lo, hi = PROMPT_LENGTH_RANGE
            bad = [v for v in self.values if not lo <= int(v) <= hi]
        elif self.axis == "num_experts":
            lo, hi = NUM_EXPERTS_RANGE
            bad = [v for v in self.values if not lo <= int(v) <= hi]
        else:
            bad = [v for v in self.values if int(v) < 1]
        if bad:
            raise ConfigError(f"axis {self.axis!r}: values out of range: {bad}")
        self.values = [int(v) for v in self.values]


def apply_axis(rc, axis, value):
    """A new RunConfig with one knob moved; validation reruns on replace."""
    if axis == "base_model_size":
        return dataclasses.replace(rc, base=dataclasses.replace(rc.base, hidden=int(value)))
    if axis == "routing_mode":
        sel, prob = parse_routing_mode(value)
        fields = {"selective": sel, "probationary": prob}
    elif axis == "params_budget":
        fields = {"rank": "auto", "budget": int(value)}
    elif axis in ("prompt_length", "num_experts"):
        fields = {axis: int(value)}
    else:
        raise ConfigError(f"unknown axis {axis!r}")
    if set(fields) & unread_fields(rc.method.kind):
        raise ConfigError(
            f"{rc.method.kind} ignores the {axis} axis; every leg would train the same run"
        )
    return dataclasses.replace(rc, method=dataclasses.replace(rc.method, **fields))


def _row(value, out):
    rep = out["report"]
    return {
        "value": value,
        "param_count": out["param_count"],
        "in_domain": rep["in_domain"]["aggregate"],
        "out_of_domain": rep["out_of_domain"]["aggregate"],
        "final_loss": out["final_loss"],
        "loss_reduction": out["loss_reduction"],
        "result": {k: v for k, v in out.items() if k != "train_seconds"},
    }


def format_table(axis, rows):
    head = f"{axis:>16} | params |  ID macro |  ID micro | OOD macro | OOD micro | final loss"
    lines = [head, "-" * len(head)]
    for r in rows:
        lines.append(
            f"{str(r['value']):>16} | {r['param_count']:>6} | "
            f"{r['in_domain']['macro']:>9.4f} | {r['in_domain']['micro']:>9.4f} | "
            f"{r['out_of_domain']['macro']:>9.4f} | {r['out_of_domain']['micro']:>9.4f} | "
            f"{r['final_loss']:.4f}"
        )
    return "\n".join(lines)


def _flush(out_dir, payload):
    if not out_dir:
        return
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "sweep.json"), "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
    with open(os.path.join(out_dir, "sweep.txt"), "w", encoding="utf-8") as f:
        f.write(format_table(payload["axis"], payload["legs"]) + "\n")


def run_sweep(spec, rc, seed, cache_dir=".cache", out_dir=None, log_fn=None):
    """Train every leg in order; a leg whose config is invalid fails before the first trains."""
    say = log_fn or (lambda *_: None)
    leg_cfgs = [apply_axis(rc, spec.axis, value) for value in spec.values]
    payload = {"axis": spec.axis, "seed": int(seed), "status": "running", "legs": []}
    for value, leg_cfg in zip(spec.values, leg_cfgs):
        say(f"sweep leg {spec.axis}={value}")
        try:
            out, _, _ = run_training(leg_cfg, seed=seed, cache_dir=cache_dir, log_fn=say)
        except Exception:
            payload["status"] = f"failed at {spec.axis}={value}"
            _flush(out_dir, payload)
            raise
        payload["legs"].append(_row(value, out))
        _flush(out_dir, payload)
    payload["status"] = "complete"
    _flush(out_dir, payload)
    return payload
