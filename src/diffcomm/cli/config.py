"""Experiment configuration: JSON schema, validation, resolved copies.

A run is described by one JSON document.  Every key is optional except
``channel`` (a run needs at least a noise grid), and defaults follow the
reference operating point: 1000-step linear schedule, unit Gaussian
source of shape 8x8x4, loss weights 0.1/0.1, batch 4 at learning rate
1e-4.  Unknown keys anywhere, type mismatches, and invariant violations
are rejected with the dotted path of the offending field.

``resolved_config`` renders the parsed config back to a plain dict with
all defaults and derived quantities filled in (per-cell noise variances
and diffusion steps, the compression fraction implied by a channel
count, the fixed-step mode's equivalent SNR).  Runners write it next to
their outputs so any result file can be replayed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from ..codec import compressed_length, k_from_channel_count
from ..errors import ConfigurationError, SaturationError
from ..schedule import Schedule, build_linear_schedule, sigma2_to_step, step_to_sigma2

__all__ = [
    "Cell",
    "ChannelConfig",
    "CodecConfig",
    "ExperimentConfig",
    "LossConfig",
    "ModeConfig",
    "OutputConfig",
    "ScheduleConfig",
    "SourceConfig",
    "SweepConfig",
    "TrainSection",
    "parse_config",
    "resolved_config",
]

_MISSING = object()


class _Section:
    """One nested object of the config with path-aware typed accessors."""

    def __init__(self, data: dict, path: str):
        self._data = dict(data)
        self._path = path

    def child(self, name: str) -> str:
        return f"{self._path}.{name}" if self._path else name

    def _pop(self, name: str):
        return self._data.pop(name, _MISSING)

    def take_section(self, name: str) -> Optional["_Section"]:
        raw = self._pop(name)
        if raw is _MISSING or raw is None:
            return None
        if not isinstance(raw, dict):
            raise ConfigurationError(self.child(name), f"expected an object, got {type(raw).__name__}")
        return _Section(raw, self.child(name))

    def take_bool(self, name: str, default: bool) -> bool:
        raw = self._pop(name)
        if raw is _MISSING:
            return default
        if not isinstance(raw, bool):
            raise ConfigurationError(self.child(name), f"expected a boolean, got {type(raw).__name__}")
        return raw

    def take_int(self, name: str, default, minimum: Optional[int] = None,
                 maximum: Optional[int] = None):
        raw = self._pop(name)
        if raw is _MISSING:
            return default
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise ConfigurationError(self.child(name), f"expected an integer, got {type(raw).__name__}")
        if minimum is not None and raw < minimum:
            raise ConfigurationError(self.child(name), f"must be >= {minimum}, got {raw}")
        if maximum is not None and raw > maximum:
            raise ConfigurationError(self.child(name), f"must be <= {maximum}, got {raw}")
        return raw

    def take_float(self, name: str, default, minimum: Optional[float] = None,
                   exclusive_minimum: Optional[float] = None):
        raw = self._pop(name)
        if raw is _MISSING:
            return default
        val = self._as_float(self.child(name), raw)
        if minimum is not None and val < minimum:
            raise ConfigurationError(self.child(name), f"must be >= {minimum}, got {val}")
        if exclusive_minimum is not None and val <= exclusive_minimum:
            raise ConfigurationError(self.child(name), f"must be > {exclusive_minimum}, got {val}")
        return val

    def take_str(self, name: str, default, choices: Optional[Sequence[str]] = None):
        raw = self._pop(name)
        if raw is _MISSING:
            return default
        if not isinstance(raw, str):
            raise ConfigurationError(self.child(name), f"expected a string, got {type(raw).__name__}")
        if choices is not None and raw not in choices:
            raise ConfigurationError(self.child(name), f"must be one of {sorted(choices)}, got {raw!r}")
        return raw

    def take_float_list(self, name: str):
        raw = self._pop(name)
        if raw is _MISSING:
            return None
        if not isinstance(raw, list):
            raise ConfigurationError(self.child(name), f"expected a list, got {type(raw).__name__}")
        return tuple(
            self._as_float(f"{self.child(name)}[{i}]", item) for i, item in enumerate(raw)
        )

    def _as_float(self, path: str, raw) -> float:
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ConfigurationError(path, f"expected a number, got {type(raw).__name__}")
        val = float(raw)
        if not math.isfinite(val):
            raise ConfigurationError(path, f"must be finite, got {val!r}")
        return val

    def has(self, name: str) -> bool:
        return name in self._data

    def finish(self):
        if self._data:
            name = sorted(self._data)[0]
            raise ConfigurationError(self.child(name), "unknown key")


def _empty_section(path: str) -> _Section:
    return _Section({}, path)


# ---------------------------------------------------------------------------
# section dataclasses


@dataclass(frozen=True)
class ScheduleConfig:
    T: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02


@dataclass(frozen=True)
class SourceConfig:
    kind: str = "gaussian"
    m: float = 0.0
    v: float = 1.0
    shape: tuple[int, int, int] = (8, 8, 4)
    count: int = 8
    path: Optional[str] = None

    @property
    def n(self) -> int:
        w, h, c = self.shape
        return w * h * c


@dataclass(frozen=True)
class Cell:
    """One simulation grid cell: an SNR label and its noise variance."""

    snr_db: float
    sigma2: float


@dataclass(frozen=True)
class ChannelConfig:
    type: str = "awgn"
    cells: tuple[Cell, ...] = ()
    h: Optional[complex] = None
    M: int = 2
    convention: str = "gain_weighted"


@dataclass(frozen=True)
class CodecConfig:
    enabled: bool = False
    C: Optional[int] = None
    k: Optional[float] = None
    hidden: int = 64
    blocks: int = 2
    snr_conditioning: bool = True
    snr_to_mu: bool = False
    power_norm: bool = True
    snr_db_range: tuple[float, float] = (0.0, 12.0)
    params_path: Optional[str] = None


@dataclass(frozen=True)
class LossConfig:
    lam: float = 0.1
    gamma: float = 0.1


@dataclass(frozen=True)
class TrainSection:
    steps: int = 2000
    batch: int = 4
    lr: float = 1e-4
    momentum: float = 0.0
    eval_every: int = 100
    holdout: int = 64
    snr_db: float = 5.0
    common_noise: bool = False


@dataclass(frozen=True)
class ModeConfig:
    kind: str = "adaptive"
    t_target: int = 200


@dataclass(frozen=True)
class OutputConfig:
    csv: str = "results.csv"
    log: str = "run.log"
    params: str = "codec.npz"


@dataclass(frozen=True)
class SweepConfig:
    param: str = "lambda"
    values: tuple[float, ...] = ()
    steps: Optional[int] = None
    trials: Optional[int] = None


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    schedule: ScheduleConfig
    source: SourceConfig
    channel: ChannelConfig
    codec: CodecConfig
    loss: LossConfig
    train: TrainSection
    mode: ModeConfig
    output: OutputConfig
    sweep: Optional[SweepConfig] = None

    def codec_k(self) -> float:
        """Compression fraction, derived from the channel count if needed."""
        if self.codec.k is not None:
            return self.codec.k
        return k_from_channel_count(self.codec.C, self.source.n)


# ---------------------------------------------------------------------------
# parsing


def _parse_schedule(sec: _Section) -> ScheduleConfig:
    out = ScheduleConfig(
        T=sec.take_int("T", 1000, minimum=1),
        beta_start=sec.take_float("beta_start", 1e-4, exclusive_minimum=0.0),
        beta_end=sec.take_float("beta_end", 0.02, exclusive_minimum=0.0),
    )
    sec.finish()
    if not out.beta_start <= out.beta_end < 1.0:
        raise ConfigurationError(
            "schedule.beta_start, schedule.beta_end",
            f"need beta_start <= beta_end < 1, got ({out.beta_start}, {out.beta_end})",
        )
    return out


def _parse_shape(sec: _Section) -> tuple[int, int, int]:
    raw = sec.take_float_list("shape")
    if raw is None:
        return (8, 8, 4)
    if len(raw) != 3:
        raise ConfigurationError(sec.child("shape"), f"expected 3 entries (w, h, c), got {len(raw)}")
    dims = []
    for i, v in enumerate(raw):
        if v < 1 or v != int(v):
            raise ConfigurationError(f"{sec.child('shape')}[{i}]", f"must be a positive integer, got {v!r}")
        dims.append(int(v))
    return tuple(dims)


def _parse_source(sec: _Section) -> SourceConfig:
    shape = _parse_shape(sec)
    out = SourceConfig(
        kind=sec.take_str("kind", "gaussian", choices=("gaussian", "file")),
        m=sec.take_float("m", 0.0),
        v=sec.take_float("v", 1.0, exclusive_minimum=0.0),
        shape=shape,
        count=sec.take_int("count", 8, minimum=1),
        path=sec.take_str("path", None),
    )
    sec.finish()
    if out.kind == "file":
        if out.path is None:
            raise ConfigurationError("source.path", "required when source.kind is 'file'")
        if not os.path.isfile(out.path):
            raise ConfigurationError("source.path", f"file not found: {out.path}")
    elif out.path is not None:
        raise ConfigurationError("source.path", "only valid when source.kind is 'file'")
    return out


def _parse_channel(sec: _Section) -> ChannelConfig:
    ctype = sec.take_str("type", "awgn", choices=("awgn", "rayleigh", "mimo"))
    snr_db = sec.take_float_list("snr_db")
    sigma = sec.take_float_list("sigma")
    if (snr_db is None) == (sigma is None):
        raise ConfigurationError(
            "channel.snr_db, channel.sigma", "exactly one of snr_db and sigma must be given"
        )
    if snr_db is not None:
        if not snr_db:
            raise ConfigurationError("channel.snr_db", "must be nonempty")
        cells = tuple(Cell(snr_db=s, sigma2=10.0 ** (-s / 10.0)) for s in snr_db)
    else:
        if not sigma:
            raise ConfigurationError("channel.sigma", "must be nonempty")
        for i, s in enumerate(sigma):
            if s < 0:
                raise ConfigurationError(f"channel.sigma[{i}]", f"must be >= 0, got {s}")
        cells = tuple(
            Cell(snr_db=(math.inf if s == 0 else -10.0 * math.log10(s * s)), sigma2=s * s)
            for s in sigma
        )

    h = None
    h_raw = sec.take_float_list("h")
    if h_raw is not None:
        if ctype != "rayleigh":
            raise ConfigurationError("channel.h", "fixed fade applies to rayleigh channels only")
        if len(h_raw) != 2:
            raise ConfigurationError("channel.h", f"expected [re, im], got {len(h_raw)} entries")
        h = complex(h_raw[0], h_raw[1])
        if h == 0:
            raise ConfigurationError("channel.h", "fade coefficient must be nonzero")

    has_M = sec.has("M")
    M = sec.take_int("M", 2, minimum=1)
    if has_M and ctype != "mimo":
        raise ConfigurationError("channel.M", "antenna count applies to mimo channels only")

    has_conv = sec.has("convention")
    convention = sec.take_str(
        "convention", "gain_weighted", choices=("gain_weighted", "mmse")
    )
    if has_conv and ctype != "rayleigh":
        raise ConfigurationError("channel.convention", "applies to rayleigh channels only")

    sec.finish()
    return ChannelConfig(type=ctype, cells=cells, h=h, M=M, convention=convention)


def _parse_codec(sec: _Section) -> CodecConfig:
    arch_sec = sec.take_section("arch") or _empty_section("codec.arch")
    hidden = arch_sec.take_int("hidden", 64, minimum=1)
    blocks = arch_sec.take_int("blocks", 2, minimum=1)
    arch_sec.finish()

    rng_raw = sec.take_float_list("snr_db_range")
    if rng_raw is None:
        snr_db_range = (0.0, 12.0)
    else:
        if len(rng_raw) != 2 or not rng_raw[0] < rng_raw[1]:
            raise ConfigurationError(
                sec.child("snr_db_range"), f"expected [lo, hi] with lo < hi, got {list(rng_raw)}"
            )
        snr_db_range = (rng_raw[0], rng_raw[1])

    out = CodecConfig(
        enabled=sec.take_bool("enabled", False),
        C=sec.take_int("C", None, minimum=1),
        k=sec.take_float("k", None),
        hidden=hidden,
        blocks=blocks,
        snr_conditioning=sec.take_bool("snr_conditioning", True),
        snr_to_mu=sec.take_bool("snr_to_mu", False),
        power_norm=sec.take_bool("power_norm", True),
        snr_db_range=snr_db_range,
        params_path=sec.take_str("params_path", None),
    )
    sec.finish()
    if out.C is not None and out.k is not None:
        raise ConfigurationError("codec.C, codec.k", "exactly one of C and k must be given")
    if out.enabled and out.C is None and out.k is None:
        raise ConfigurationError("codec.C, codec.k", "exactly one of C and k must be given")
    if out.k is not None and not 0.0 < out.k <= 1.0:
        raise ConfigurationError("codec.k", f"must lie in (0, 1], got {out.k}")
    if out.params_path is not None and not os.path.isfile(out.params_path):
        raise ConfigurationError("codec.params_path", f"file not found: {out.params_path}")
    return out


def _parse_loss(sec: _Section) -> LossConfig:
    out = LossConfig(
        lam=sec.take_float("lambda", 0.1, minimum=0.0),
        gamma=sec.take_float("gamma", 0.1, minimum=0.0),
    )
    sec.finish()
    return out


def _parse_train(sec: _Section) -> TrainSection:
    out = TrainSection(
        steps=sec.take_int("steps", 2000, minimum=0),
        batch=sec.take_int("batch", 4, minimum=1),
        lr=sec.take_float("lr", 1e-4, exclusive_minimum=0.0),
        momentum=sec.take_float("momentum", 0.0, minimum=0.0),
        eval_every=sec.take_int("eval_every", 100, minimum=1),
        holdout=sec.take_int("holdout", 64, minimum=1),
        snr_db=sec.take_float("snr_db", 5.0),
        common_noise=sec.take_bool("common_noise", False),
    )
    sec.finish()
    if out.momentum >= 1.0:
        raise ConfigurationError("train.momentum", f"must lie in [0, 1), got {out.momentum}")
    return out


def _parse_mode(sec: _Section, T: int) -> ModeConfig:
    out = ModeConfig(
        kind=sec.take_str("kind", "adaptive", choices=("adaptive", "fixed_step", "compare")),
        t_target=sec.take_int("t_target", 200, minimum=1, maximum=T),
    )
    sec.finish()
    return out


def _parse_output(sec: _Section) -> OutputConfig:
    out = OutputConfig(
        csv=sec.take_str("csv", "results.csv"),
        log=sec.take_str("log", "run.log"),
        params=sec.take_str("params", "codec.npz"),
    )
    sec.finish()
    return out


def _parse_sweep(sec: Optional[_Section]) -> Optional[SweepConfig]:
    if sec is None:
        return None
    param = sec.take_str("param", "lambda", choices=("lambda", "gamma", "C"))
    values = sec.take_float_list("values")
    if not values:
        raise ConfigurationError("sweep.values", "must be a nonempty list")
    if param == "C":
        for i, v in enumerate(values):
            if v < 1 or v != int(v):
                raise ConfigurationError(f"sweep.values[{i}]", f"channel counts must be positive integers, got {v!r}")
    else:
        for i, v in enumerate(values):
            if v < 0:
                raise ConfigurationError(f"sweep.values[{i}]", f"must be >= 0, got {v}")
    out = SweepConfig(
        param=param,
        values=values,
        steps=sec.take_int("steps", None, minimum=0),
        trials=sec.take_int("trials", None, minimum=1),
    )
    sec.finish()
    return out


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment description.

    Raises ConfigurationError naming the offending field for unknown
    keys, type mismatches, and invariant violations.  Referenced files
    (source dataset, pretrained codec) must exist at parse time.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError("config", f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigurationError("config", f"top level must be an object, got {type(raw).__name__}")

    top = _Section(raw, "")
    seed = top.take_int("seed", 0, minimum=0)
    schedule = _parse_schedule(top.take_section("schedule") or _empty_section("schedule"))
    source = _parse_source(top.take_section("source") or _empty_section("source"))
    channel_sec = top.take_section("channel")
    if channel_sec is None:
        raise ConfigurationError("channel", "section is required (needs an snr_db or sigma list)")
    channel = _parse_channel(channel_sec)
    codec = _parse_codec(top.take_section("codec") or _empty_section("codec"))
    loss = _parse_loss(top.take_section("loss") or _empty_section("loss"))
    train = _parse_train(top.take_section("train") or _empty_section("train"))
    mode = _parse_mode(top.take_section("mode") or _empty_section("mode"), schedule.T)
    output = _parse_output(top.take_section("output") or _empty_section("output"))
    sweep = _parse_sweep(top.take_section("sweep"))
    top.finish()

    cfg = ExperimentConfig(
        seed=seed, schedule=schedule, source=source, channel=channel, codec=codec,
        loss=loss, train=train, mode=mode, output=output, sweep=sweep,
    )
    _cross_validate(cfg)
    return cfg


def _cross_validate(cfg: ExperimentConfig):
    n = cfg.source.n
    if cfg.codec.enabled:
        if cfg.channel.type == "mimo":
            raise ConfigurationError(
                "codec.enabled, channel.type",
                "codec transmission over mimo is not supported; use awgn or rayleigh",
            )
        k = cfg.codec_k()
        m = compressed_length(n, k)
        if m < 1:
            raise ConfigurationError("codec.k", f"compressed length rounds to {m} for n={n}")
    else:
        if n % 2 != 0:
            raise ConfigurationError(
                "source.shape", f"total elements must be even for complex transmission, got {n}"
            )
        if cfg.channel.type == "mimo" and (n // 2) % cfg.channel.M != 0:
            raise ConfigurationError(
                "channel.M", f"{n // 2} complex symbols do not split into {cfg.channel.M} streams"
            )


# ---------------------------------------------------------------------------
# resolved copy


def _nominal_step_u(schedule: Schedule, sigma2: float) -> Optional[int]:
    """Step a cell's nominal variance maps to, or None past the schedule's
    last step.  A saturating cell can still run: a fixed Rayleigh fade maps
    every trial at ``sigma2 * |h|^2``."""
    try:
        return sigma2_to_step(schedule, sigma2).step_u
    except SaturationError:
        return None


def resolved_config(cfg: ExperimentConfig) -> dict:
    """Plain-dict view of the config with defaults and derived values filled."""
    sch = build_linear_schedule(cfg.schedule.T, cfg.schedule.beta_start, cfg.schedule.beta_end)

    cells = []
    for cell in cfg.channel.cells:
        entry: dict[str, Any] = {"snr_db": cell.snr_db, "sigma2": cell.sigma2}
        entry["step_u"] = _nominal_step_u(sch, cell.sigma2)
        if entry["step_u"] is None:
            entry["saturates"] = True
        cells.append(entry)

    codec: dict[str, Any] = {
        "enabled": cfg.codec.enabled,
        "C": cfg.codec.C,
        "k": cfg.codec.k,
        "arch": {"hidden": cfg.codec.hidden, "blocks": cfg.codec.blocks},
        "snr_conditioning": cfg.codec.snr_conditioning,
        "snr_to_mu": cfg.codec.snr_to_mu,
        "power_norm": cfg.codec.power_norm,
        "snr_db_range": list(cfg.codec.snr_db_range),
        "params_path": cfg.codec.params_path,
    }
    if cfg.codec.enabled:
        k = cfg.codec_k()
        codec["k"] = k
        codec["compressed_length"] = compressed_length(cfg.source.n, k)

    mode: dict[str, Any] = {"kind": cfg.mode.kind, "t_target": cfg.mode.t_target}
    if cfg.mode.kind in ("fixed_step", "compare"):
        t_sigma2 = step_to_sigma2(sch, cfg.mode.t_target)
        mode["t_target_sigma2"] = t_sigma2
        mode["t_target_snr_db"] = -10.0 * math.log10(t_sigma2)

    return {
        "seed": cfg.seed,
        "schedule": {
            "T": cfg.schedule.T,
            "beta_start": cfg.schedule.beta_start,
            "beta_end": cfg.schedule.beta_end,
            "max_sigma2": sch.max_sigma2,
        },
        "source": {
            "kind": cfg.source.kind,
            "m": cfg.source.m,
            "v": cfg.source.v,
            "shape": list(cfg.source.shape),
            "count": cfg.source.count,
            "path": cfg.source.path,
        },
        "channel": {
            "type": cfg.channel.type,
            "cells": cells,
            "h": None if cfg.channel.h is None else [cfg.channel.h.real, cfg.channel.h.imag],
            "M": cfg.channel.M,
            "convention": cfg.channel.convention,
        },
        "codec": codec,
        "loss": {"lambda": cfg.loss.lam, "gamma": cfg.loss.gamma},
        "train": {
            "steps": cfg.train.steps,
            "batch": cfg.train.batch,
            "lr": cfg.train.lr,
            "momentum": cfg.train.momentum,
            "eval_every": cfg.train.eval_every,
            "holdout": cfg.train.holdout,
            "snr_db": cfg.train.snr_db,
            "common_noise": cfg.train.common_noise,
        },
        "mode": mode,
        "output": {"csv": cfg.output.csv, "log": cfg.output.log, "params": cfg.output.params},
        "sweep": None if cfg.sweep is None else {
            "param": cfg.sweep.param,
            "values": list(cfg.sweep.values),
            "steps": cfg.sweep.steps,
            "trials": cfg.sweep.trials,
        },
    }
