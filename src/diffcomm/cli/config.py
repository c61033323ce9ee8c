"""Experiment configuration: JSON schema, validation, resolved copies.

A run is described by one JSON document.  Every key is optional except
``channel`` (a run needs at least a noise grid), and defaults follow the
reference operating point: 1000-step linear schedule, unit Gaussian
source of shape 8x8x4, loss weights 0.1/0.1, batch 4 at learning rate
1e-4.  Unknown keys anywhere, type mismatches, and invariant violations
are rejected with the dotted path of the offending field.

The section dataclasses are the schema.  ``channel``, ``loss``,
``train`` and ``codec`` are the library's ``Channel``, ``LossWeights``,
``TrainConfig`` and ``CodecArch`` (all but ``loss`` with the config's own
fields added: the channel's noise grid), and ``schedule`` holds the
``Schedule`` it builds at parse time; those types state their defaults
and bounds, and ``_take_fields`` re-raises their ``ConfigurationError``
at the JSON path.  The other sections' fields state their defaults and,
through ``_field``, their bounds.
``_take_fields`` parses a section, reading each field by
``_Section.take`` with the kind its type names, and ``_plain`` writes
one back out; ``_KEYS`` holds the JSON keys
that differ from the attribute name.  Only the keys with a structure of
their own (``source.shape``, the channel's noise grid and fade ``h``,
``codec.arch``, ``codec.snr_db_range``, ``sweep.values``) and the checks
that span fields are written out by hand.

``resolved_config`` renders the parsed config back to a plain dict with
all defaults and derived quantities filled in (per-cell noise variances
and diffusion steps, the compression fraction implied by a channel
count, the fixed-step mode's equivalent SNR).  Runners write it next to
their outputs so any result file can be replayed.
"""

import inspect
import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import Any, Optional, Sequence, get_args, get_type_hints

from ..channels import stream_sigma2
from ..codec import CodecArch, compressed_length, k_from_channel_count
from ..errors import CompensationInfeasibleError, ConfigurationError, SaturationError
from ..loss import LossWeights, TrainConfig
from ..pipeline import Channel, start_step
from ..schedule import Schedule, build_linear_schedule, sigma2_to_step, step_to_sigma2

__all__ = [
    "Cell",
    "ChannelConfig",
    "CodecConfig",
    "ExperimentConfig",
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

# how a type error names each scalar kind
_KIND_WORDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


class _Section:
    """One nested object of the config with path-aware typed accessors."""

    def __init__(self, data: dict, path: str):
        self._data = dict(data)
        self._path = path

    def child(self, name: str) -> str:
        return f"{self._path}.{name}" if self._path else name

    def _pop(self, name: str):
        return self._data.pop(name, _MISSING)

    def take_section(self, name: str) -> "_Section":
        """The nested object ``name``; empty when it is missing or null."""
        raw = self._pop(name)
        if raw is _MISSING or raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigurationError(self.child(name), f"expected an object, got {type(raw).__name__}")
        return _Section(raw, self.child(name))

    def take(self, name: str, default, kind: type, minimum=None, exclusive_minimum=None,
             choices: Optional[Sequence[str]] = None):
        """``name`` checked to be a ``kind`` within the bounds given, or
        ``default`` when it is missing."""
        raw = self._pop(name)
        if raw is _MISSING:
            return default
        if kind is float:
            raw = self._as_float(self.child(name), raw)
        elif not isinstance(raw, kind) or (isinstance(raw, bool) and kind is not bool):
            raise ConfigurationError(
                self.child(name), f"expected {_KIND_WORDS[kind]}, got {type(raw).__name__}"
            )
        if minimum is not None and raw < minimum:
            raise ConfigurationError(self.child(name), f"must be >= {minimum}, got {raw}")
        if exclusive_minimum is not None and raw <= exclusive_minimum:
            raise ConfigurationError(self.child(name), f"must be > {exclusive_minimum}, got {raw}")
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
            raise ConfigurationError(path, f"expected {_KIND_WORDS[float]}, got {type(raw).__name__}")
        val = float(raw)
        if not math.isfinite(val):
            raise ConfigurationError(path, f"must be finite, got {val!r}")
        return val

    def has(self, name: str) -> bool:
        """Whether ``name`` is given with a value other than null."""
        return self._data.get(name) is not None

    def finish(self):
        if self._data:
            name = sorted(self._data)[0]
            raise ConfigurationError(self.child(name), "unknown key")


# ---------------------------------------------------------------------------
# section dataclasses: the schema


def _field(default, **bounds):
    """A config field: its default and the keyword bounds ``_Section.take``
    enforces (``minimum``, ``exclusive_minimum``, ``choices``)."""
    return field(default=default, metadata={"bounds": bounds})


# JSON keys that differ from the attribute name
_KEYS = {"lam": "lambda"}

# ScheduleConfig's defaults are build_linear_schedule's
_LINEAR = inspect.signature(build_linear_schedule).parameters


@dataclass(frozen=True)
class ScheduleConfig:
    """``build_linear_schedule``'s arguments and ``built``, the one
    ``Schedule`` a run uses, built (and so checked) at construction."""

    T: int = _LINEAR["T"].default
    beta_start: float = _LINEAR["beta_start"].default
    beta_end: float = _LINEAR["beta_end"].default
    built: Schedule = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "built", build_linear_schedule(self.T, self.beta_start, self.beta_end))


@dataclass(frozen=True)
class SourceConfig:
    kind: str = _field("gaussian", choices=("gaussian", "file"))
    m: float = 0.0
    v: float = _field(1.0, exclusive_minimum=0.0)
    shape: tuple[int, int, int] = (8, 8, 4)
    count: int = _field(8, minimum=1)
    path: Optional[str] = None

    @property
    def n(self) -> int:
        w, h, c = self.shape
        return w * h * c


@dataclass(frozen=True)
class Cell:
    """One simulation grid cell: an SNR label, its noise variance and the
    step its adaptive route maps to (``_cell_step_u``)."""

    snr_db: float
    sigma2: float
    step_u: Optional[int] = None


@dataclass(frozen=True)
class ChannelConfig(Channel):
    """The library's ``Channel`` and the noise grid of its cells."""

    cells: tuple[Cell, ...] = ()


@dataclass(frozen=True)
class CodecConfig(CodecArch):
    """The codec's arch (``hidden`` and ``blocks`` are read from
    ``codec.arch``), whether it runs, its compression and stored weights."""

    enabled: bool = False
    C: Optional[int] = _field(None, minimum=1)
    k: Optional[float] = None
    params_path: Optional[str] = None


@dataclass(frozen=True)
class TrainSection(TrainConfig):
    """The trainer's settings and the SNR it trains at."""

    snr_db: float = 5.0

    def __post_init__(self):
        super().__post_init__()
        if not (math.isfinite(self.sigma2) and self.sigma2 > 0.0):
            raise ConfigurationError(
                "snr_db", f"noise variance must be finite and > 0, got {self.sigma2!r}"
            )

    @property
    def sigma2(self) -> float:
        """Noise variance of the training channel at ``snr_db``."""
        return _db_to_sigma2(self.snr_db)


@dataclass(frozen=True)
class ModeConfig:
    kind: str = _field("adaptive", choices=("adaptive", "fixed_step", "compare"))
    t_target: int = _field(200, minimum=1)


@dataclass(frozen=True)
class OutputConfig:
    csv: str = "results.csv"
    log: str = "run.log"
    params: str = "codec.npz"


@dataclass(frozen=True)
class SweepConfig:
    param: str = _field("lambda", choices=("lambda", "gamma", "C"))
    values: tuple[float, ...] = ()
    steps: Optional[int] = _field(None, minimum=0)
    trials: Optional[int] = _field(None, minimum=1)


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    schedule: ScheduleConfig
    source: SourceConfig
    channel: ChannelConfig
    codec: CodecConfig
    loss: LossWeights
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

def _key(name: str) -> str:
    return _KEYS.get(name, name)


def _take_fields(cls, sec: _Section, **given):
    """A ``cls`` read from ``sec``: ``given`` values as they are, every
    other constructor field by ``_Section.take`` with its key, default,
    bounds and the kind its type names (``X`` for ``Optional[X]``).  Keys
    left over are rejected; a ConfigurationError from ``cls`` is raised
    again at the JSON path of the field it names."""
    # typing.get_type_hints, because the library modules postpone annotations
    hints = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        if f.init and f.name not in given:
            kind = next(t for t in (hints[f.name], *get_args(hints[f.name])) if t in _KIND_WORDS)
            values[f.name] = sec.take(_key(f.name), f.default, kind, **f.metadata.get("bounds", {}))
    sec.finish()
    try:
        return cls(**values, **given)
    except ConfigurationError as exc:
        raise ConfigurationError(sec.child(_key(exc.field)), exc.message) from None


def _parse_shape(sec: _Section) -> tuple[int, int, int]:
    raw = sec.take_float_list("shape")
    if raw is None:
        return SourceConfig.shape
    if len(raw) != 3:
        raise ConfigurationError(sec.child("shape"), f"expected 3 entries (w, h, c), got {len(raw)}")
    dims = []
    for i, v in enumerate(raw):
        if v < 1 or v != int(v):
            raise ConfigurationError(f"{sec.child('shape')}[{i}]", f"must be a positive integer, got {v!r}")
        dims.append(int(v))
    return tuple(dims)


def _parse_source(sec: _Section) -> SourceConfig:
    out = _take_fields(SourceConfig, sec, shape=_parse_shape(sec))
    if out.kind == "file":
        if out.path is None:
            raise ConfigurationError("source.path", "required when source.kind is 'file'")
        if not os.path.isfile(out.path):
            raise ConfigurationError("source.path", f"file not found: {out.path}")
    elif out.path is not None:
        raise ConfigurationError("source.path", "only valid when source.kind is 'file'")
    return out


def _db_to_sigma2(snr_db: float) -> float:
    """``10^(-snr_db / 10)``, the noise variance at ``snr_db`` dB, or
    ``inf`` where that overflows."""
    try:
        return 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        return math.inf


def _parse_cells(sec: _Section) -> tuple[Cell, ...]:
    snr_db = sec.take_float_list("snr_db")
    sigma = sec.take_float_list("sigma")
    if (snr_db is None) == (sigma is None):
        raise ConfigurationError(
            "channel.snr_db, channel.sigma", "exactly one of snr_db and sigma must be given"
        )
    key = sec.child("snr_db" if sigma is None else "sigma")
    if not (snr_db or sigma):
        raise ConfigurationError(key, "must be nonempty")
    cells = []
    for i, v in enumerate(snr_db or sigma):
        if snr_db is not None:
            cell = Cell(snr_db=v, sigma2=_db_to_sigma2(v))
        elif v < 0:
            raise ConfigurationError(f"{key}[{i}]", f"must be >= 0, got {v}")
        else:
            sigma2 = v * v  # 0 for a noiseless cell, also where it underflows
            cell = Cell(snr_db=math.inf if sigma2 == 0 else -10.0 * math.log10(sigma2), sigma2=sigma2)
        if not math.isfinite(cell.sigma2):
            raise ConfigurationError(f"{key}[{i}]", f"noise variance overflows to inf, got {v}")
        cells.append(cell)
    return tuple(cells)


def _cell_step_u(sch: Schedule, ch: ChannelConfig, sigma2: float) -> Optional[int]:
    """The step a cell's trials map to: for a pinned fade, ``start_step``
    of its streams' mapped variance, as the trials take it; else that of
    the nominal variance, None past the schedule's last."""
    if ch.h is not None:
        return start_step(sch, stream_sigma2(ch.h, math.sqrt(sigma2), ch.convention)[1]).step_u
    return sigma2_to_step(sch, sigma2).step_u if sigma2 <= sch.max_sigma2 else None


def _parse_channel(sec: _Section, sch: Schedule) -> ChannelConfig:
    cells = _parse_cells(sec)
    h = sec.take_float_list("h")
    if h is not None and len(h) != 2:
        raise ConfigurationError("channel.h", f"expected [re, im], got {len(h)} entries")
    has_M, has_convention = sec.has("M"), sec.has("convention")
    out = _take_fields(ChannelConfig, sec, cells=cells, h=None if h is None else complex(*h))
    if has_M and out.type != "mimo":
        raise ConfigurationError("channel.M", "antenna count applies to mimo channels only")
    if has_convention and out.type != "rayleigh":
        raise ConfigurationError("channel.convention", "applies to rayleigh channels only")
    return replace(out, cells=tuple(replace(c, step_u=_cell_step_u(sch, out, c.sigma2)) for c in cells))


def _parse_codec(sec: _Section) -> CodecConfig:
    arch_sec = sec.take_section("arch")
    arch = {name: arch_sec.take(name, getattr(CodecArch, name), int) for name in ("hidden", "blocks")}
    arch_sec.finish()

    snr_db_range = sec.take_float_list("snr_db_range")
    if snr_db_range is None:
        snr_db_range = CodecConfig.snr_db_range
    elif len(snr_db_range) != 2:
        raise ConfigurationError(
            sec.child("snr_db_range"), f"expected [lo, hi], got {len(snr_db_range)} entries"
        )

    out = _take_fields(CodecConfig, sec, snr_db_range=snr_db_range, **arch)
    both = out.C is not None and out.k is not None
    if both or (out.enabled and out.C is None and out.k is None):
        raise ConfigurationError("codec.C, codec.k", "exactly one of C and k must be given")
    if out.params_path is not None and not os.path.isfile(out.params_path):
        raise ConfigurationError("codec.params_path", f"file not found: {out.params_path}")
    return out


def _parse_mode(sec: _Section, T: int) -> ModeConfig:
    # fixed_step and compare run the chain from t_target, default or not;
    # adaptive ignores it, so only a given value is held to the schedule
    given_t_target = sec.has("t_target")
    out = _take_fields(ModeConfig, sec)
    if (given_t_target or out.kind != "adaptive") and out.t_target > T:
        raise ConfigurationError("mode.t_target", f"must be <= {T}, got {out.t_target}")
    return out


def _parse_sweep(sec: _Section) -> SweepConfig:
    out = _take_fields(SweepConfig, sec, values=sec.take_float_list("values") or ())
    if not out.values:
        raise ConfigurationError("sweep.values", "must be a nonempty list")
    for i, v in enumerate(out.values):
        if out.param == "C" and (v < 1 or v != int(v)):
            raise ConfigurationError(f"sweep.values[{i}]", f"channel counts must be positive integers, got {v!r}")
        if out.param != "C" and v < 0:
            raise ConfigurationError(f"sweep.values[{i}]", f"must be >= 0, got {v}")
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
    seed = top.take("seed", 0, int, minimum=0)
    schedule = _take_fields(ScheduleConfig, top.take_section("schedule"))
    source = _parse_source(top.take_section("source"))
    if not top.has("channel"):
        raise ConfigurationError("channel", "section is required (needs an snr_db or sigma list)")
    channel_sec = top.take_section("channel")
    cells_key = channel_sec.child("sigma" if channel_sec.has("sigma") else "snr_db")
    channel = _parse_channel(channel_sec, schedule.built)
    codec = _parse_codec(top.take_section("codec"))
    loss = _take_fields(LossWeights, top.take_section("loss"))
    train = _take_fields(TrainSection, top.take_section("train"))
    mode = _parse_mode(top.take_section("mode"), schedule.T)
    output = _take_fields(OutputConfig, top.take_section("output"))
    has_sweep = top.has("sweep")
    sweep_sec = top.take_section("sweep")  # taken even when null, so finish() accepts it
    sweep = _parse_sweep(sweep_sec) if has_sweep else None
    top.finish()

    cfg = ExperimentConfig(
        seed=seed, schedule=schedule, source=source, channel=channel, codec=codec,
        loss=loss, train=train, mode=mode, output=output, sweep=sweep,
    )
    _cross_validate(cfg, cells_key)
    return cfg


def _check_compression(path: str, n: int, C: Optional[int], k: Optional[float]):
    """Fail at ``path`` unless channel count ``C`` (or, when it is None,
    fraction ``k``) leaves 1 to ``n`` transmit symbols of an ``n``-element latent."""
    try:
        compressed_length(n, k if C is None else k_from_channel_count(C, n))
    except ConfigurationError as exc:
        raise ConfigurationError(path, exc.message) from None


def _cross_validate(cfg: ExperimentConfig, cells_key: str):
    n = cfg.source.n
    if cfg.codec.enabled and cfg.channel.type == "mimo":
        raise ConfigurationError(
            "codec.enabled, channel.type",
            "codec transmission over mimo is not supported; use awgn or rayleigh",
        )
    if cfg.codec.enabled and cfg.codec.snr_conditioning:
        for i, cell in enumerate(cfg.channel.cells):
            if cell.sigma2 == 0.0 or math.isinf(1.0 / cell.sigma2):  # the codec's SNR is 1 / sigma2
                raise ConfigurationError(
                    f"{cells_key}[{i}]",
                    "a noiseless cell has no finite SNR to condition the codec on; "
                    "drop the cell or set codec.snr_conditioning to false",
                )
    C, k = cfg.codec.C, cfg.codec.k
    if C is not None or k is not None:
        _check_compression("codec.k" if C is None else "codec.C", n, C, k)
    if cfg.sweep is not None and cfg.sweep.param == "C":
        for i, v in enumerate(cfg.sweep.values):
            _check_compression(f"sweep.values[{i}]", n, int(v), None)
    if not cfg.codec.enabled:
        if n % 2 != 0:
            raise ConfigurationError(
                "source.shape", f"total elements must be even for complex transmission, got {n}"
            )
        if cfg.channel.type == "mimo" and (n // 2) % cfg.channel.M != 0:
            raise ConfigurationError(
                "channel.M", f"{n // 2} complex symbols do not split into {cfg.channel.M} streams"
            )
    # The variance an AWGN stream (h = 1) or a pinned fade's carries is
    # known before any draw (stream_sigma2).  A compensating mode bounds it
    # by compensation_variance's limit; an adaptive AWGN cell maps at its
    # variance, which the schedule's last step bounds.  An adaptive fade,
    # even a pinned one, is left to the run, which clips it.
    ch = cfg.channel
    adaptive = cfg.mode.kind == "adaptive"
    if not (ch.type == "awgn" or (ch.h is not None and not adaptive)):
        return
    sch = cfg.schedule.built
    t = cfg.mode.t_target
    bound = sch.max_sigma2 if adaptive else step_to_sigma2(sch, t)
    for i, cell in enumerate(ch.cells):
        carried = stream_sigma2(1.0 if ch.h is None else ch.h, math.sqrt(cell.sigma2))[0]
        if carried > bound:
            if adaptive:
                exc = SaturationError(carried, bound)
            else:
                exc = CompensationInfeasibleError(carried, bound, t)
            raise ConfigurationError(f"{cells_key}[{i}]", str(exc))


# ---------------------------------------------------------------------------
# resolved copy


def _plain(section) -> dict[str, Any]:
    """``section``'s constructor fields under their JSON keys, tuples as lists."""
    out = {}
    for f in fields(section):
        if f.init:
            value = getattr(section, f.name)
            out[_key(f.name)] = list(value) if isinstance(value, tuple) else value
    return out


def resolved_config(cfg: ExperimentConfig) -> dict:
    """Plain-dict view of the config with defaults and derived values filled
    (strict JSON: a noiseless cell's infinite ``snr_db`` reads None)."""
    sch = cfg.schedule.built

    channel = _plain(cfg.channel)
    channel["cells"] = []
    for cell in cfg.channel.cells:
        entry = _plain(cell)
        if math.isinf(cell.snr_db):
            entry["snr_db"] = None
        if entry["step_u"] is None:
            entry["saturates"] = True
        channel["cells"].append(entry)
    if cfg.channel.h is not None:
        channel["h"] = [cfg.channel.h.real, cfg.channel.h.imag]

    codec = _plain(cfg.codec)
    codec["arch"] = {"hidden": codec.pop("hidden"), "blocks": codec.pop("blocks")}
    if cfg.codec.enabled:
        codec["k"] = cfg.codec_k()
        codec["compressed_length"] = compressed_length(cfg.source.n, codec["k"])

    mode = _plain(cfg.mode)
    if cfg.mode.kind in ("fixed_step", "compare"):
        mode["t_target_sigma2"] = step_to_sigma2(sch, cfg.mode.t_target)
        mode["t_target_snr_db"] = -10.0 * math.log10(mode["t_target_sigma2"])

    return {
        "seed": cfg.seed,
        "schedule": {**_plain(cfg.schedule), "max_sigma2": sch.max_sigma2},
        "source": _plain(cfg.source),
        "channel": channel,
        "codec": codec,
        "loss": _plain(cfg.loss),
        "train": _plain(cfg.train),
        "mode": mode,
        "output": _plain(cfg.output),
        "sweep": None if cfg.sweep is None else _plain(cfg.sweep),
    }
