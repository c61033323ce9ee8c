"""Experiment configuration: JSON schema, validation, resolved copies.

A run is described by one JSON document.  Every key is optional except
``channel`` (a run needs at least a noise grid), and defaults follow the
reference operating point: 1000-step linear schedule, unit Gaussian
source of shape 8x8x4, loss weights 0.1/0.1, batch 4 at learning rate
1e-4.  Unknown keys anywhere, type mismatches, and invariant violations
are rejected with the dotted path of the offending field.

The section dataclasses are the schema.  Each field states its default
and, through ``_field``, its JSON key where that differs from the
attribute name (``LossConfig.lam`` is ``"lambda"``) and the bounds its
reader enforces; the reader itself follows from the field's annotation.
``_take_fields`` parses a section from those fields and ``_plain``
writes one back out.  Only the keys with a structure of their own
(``source.shape``, the channel's noise grid and fade ``h``,
``codec.arch``, ``codec.snr_db_range``, ``sweep.values``) and the checks
that span fields are written out by hand.

``resolved_config`` renders the parsed config back to a plain dict with
all defaults and derived quantities filled in (per-cell noise variances
and diffusion steps, the compression fraction implied by a channel
count, the fixed-step mode's equivalent SNR).  Runners write it next to
their outputs so any result file can be replayed.
"""

import json
import math
import os
from dataclasses import dataclass, field, fields
from typing import Any, Optional, Sequence

from ..codec import compressed_length, k_from_channel_count
from ..errors import CompensationInfeasibleError, ConfigurationError, SaturationError
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

    def take_section(self, name: str) -> "_Section":
        """The nested object ``name``; empty when it is missing or null."""
        raw = self._pop(name)
        if raw is _MISSING or raw is None:
            raw = {}
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

    def take_int(self, name: str, default, minimum: Optional[int] = None):
        raw = self._pop(name)
        if raw is _MISSING:
            return default
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise ConfigurationError(self.child(name), f"expected an integer, got {type(raw).__name__}")
        if minimum is not None and raw < minimum:
            raise ConfigurationError(self.child(name), f"must be >= {minimum}, got {raw}")
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
        """Whether ``name`` is given with a value other than null."""
        return self._data.get(name) is not None

    def finish(self):
        if self._data:
            name = sorted(self._data)[0]
            raise ConfigurationError(self.child(name), "unknown key")


# ---------------------------------------------------------------------------
# section dataclasses: the schema


def _field(default, key: Optional[str] = None, **bounds):
    """A config field: its default, its JSON key when that differs from the
    attribute name, and the keyword bounds its ``_Section.take_*`` reader
    enforces (``minimum``, ``exclusive_minimum``, ``choices``)."""
    return field(default=default, metadata={"key": key, "bounds": bounds})


@dataclass(frozen=True)
class ScheduleConfig:
    T: int = _field(1000, minimum=1)
    beta_start: float = _field(1e-4, exclusive_minimum=0.0)
    beta_end: float = _field(0.02, exclusive_minimum=0.0)


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
    """One simulation grid cell: an SNR label and its noise variance."""

    snr_db: float
    sigma2: float


@dataclass(frozen=True)
class ChannelConfig:
    type: str = _field("awgn", choices=("awgn", "rayleigh", "mimo"))
    cells: tuple[Cell, ...] = ()
    h: Optional[complex] = None
    M: int = _field(2, minimum=1)
    convention: str = _field("gain_weighted", choices=("gain_weighted", "mmse"))


@dataclass(frozen=True)
class CodecConfig:
    enabled: bool = False
    C: Optional[int] = _field(None, minimum=1)
    k: Optional[float] = None
    hidden: int = _field(64, minimum=1)  # read from codec.arch
    blocks: int = _field(2, minimum=1)  # read from codec.arch
    snr_conditioning: bool = True
    snr_to_mu: bool = False
    power_norm: bool = True
    snr_db_range: tuple[float, float] = (0.0, 12.0)
    params_path: Optional[str] = None


@dataclass(frozen=True)
class LossConfig:
    lam: float = _field(0.1, key="lambda", minimum=0.0)
    gamma: float = _field(0.1, minimum=0.0)


@dataclass(frozen=True)
class TrainSection:
    steps: int = _field(2000, minimum=0)
    batch: int = _field(4, minimum=1)
    lr: float = _field(1e-4, exclusive_minimum=0.0)
    momentum: float = _field(0.0, minimum=0.0)
    eval_every: int = _field(100, minimum=1)
    holdout: int = _field(64, minimum=1)
    snr_db: float = 5.0
    common_noise: bool = False

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

# the reader for each field annotation _take accepts; annotations are
# evaluated types because this module does not postpone them
_READERS = {
    int: _Section.take_int, Optional[int]: _Section.take_int,
    float: _Section.take_float, Optional[float]: _Section.take_float,
    str: _Section.take_str, Optional[str]: _Section.take_str,
    bool: _Section.take_bool,
}


def _key(f) -> str:
    return f.metadata.get("key") or f.name


def _take(sec: _Section, f):
    """Field ``f`` from ``sec``: the reader for its type, with its key, default and bounds."""
    return _READERS[f.type](sec, _key(f), f.default, **f.metadata.get("bounds", {}))


def _take_fields(cls, sec: _Section, **given):
    """A ``cls`` read from ``sec``: ``given`` values as they are, every
    other field through ``_take``.  Keys left over are rejected."""
    values = {f.name: _take(sec, f) for f in fields(cls) if f.name not in given}
    sec.finish()
    return cls(**values, **given)


def _parse_schedule(sec: _Section) -> ScheduleConfig:
    out = _take_fields(ScheduleConfig, sec)
    if not out.beta_start <= out.beta_end < 1.0:
        raise ConfigurationError(
            "schedule.beta_start, schedule.beta_end",
            f"need beta_start <= beta_end < 1, got ({out.beta_start}, {out.beta_end})",
        )
    return out


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


def _parse_channel(sec: _Section) -> ChannelConfig:
    cells = _parse_cells(sec)
    h = None
    h_raw = sec.take_float_list("h")
    if h_raw is not None:
        if len(h_raw) != 2:
            raise ConfigurationError("channel.h", f"expected [re, im], got {len(h_raw)} entries")
        h = complex(h_raw[0], h_raw[1])
        if h == 0:
            raise ConfigurationError("channel.h", "fade coefficient must be nonzero")
        if h.real * h.real + h.imag * h.imag == 0.0:  # |h|^2 as the channel computes it
            raise ConfigurationError("channel.h", f"|h|^2 of {h!r} underflows to zero")
    has_M, has_convention = sec.has("M"), sec.has("convention")
    out = _take_fields(ChannelConfig, sec, cells=cells, h=h)
    if h is not None and out.type != "rayleigh":
        raise ConfigurationError("channel.h", "fixed fade applies to rayleigh channels only")
    if has_M and out.type != "mimo":
        raise ConfigurationError("channel.M", "antenna count applies to mimo channels only")
    if has_convention and out.type != "rayleigh":
        raise ConfigurationError("channel.convention", "applies to rayleigh channels only")
    return out


def _parse_codec(sec: _Section) -> CodecConfig:
    arch_sec = sec.take_section("arch")
    arch = {f.name: _take(arch_sec, f)
            for f in fields(CodecConfig) if f.name in ("hidden", "blocks")}
    arch_sec.finish()

    snr_db_range = sec.take_float_list("snr_db_range")
    if snr_db_range is None:
        snr_db_range = CodecConfig.snr_db_range
    elif len(snr_db_range) != 2 or not snr_db_range[0] < snr_db_range[1]:
        raise ConfigurationError(
            sec.child("snr_db_range"), f"expected [lo, hi] with lo < hi, got {list(snr_db_range)}"
        )

    out = _take_fields(CodecConfig, sec, snr_db_range=snr_db_range, **arch)
    both = out.C is not None and out.k is not None
    if both or (out.enabled and out.C is None and out.k is None):
        raise ConfigurationError("codec.C, codec.k", "exactly one of C and k must be given")
    if out.params_path is not None and not os.path.isfile(out.params_path):
        raise ConfigurationError("codec.params_path", f"file not found: {out.params_path}")
    return out


def _parse_train(sec: _Section) -> TrainSection:
    out = _take_fields(TrainSection, sec)
    if out.momentum >= 1.0:
        raise ConfigurationError("train.momentum", f"must lie in [0, 1), got {out.momentum}")
    if not (math.isfinite(out.sigma2) and out.sigma2 > 0.0):
        raise ConfigurationError(
            "train.snr_db", f"noise variance must be finite and > 0, got {out.sigma2!r}"
        )
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
    seed = top.take_int("seed", 0, minimum=0)
    schedule = _parse_schedule(top.take_section("schedule"))
    source = _parse_source(top.take_section("source"))
    if not top.has("channel"):
        raise ConfigurationError("channel", "section is required (needs an snr_db or sigma list)")
    channel_sec = top.take_section("channel")
    cells_key = channel_sec.child("sigma" if channel_sec.has("sigma") else "snr_db")
    channel = _parse_channel(channel_sec)
    codec = _parse_codec(top.take_section("codec"))
    loss = _take_fields(LossConfig, top.take_section("loss"))
    train = _parse_train(top.take_section("train"))
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
    # An AWGN stream carries its cell's variance and a Rayleigh stream with a
    # pinned fade sigma^2 / |h|^2, under either convention, known before any
    # draw; check them in the run's own arithmetic (it squares sqrt(sigma^2)
    # again and divides by this |h|^2).  A compensating mode bounds them by
    # compensation_variance's limit; an adaptive AWGN cell maps at its
    # variance, which the schedule's last step bounds.  An adaptive fade,
    # even a pinned one, is left to the run.
    ch = cfg.channel
    pinned = ch.type == "rayleigh" and ch.h is not None
    adaptive = cfg.mode.kind == "adaptive"
    if not (ch.type == "awgn" or (pinned and not adaptive)):
        return
    gain2 = ch.h.real * ch.h.real + ch.h.imag * ch.h.imag if pinned else 1.0
    sch = build_linear_schedule(cfg.schedule.T, cfg.schedule.beta_start, cfg.schedule.beta_end)
    t = cfg.mode.t_target
    bound = sch.max_sigma2 if adaptive else step_to_sigma2(sch, t)
    for i, cell in enumerate(ch.cells):
        sigma = math.sqrt(cell.sigma2)
        carried = sigma * sigma / gain2  # may overflow to inf
        if carried > bound:
            if adaptive:
                exc = SaturationError(carried, bound)
            else:
                exc = CompensationInfeasibleError(carried, bound, t)
            raise ConfigurationError(f"{cells_key}[{i}]", str(exc))


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


def _plain(section) -> dict[str, Any]:
    """``section``'s fields under their JSON keys, tuples as lists."""
    out = {}
    for f in fields(section):
        value = getattr(section, f.name)
        out[_key(f)] = list(value) if isinstance(value, tuple) else value
    return out


def resolved_config(cfg: ExperimentConfig) -> dict:
    """Plain-dict view of the config with defaults and derived values filled
    (strict JSON: a noiseless cell's infinite ``snr_db`` reads None)."""
    sch = build_linear_schedule(cfg.schedule.T, cfg.schedule.beta_start, cfg.schedule.beta_end)

    channel = _plain(cfg.channel)
    channel["cells"] = []
    for cell in cfg.channel.cells:
        entry = {**_plain(cell), "step_u": _nominal_step_u(sch, cell.sigma2)}
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
