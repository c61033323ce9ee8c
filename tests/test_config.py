"""The config parser's contract: exact error messages and resolved copies.

Each case in ``FAULTS`` breaks one rule of the schema in an otherwise
valid config and pins the exact ``ConfigurationError`` text, so any
change to how a key is read, bounded or named shows up here.  The
generated cases do the same for every scalar key: each is given a JSON
value of each other kind, and each ``_field`` bound is broken, with the
cases built from the schema's fields, type hints and metadata.  The
resolved-config cases pin ``resolved_config`` for an all-defaults config
and for one that sets every key away from its default.
"""

import dataclasses
import json
import re
import typing
from pathlib import Path

import pytest

from diffcomm import ConfigurationError
from diffcomm.cli import ExperimentConfig, parse_config, resolved_config
from diffcomm.cli.config import _key

README = Path(__file__).resolve().parents[1] / "README.md"

BASE = {"channel": {"snr_db": [3.0]}, "source": {"shape": [2, 2, 2], "count": 2}}


def _build(case) -> str:
    """Config text: ``case`` as is when it is text, else BASE with each
    section of ``case`` merged into (or replacing) BASE's."""
    if isinstance(case, str):
        return case
    cfg = json.loads(json.dumps(BASE))
    for name, section in case.items():
        if isinstance(section, dict) and isinstance(cfg.get(name), dict):
            cfg[name] = {**cfg[name], **section}
        else:
            cfg[name] = section
    return json.dumps(cfg)


FAULTS = [
    ("json", "{nope",
     "config: invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("top-level", "[1, 2]",
     "config: top level must be an object, got list"),
    ("channel-missing", '{"seed": 1}',
     "channel: section is required (needs an snr_db or sigma list)"),
    ("top-unknown", {"frobnicate": {}},
     "frobnicate: unknown key"),
    ("seed-type", {"seed": "x"},
     "seed: expected an integer, got str"),
    ("seed-bound", {"seed": -1},
     "seed: must be >= 0, got -1"),
    ("section-type", {"schedule": 3},
     "schedule: expected an object, got int"),
    ("T-type", {"schedule": {"T": 1.5}},
     "schedule.T: expected an integer, got float"),
    ("T-bound", {"schedule": {"T": 0}},
     "schedule.T: must be an integer >= 1, got 0"),
    ("beta_start-type", {"schedule": {"beta_start": "a"}},
     "schedule.beta_start: expected a number, got str"),
    ("beta_start-bound", {"schedule": {"beta_start": 0}},
     "schedule.beta_start: must lie in (0, 1), got 0.0"),
    ("beta_start-finite", '{"channel": {"snr_db": [3.0]}, "schedule": {"beta_start": Infinity}}',
     "schedule.beta_start: must be finite, got inf"),
    ("beta_end-bound", {"schedule": {"beta_end": -0.5}},
     "schedule.beta_end: must lie in (0, 1), got -0.5"),
    ("beta-order", {"schedule": {"beta_start": 0.03}},
     "schedule.beta_start: must be <= beta_end, got 0.03 > 0.02"),
    ("beta_end-one", {"schedule": {"beta_end": 1.0}},
     "schedule.beta_end: must lie in (0, 1), got 1.0"),
    # the schedule is built at parse time, so one whose alpha-bars underflow
    # or round to 1 fails here, on every channel type
    ("alpha_bars-underflow",
     {"schedule": {"T": 200000, "beta_end": 0.5}, "channel": {"type": "rayleigh", "snr_db": [5]}},
     "schedule.alpha_bars: all values must lie in (0, 1)"),
    ("alpha_bars-one", {"schedule": {"beta_start": 1e-320, "beta_end": 1e-320}},
     "schedule.alpha_bars: all values must lie in (0, 1)"),
    ("schedule-unknown", {"schedule": {"steps": 10}},
     "schedule.steps: unknown key"),
    ("kind-choice", {"source": {"kind": "image"}},
     "source.kind: must be one of ['file', 'gaussian'], got 'image'"),
    ("kind-type", {"source": {"kind": 3}},
     "source.kind: expected a string, got int"),
    ("m-type", {"source": {"m": "a"}},
     "source.m: expected a number, got str"),
    ("m-bool", {"source": {"m": True}},
     "source.m: expected a number, got bool"),
    ("v-bound", {"source": {"v": 0}},
     "source.v: must be > 0.0, got 0.0"),
    ("shape-type", {"source": {"shape": "2x2"}},
     "source.shape: expected a list, got str"),
    ("shape-length", {"source": {"shape": [2, 2]}},
     "source.shape: expected 3 entries (w, h, c), got 2"),
    ("shape-zero", {"source": {"shape": [2, 2, 0]}},
     "source.shape[2]: must be a positive integer, got 0.0"),
    ("shape-fraction", {"source": {"shape": [2, 2, 1.5]}},
     "source.shape[2]: must be a positive integer, got 1.5"),
    ("shape-item-type", {"source": {"shape": [2, "a", 2]}},
     "source.shape[1]: expected a number, got str"),
    ("count-bound", {"source": {"count": 0}},
     "source.count: must be >= 1, got 0"),
    ("path-type", {"source": {"kind": "file", "path": 3}},
     "source.path: expected a string, got int"),
    ("path-scope", {"source": {"path": "x.npz"}},
     "source.path: only valid when source.kind is 'file'"),
    ("path-required", {"source": {"kind": "file"}},
     "source.path: required when source.kind is 'file'"),
    ("path-missing-file", {"source": {"kind": "file", "path": "/nonexistent.npz"}},
     "source.path: file not found: /nonexistent.npz"),
    ("source-unknown", {"source": {"size": 3}},
     "source.size: unknown key"),
    ("shape-odd", {"source": {"shape": [3, 3, 3]}},
     "source.shape: total elements must be even for complex transmission, got 27"),
    ("channel-type", {"channel": 3},
     "channel: expected an object, got int"),
    ("type-choice", {"channel": {"type": "optical"}},
     "channel.type: must be one of ['awgn', 'mimo', 'rayleigh'], got 'optical'"),
    ("type-type", {"channel": {"type": 3}},
     "channel.type: expected a string, got int"),
    ("noise-both", {"channel": {"sigma": [1.0]}},
     "channel.snr_db, channel.sigma: exactly one of snr_db and sigma must be given"),
    ("noise-neither", '{"channel": {"type": "awgn"}}',
     "channel.snr_db, channel.sigma: exactly one of snr_db and sigma must be given"),
    ("snr_db-empty", {"channel": {"snr_db": []}},
     "channel.snr_db: must be nonempty"),
    ("snr_db-type", {"channel": {"snr_db": 3.0}},
     "channel.snr_db: expected a list, got float"),
    ("snr_db-item-type", {"channel": {"snr_db": [3.0, "a"]}},
     "channel.snr_db[1]: expected a number, got str"),
    ("sigma-empty", '{"channel": {"sigma": []}}',
     "channel.sigma: must be nonempty"),
    ("sigma-bound", '{"channel": {"sigma": [0.5, -1.0]}}',
     "channel.sigma[1]: must be >= 0, got -1.0"),
    ("snr_db-overflow", {"channel": {"snr_db": [3.0, -3100]}},
     "channel.snr_db[1]: noise variance overflows to inf, got -3100.0"),
    ("sigma-overflow", '{"channel": {"sigma": [0.5, 1e200]}}',
     "channel.sigma[1]: noise variance overflows to inf, got 1e+200"),
    ("h-scope", {"channel": {"h": [1.0, 0.0]}},
     "channel.h: fixed fade applies to rayleigh channels only"),
    ("h-length", {"channel": {"type": "rayleigh", "h": [1.0, 0.0, 0.0]}},
     "channel.h: expected [re, im], got 3 entries"),
    ("h-zero", {"channel": {"type": "rayleigh", "h": [0.0, 0.0]}},
     "channel.h: fade coefficient must be nonzero"),
    ("h-underflow", {"channel": {"type": "rayleigh", "h": [1e-170, 0.0]}},
     "channel.h: |h|^2 of (1e-170+0j) underflows to zero"),
    ("h-type", {"channel": {"type": "rayleigh", "h": "1+0j"}},
     "channel.h: expected a list, got str"),
    ("M-scope", {"channel": {"M": 2}},
     "channel.M: antenna count applies to mimo channels only"),
    ("M-bound", {"channel": {"type": "mimo", "M": 0}},
     "channel.M: must be >= 1, got 0"),
    ("M-type", {"channel": {"type": "mimo", "M": "two"}},
     "channel.M: expected an integer, got str"),
    ("M-split", {"channel": {"type": "mimo", "M": 4}, "source": {"shape": [3, 3, 2]}},
     "channel.M: 9 complex symbols do not split into 4 streams"),
    ("convention-scope", {"channel": {"convention": "mmse"}},
     "channel.convention: applies to rayleigh channels only"),
    ("convention-choice", {"channel": {"type": "rayleigh", "convention": "zf"}},
     "channel.convention: must be one of ['gain_weighted', 'mmse'], got 'zf'"),
    ("channel-unknown", {"channel": {"bogus": 1}},
     "channel.bogus: unknown key"),
    ("enabled-type", {"codec": {"enabled": 1, "k": 0.5}},
     "codec.enabled: expected a boolean, got int"),
    ("C-type", {"codec": {"C": 1.5}},
     "codec.C: expected an integer, got float"),
    ("C-bound", {"codec": {"C": 0}},
     "codec.C: must be >= 1, got 0"),
    ("k-type", {"codec": {"k": "half"}},
     "codec.k: expected a number, got str"),
    ("k-bound", {"codec": {"enabled": True, "k": 1.5}},
     "codec.k: must lie in (0, 1], got 1.5"),
    ("k-zero", {"codec": {"k": 0.0}},
     "codec.k: must lie in (0, 1], got 0.0"),
    ("C-and-k", {"codec": {"enabled": True, "C": 64, "k": 0.5}},
     "codec.C, codec.k: exactly one of C and k must be given"),
    ("C-or-k", {"codec": {"enabled": True}},
     "codec.C, codec.k: exactly one of C and k must be given"),
    ("arch-type", {"codec": {"arch": 3}},
     "codec.arch: expected an object, got int"),
    ("hidden-bound", {"codec": {"arch": {"hidden": 0}}},
     "codec.arch.hidden: must be >= 1, got 0"),
    ("blocks-bound", {"codec": {"arch": {"blocks": 0}}},
     "codec.arch.blocks: must be >= 1, got 0"),
    ("blocks-type", {"codec": {"arch": {"blocks": 1.0}}},
     "codec.arch.blocks: expected an integer, got float"),
    ("arch-unknown", {"codec": {"arch": {"wat": 3}}},
     "codec.arch.wat: unknown key"),
    ("snr_conditioning-type", {"codec": {"snr_conditioning": "yes"}},
     "codec.snr_conditioning: expected a boolean, got str"),
    ("snr_to_mu-type", {"codec": {"snr_to_mu": 0}},
     "codec.snr_to_mu: expected a boolean, got int"),
    ("power_norm-type", {"codec": {"power_norm": None}},
     "codec.power_norm: expected a boolean, got NoneType"),
    ("snr_db_range-length", {"codec": {"snr_db_range": [1.0]}},
     "codec.snr_db_range: expected [lo, hi], got 1 entries"),
    ("snr_db_range-order", {"codec": {"snr_db_range": [12.0, 0.0]}},
     "codec.snr_db_range: must satisfy lo < hi, got (12.0, 0.0)"),
    ("snr_db_range-type", {"codec": {"snr_db_range": "0..12"}},
     "codec.snr_db_range: expected a list, got str"),
    ("params_path-type", {"codec": {"params_path": 3}},
     "codec.params_path: expected a string, got int"),
    ("params_path-missing-file", {"codec": {"enabled": True, "k": 0.5, "params_path": "/nonexistent.npz"}},
     "codec.params_path: file not found: /nonexistent.npz"),
    ("codec-mimo", {"channel": {"type": "mimo"}, "codec": {"enabled": True, "k": 0.5}},
     "codec.enabled, channel.type: codec transmission over mimo is not supported; use awgn or rayleigh"),
    ("codec-noiseless-cell",
     '{"channel": {"sigma": [0.5, 0.0]}, "codec": {"enabled": true, "k": 0.5}}',
     "channel.sigma[1]: a noiseless cell has no finite SNR to condition the codec on; "
     "drop the cell or set codec.snr_conditioning to false"),
    # 1 / sigma2 overflows to inf: a subnormal sigma2, or an SNR past ~3082 dB
    ("codec-subnormal-sigma2",
     '{"channel": {"sigma": [0.5, 1e-160]}, "codec": {"enabled": true, "k": 0.5}}',
     "channel.sigma[1]: a noiseless cell has no finite SNR to condition the codec on; "
     "drop the cell or set codec.snr_conditioning to false"),
    ("codec-overflowing-snr",
     '{"channel": {"snr_db": [5, 3100]}, "codec": {"enabled": true, "k": 0.5}}',
     "channel.snr_db[1]: a noiseless cell has no finite SNR to condition the codec on; "
     "drop the cell or set codec.snr_conditioning to false"),
    ("codec-unknown", {"codec": {"hidden": 8}},
     "codec.hidden: unknown key"),
    ("lambda-bound", {"loss": {"lambda": -1}},
     "loss.lambda: must be finite and >= 0, got -1.0"),
    ("lambda-type", {"loss": {"lambda": "a"}},
     "loss.lambda: expected a number, got str"),
    ("gamma-bound", {"loss": {"gamma": -0.1}},
     "loss.gamma: must be finite and >= 0, got -0.1"),
    ("loss-attribute-name", {"loss": {"lam": 0.2}},
     "loss.lam: unknown key"),
    ("steps-bound", {"train": {"steps": -1}},
     "train.steps: must be >= 0, got -1"),
    ("batch-bound", {"train": {"batch": 0}},
     "train.batch: must be >= 1, got 0"),
    ("lr-bound", {"train": {"lr": 0}},
     "train.lr: must be finite and > 0, got 0.0"),
    ("momentum-bound", {"train": {"momentum": -0.1}},
     "train.momentum: must lie in [0, 1), got -0.1"),
    ("momentum-one", {"train": {"momentum": 1.0}},
     "train.momentum: must lie in [0, 1), got 1.0"),
    ("eval_every-bound", {"train": {"eval_every": 0}},
     "train.eval_every: must be >= 1, got 0"),
    ("holdout-bound", {"train": {"holdout": 0}},
     "train.holdout: must be >= 1, got 0"),
    ("train-snr_db-type", {"train": {"snr_db": "5"}},
     "train.snr_db: expected a number, got str"),
    ("train-snr_db-overflow", {"train": {"snr_db": -3100}},
     "train.snr_db: noise variance must be finite and > 0, got inf"),
    ("train-snr_db-underflow", {"train": {"snr_db": 3300}},
     "train.snr_db: noise variance must be finite and > 0, got 0.0"),
    ("common_noise-type", {"train": {"common_noise": 1}},
     "train.common_noise: expected a boolean, got int"),
    ("train-unknown", {"train": {"epochs": 3}},
     "train.epochs: unknown key"),
    ("mode-kind-choice", {"mode": {"kind": "oracle"}},
     "mode.kind: must be one of ['adaptive', 'compare', 'fixed_step'], got 'oracle'"),
    ("t_target-bound", {"mode": {"t_target": 0}},
     "mode.t_target: must be >= 1, got 0"),
    ("t_target-past-T", {"mode": {"t_target": 1001}},
     "mode.t_target: must be <= 1000, got 1001"),
    ("t_target-past-short-T", {"schedule": {"T": 100}, "mode": {"t_target": 150}},
     "mode.t_target: must be <= 100, got 150"),
    ("t_target-default-past-short-T", {"schedule": {"T": 100}, "mode": {"kind": "fixed_step"}},
     "mode.t_target: must be <= 100, got 200"),
    ("t_target-infeasible", {"mode": {"kind": "fixed_step", "t_target": 40}},
     "channel.snr_db[0]: cannot compensate to step 40: channel variance 0.501187 "
     "exceeds the step-equivalent variance 0.0197356"),
    ("t_target-infeasible-compare",
     '{"channel": {"sigma": [0.1, 0.5]}, "mode": {"kind": "compare", "t_target": 100}}',
     "channel.sigma[1]: cannot compensate to step 100: channel variance 0.25 "
     "exceeds the step-equivalent variance 0.114805"),
    # a pinned fade carries sigma^2 / |h|^2, known at parse time as for awgn
    ("t_target-infeasible-rayleigh-pinned",
     {"channel": {"type": "rayleigh", "h": [1.0, 0.0], "snr_db": [3.0]},
      "mode": {"kind": "fixed_step", "t_target": 40}},
     "channel.snr_db[0]: cannot compensate to step 40: channel variance 0.501187 "
     "exceeds the step-equivalent variance 0.0197356"),
    # sigma^2 = 0.01 alone fits under step 40; |h|^2 = 0.5 doubles it
    ("t_target-infeasible-rayleigh-fade",
     '{"channel": {"type": "rayleigh", "h": [0.5, 0.5], "sigma": [0.1], "convention": "mmse"},'
     ' "mode": {"kind": "compare", "t_target": 40}}',
     "channel.sigma[0]: cannot compensate to step 40: channel variance 0.02 "
     "exceeds the step-equivalent variance 0.0197356"),
    ("t_target-infeasible-rayleigh-overflow",
     '{"channel": {"type": "rayleigh", "h": [0.01, 0.0], "sigma": [1e154]},'
     ' "mode": {"kind": "fixed_step", "t_target": 40}}',
     "channel.sigma[0]: cannot compensate to step 40: channel variance inf "
     "exceeds the step-equivalent variance 0.0197356"),
    # an adaptive AWGN cell maps at its own variance, which must fit the schedule
    ("adaptive-awgn-saturating", {"channel": {"snr_db": [3.0, -50]}},
     "channel.snr_db[1]: noise variance 100000 exceeds the maximum representable "
     "variance 24777.1 at the final step of the schedule"),
    ("adaptive-awgn-saturating-sigma", '{"channel": {"sigma": [200.0]}}',
     "channel.sigma[0]: noise variance 40000 exceeds the maximum representable "
     "variance 24777.1 at the final step of the schedule"),
    ("adaptive-awgn-saturating-short-T",
     {"schedule": {"T": 100}, "channel": {"snr_db": [6.0, -3.0]}},
     "channel.snr_db[1]: noise variance 1.99526 exceeds the maximum representable "
     "variance 1.75055 at the final step of the schedule"),
    ("t_target-type", {"mode": {"t_target": "200"}},
     "mode.t_target: expected an integer, got str"),
    ("mode-unknown", {"mode": {"target": 200}},
     "mode.target: unknown key"),
    ("csv-type", {"output": {"csv": 3}},
     "output.csv: expected a string, got int"),
    ("log-type", {"output": {"log": False}},
     "output.log: expected a string, got bool"),
    ("params-type", {"output": {"params": ["a"]}},
     "output.params: expected a string, got list"),
    ("output-unknown", {"output": {"dir": "out"}},
     "output.dir: unknown key"),
    ("sweep-type", {"sweep": [1.0]},
     "sweep: expected an object, got list"),
    ("sweep-param-choice", {"sweep": {"param": "lr", "values": [1.0]}},
     "sweep.param: must be one of ['C', 'gamma', 'lambda'], got 'lr'"),
    ("sweep-values-missing", {"sweep": {"param": "gamma"}},
     "sweep.values: must be a nonempty list"),
    ("sweep-values-empty", {"sweep": {"values": []}},
     "sweep.values: must be a nonempty list"),
    ("sweep-values-type", {"sweep": {"values": 1.0}},
     "sweep.values: expected a list, got float"),
    ("sweep-values-bound", {"sweep": {"values": [0.1, -1.0]}},
     "sweep.values[1]: must be >= 0, got -1.0"),
    ("sweep-C-fraction", {"sweep": {"param": "C", "values": [400, 400.5]}},
     "sweep.values[1]: channel counts must be positive integers, got 400.5"),
    ("sweep-C-zero", {"sweep": {"param": "C", "values": [0]}},
     "sweep.values[0]: channel counts must be positive integers, got 0.0"),
    ("sweep-steps-bound", {"sweep": {"values": [1.0], "steps": -1}},
     "sweep.steps: must be >= 0, got -1"),
    ("sweep-trials-bound", {"sweep": {"values": [1.0], "trials": 0}},
     "sweep.trials: must be >= 1, got 0"),
    ("sweep-unknown", {"sweep": {"values": [1.0], "grid": 2}},
     "sweep.grid: unknown key"),
    # a compression setting that does not fit the latent fails at parse time,
    # whether or not the codec is enabled, and names its own path
    ("C-empty", {"codec": {"C": 2}},
     "codec.C: channel count 2 rounds to an empty vector for n=8"),
    ("C-empty-enabled", {"codec": {"enabled": True, "C": 1}},
     "codec.C: channel count 1 rounds to an empty vector for n=8"),
    ("C-too-large", {"codec": {"C": 1000}},
     "codec.C: channel count 1000 exceeds the uncompressed length for n=8"),
    ("k-empty", {"codec": {"k": 0.01}},
     "codec.k: ratio 0.01 rounds to an empty vector for n=8"),
    ("sweep-C-empty", {"sweep": {"param": "C", "values": [1]}},
     "sweep.values[0]: channel count 1 rounds to an empty vector for n=8"),
    ("sweep-C-too-large", {"sweep": {"param": "C", "values": [100, 1000]}},
     "sweep.values[1]: channel count 1000 exceeds the uncompressed length for n=8"),
]


@pytest.mark.parametrize("case, message", [f[1:] for f in FAULTS], ids=[f[0] for f in FAULTS])
def test_single_fault_message(case, message):
    with pytest.raises(ConfigurationError) as info:
        parse_config(_build(case))
    assert str(info.value) == message


# the wording of each scalar kind in a type error, and JSON values of other kinds
KIND_WORDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}
WRONG_KIND = {
    bool: ["x", 1, None],
    int: ["x", True, 1.5, None],
    float: ["x", True, None],
    str: [1, True, None],
}


def _scalar_kind(hint):
    """``hint``'s scalar kind, also through Optional[...]; None for any other type."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    if typing.get_origin(hint) is typing.Union and len(args) == 1:
        hint = args[0]
    return hint if hint in KIND_WORDS else None


def _scalar_keys() -> dict:
    """Every scalar key by its dotted path, with its kind and ``_field``
    bounds: ``seed``, and each constructor field of a section whose type
    is a scalar kind.  ``hidden`` and ``blocks`` are read from ``codec.arch``."""
    keys = {"seed": (int, {"minimum": 0})}
    for section in dataclasses.fields(ExperimentConfig):
        cls = next((t for t in (section.type, *typing.get_args(section.type))
                    if dataclasses.is_dataclass(t)), None)
        if cls is None:
            continue
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            kind = _scalar_kind(hints[f.name])
            if f.init and kind is not None:
                prefix = "codec.arch" if f.name in ("hidden", "blocks") else section.name
                keys[f"{prefix}.{_key(f.name)}"] = (kind, f.metadata.get("bounds", {}))
    return keys


SCALAR_KEYS = _scalar_keys()


def _with(path: str, value) -> str:
    """Config text: BASE with the key at dotted ``path`` set to ``value``."""
    cfg = json.loads(json.dumps(BASE))
    *sections, key = path.split(".")
    node = cfg
    for name in sections:
        node = node.setdefault(name, {})
    node[key] = value
    return json.dumps(cfg)


def _bound_cases():
    for path, (kind, bounds) in SCALAR_KEYS.items():
        for bound, limit in bounds.items():
            if bound == "minimum":
                value, message = limit - 1, f"must be >= {limit}, got {limit - 1}"
            elif bound == "exclusive_minimum":
                value, message = limit, f"must be > {limit}, got {float(limit)}"
            else:
                value, message = "nope", f"must be one of {sorted(limit)}, got 'nope'"
            yield pytest.param(path, value, f"{path}: {message}", id=f"{path}-{bound}")


def test_every_scalar_key_is_generated():
    # seed, codec.arch.hidden and blocks, and the 36 keys _take_fields reads;
    # 12 of those carry _field bounds, and seed has its own
    assert len(SCALAR_KEYS) == 39
    assert sum(len(bounds) for _, bounds in SCALAR_KEYS.values()) == 13


@pytest.mark.parametrize("path, value, message", [
    pytest.param(path, value, f"{path}: expected {KIND_WORDS[kind]}, got {type(value).__name__}",
                 id=f"{path}-{type(value).__name__}")
    for path, (kind, _) in SCALAR_KEYS.items()
    for value in WRONG_KIND[kind]
])
def test_every_scalar_key_rejects_another_kind(path, value, message):
    with pytest.raises(ConfigurationError) as info:
        parse_config(_with(path, value))
    assert str(info.value) == message


@pytest.mark.parametrize("path, value, message", list(_bound_cases()))
def test_every_field_bound_is_enforced(path, value, message):
    with pytest.raises(ConfigurationError) as info:
        parse_config(_with(path, value))
    assert str(info.value) == message


@pytest.mark.parametrize("channel", [
    {"type": "rayleigh"},
    {"type": "rayleigh", "h": [0.5, 0.0]},
    {"type": "mimo", "M": 2},
], ids=["rayleigh", "rayleigh-pinned", "mimo"])
def test_a_saturating_adaptive_fade_is_left_to_the_run(channel):
    # a fade scales the variance each trial maps at, so the nominal cell
    # variance alone does not decide whether the run saturates
    cfg = parse_config(_build({"channel": {**channel, "snr_db": [3.0, -50]}}))
    assert cfg.channel.cells[1].sigma2 == 1e5


def _assert_resolved(cfg_text: str, expected: dict):
    res = resolved_config(parse_config(cfg_text))
    assert res == expected
    # the JSON text also tells 0 from 0.0 and 1 from True
    assert json.dumps(res, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_resolved_config_of_defaults():
    _assert_resolved('{"channel": {"snr_db": [5.0]}}', {
        "seed": 0,
        "schedule": {"T": 1000, "beta_start": 0.0001, "beta_end": 0.02,
                     "max_sigma2": 24777.052052126503},
        "source": {"kind": "gaussian", "m": 0.0, "v": 1.0, "shape": [8, 8, 4], "count": 8,
                   "path": None},
        "channel": {
            "type": "awgn",
            "cells": [{"snr_db": 5.0, "sigma2": 0.31622776601683794, "step_u": 162}],
            "h": None,
            "M": 2,
            "convention": "gain_weighted",
        },
        "codec": {
            "enabled": False, "C": None, "k": None, "arch": {"hidden": 64, "blocks": 2},
            "snr_conditioning": True, "snr_to_mu": False, "power_norm": True,
            "snr_db_range": [0.0, 12.0], "params_path": None,
        },
        "loss": {"lambda": 0.1, "gamma": 0.1},
        "train": {"steps": 2000, "batch": 4, "lr": 0.0001, "momentum": 0.0, "eval_every": 100,
                  "holdout": 64, "snr_db": 5.0, "common_noise": False},
        "mode": {"kind": "adaptive", "t_target": 200},
        "output": {"csv": "results.csv", "log": "run.log", "params": "codec.npz"},
        "sweep": None,
    })


def test_resolved_config_of_every_key_set(tmp_path):
    path = str(tmp_path / "latents.npz")
    (tmp_path / "latents.npz").write_bytes(b"")  # the parser only checks that it exists
    cfg = {
        "seed": 7,
        "schedule": {"T": 500, "beta_start": 2e-4, "beta_end": 0.03},
        "source": {"kind": "file", "m": 0.5, "v": 2.0, "shape": [2, 2, 4], "count": 3,
                   "path": path},
        # sigma^2 / |h|^2 of the last cell, 12.3, stays under step 300's 14.7,
        # so compare mode can compensate every cell of the pinned fade; under
        # mmse each cell's step_u is that variance's step
        "channel": {"type": "rayleigh", "sigma": [0.5, 0.0, 3.0], "h": [0.8, 0.3],
                    "convention": "mmse"},
        "codec": {"enabled": True, "C": 400, "arch": {"hidden": 6, "blocks": 3},
                  "snr_conditioning": False, "snr_to_mu": True, "power_norm": False,
                  "snr_db_range": [-2, 8], "params_path": path},
        "loss": {"lambda": 0.3, "gamma": 0.05},
        "train": {"steps": 12, "batch": 2, "lr": 1e-3, "momentum": 0.9, "eval_every": 5,
                  "holdout": 3, "snr_db": 7.5, "common_noise": True},
        "mode": {"kind": "compare", "t_target": 300},
        "output": {"csv": "r.csv", "log": "r.log", "params": "p.npz"},
        "sweep": {"param": "gamma", "values": [0, 0.5], "steps": 3, "trials": 2},
    }
    _assert_resolved(json.dumps(cfg), {
        "seed": 7,
        "schedule": {"T": 500, "beta_start": 0.0002, "beta_end": 0.03,
                     "max_sigma2": 2051.3343662270054},
        "source": {"kind": "file", "m": 0.5, "v": 2.0, "shape": [2, 2, 4], "count": 3,
                   "path": path},
        "channel": {
            "type": "rayleigh",
            "cells": [
                {"snr_db": 6.020599913279624, "sigma2": 0.25, "step_u": 96},
                {"snr_db": None, "sigma2": 0.0, "step_u": 0},
                {"snr_db": -9.542425094393248, "sigma2": 9.0, "step_u": 291},
            ],
            "h": [0.8, 0.3],
            "M": 2,
            "convention": "mmse",
        },
        "codec": {
            "enabled": True, "C": 400, "k": 0.5, "arch": {"hidden": 6, "blocks": 3},
            "snr_conditioning": False, "snr_to_mu": True, "power_norm": False,
            "snr_db_range": [-2.0, 8.0], "params_path": path, "compressed_length": 8,
        },
        "loss": {"lambda": 0.3, "gamma": 0.05},
        "train": {"steps": 12, "batch": 2, "lr": 0.001, "momentum": 0.9, "eval_every": 5,
                  "holdout": 3, "snr_db": 7.5, "common_noise": True},
        "mode": {"kind": "compare", "t_target": 300, "t_target_sigma2": 14.722269643661026,
                 "t_target_snr_db": -11.679747677280243},
        "output": {"csv": "r.csv", "log": "r.log", "params": "p.npz"},
        "sweep": {"param": "gamma", "values": [0.0, 0.5], "steps": 3, "trials": 2},
    })


def test_resolved_config_of_mimo_antennas():
    cfg = '{"channel": {"type": "mimo", "snr_db": [0], "M": 4}}'
    assert resolved_config(parse_config(cfg))["channel"] == {
        "type": "mimo",
        "cells": [{"snr_db": 0.0, "sigma2": 1.0, "step_u": 259}],
        "h": None,
        "M": 4,
        "convention": "gain_weighted",
    }


def _readme_sections() -> dict:
    """README's "Config sections" bullets, by the section each one names."""
    text = README.read_text()
    text = text[text.index("Config sections"):text.index("Every run also writes")]
    bullets = re.split(r"^- ", text, flags=re.M)[1:]
    return {re.match(r"`(\w+)`", b).group(1): b for b in bullets}


def test_readme_names_every_config_key():
    # the channel's cells are read from snr_db or sigma; hidden and blocks sit in codec.arch
    extra = {"channel": ["snr_db", "sigma"], "codec": ["arch"]}
    bullets = _readme_sections()
    missing = []
    for section in dataclasses.fields(ExperimentConfig):
        if section.name not in bullets:
            missing.append(section.name)
            continue
        # the section's dataclass, also through Optional[...]; none for seed.
        # Its constructor fields, inherited ones included, under their JSON keys
        cls = next((t for t in (section.type, *typing.get_args(section.type))
                    if dataclasses.is_dataclass(t)), None)
        keys = [] if cls is None else [
            _key(f.name) for f in dataclasses.fields(cls) if f.init and f.name != "cells"
        ]
        for key in keys + extra.get(section.name, []):
            if not re.search(rf"[`\"]{re.escape(key)}[`\"]", bullets[section.name]):
                missing.append(f"{section.name}.{key}")
    assert missing == []
