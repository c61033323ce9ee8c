"""Seeded experiment drivers: simulation grids, training, sweeps, CSV.

Simulate and sweep run their trials through the library's one trial
pipeline, ``diffcomm.pipeline.run_trials``; this module loads the source
and codec, seeds the trials, loops the cells and writes the results.
Every random draw comes from a generator derived by hashing the run seed
together with the coordinates of the work item.  Trial ``i`` of a
simulate cell uses the key ``(seed, channel type, sigma2, i)``; trial
``i`` of a sweep point uses ``(seed, "sweep-eval", param, value, i)``.
Cells run in order, one after another; this per-trial seeding makes
each of them order-independent and individually replayable, and
repeated runs produce byte-identical CSV files.

Float columns are written at 6 significant digits.  Each driver writes
a resolved copy of its configuration (defaults and derived quantities
filled in) next to its outputs so any artifact can be replayed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
import zipfile
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from ..codec import (CodecArch, CodecParams, compressed_length, init_codec, k_from_channel_count,
                     load_codec, save_codec)
from ..diffusion import AnalyticGaussianDenoiser, GaussianSourceModel
from ..errors import ConfigurationError, SaturationError
from ..loss import LossWeights, train_codec
from ..metrics import psnr_from_mse
from ..pipeline import ROUTES, run_trials
from .config import Cell, ExperimentConfig, resolved_config

__all__ = [
    "RunResult",
    "emit_csv",
    "render_report",
    "run_simulate",
    "run_sweep",
    "run_train",
]

_SIMULATE_HEADER = ("channel", "snr_db", "sigma2", "step_u", "trials", "psnr_db", "ssim", "mse")
_COMPARE_HEADER = (
    "channel", "snr_db", "sigma2", "trials", "psnr_adaptive_db", "psnr_compensate_db",
    "psnr_forward_db", "delta_adaptive_compensate_db", "delta_compensate_forward_db",
    "ci95_lo_db", "ci95_hi_db",
)
_TRAIN_HEADER = ("step", "l_kl", "l_mse", "l_g", "total", "eval_psnr")
_SWEEP_HEADER = ("param", "value", "psnr_db", "ssim", "mse")


@dataclass(frozen=True)
class RunResult:
    """A finished table: CSV header and rows."""

    header: tuple[str, ...]
    rows: tuple[tuple, ...]


# ---------------------------------------------------------------------------
# seeding


def _canon(part) -> str:
    if isinstance(part, float):
        return format(part, ".12g")
    return str(part)


def _derive_rng(*parts) -> np.random.Generator:
    """Generator keyed by a hash of the given coordinates."""
    key = "|".join(_canon(p) for p in parts)
    digest = hashlib.sha256(key.encode("ascii")).digest()
    return np.random.default_rng(int.from_bytes(digest[:16], "big"))


# ---------------------------------------------------------------------------
# sources

# what np.load, or reading what it returns, raises for a file that is not
# the archive a run expects
_UNREADABLE = (OSError, EOFError, ValueError, zipfile.BadZipFile)


def _load_source(cfg: ExperimentConfig) -> GaussianSourceModel | np.ndarray:
    """The configured source, loaded once per run: the Gaussian model, or
    the file's latents as one read-only float64 array of shape (rows, n).
    A file that does not hold finite integer or float latents of the
    source shape is a ConfigurationError at ``source.path``."""
    src = cfg.source
    if src.kind != "file":
        return GaussianSourceModel(mean=src.m, variance=src.v)
    try:
        archive = np.load(src.path)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("not an .npz archive")
        with archive:
            latents = archive.get("latents")
    except _UNREADABLE as exc:
        raise ConfigurationError("source.path", f"cannot load {src.path}: {exc}") from exc
    if latents is None:
        raise ConfigurationError("source.path", f"{src.path} has no 'latents' array")
    if latents.dtype.kind not in "iuf":
        raise ConfigurationError(
            "source.path", f"{src.path} holds latents of dtype {latents.dtype}, not integer or float"
        )
    data = latents.astype(np.float64, copy=False)
    if data.ndim != 4 or data.shape[1:] != src.shape:
        raise ConfigurationError(
            "source.path",
            f"expected latents of shape (count, {src.shape[0]}, {src.shape[1]}, "
            f"{src.shape[2]}), got {data.shape}",
        )
    if data.shape[0] == 0:
        raise ConfigurationError("source.path", f"{src.path} holds no latents")
    if not np.all(np.isfinite(data)):
        raise ConfigurationError("source.path", f"{src.path} holds non-finite latents")
    rows = data.reshape(data.shape[0], src.n)
    rows.flags.writeable = False
    return rows


def _training_source(cfg: ExperimentConfig, source: GaussianSourceModel | np.ndarray):
    """What a codec trains on: the model, or the file's first ``source.count`` rows, cycled."""
    if isinstance(source, GaussianSourceModel):
        return source
    return source[np.arange(cfg.source.count) % len(source)]


# ---------------------------------------------------------------------------
# codec and trainer set-up


def _codec_arch(cfg: ExperimentConfig) -> CodecArch:
    """The configured arch as a plain ``CodecArch``, which compares equal to
    a stored codec's (dataclass equality needs the same class)."""
    return CodecArch(**{f.name: getattr(cfg.codec, f.name) for f in fields(CodecArch)})


def _codec_params(cfg: ExperimentConfig) -> CodecParams:
    """Stored weights from ``codec.params_path``, else a seeded initialization.
    A stored codec must have the configured shape, length and arch, so that
    the resolved config describes the codec the run used."""
    k = cfg.codec_k()
    path = cfg.codec.params_path
    if path is not None:
        try:
            params = load_codec(path)
        except _UNREADABLE as exc:
            raise ConfigurationError("codec.params_path", f"cannot load {path}: {exc}") from exc
        if params.shape != cfg.source.shape:
            raise ConfigurationError(
                "codec.params_path",
                f"stored shape {params.shape} does not match source shape {cfg.source.shape}",
            )
        if params.m != compressed_length(cfg.source.n, k):
            raise ConfigurationError(
                "codec.params_path",
                f"stored length {params.m} does not match configured compression",
            )
        arch = _codec_arch(cfg)
        if params.arch != arch:
            raise ConfigurationError(
                "codec.params_path",
                f"stored arch {params.arch} does not match configured arch {arch}",
            )
        return params
    return init_codec(cfg.source.shape, k, _codec_arch(cfg), _derive_rng(cfg.seed, "codec-init"))


# ---------------------------------------------------------------------------
# cells


def _denoiser(cfg: ExperimentConfig) -> AnalyticGaussianDenoiser:
    model = GaussianSourceModel(mean=cfg.source.m, variance=cfg.source.v)
    return AnalyticGaussianDenoiser(model, cfg.schedule.built)


def _run_cell(
    cfg: ExperimentConfig, denoiser: AnalyticGaussianDenoiser,
    source: GaussianSourceModel | np.ndarray, params: Optional[CodecParams], cell: Cell,
) -> tuple[tuple, tuple[int, int, int]]:
    """The cell's CSV row, and the trial-steps, chain steps and clipped
    streams of its trials."""
    kind = cfg.mode.kind
    key = (cfg.seed, cfg.channel.type, cell.sigma2)
    mses, mean_ssim, counts = run_trials(
        cfg.schedule.built, denoiser, source, cfg.source.shape, params, cfg.channel,
        cell.sigma2, ROUTES[kind], cfg.mode.t_target,
        [_derive_rng(*key, trial) for trial in range(cfg.source.count)],
    )
    coords = (cfg.channel.type, cell.snr_db, cell.sigma2)

    if kind == "compare":
        p_ad, p_comp, p_fwd = (psnr_from_mse(float(np.mean(mses[r]))) for r in ROUTES[kind])
        d = np.asarray([
            10.0 * math.log10(f / c) for c, f in zip(mses["compensate"], mses["forward"])
        ])
        half = 1.96 * float(np.std(d, ddof=1)) / math.sqrt(d.size) if d.size > 1 else 0.0
        center = float(np.mean(d))
        deltas = (p_ad - p_comp, p_comp - p_fwd, center - half, center + half)
        return (*coords, cfg.source.count, p_ad, p_comp, p_fwd, *deltas), counts

    step_u = cell.step_u if kind == "adaptive" else cfg.mode.t_target
    (route,) = ROUTES[kind]
    mean_mse = float(np.mean(mses[route]))
    row = (*coords, step_u, cfg.source.count, psnr_from_mse(mean_mse), mean_ssim, mean_mse)
    return row, counts


# ---------------------------------------------------------------------------
# drivers


def _write_text(path: str, text: str):
    try:
        with open(path, "w", encoding="ascii", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc


def _write_run_files(cfg: ExperimentConfig, out_dir: str, result: RunResult, log_lines: list[str]):
    os.makedirs(out_dir, exist_ok=True)
    emit_csv(result, os.path.join(out_dir, cfg.output.csv))
    _write_text(os.path.join(out_dir, cfg.output.log), "".join(line + "\n" for line in log_lines))
    _write_text(
        os.path.join(out_dir, "resolved_config.json"),
        json.dumps(resolved_config(cfg), indent=2, sort_keys=True, allow_nan=False) + "\n",
    )


def run_simulate(cfg: ExperimentConfig, out_dir: str = ".", threads: int = 1) -> RunResult:
    """Run the (channel x SNR) grid in the configured mode.

    One CSV row per cell aggregating ``source.count`` trials.  Adaptive
    and fixed-step modes report PSNR/SSIM/MSE; compare mode runs the
    adaptive, compensate-to-target, and pure-forward routes on shared
    source and channel draws and reports the paired deltas with a 95%
    confidence interval on compensate-vs-forward.  Failures carry the
    coordinates of the offending cell.  The log counts the streams that
    adaptive clipped to the schedule's last step, then ends with the wall
    time of the grid and its trials per second, the ``reverse_step`` calls
    made (``chain_steps``: one per step of a trial's chain, which its
    streams and routes share), then the reverse steps run (trial-steps
    over every stream and route) and their rate.

    ``threads`` is ignored: cells run in order.  Only the benchmark
    driver still passes it, and ROADMAP item 1(b) removes it.
    """
    source = _load_source(cfg)
    params = _codec_params(cfg) if cfg.codec.enabled else None
    denoiser = _denoiser(cfg)
    start = time.perf_counter()
    results = []
    for cell in cfg.channel.cells:
        try:
            results.append(_run_cell(cfg, denoiser, source, params, cell))
        except Exception as exc:
            raise RuntimeError(f"cell channel={cfg.channel.type} snr_db={cell.snr_db:.6g}: {exc}") from exc
    wall_s = time.perf_counter() - start
    rows = tuple(row for row, _ in results)
    steps, chain_steps, clipped = (sum(column) for column in zip(*(c for _, c in results)))

    header = _COMPARE_HEADER if cfg.mode.kind == "compare" else _SIMULATE_HEADER
    log_lines = [f"simulate mode={cfg.mode.kind} cells={len(rows)} trials={cfg.source.count}"]
    log_lines += [
        f"cell channel={cfg.channel.type} snr_db={cell.snr_db:.6g} done"
        for cell in cfg.channel.cells
    ]
    trials = len(rows) * cfg.source.count
    log_lines.append(f"simulate clipped_streams={clipped}")
    log_lines.append(f"simulate wall_s={wall_s:.6g} trials_per_s={trials / wall_s:.6g}")
    log_lines.append(f"simulate chain_steps={chain_steps}")
    log_lines.append(f"simulate reverse_steps={steps} steps_per_s={steps / wall_s:.6g}")
    result = RunResult(header, rows)
    _write_run_files(cfg, out_dir, result, log_lines)
    return result


def run_train(cfg: ExperimentConfig, out_dir: str = ".") -> tuple[CodecParams, RunResult]:
    """Train the codec at the configured operating point.

    Writes the per-step loss table to ``output.csv``, the trained
    parameters to ``output.params``, and the resolved config.  The log
    also records the wall time of the training loop and its steps per
    second.  Returns the parameters and the table.
    """
    if cfg.codec.C is None and cfg.codec.k is None:
        raise ConfigurationError("codec.C, codec.k", "training needs a compression setting")
    params0 = _codec_params(cfg)
    sigma = math.sqrt(cfg.train.sigma2)
    source = _training_source(cfg, _load_source(cfg))
    start = time.perf_counter()
    params, records = train_codec(
        source, sigma, params0, cfg.loss, cfg.train, _derive_rng(cfg.seed, "train")
    )
    wall_s = time.perf_counter() - start

    rows = tuple(
        (rec.step, rec.breakdown.l_kl, rec.breakdown.l_mse, rec.breakdown.l_g,
         rec.breakdown.total, rec.eval_psnr)
        for rec in records
    )
    final = next((r.eval_psnr for r in reversed(records) if r.eval_psnr is not None), None)
    log_lines = [
        f"train steps={cfg.train.steps} batch={cfg.train.batch} snr_db={cfg.train.snr_db:.6g}",
        f"final eval_psnr={'n/a' if final is None else format(final, '.6g')}",
        f"train wall_s={wall_s:.6g} steps_per_s={cfg.train.steps / wall_s:.6g}",
    ]
    os.makedirs(out_dir, exist_ok=True)
    save_codec(params, os.path.join(out_dir, cfg.output.params))
    result = RunResult(_TRAIN_HEADER, rows)
    _write_run_files(cfg, out_dir, result, log_lines)
    return params, result


def run_sweep(cfg: ExperimentConfig, out_dir: str = ".") -> RunResult:
    """Train and evaluate one codec per hyperparameter grid value.

    Each grid point is seeded by (seed, parameter name, value), so
    reordering the grid cannot change any row.  Training and evaluation
    draw from the configured source.  Evaluation transmits
    ``sweep.trials`` latents end to end (codec, channel at the training
    SNR, adaptive receive, denoise) and reports PSNR/SSIM/MSE.  A training
    variance past the schedule's last step is a ConfigurationError at
    ``train.snr_db``, raised before any point trains; a faded stream past
    it is clipped to that step, and the log counts the clipped streams.
    """
    if cfg.sweep is None:
        raise ConfigurationError("sweep", "section is required for a sweep run")
    if cfg.sweep.param != "C" and cfg.codec.C is None and cfg.codec.k is None:
        raise ConfigurationError("codec.C, codec.k", "sweep training needs a compression setting")
    if cfg.channel.type == "mimo":
        raise ConfigurationError("channel.type", "sweep evaluation does not support mimo")

    eval_source = _load_source(cfg)
    # evaluation maps the training variance as the channel carries it;
    # check it before any point spends its training
    sigma = math.sqrt(cfg.train.sigma2)
    max_sigma2 = cfg.schedule.built.max_sigma2
    if sigma * sigma > max_sigma2:
        raise ConfigurationError("train.snr_db", str(SaturationError(sigma * sigma, max_sigma2)))
    source = _training_source(cfg, eval_source)
    param = cfg.sweep.param
    steps = cfg.train.steps if cfg.sweep.steps is None else cfg.sweep.steps
    trials = cfg.source.count if cfg.sweep.trials is None else cfg.sweep.trials
    tcfg = replace(cfg.train, steps=steps, eval_every=max(1, steps))
    sigma2 = cfg.train.sigma2
    denoiser = _denoiser(cfg)

    def run_point(value: float) -> tuple:
        lam = value if param == "lambda" else cfg.loss.lam
        gamma = value if param == "gamma" else cfg.loss.gamma
        k = k_from_channel_count(int(value), cfg.source.n) if param == "C" else cfg.codec_k()
        rng = _derive_rng(cfg.seed, "sweep", param, value)
        params0 = init_codec(cfg.source.shape, k, _codec_arch(cfg), rng)
        weights = LossWeights(lam, gamma)
        params, _ = train_codec(source, math.sqrt(sigma2), params0, weights, tcfg, rng)
        key = (cfg.seed, "sweep-eval", param, value)
        mses, mean_ssim, counts = run_trials(
            cfg.schedule.built, denoiser, eval_source, cfg.source.shape, params, cfg.channel,
            sigma2, ROUTES["adaptive"], cfg.mode.t_target,
            [_derive_rng(*key, trial) for trial in range(trials)],
        )
        mean_mse = float(np.mean(mses["adaptive"]))
        return (param, value, psnr_from_mse(mean_mse), mean_ssim, mean_mse), counts[2]

    results = []
    for value in cfg.sweep.values:
        try:
            results.append(run_point(value))
        except Exception as exc:
            raise RuntimeError(f"grid {param}={value:.6g}: {exc}") from exc
    rows = tuple(row for row, _ in results)
    log_lines = [
        f"sweep param={param} points={len(rows)} steps={steps} trials={trials}",
        f"sweep clipped_streams={sum(clipped for _, clipped in results)}",
    ]
    result = RunResult(_SWEEP_HEADER, rows)
    _write_run_files(cfg, out_dir, result, log_lines)
    return result


# ---------------------------------------------------------------------------
# CSV


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer, np.bool_)):  # bool is an int
        return str(int(value))
    return format(float(value), ".6g")


def emit_csv(result: RunResult, path: str) -> None:
    """Write a table as CSV: floats at 6 significant digits, deterministic
    order, header-only file for an empty table."""
    buf = io.StringIO()
    buf.write(",".join(str(h) for h in result.header) + "\n")
    for row in result.rows:
        buf.write(",".join(_format_cell(c) for c in row) + "\n")
    _write_text(path, buf.getvalue())


def render_report(path: str) -> str:
    """Render a CSV file as an aligned text table.

    Numeric columns are right-aligned, text columns left-aligned, with a
    dashed rule under the header.
    """
    try:
        with open(path, "r", encoding="ascii", newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise RuntimeError(f"cannot read {path}: {exc}") from exc
    if not rows:
        return ""

    def is_number(cell: str) -> bool:
        try:
            float(cell)
            return True
        except ValueError:
            return False

    cols = max(len(r) for r in rows)
    grid = [r + [""] * (cols - len(r)) for r in rows]
    widths = [max(len(row[i]) for row in grid) for i in range(cols)]
    numeric = [
        all(is_number(row[i]) or row[i] == "" for row in grid[1:]) and len(grid) > 1
        for i in range(cols)
    ]

    def fmt_row(row: list[str]) -> str:
        parts = (c.rjust(w) if num else c.ljust(w) for c, w, num in zip(row, widths, numeric))
        return "  ".join(parts).rstrip()

    lines = [fmt_row(grid[0]), "  ".join("-" * w for w in widths)]
    lines += [fmt_row(row) for row in grid[1:]]
    return "\n".join(lines) + "\n"
