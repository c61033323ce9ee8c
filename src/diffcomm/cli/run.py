"""Seeded experiment drivers: simulation grids, training, sweeps, CSV.

Simulate and sweep share one per-trial pipeline, ``_run_trials``: source
draw -> codec downsample -> channel -> decode -> receive -> MSE/SSIM.
The channel only transmits.  The receive runs a trial's routes as rows
of one ragged reverse chain, one ``reverse_step`` call per step: a row
per stream (a MIMO channel's eigenmode), or the clean source's one row
for forward.  A row starts scaled onto its mapped step or topped up from
the variance it carries (0 for the source), right before its noise draw
from the trial's generator, as if the rows were denoised in turn.  Every
random draw comes from a generator derived by hashing the run seed
together with the coordinates of the work item.  Trial ``i`` of a
simulate cell uses the key ``(seed, channel type, sigma2, i)``; trial
``i`` of a sweep point uses ``(seed, "sweep-eval", param, value, i)``.
Cells are therefore order-independent and individually replayable,
grids can run on a thread pool without affecting results, and repeated
runs produce byte-identical CSV files.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from ..channels import (
    ChannelOutput,
    awgn_transmit,
    mimo_svd_decompose,
    mimo_transmit,
    rayleigh_transmit_mmse,
)
from ..codec import (
    CodecArch,
    CodecParams,
    compressed_length,
    downsample,
    init_codec,
    k_from_channel_count,
    load_codec,
    save_codec,
    upsample,
)
from ..diffusion import (
    AnalyticGaussianDenoiser,
    GaussianSourceModel,
    _denoise_rows,
    compensate_to_step,
)
from ..errors import ConfigurationError, SaturationError
from ..loss import LossWeights, train_codec
from ..metrics import mse, psnr_from_mse, ssim_batch
from ..schedule import Schedule, sigma2_to_step
from .config import Cell, ExperimentConfig, _nominal_step_u, resolved_config

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
    "channel",
    "snr_db",
    "sigma2",
    "trials",
    "psnr_adaptive_db",
    "psnr_compensate_db",
    "psnr_forward_db",
    "delta_adaptive_compensate_db",
    "delta_compensate_forward_db",
    "ci95_lo_db",
    "ci95_hi_db",
)
_TRAIN_HEADER = ("step", "l_kl", "l_mse", "l_g", "total", "eval_psnr")
_SWEEP_HEADER = ("param", "value", "psnr_db", "ssim", "mse")
# Elements per SSIM block: a cell scores max(1, this // n) trials
# per ``ssim_batch`` call, so its buffers do not grow with the trial count.
_SSIM_BLOCK_ELEMENTS = 65536
# The receive routes each mode runs per trial, in the order their chain rows
# (``_receive``) draw from the trial's generator.
_ROUTES = {
    "adaptive": ("adaptive",),
    "fixed_step": ("compensate",),
    "compare": ("adaptive", "compensate", "forward"),
}


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


def _ssim_window(shape: tuple[int, int, int]) -> Optional[int]:
    side = min(7, shape[0], shape[1])
    if side % 2 == 0:
        side -= 1
    return side if side >= 3 else None


# ---------------------------------------------------------------------------
# codec and trainer set-up


def _codec_arch(cfg: ExperimentConfig) -> CodecArch:
    """The configured arch as a plain ``CodecArch``, which compares equal to
    a stored codec's (dataclass equality needs the same class)."""
    return CodecArch(**{f.name: getattr(cfg.codec, f.name) for f in fields(CodecArch)})


def _init_codec(cfg: ExperimentConfig, k: float, rng: np.random.Generator) -> CodecParams:
    return init_codec(cfg.source.shape, k, _codec_arch(cfg), rng)


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
    return _init_codec(cfg, k, _derive_rng(cfg.seed, "codec-init"))


# ---------------------------------------------------------------------------
# the per-trial pipeline


def _transmit(
    cfg: ExperimentConfig,
    values: np.ndarray,
    sigma: float,
    rng: np.random.Generator,
) -> ChannelOutput:
    """Send a real vector through the configured channel.

    The channels take an even length, so an odd-length codec vector is
    zero-padded by one element, and the received vector keeps the pad
    for the caller to drop.  Fading coefficients not pinned in the
    config are drawn per trial.
    """
    z = values if values.size % 2 == 0 else np.concatenate([values, [0.0]])
    ch = cfg.channel
    if ch.type == "awgn":
        return awgn_transmit(z, sigma, rng)
    if ch.type == "rayleigh":
        h = ch.h
        if h is None:
            h = complex(rng.standard_normal(), rng.standard_normal()) / math.sqrt(2.0)
        return rayleigh_transmit_mmse(z, h, sigma, rng, convention=ch.convention)
    H = (
        rng.standard_normal((ch.M, ch.M)) + 1j * rng.standard_normal((ch.M, ch.M))
    ) / math.sqrt(2.0)
    return mimo_transmit(z, mimo_svd_decompose(H), sigma, rng)


@dataclass(frozen=True)
class _TrialSetup:
    cfg: ExperimentConfig
    denoiser: AnalyticGaussianDenoiser
    source: GaussianSourceModel | np.ndarray  # see _load_source
    params: Optional[CodecParams] = None


def _trial_setup(cfg: ExperimentConfig) -> _TrialSetup:
    return _TrialSetup(
        cfg=cfg,
        denoiser=AnalyticGaussianDenoiser(
            GaussianSourceModel(mean=cfg.source.m, variance=cfg.source.v), cfg.schedule.built
        ),
        source=_load_source(cfg),
    )


class _Row(NamedTuple):
    route: str
    vector: np.ndarray
    step: int
    scale: float = 1.0
    carried: Optional[float] = None

    def start(self, schedule: Schedule, rng: np.random.Generator) -> np.ndarray:
        """The row's start at ``step``: ``vector`` scaled by ``scale``, or topped up from ``carried``."""
        if self.carried is None:
            return self.scale * self.vector
        return compensate_to_step(self.vector, self.carried, self.step, schedule, rng)


def _receive(
    setup: _TrialSetup,
    routes: tuple[str, ...],
    y0: np.ndarray,
    base: np.ndarray,
    out: ChannelOutput,
    rng: np.random.Generator,
) -> tuple[list[np.ndarray], tuple[int, int]]:
    """Denoise each of ``routes`` as rows (``_Row``) of one ragged chain.

    Stream ``i`` of ``M`` is the ``i``-th contiguous ``1/M`` of the
    received ``base`` (the config refuses a codec, which would mix them,
    over MIMO).  Adaptive has a row per stream at the step its
    ``mapped_sigma2`` maps to (one ``sigma2_to_step`` call per stream);
    compensate a row per stream that carries its ``effective_sigma2``,
    so a pinned fade is held to ``sigma^2/|h|^2`` under either
    convention; forward one row, the clean source ``y0``, carrying 0.
    The chain takes each row's start right before its noise draw, as if
    the rows were denoised in turn.  Returns each route's rows joined in
    order, the reverse steps summed over the rows (trial-steps) and the
    chain's steps (the largest start step).
    """
    schedule = setup.cfg.schedule.built
    streams = np.split(base, len(out.mapped_sigma2))
    rows = []  # in generator order
    for route in routes:
        if route == "adaptive":
            maps = [sigma2_to_step(schedule, s2) for s2 in out.mapped_sigma2]
            rows += [_Row(route, s, m.step_u, m.scale) for s, m in zip(streams, maps)]
        else:  # compensate tops up the streams, forward the clean source
            carried = zip(streams, out.effective_sigma2) if route == "compensate" else [(y0, 0.0)]
            rows += [_Row(route, v, setup.cfg.mode.t_target, carried=s2) for v, s2 in carried]
    steps = [row.step for row in rows]
    starts = (row.start(schedule, rng) for row in rows)
    ys = _denoise_rows(starts, steps, [r.vector.size for r in rows], setup.denoiser, schedule, rng)
    recons = [np.concatenate([y for r, y in zip(rows, ys) if r.route == route]) for route in routes]
    return recons, (sum(steps), max(steps))


def _run_trials(
    setup: _TrialSetup, sigma2: float, kind: str, trials: int, key: tuple
) -> tuple[dict[str, list[float]], Optional[float], tuple[int, int]]:
    """Run ``trials`` latents through the receiver chain at noise ``sigma2``.

    Trial ``i`` draws everything from ``_derive_rng(*key, i)``.  ``kind``
    picks the routes (``_ROUTES``), and one ``_receive`` call per trial
    runs them all in one chain.  Returns each route's per-trial MSEs
    under its name, and the mean SSIM of a single-route mode's
    reconstructions (None in compare mode or without an SSIM window).
    SSIM is scored in blocks of trials, one ``ssim_batch`` call per
    block, and averaged in trial order.  Last come the reverse steps run
    over all trials, streams and routes (trial-steps), and the reverse
    step calls that ran them (chain steps, fewer where a trial has more
    than one stream or route).
    """
    cfg, params, source = setup.cfg, setup.params, setup.source
    sigma = math.sqrt(sigma2)
    snr_nominal = math.inf if sigma2 == 0.0 else 1.0 / sigma2
    routes = _ROUTES[kind]
    window = None if kind == "compare" else _ssim_window(cfg.source.shape)
    if window is not None:
        block = min(trials, max(1, _SSIM_BLOCK_ELEMENTS // cfg.source.n))
        refs = np.empty((block, *cfg.source.shape))
        recons = np.empty_like(refs)

    mses: dict[str, list[float]] = {route: [] for route in routes}
    ssims: list[float] = []
    steps = chain_steps = 0
    for trial in range(trials):
        rng = _derive_rng(*key, trial)
        if isinstance(source, GaussianSourceModel):
            y0 = source.draw(cfg.source.n, rng)
        else:  # a file source cycles through its rows
            y0 = source[trial % len(source)]
        transmitted = y0 if params is None else downsample(y0, params)
        out = _transmit(cfg, transmitted, sigma, rng)
        base = out.received
        if params is not None:
            base = upsample(base[: params.m], snr_nominal, params, rng)[1]

        trial_recons, trial_steps = _receive(setup, routes, y0, base, out, rng)
        steps += trial_steps[0]
        chain_steps += trial_steps[1]
        for route, recon in zip(routes, trial_recons):
            mses[route].append(mse(recon, y0))
        if window is not None:
            row = trial % block
            refs[row] = y0.reshape(cfg.source.shape)
            recons[row] = recon.reshape(cfg.source.shape)
            if row == block - 1 or trial == trials - 1:
                ssims += ssim_batch(refs[: row + 1], recons[: row + 1], window=window).tolist()

    return mses, (float(np.mean(ssims)) if ssims else None), (steps, chain_steps)


def _run_cell(setup: _TrialSetup, cell: Cell) -> tuple[tuple, tuple[int, int]]:
    """The cell's CSV row, and the trial-steps and chain steps its trials ran."""
    cfg = setup.cfg
    kind = cfg.mode.kind
    mses, mean_ssim, steps = _run_trials(
        setup, cell.sigma2, kind, cfg.source.count, (cfg.seed, cfg.channel.type, cell.sigma2)
    )
    coords = (cfg.channel.type, cell.snr_db, cell.sigma2)

    if kind == "compare":
        p_ad, p_comp, p_fwd = (psnr_from_mse(float(np.mean(mses[r]))) for r in _ROUTES[kind])
        d = np.asarray([
            10.0 * math.log10(f / c) for c, f in zip(mses["compensate"], mses["forward"])
        ])
        half = 1.96 * float(np.std(d, ddof=1)) / math.sqrt(d.size) if d.size > 1 else 0.0
        center = float(np.mean(d))
        row = (
            *coords,
            cfg.source.count,
            p_ad,
            p_comp,
            p_fwd,
            p_ad - p_comp,
            p_comp - p_fwd,
            center - half,
            center + half,
        )
        return row, steps

    if kind == "adaptive":
        step_u = _nominal_step_u(cfg.schedule.built, cell.sigma2)
    else:
        step_u = cfg.mode.t_target
    (route,) = _ROUTES[kind]
    mean_mse = float(np.mean(mses[route]))
    row = (*coords, step_u, cfg.source.count, psnr_from_mse(mean_mse), mean_ssim, mean_mse)
    return row, steps


# ---------------------------------------------------------------------------
# drivers


def _map_cells(worker, items, label: Callable[..., str], threads: int) -> list:
    """``worker`` over ``items``, on a thread pool when ``threads > 1``.
    A failure is re-raised as RuntimeError prefixed with ``label(item)``."""

    def labelled(item):
        try:
            return worker(item)
        except Exception as exc:
            raise RuntimeError(f"{label(item)}: {exc}") from exc

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(labelled, items))
    return [labelled(item) for item in items]


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
    coordinates of the offending cell.  The log ends with the wall time
    of the grid and its trials per second, the ``reverse_step`` calls
    made (``chain_steps``: one per step of a trial's chain, which its
    streams and routes share), then the reverse steps run (trial-steps
    over every stream and route) and their rate.
    """
    setup = _trial_setup(cfg)
    if cfg.codec.enabled:
        setup = replace(setup, params=_codec_params(cfg))
    start = time.perf_counter()
    results = _map_cells(
        lambda cell: _run_cell(setup, cell),
        cfg.channel.cells,
        lambda cell: f"cell channel={cfg.channel.type} snr_db={cell.snr_db:.6g}",
        threads,
    )
    wall_s = time.perf_counter() - start
    rows = tuple(row for row, _ in results)
    steps = sum(cell_steps for _, (cell_steps, _) in results)
    chain_steps = sum(cell_chain_steps for _, (_, cell_chain_steps) in results)

    header = _COMPARE_HEADER if cfg.mode.kind == "compare" else _SIMULATE_HEADER
    log_lines = [f"simulate mode={cfg.mode.kind} cells={len(rows)} trials={cfg.source.count}"]
    log_lines += [
        f"cell channel={cfg.channel.type} snr_db={cell.snr_db:.6g} done"
        for cell in cfg.channel.cells
    ]
    trials = len(rows) * cfg.source.count
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


def run_sweep(cfg: ExperimentConfig, out_dir: str = ".", threads: int = 1) -> RunResult:
    """Train and evaluate one codec per hyperparameter grid value.

    Each grid point is seeded by (seed, parameter name, value), so
    reordering the grid cannot change any row.  Training and evaluation
    draw from the configured source.  Evaluation transmits
    ``sweep.trials`` latents end to end (codec, channel at the training
    SNR, adaptive receive, denoise) and reports PSNR/SSIM/MSE.  A training
    variance past the schedule's last step is a ConfigurationError at
    ``train.snr_db``, raised before any point trains.
    """
    if cfg.sweep is None:
        raise ConfigurationError("sweep", "section is required for a sweep run")
    if cfg.sweep.param != "C" and cfg.codec.C is None and cfg.codec.k is None:
        raise ConfigurationError("codec.C, codec.k", "sweep training needs a compression setting")
    if cfg.channel.type == "mimo":
        raise ConfigurationError("channel.type", "sweep evaluation does not support mimo")

    setup = _trial_setup(cfg)
    # evaluation maps the training variance as the channel carries it;
    # check it before any point spends its training
    sigma = math.sqrt(cfg.train.sigma2)
    max_sigma2 = cfg.schedule.built.max_sigma2
    if sigma * sigma > max_sigma2:
        raise ConfigurationError("train.snr_db", str(SaturationError(sigma * sigma, max_sigma2)))
    source = _training_source(cfg, setup.source)
    param = cfg.sweep.param
    steps = cfg.train.steps if cfg.sweep.steps is None else cfg.sweep.steps
    trials = cfg.source.count if cfg.sweep.trials is None else cfg.sweep.trials
    tcfg = replace(cfg.train, steps=steps, eval_every=max(1, steps))
    sigma2 = cfg.train.sigma2

    def run_point(value: float) -> tuple:
        lam = value if param == "lambda" else cfg.loss.lam
        gamma = value if param == "gamma" else cfg.loss.gamma
        k = k_from_channel_count(int(value), cfg.source.n) if param == "C" else cfg.codec_k()
        rng = _derive_rng(cfg.seed, "sweep", param, value)
        params0 = _init_codec(cfg, k, rng)
        weights = LossWeights(lam, gamma)
        params, _ = train_codec(source, math.sqrt(sigma2), params0, weights, tcfg, rng)
        mses, mean_ssim, _ = _run_trials(
            replace(setup, params=params), sigma2, "adaptive", trials,
            (cfg.seed, "sweep-eval", param, value),
        )
        mean_mse = float(np.mean(mses["adaptive"]))
        return (param, value, psnr_from_mse(mean_mse), mean_ssim, mean_mse)

    rows = _map_cells(run_point, cfg.sweep.values, lambda v: f"grid {param}={v:.6g}", threads)
    log_lines = [f"sweep param={param} points={len(rows)} steps={steps} trials={trials}"]
    result = RunResult(_SWEEP_HEADER, tuple(rows))
    _write_run_files(cfg, out_dir, result, log_lines)
    return result


# ---------------------------------------------------------------------------
# CSV


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
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
        if cell == "":
            return False
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
        parts = []
        for i, cell in enumerate(row):
            parts.append(cell.rjust(widths[i]) if numeric[i] else cell.ljust(widths[i]))
        return "  ".join(parts).rstrip()

    lines = [fmt_row(grid[0]), "  ".join("-" * w for w in widths)]
    lines += [fmt_row(row) for row in grid[1:]]
    return "\n".join(lines) + "\n"
