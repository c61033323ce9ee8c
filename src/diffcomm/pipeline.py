"""The trial pipeline: source draw -> codec downsample -> channel -> decode
-> receive -> MSE/SSIM, one trial per generator (``run_trials``).

The channel only transmits.  The receive runs a trial's routes as rows
of one ragged reverse chain, one ``reverse_step`` call per step: a row
per stream (a MIMO channel's eigenmode), or the clean source's one row
for forward.  The receive only declares the rows; the engine starts each,
topped up if it carries a variance (0 for the source), right before its
noise draw from the trial's generator, as if denoised in turn.  Trial
``i`` draws everything from its own generator, so trials can be replayed
one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .channels import (ChannelOutput, awgn_transmit, mimo_svd_decompose, mimo_transmit,
                       rayleigh_transmit_mmse)
from .codec import CodecParams, downsample, upsample
from .diffusion import Denoiser, GaussianSourceModel, _denoise_rows, _Row
from .errors import ConfigurationError
from .metrics import mse, ssim_batch
from .schedule import Schedule, StepMapping, sigma2_to_step

__all__ = ["Channel", "ROUTES", "run_trials", "start_step"]

# Elements per SSIM block: a call scores max(1, this // n) trials
# per ``ssim_batch`` call, so its buffers do not grow with the trial count.
_SSIM_BLOCK_ELEMENTS = 65536
# The receive routes each mode of a run takes per trial, in the order the
# chain starts their rows (``_receive``) and draws from the trial's generator.
ROUTES = {
    "adaptive": ("adaptive",),
    "fixed_step": ("compensate",),
    "compare": ("adaptive", "compensate", "forward"),
}


@dataclass(frozen=True)
class Channel:
    """The channel a trial transmits through: ``"awgn"``, ``"rayleigh"``
    (flat fading with MMSE equalization; ``h`` pins the fade, else each
    trial draws one, and ``convention`` picks the variance its stream
    maps) or ``"mimo"`` (an ``M`` x ``M`` matrix drawn per trial).  A bad
    field is a ConfigurationError naming it.  A stream's variances are
    ``channels.stream_sigma2``'s, and its adaptive start ``start_step``'s."""

    type: str = "awgn"
    h: Optional[complex] = None
    M: int = 2
    convention: str = "gain_weighted"

    def __post_init__(self):
        kinds, conventions = ["awgn", "mimo", "rayleigh"], ["gain_weighted", "mmse"]
        h = self.h
        if h is not None and h == 0:
            raise ConfigurationError("h", "fade coefficient must be nonzero")
        if h is not None and h.real * h.real + h.imag * h.imag == 0.0:  # |h|^2, as stream_sigma2 has it
            raise ConfigurationError("h", f"|h|^2 of {h!r} underflows to zero")
        if self.type not in kinds:
            raise ConfigurationError("type", f"must be one of {kinds}, got {self.type!r}")
        if isinstance(self.M, bool) or not isinstance(self.M, (int, np.integer)):
            raise ConfigurationError("M", f"must be an integer, got {self.M!r}")
        if self.M < 1:
            raise ConfigurationError("M", f"must be >= 1, got {self.M}")
        if self.convention not in conventions:
            raise ConfigurationError("convention", f"must be one of {conventions}, got {self.convention!r}")
        if h is not None and self.type != "rayleigh":
            raise ConfigurationError("h", "fixed fade applies to rayleigh channels only")


def start_step(schedule: Schedule, sigma2: float) -> StepMapping:
    """The step an adaptive stream that maps variance ``sigma2`` starts
    from: ``sigma2_to_step``'s, with a variance past the schedule's last
    clipped to it, so that stream starts at step T."""
    return sigma2_to_step(schedule, min(sigma2, schedule.max_sigma2))


def _ssim_window(shape: tuple[int, int, int]) -> Optional[int]:
    side = min(7, shape[0], shape[1])
    if side % 2 == 0:
        side -= 1
    return side if side >= 3 else None


def _transmit(
    channel: Channel, values: np.ndarray, sigma: float, rng: np.random.Generator
) -> ChannelOutput:
    """Send a real vector through ``channel``.

    The channels take an even length, so an odd-length codec vector is
    zero-padded by one element, and the received vector keeps the pad
    for the caller to drop.  Fading coefficients not pinned in the
    channel are drawn per trial.
    """
    z = values if values.size % 2 == 0 else np.concatenate([values, [0.0]])
    if channel.type == "awgn":
        return awgn_transmit(z, sigma, rng)
    if channel.type == "rayleigh":
        h = channel.h
        if h is None:
            h = complex(rng.standard_normal(), rng.standard_normal()) / math.sqrt(2.0)
        return rayleigh_transmit_mmse(z, h, sigma, rng, convention=channel.convention)
    M = channel.M
    H = (rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))) / math.sqrt(2.0)
    return mimo_transmit(z, mimo_svd_decompose(H), sigma, rng)


def _receive(
    schedule: Schedule, denoiser: Denoiser, routes: tuple[str, ...], t_target: int,
    y0: np.ndarray, base: np.ndarray, out: ChannelOutput, rng: np.random.Generator,
) -> tuple[list[np.ndarray], tuple[int, int, int]]:
    """Denoise each of ``routes`` as rows (``diffusion._Row``) of one ragged chain.

    Stream ``i`` of ``M`` is the ``i``-th contiguous ``1/M`` of the
    received ``base`` (``run_trials`` refuses a codec, which would mix
    them, over MIMO).  Adaptive has a row per stream, scaled onto the
    step its ``mapped_sigma2`` starts from (one ``start_step`` call per
    stream): a stream past the schedule's last variance is clipped to
    it, so its row starts at step T from the stream scaled by
    sqrt(alpha_bar_T); compensate a row per stream that carries its
    ``effective_sigma2`` to ``t_target``, so a pinned fade is held to
    ``sigma^2/|h|^2`` under either convention; forward one row, the
    clean source ``y0``, carrying 0 to ``t_target``.
    The engine starts each row right before its noise draw, as if the
    rows were denoised in turn, and each route's rows are one contiguous
    run.  Returns each route's rows joined in order, and three counts:
    the reverse steps summed over the rows (trial-steps), the chain's
    steps (the largest start step) and the clipped streams.
    """
    streams = np.split(base, len(out.mapped_sigma2))
    routed = []  # each route's rows, in generator order
    clipped = 0
    for route in routes:
        if route == "adaptive":
            clipped = sum(s2 > schedule.max_sigma2 for s2 in out.mapped_sigma2)
            maps = [start_step(schedule, s2) for s2 in out.mapped_sigma2]
            routed.append([_Row(m.scale * s, m.step_u) for s, m in zip(streams, maps)])
        else:  # compensate tops up the streams, forward the clean source
            carried = zip(streams, out.effective_sigma2) if route == "compensate" else [(y0, 0.0)]
            routed.append([_Row(v, t_target, s2) for v, s2 in carried])
    rows = [row for route_rows in routed for row in route_rows]
    ys = iter(_denoise_rows(rows, denoiser, schedule, rng))
    recons = [np.concatenate([next(ys) for _ in route_rows]) for route_rows in routed]
    steps = [row.step for row in rows]
    return recons, (sum(steps), max(steps), clipped)


def run_trials(
    schedule: Schedule, denoiser: Denoiser, source: GaussianSourceModel | np.ndarray,
    shape: tuple[int, int, int], params: Optional[CodecParams], channel: Channel,
    sigma2: float, routes: tuple[str, ...], t_target: int, rngs: Sequence[np.random.Generator],
) -> tuple[dict[str, list[float]], Optional[float], tuple[int, int, int]]:
    """Run one trial per generator of ``rngs`` at channel noise ``sigma2``.

    Trial ``i`` draws everything from ``rngs[i]``: a latent of ``shape``
    from the ``source`` model, or row ``i`` (cycled) of a ``(rows, n)``
    ``source`` array, which the codec ``params`` (None: no codec) send
    over ``channel``.  One ``_receive`` call per trial runs each of
    ``routes`` (``ROUTES`` holds each mode's; ``compensate`` and
    ``forward`` start at ``t_target``) in one chain.  Returns each
    route's per-trial MSEs under its name; the mean SSIM of a single
    route (None for several or without an SSIM window), scored one
    ``ssim_batch`` call per block of trials and averaged in trial order;
    and the trial-steps over all trials, streams and routes, the reverse
    step calls that ran them (chain steps) and the streams clipped to
    the schedule's end.  ValueError, before any draw: an unknown or
    repeated route; codec ``params`` over a mimo channel, whose streams a
    codec mixes; an odd-length latent without a codec to pad it; or a
    ``sigma2`` that is negative or not finite.
    """
    # compare runs every route
    if not routes or len(set(routes)) < len(routes) or not set(routes) <= set(ROUTES["compare"]):
        raise ValueError(f"routes must name adaptive, compensate or forward once each, got {routes!r}")
    if params is not None and channel.type == "mimo":
        raise ValueError("a codec mixes the streams of a mimo channel; pass params=None")
    n = math.prod(shape)
    if params is None and n % 2:
        raise ValueError(f"total elements must be even for complex transmission, got {n}")
    if not (math.isfinite(sigma2) and sigma2 >= 0.0):
        raise ValueError(f"sigma2 must be finite and >= 0, got {sigma2!r}")
    trials = len(rngs)
    sigma = math.sqrt(sigma2)
    snr_nominal = math.inf if sigma2 == 0.0 else 1.0 / sigma2
    window = None if len(routes) > 1 else _ssim_window(shape)
    if window is not None:
        block = min(trials, max(1, _SSIM_BLOCK_ELEMENTS // n))
        refs = np.empty((block, *shape))
        recons = np.empty_like(refs)

    mses: dict[str, list[float]] = {route: [] for route in routes}
    ssims: list[float] = []
    totals = [0, 0, 0]  # trial-steps, chain steps, clipped streams
    for trial, rng in enumerate(rngs):
        if isinstance(source, GaussianSourceModel):
            y0 = source.draw(n, rng)
        else:  # a file source cycles through its rows
            y0 = source[trial % len(source)]
        transmitted = y0 if params is None else downsample(y0, params)
        out = _transmit(channel, transmitted, sigma, rng)
        base = out.received
        if params is not None:
            _, _, base = upsample(base[: params.m], snr_nominal, params, rng)

        trial_recons, counts = _receive(schedule, denoiser, routes, t_target, y0, base, out, rng)
        totals = [total + count for total, count in zip(totals, counts)]
        for route, recon in zip(routes, trial_recons):
            mses[route].append(mse(recon, y0))
        if window is not None:
            row = trial % block
            refs[row] = y0.reshape(shape)
            recons[row] = recon.reshape(shape)
            if row == block - 1 or trial == trials - 1:
                ssims += ssim_batch(refs[: row + 1], recons[: row + 1], window=window).tolist()

    return mses, (float(np.mean(ssims)) if ssims else None), tuple(totals)
