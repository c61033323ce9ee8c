"""Hybrid training objective for the codec and a small SGD trainer.

Three terms, each a per-element mean:

- ``guidance_kl``: KL from the uncompressed received distribution
  ``N(y, sigma^2)`` to the decoder's Gaussian ``N(mu_y, sigma_y^2)``;
  aligns the compressed branch with what the reverse diffusion process
  expects to consume.
- ``prior_kl``: KL from the decoder's Gaussian to the standard normal;
  the usual variational regularizer.
- the reconstruction surrogate, :func:`~diffcomm.metrics.mse` between
  the reparameterized reconstruction and the uncompressed received
  signal; stands in for the post-denoising error, which it upper-bounds
  up to an additive constant.

``total = lambda * prior_kl + mse + gamma * guidance_kl``.

Reported values use per-element means so the weights transfer across
latent sizes.  Parameter updates, however, descend the summed objective
(mean gradient scaled by batch * elements): with the documented default
learning rate the mean-objective gradient is too small to move the
parameters at all, and the summed objective is what makes that rate
meaningful.  The price is that the effective step grows with batch and
latent size, so ``lr`` is tied to both.  The trainer seeds the backward
pass with ``lr`` (``hybrid_loss_batch``'s ``grad_scale``), so its
gradient buffer holds the SGD step itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .codec import (
    CodecParams,
    backward_batch,
    forward_down_batch,
    forward_up_batch,
    snr_feature,
    vector_to_params,
    zero_grads,
)
from .diffusion import Source, _check_source, _draw_latents
from .errors import ConfigurationError, TrainingDivergedError
from .metrics import mse, psnr

__all__ = [
    "LossWeights",
    "LossBreakdown",
    "TrainConfig",
    "TrainRecord",
    "guidance_kl",
    "prior_kl",
    "hybrid_loss_batch",
    "reconstruction_psnr",
    "train_codec",
]


@dataclass(frozen=True)
class LossWeights:
    """Weights of the KL terms: ``lam`` on the prior, ``gamma`` on guidance.
    A weight that is not finite and >= 0 is a ConfigurationError naming it."""

    lam: float = 0.1
    gamma: float = 0.1

    def __post_init__(self):
        for name in ("lam", "gamma"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigurationError(name, f"must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class LossBreakdown:
    """Per-element mean loss terms and their weighted total.

    ``total`` is derived, not a constructor argument:
    ``lam * l_kl + l_mse + gamma * l_g`` (NaN when a part is NaN).
    """

    l_kl: float
    l_mse: float
    l_g: float
    total: float = field(init=False)
    weights: LossWeights

    def __post_init__(self):
        w = self.weights
        object.__setattr__(self, "total", w.lam * self.l_kl + self.l_mse + w.gamma * self.l_g)


# The KL terms check ``sigma`` and the shapes only: a diverged step's NaN
# must reach the trainer's finiteness check rather than raise here.


def guidance_kl(y: np.ndarray, sigma: float, mu: np.ndarray, s: np.ndarray) -> float:
    """Mean elementwise KL from ``N(y, sigma^2)`` to ``N(mu, s^2)``."""
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be finite and > 0, got {sigma!r}")
    if not y.shape == mu.shape == s.shape:
        raise ValueError(f"shape mismatch: y {y.shape}, mu {mu.shape}, s {s.shape}")
    d = mu - y
    return float(np.mean(np.log(s / sigma) + (sigma * sigma + d * d) / (2.0 * s * s) - 0.5))


def prior_kl(mu: np.ndarray, s: np.ndarray) -> float:
    """Mean elementwise KL from ``N(mu, s^2)`` to the standard normal."""
    if mu.shape != s.shape:
        raise ValueError(f"shape mismatch: mu {mu.shape} vs s {s.shape}")
    s2 = s * s
    return float(np.mean(0.5 * (mu * mu + s2 - np.log(s2) - 1.0)))


# ---------------------------------------------------------------------------
# batched loss with exact gradients


def hybrid_loss_batch(
    params: CodecParams,
    Y: np.ndarray,
    sigma: float,
    snr: float,
    eps1: np.ndarray,
    eps2: np.ndarray,
    eps_y: np.ndarray,
    weights: LossWeights,
    *,
    out: Optional[CodecParams] = None,
    grad_scale: Optional[float] = None,
) -> tuple[LossBreakdown, CodecParams]:
    """Mean-reduction loss over a batch and its exact parameter gradients.

    ``Y`` is (batch, n); ``eps1`` and ``eps_y`` are (batch, n) unit
    normals for the uncompressed received signal and the
    reparameterization, ``eps2`` is (batch, m) for the transmit noise.
    All noise is passed explicitly so finite-difference validation can
    hold it fixed.  Returns per-element mean losses and gradients; the
    gradients are written into ``out`` when it is given (see
    :func:`~diffcomm.codec.backward_batch`), else into a fresh container.

    The gradients are ``grad_scale`` times the gradient of the summed
    total (the mean total times batch * n), seeded at the decoder outputs
    at no extra pass over the parameters.  The default, ``1 / (batch * n)``,
    gives the gradient of the mean total.
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be finite and > 0, got {sigma!r}")
    B, n = Y.shape
    sigma = float(sigma)
    scale = 1.0 / (B * n) if grad_scale is None else float(grad_scale)
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"grad_scale must be finite and > 0, got {grad_scale!r}")

    Z, down_ctx = forward_down_batch(params, Y)
    Zhat = Z + sigma * eps2
    feat = snr_feature(params, snr)
    Mu, Lv, Sy, Yhat, up_ctx = forward_up_batch(params, Zhat, feat, eps_y)
    Shat = Y + sigma * eps1

    eLv = np.exp(Lv)
    inv_eLv = np.exp(-Lv)
    diff = Mu - Y
    resid = Yhat - Shat

    l_kl = prior_kl(Mu, Sy)
    l_mse = mse(Yhat, Shat)
    l_g = guidance_kl(Y, sigma, Mu, Sy)
    lam, gamma = weights.lam, weights.gamma
    breakdown = LossBreakdown(l_kl=l_kl, l_mse=l_mse, l_g=l_g, weights=weights)

    dMu = scale * (lam * Mu + 2.0 * resid + gamma * diff * inv_eLv)
    dLv = scale * (
        lam * 0.5 * (eLv - 1.0)
        + resid * eps_y * Sy
        + gamma * 0.5 * (1.0 - (sigma * sigma + diff * diff) * inv_eLv)
    )
    grads = backward_batch(params, down_ctx, up_ctx, dMu, dLv, out=out)
    return breakdown, grads


def reconstruction_psnr(
    params: CodecParams,
    Y: np.ndarray,
    sigma: float,
    snr: float,
    eps2: np.ndarray,
    eps_y: np.ndarray,
) -> float:
    """Codec-only reconstruction PSNR (unit peak) on a fixed batch with fixed noise."""
    Z, _ = forward_down_batch(params, Y)
    Zhat = Z + sigma * eps2
    feat = snr_feature(params, snr)
    _, _, _, Yhat, _ = forward_up_batch(params, Zhat, feat, eps_y)
    return psnr(Yhat, Y)


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainConfig:
    """Plain SGD settings; momentum of 0 disables the velocity term.  A
    setting out of range, or a count that is not an integer, is a
    ConfigurationError naming it; a numpy integer count is stored as int."""

    steps: int = 2000
    batch: int = 4
    lr: float = 1e-4
    momentum: float = 0.0
    eval_every: int = 100
    holdout: int = 64
    common_noise: bool = False

    def __post_init__(self):
        for name, least in (("steps", 0), ("batch", 1), ("eval_every", 1), ("holdout", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigurationError(name, f"must be an integer, got {value!r}")
            if value < least:
                raise ConfigurationError(name, f"must be >= {least}, got {value}")
            object.__setattr__(self, name, int(value))
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ConfigurationError("lr", f"must be finite and > 0, got {self.lr!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError("momentum", f"must lie in [0, 1), got {self.momentum!r}")


@dataclass(frozen=True)
class TrainRecord:
    """One training step: losses, and holdout PSNR on evaluation steps."""

    step: int
    breakdown: LossBreakdown
    eval_psnr: Optional[float] = None


def train_codec(
    source: Source,
    sigma: float,
    params: CodecParams,
    weights: LossWeights,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> tuple[CodecParams, list[TrainRecord]]:
    """Train the codec against an AWGN channel of standard deviation ``sigma``.

    Each step draws a batch from ``source``: a Gaussian model, or a fixed
    dataset of shape ``(rows, params.n)`` cycled in order, step ``s``
    taking the ``batch`` rows from row ``(s - 1) * batch`` on and the
    holdout the ``holdout`` rows from row 0 on.  A dataset that is not a
    finite float array of that shape with at least one row is a
    ValueError.  Each step simulates the uncompressed received signal
    ``y + sigma * eps1`` and the compressed one ``F_d(y) + sigma * eps2``,
    decodes, and takes one SGD step down the summed hybrid objective (see
    the module docstring).  The backward pass is seeded with ``lr``, so the
    gradient buffer holds the step itself, and plain SGD applies it in one
    pass over the parameters.  The SNR conditioning input is
    ``1 / sigma^2`` (the transmit vector is unit power under the default
    normalization).  With ``common_noise`` the transmit noise reuses the
    leading components of ``eps1`` instead of an independent draw.

    The input parameters are not modified; the trained copy is returned
    together with one record per step.  Holdout data and its noise are
    frozen up front, so ``eval_psnr`` movement reflects parameter change
    only.  A non-finite loss aborts with TrainingDivergedError.
    """
    sigma = float(sigma)
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be finite and > 0, got {sigma!r}")
    n, m = params.n, params.m
    _check_source(source, n)
    params = vector_to_params(params, params.flat)
    snr = 1.0 / (sigma * sigma)

    hold_Y = _draw_latents(source, n, cfg.holdout, rng, 0)
    hold_eps2 = rng.standard_normal((cfg.holdout, m))
    hold_eps_y = rng.standard_normal((cfg.holdout, n))

    # one gradient buffer for every step, holding lr * grad(summed objective)
    grads = zero_grads(params)
    g = grads.flat
    velocity = np.zeros_like(params.flat)
    records: list[TrainRecord] = []

    for step in range(1, cfg.steps + 1):
        Y = _draw_latents(source, n, cfg.batch, rng, (step - 1) * cfg.batch)
        eps1 = rng.standard_normal((cfg.batch, n))
        eps2 = eps1[:, :m].copy() if cfg.common_noise else rng.standard_normal((cfg.batch, m))
        eps_y = rng.standard_normal((cfg.batch, n))

        breakdown, _ = hybrid_loss_batch(
            params, Y, sigma, snr, eps1, eps2, eps_y, weights, out=grads, grad_scale=cfg.lr
        )
        if not math.isfinite(breakdown.total):
            raise TrainingDivergedError(step=step)

        # g holds the step; velocity = momentum * velocity - g, in place
        if cfg.momentum > 0.0:
            velocity *= cfg.momentum
            velocity -= g
            params.flat += velocity
        else:
            params.flat -= g

        eval_psnr = None
        if step % cfg.eval_every == 0 or step == cfg.steps:
            eval_psnr = reconstruction_psnr(params, hold_Y, sigma, snr, hold_eps2, hold_eps_y)
        records.append(TrainRecord(step=step, breakdown=breakdown, eval_psnr=eval_psnr))

    return params, records
