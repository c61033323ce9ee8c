"""Reconstruction quality metrics and a Monte-Carlo distribution check.

PSNR and SSIM operate on latents interpreted as (width, height, channels)
images; SSIM uses Gaussian-weighted local windows on each channel slice
and averages the per-channel means; ``ssim_batch`` scores a stack of
image pairs in one array pass, bit-identical to ``ssim`` of each pair.
``gaussianity_check`` verifies that simulated samples have the mean and
variance a noise model predicts, in units of standard errors, and is the
workhorse behind the channel-to-forward equivalence tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .diffusion import Latent

__all__ = [
    "GaussianityReport",
    "mse",
    "psnr",
    "ssim",
    "ssim_batch",
    "gaussianity_check",
]

PSNR_CAP_DB = 99.0

ArrayLike = Union[Latent, np.ndarray]


def _values(x: ArrayLike) -> np.ndarray:
    if isinstance(x, Latent):
        return x.data
    return np.asarray(x, dtype=np.float64)


def mse(a: ArrayLike, b: ArrayLike) -> float:
    """Mean squared difference between two equally shaped signals."""
    av, bv = _values(a), _values(b)
    if av.shape != bv.shape:
        raise ValueError(f"shape mismatch: {av.shape} vs {bv.shape}")
    d = av - bv
    return float(np.mean(d * d))


def psnr_from_mse(err: float, peak: float = 1.0) -> float:
    """PSNR in dB for a known mean squared error, capped at 99 dB."""
    if peak <= 0.0:
        raise ValueError(f"peak must be > 0, got {peak!r}")
    if err < 0.0:
        raise ValueError(f"mse must be >= 0, got {err!r}")
    if err == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * math.log10(peak * peak / err), PSNR_CAP_DB)


def psnr(a: ArrayLike, b: ArrayLike, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB; identical inputs return the 99 dB cap."""
    return psnr_from_mse(mse(a, b), peak)


def _gaussian_kernel(window: int, sigma: float) -> np.ndarray:
    half = (window - 1) / 2.0
    x = np.arange(window) - half
    g = np.exp(-(x * x) / (2.0 * sigma * sigma))
    k = np.outer(g, g)
    return k / k.sum()


def ssim_batch(
    A: np.ndarray,
    B: np.ndarray,
    window: int = 7,
    k1: float = 0.01,
    k2: float = 0.03,
    peak: float = 1.0,
    kernel_sigma: float = 1.5,
) -> np.ndarray:
    """``ssim`` of every image pair in two ``(N, w, h, c)`` stacks.

    The local statistics of all N pairs are filtered together: the
    kernel-weighted shifted slices are added in a fixed order, and each
    image's per-channel means run over contiguous rows of the SSIM map.
    Every value therefore goes through the same floating-point operations
    whatever N is, so a batched value is bit-identical to ``ssim`` of that
    pair alone.  Validation and messages are ``ssim``'s, with stack shapes.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    if A.ndim != 4:
        raise ValueError(f"expected (N, w, h, c) stacks, got shape {A.shape}")
    if window < 3 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 3, got {window}")
    n_img, w, h, channels = A.shape
    if window > w or window > h:
        raise ValueError(f"window {window} larger than image plane ({w}x{h})")
    if peak <= 0.0:
        raise ValueError(f"peak must be > 0, got {peak!r}")
    c1 = (k1 * peak) ** 2
    c2 = (k2 * peak) ** 2
    kernel = _gaussian_kernel(window, kernel_sigma)
    wo, ho = w - window + 1, h - window + 1

    # (w, h, 5, N, c): a shifted window slice is a few long contiguous runs
    stats = np.empty((w, h, 5, n_img, channels))
    stats[:, :, 0] = A.transpose(1, 2, 0, 3)
    stats[:, :, 1] = B.transpose(1, 2, 0, 3)
    a, b = stats[:, :, 0], stats[:, :, 1]
    np.multiply(a, a, out=stats[:, :, 2])
    np.multiply(b, b, out=stats[:, :, 3])
    np.multiply(a, b, out=stats[:, :, 4])
    local = np.multiply(kernel[0, 0], stats[:wo, :ho])
    term = np.empty_like(local)
    for i in range(window):
        for j in range(window):
            if i or j:
                np.multiply(kernel[i, j], stats[i : i + wo, j : j + ho], out=term)
                local += term
    mu_a, mu_b, m_aa, m_bb, m_ab = np.moveaxis(local, 2, 0)
    var_a = m_aa - mu_a * mu_a
    var_b = m_bb - mu_b * mu_b
    cov = m_ab - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    # one contiguous row of w' * h' map values per image and channel
    rows = np.ascontiguousarray((num / den).reshape(wo * ho, n_img * channels).T)
    return rows.reshape(n_img, channels, wo * ho).mean(axis=2).mean(axis=1)


def ssim(
    a: Latent,
    b: Latent,
    window: int = 7,
    k1: float = 0.01,
    k2: float = 0.03,
    peak: float = 1.0,
    kernel_sigma: float = 1.5,
) -> float:
    """Structural similarity with Gaussian-weighted local statistics.

    Each channel slice is scanned with a ``window x window`` Gaussian
    kernel over every fully contained position; per-channel map means are
    averaged.  Identical inputs give exactly 1; anticorrelated structure
    drives the value negative.  This is ``ssim_batch`` on a stack of one.

    Raises
    ------
    ValueError
        On shape mismatch, an even or too-small window, or a window
        larger than the image plane.
    """
    return float(
        ssim_batch(a.as_image()[None], b.as_image()[None], window, k1, k2, peak, kernel_sigma)[0]
    )


@dataclass(frozen=True)
class GaussianityReport:
    """Outcome of a sample-moment check against a target Gaussian;
    ``passed`` is derived: true when there are no ``failures``."""

    n: int
    tol_se: float
    passed: bool = field(init=False)
    failures: tuple[str, ...]
    max_mean_dev_se: float
    max_var_dev_se: float

    def __post_init__(self):
        object.__setattr__(self, "passed", not self.failures)


def gaussianity_check(
    samples: np.ndarray,
    mu: ArrayLike,
    sigma2: ArrayLike,
    tol_se: float = 4.0,
) -> GaussianityReport:
    """Check sample means and variances against a Gaussian prediction.

    ``samples`` has one row per draw and one column per dimension.  Each
    dimension's sample mean must lie within ``tol_se`` standard errors of
    ``mu`` (standard error ``sqrt(sigma2 / n)``) and its unbiased sample
    variance within ``tol_se`` standard errors of ``sigma2`` (standard
    error ``sigma2 * sqrt(2 / (n - 1))``).

    Requires at least 1000 draws; fewer make the variance standard error
    formula too unreliable to act on.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.ndim != 2:
        raise ValueError(f"samples must be a 2-D array, got ndim={samples.ndim}")
    n, d = samples.shape
    if n < 1000:
        raise ValueError(f"too few samples: need at least 1000 draws, got {n}")
    mu_t = np.broadcast_to(np.asarray(_values(mu), dtype=np.float64), (d,))
    s2_t = np.broadcast_to(np.asarray(_values(sigma2), dtype=np.float64), (d,))
    if np.any(s2_t < 0.0):
        raise ValueError("sigma2 must be >= 0")

    mean = samples.mean(axis=0)
    var = samples.var(axis=0, ddof=1)
    se_mean = np.sqrt(s2_t / n)
    se_var = s2_t * math.sqrt(2.0 / (n - 1))

    failures = []
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_dev = np.abs(mean - mu_t) / se_mean
        var_dev = np.abs(var - s2_t) / se_var
    # zero target variance: the samples must be exactly constant
    mean_dev = np.where(s2_t == 0.0, np.where(mean == mu_t, 0.0, np.inf), mean_dev)
    var_dev = np.where(s2_t == 0.0, np.where(var == 0.0, 0.0, np.inf), var_dev)
    for j in range(d):
        if mean_dev[j] > tol_se:
            failures.append(
                f"dim {j}: mean {mean[j]:.6g} deviates {mean_dev[j]:.2f} SE "
                f"from {mu_t[j]:.6g}"
            )
        if var_dev[j] > tol_se:
            failures.append(
                f"dim {j}: variance {var[j]:.6g} deviates {var_dev[j]:.2f} SE "
                f"from {s2_t[j]:.6g}"
            )
    return GaussianityReport(
        n=n,
        tol_se=tol_se,
        failures=tuple(failures),
        max_mean_dev_se=float(np.max(mean_dev)),
        max_var_dev_se=float(np.max(var_dev)),
    )
