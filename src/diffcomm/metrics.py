"""Reconstruction quality metrics.

PSNR and SSIM operate on latents interpreted as (width, height, channels)
images at unit peak.  SSIM uses Gaussian-weighted local windows on each
channel slice with the constants of Wang et al. (IEEE TIP 2004) and
averages the per-channel means; ``ssim_batch`` scores a stack of image
pairs in one array pass, bit-identical to ``ssim`` of each pair.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "mse",
    "psnr",
    "ssim",
    "ssim_batch",
]

PSNR_CAP_DB = 99.0
# SSIM stabilizers c1 = (K1 * peak)^2 and c2 = (K2 * peak)^2 at unit peak,
# and the standard deviation of the Gaussian window
SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_KERNEL_SIGMA = 1.5


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared difference between two equally shaped, nonempty signals."""
    av, bv = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape:
        raise ValueError(f"shape mismatch: {av.shape} vs {bv.shape}")
    if av.size == 0:
        raise ValueError(f"mse of empty signals of shape {av.shape}")
    d = av - bv
    return float(np.mean(d * d))


def psnr_from_mse(err: float) -> float:
    """PSNR in dB at unit peak for a known mean squared error, capped at 99 dB;
    an infinite error gives -inf, the limit at the other end."""
    if err < 0.0:
        raise ValueError(f"mse must be >= 0, got {err!r}")
    if err == 0.0:
        return PSNR_CAP_DB
    if err == math.inf:
        return -math.inf
    return min(10.0 * math.log10(1.0 / err), PSNR_CAP_DB)


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB at unit peak; identical inputs
    return the 99 dB cap."""
    return psnr_from_mse(mse(a, b))


def _gaussian_kernel(window: int, sigma: float) -> np.ndarray:
    half = (window - 1) / 2.0
    x = np.arange(window) - half
    g = np.exp(-(x * x) / (2.0 * sigma * sigma))
    k = np.outer(g, g)
    return k / k.sum()


def ssim_batch(A: np.ndarray, B: np.ndarray, window: int = 7) -> np.ndarray:
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
    c1 = SSIM_K1**2
    c2 = SSIM_K2**2
    kernel = _gaussian_kernel(window, SSIM_KERNEL_SIGMA)
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


def ssim(a: np.ndarray, b: np.ndarray, window: int = 7) -> float:
    """Structural similarity of two ``(w, h, c)`` images with
    Gaussian-weighted local statistics.

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
    return float(ssim_batch(np.asarray(a)[None], np.asarray(b)[None], window)[0])
