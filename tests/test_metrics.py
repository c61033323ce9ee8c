"""Quality metrics and the Monte Carlo moment harness.

The SSIM oracle below recomputes the metric with explicit Python loops
over window positions, sharing nothing with the library implementation
but the published formula.
"""

import math

import numpy as np
import pytest

from diffcomm import (
    mse,
    psnr,
    psnr_from_mse,
    ssim,
    ssim_batch,
)

from moments import GaussianityReport, gaussianity_check

# ---------------------------------------------------------------------------
# MSE / PSNR


def test_mse_hand_values():
    assert mse(np.zeros(4), np.ones(4)) == 1.0
    assert mse(np.array([1.0, 3.0]), np.array([2.0, 5.0])) == pytest.approx(2.5)
    a = np.random.default_rng(0).standard_normal(10)
    assert mse(a, a) == 0.0
    with pytest.raises(ValueError):
        mse(np.zeros(3), np.zeros(4))
    for shape in ((0,), (2, 0, 4)):
        with pytest.raises(ValueError) as info:
            mse(np.zeros(shape), np.zeros(shape))
        assert str(info.value) == f"mse of empty signals of shape {shape}"


def test_psnr_hand_values_and_cap():
    assert psnr_from_mse(0.01) == pytest.approx(20.0, rel=1e-12)
    assert psnr_from_mse(0.0) == 99.0
    assert psnr_from_mse(1e-30) == 99.0
    with pytest.raises(ValueError):
        psnr_from_mse(-0.1)
    # an infinite error gives the limit at the other end
    assert psnr_from_mse(1e300) == pytest.approx(-3000.0, rel=1e-12)
    assert psnr_from_mse(math.inf) == -math.inf
    with pytest.warns(RuntimeWarning, match="overflow"):  # the squares overflow to inf
        assert psnr(np.zeros(2), np.full(2, 1e200)) == -math.inf


def test_psnr_of_signals():
    a = np.zeros(100)
    b = np.full(100, 0.1)
    assert psnr(a, b) == pytest.approx(20.0, rel=1e-12)


# ---------------------------------------------------------------------------
# SSIM


def test_ssim_identical_is_one():
    rng = np.random.default_rng(1)
    img = rng.uniform(0, 1, size=(10, 10, 3))
    assert ssim(img, img) == 1.0


def test_ssim_constant_shift_hand_value():
    """Zero-variance images isolate the luminance term
    (2*mu_a*mu_b + c1) / (mu_a^2 + mu_b^2 + c1)."""
    a = np.zeros((8, 8, 1))
    b = np.full((8, 8, 1), 0.5)
    c1 = 1e-4
    expected = c1 / (0.25 + c1)
    assert ssim(a, b) == pytest.approx(expected, rel=1e-12)


def test_ssim_anticorrelated_structure_is_negative():
    """Reflecting an image about its mean keeps luminance matched but
    makes every local covariance negative, driving SSIM below zero.
    (Plain negation would flip the luminance term too and the two signs
    would cancel.)"""
    rng = np.random.default_rng(2)
    img = rng.uniform(0.0, 1.0, size=(12, 12, 1))
    reflected = 1.0 - img
    assert ssim(img, reflected) < 0.0


def _ssim_loop_oracle(a, b, window=7):
    # the constants of Wang et al. (IEEE TIP 2004) at unit peak
    half = (window - 1) / 2.0
    g = np.exp(-((np.arange(window) - half) ** 2) / (2.0 * 1.5**2))
    kernel = np.outer(g, g)
    kernel = kernel / kernel.sum()
    c1, c2 = 0.01**2, 0.03**2
    w, h, channels = a.shape
    per_channel = []
    for c in range(channels):
        vals = []
        for i in range(w - window + 1):
            for j in range(h - window + 1):
                pa = a[i : i + window, j : j + window, c]
                pb = b[i : i + window, j : j + window, c]
                mu_a = float(np.sum(kernel * pa))
                mu_b = float(np.sum(kernel * pb))
                var_a = float(np.sum(kernel * pa * pa)) - mu_a**2
                var_b = float(np.sum(kernel * pb * pb)) - mu_b**2
                cov = float(np.sum(kernel * pa * pb)) - mu_a * mu_b
                num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
                den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
                vals.append(num / den)
        per_channel.append(np.mean(vals))
    return float(np.mean(per_channel))


def test_ssim_matches_scalar_loop_oracle():
    rng = np.random.default_rng(3)
    a = rng.uniform(0, 1, size=(12, 12, 2))
    b = np.clip(a + 0.1 * rng.standard_normal(a.shape), 0, 1)
    got = ssim(a, b)
    want = _ssim_loop_oracle(a, b)
    assert got == pytest.approx(want, abs=1e-12)


def test_ssim_validation():
    a = np.zeros((8, 8, 1))
    with pytest.raises(ValueError, match="odd"):
        ssim(a, a, window=4)
    with pytest.raises(ValueError, match="window"):
        ssim(a, a, window=9)
    with pytest.raises(ValueError, match="shape"):
        ssim(a, np.zeros((8, 8, 2)))


# (image shape, window) pairs, including a plane narrower than it is tall
# and a single-channel plane whose map has an odd number of positions
SSIM_SHAPES = [((8, 8, 4), 7), ((32, 32, 3), 7), ((16, 12, 2), 5), ((7, 9, 1), 7)]


def _stacks(shape, count, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, size=(count, *shape))
    return a, a + 0.2 * rng.standard_normal(a.shape)


@pytest.mark.parametrize("count", [1, 3, 40])
@pytest.mark.parametrize("shape,window", SSIM_SHAPES)
def test_ssim_batch_is_bit_identical_to_per_image_ssim(shape, window, count):
    a, b = _stacks(shape, count, seed=10 + count)
    got = ssim_batch(a, b, window=window)
    assert got.shape == (count,)
    want = [ssim(a[i], b[i], window=window) for i in range(count)]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("shape,window", SSIM_SHAPES)
def test_ssim_batch_matches_scalar_loop_oracle(shape, window):
    a, b = _stacks(shape, 3, seed=20)
    got = ssim_batch(a, b, window=window)
    want = [_ssim_loop_oracle(a[i], b[i], window=window) for i in range(3)]
    assert got == pytest.approx(want, abs=1e-12)


def test_ssim_batch_of_identical_stacks_is_exactly_one():
    a, _ = _stacks((10, 10, 3), 5, seed=21)
    assert np.array_equal(ssim_batch(a, a.copy()), np.ones(5))


def test_ssim_batch_validation_messages():
    a = np.zeros((2, 8, 8, 1))
    with pytest.raises(ValueError, match=r"^window must be odd and >= 3, got 4$"):
        ssim_batch(a, a, window=4)
    with pytest.raises(ValueError, match=r"^window must be odd and >= 3, got 1$"):
        ssim_batch(a, a, window=1)
    with pytest.raises(ValueError, match=r"^window 9 larger than image plane \(8x8\)$"):
        ssim_batch(a, a, window=9)
    with pytest.raises(ValueError, match=r"^shape mismatch: \(2, 8, 8, 1\) vs \(2, 8, 8, 2\)$"):
        ssim_batch(a, np.zeros((2, 8, 8, 2)))
    with pytest.raises(ValueError, match=r"^shape mismatch: \(2, 8, 8, 1\) vs \(3, 8, 8, 1\)$"):
        ssim_batch(a, np.zeros((3, 8, 8, 1)))
    with pytest.raises(ValueError, match=r"^expected \(N, w, h, c\) stacks, got shape \(8, 8, 1\)$"):
        ssim_batch(a[0], a[0])


# ---------------------------------------------------------------------------
# gaussianity harness


def test_gaussianity_accepts_true_distribution():
    rng = np.random.default_rng(4)
    samples = 1.5 + 2.0 * rng.standard_normal(50_000)
    report = gaussianity_check(samples, 1.5, 4.0)
    assert report.passed
    assert report.failures == ()
    assert report.max_mean_dev_se <= 4.0
    assert report.max_var_dev_se <= 4.0


def test_gaussianity_rejects_shifted_mean():
    rng = np.random.default_rng(5)
    samples = rng.standard_normal(50_000)
    shift = 6.0 / math.sqrt(50_000)  # six standard errors
    report = gaussianity_check(samples + shift, 0.0, 1.0)
    assert not report.passed
    assert any("mean" in f for f in report.failures)


def test_gaussianity_rejects_inflated_variance():
    rng = np.random.default_rng(6)
    samples = 1.2 * rng.standard_normal(50_000)
    report = gaussianity_check(samples, 0.0, 1.0)
    assert not report.passed
    assert any("variance" in f for f in report.failures)


def test_gaussianity_report_derives_passed_from_failures():
    rng = np.random.default_rng(7)
    samples = rng.standard_normal(5000)
    reports = [gaussianity_check(samples, 0.0, 1.0), gaussianity_check(samples + 1.0, 0.0, 1.0)]
    assert [r.passed for r in reports] == [True, False]
    assert [not r.failures for r in reports] == [True, False]
    assert not GaussianityReport(n=1000, tol_se=4.0, failures=("dim 0",),
                                 max_mean_dev_se=5.0, max_var_dev_se=0.0).passed
    with pytest.raises(TypeError):
        GaussianityReport(n=1000, tol_se=4.0, passed=True, failures=("dim 0",),
                          max_mean_dev_se=5.0, max_var_dev_se=0.0)


def test_gaussianity_needs_large_sample():
    with pytest.raises(ValueError, match="1000"):
        gaussianity_check(np.zeros(10), 0.0, 1.0)


def test_gaussianity_zero_variance_exact():
    samples = np.full(2000, 3.25)
    report = gaussianity_check(samples, 3.25, 0.0)
    assert report.passed
