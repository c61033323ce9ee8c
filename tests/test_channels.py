"""Channel models: complex bridge, AWGN/fading/MIMO statistics, equalization.

Monte Carlo moment checks run at 4 standard errors so seeded runs stay
stable; the i.i.d. structure lets one long vector stand in for many
independent trials.
"""

import math

import numpy as np
import pytest

from diffcomm import (
    ComplexVector,
    DeepFadeError,
    MimoChannel,
    RankDeficientChannelError,
    awgn_transmit,
    build_linear_schedule,
    gaussianity_check,
    mimo_svd_decompose,
    mimo_transmit,
    rayleigh_transmit_mmse,
    sigma2_to_step,
    step_to_sigma2,
)

SCHEDULE = build_linear_schedule()


def test_interleave_round_trip_within_one_ulp():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(2048)
    back = ComplexVector.from_real(x).to_real()
    assert np.all(np.abs(back - x) <= np.abs(x) * 2.0**-51)


def test_interleave_preserves_power():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(5000)
    z = ComplexVector.from_real(x)
    power = float(np.mean(z.re**2 + z.im**2))  # per complex symbol
    assert power == pytest.approx(float(np.mean(x * x)), rel=1e-12)


def test_interleave_requires_even_length():
    with pytest.raises(ValueError, match="even"):
        ComplexVector.from_real(np.ones(7))


def test_complex_array_round_trip():
    rng = np.random.default_rng(3)
    z = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    vec = ComplexVector.from_complex(z)
    assert np.array_equal(vec.as_complex(), z)


# ---------------------------------------------------------------------------
# AWGN


def test_awgn_noise_statistics():
    rng = np.random.default_rng(10)
    n_real = 100_000
    x = np.zeros(n_real)
    sigma = 0.7
    out = awgn_transmit(ComplexVector.from_real(x), sigma, rng, SCHEDULE)
    noise = out.received.to_real()
    report = gaussianity_check(noise, 0.0, sigma * sigma)
    assert report.passed, report.failures


def test_awgn_step_mapping_matches_module():
    rng = np.random.default_rng(11)
    z = ComplexVector.from_real(rng.standard_normal(128))
    sigma2 = step_to_sigma2(SCHEDULE, 259)
    out = awgn_transmit(z, math.sqrt(sigma2), rng, SCHEDULE)
    assert out.mappings[0].step_u == sigma2_to_step(SCHEDULE, sigma2).step_u
    assert out.effective_sigma2[0] == pytest.approx(sigma2, rel=1e-15)


def test_awgn_received_signal_is_signal_plus_drawn_noise():
    # rebuilt from a twin generator: the real parts' noise is drawn first
    z = ComplexVector.from_real(np.random.default_rng(20).standard_normal(256))
    sigma = 0.8
    out = awgn_transmit(z, sigma, np.random.default_rng(77), SCHEDULE)
    twin = np.random.default_rng(77)
    c = sigma / math.sqrt(2.0)
    noise_re = c * twin.standard_normal(z.n)
    noise_im = c * twin.standard_normal(z.n)
    assert np.array_equal(out.received.re, z.re + noise_re)
    assert np.array_equal(out.received.im, z.im + noise_im)
    assert out.effective_sigma2 == (sigma * sigma,)
    assert out.mappings[0].step_u == sigma2_to_step(SCHEDULE, sigma * sigma).step_u


def test_awgn_zero_noise_is_exact_and_consumes_no_randomness():
    rng = np.random.default_rng(12)
    z = ComplexVector.from_real(np.linspace(-1, 1, 64))
    out = awgn_transmit(z, 0.0, rng, SCHEDULE)
    assert np.array_equal(out.received.re, z.re)
    assert np.array_equal(out.received.im, z.im)
    assert out.mappings[0].step_u == 0
    # generator state untouched by the zero-noise path
    fresh = np.random.default_rng(12)
    assert rng.standard_normal() == fresh.standard_normal()


# ---------------------------------------------------------------------------
# Rayleigh + MMSE


def test_rayleigh_zero_noise_exact_passthrough():
    z = ComplexVector.from_real(np.random.default_rng(21).standard_normal(64))
    out = rayleigh_transmit_mmse(z, 0.3 - 1.2j, 0.0, np.random.default_rng(0), SCHEDULE)
    assert np.array_equal(out.received.re, z.re)
    assert np.array_equal(out.received.im, z.im)


def test_rayleigh_noise_statistics_after_equalization():
    # |h| = 0.5 doubles the noise std after equalization
    h = 0.3 + 0.4j
    sigma = 0.5
    rng = np.random.default_rng(22)
    x = np.zeros(100_000)
    out = rayleigh_transmit_mmse(ComplexVector.from_real(x), h, sigma, rng, SCHEDULE)
    eff = sigma * sigma / abs(h) ** 2
    report = gaussianity_check(out.received.to_real(), 0.0, eff)
    assert report.passed, report.failures
    assert out.effective_sigma2[0] == pytest.approx(eff, rel=1e-12)


def test_rayleigh_convention_switch():
    h = 2.0 + 0.0j
    sigma = 0.5
    z = ComplexVector.from_real(np.random.default_rng(23).standard_normal(128))
    weighted = rayleigh_transmit_mmse(
        z, h, sigma, np.random.default_rng(5), SCHEDULE, convention="gain_weighted"
    )
    mmse = rayleigh_transmit_mmse(z, h, sigma, np.random.default_rng(5), SCHEDULE, convention="mmse")
    gain2 = abs(h) ** 2
    assert weighted.mappings[0].step_u == sigma2_to_step(SCHEDULE, sigma * sigma * gain2).step_u
    assert mmse.mappings[0].step_u == sigma2_to_step(SCHEDULE, sigma * sigma / gain2).step_u
    # the physical received signal is identical; only the step label moves
    assert np.array_equal(weighted.received.re, mmse.received.re)
    assert weighted.effective_sigma2 == mmse.effective_sigma2
    with pytest.raises(ValueError, match="convention"):
        rayleigh_transmit_mmse(z, h, sigma, np.random.default_rng(5), SCHEDULE, convention="other")


def test_rayleigh_conventions_coincide_at_unit_gain():
    h = complex(math.cos(0.7), math.sin(0.7))  # |h| = 1
    z = ComplexVector.from_real(np.random.default_rng(24).standard_normal(64))
    weighted = rayleigh_transmit_mmse(
        z, h, 0.6, np.random.default_rng(6), SCHEDULE, convention="gain_weighted"
    )
    mmse = rayleigh_transmit_mmse(z, h, 0.6, np.random.default_rng(6), SCHEDULE, convention="mmse")
    assert weighted.mappings[0].step_u == mmse.mappings[0].step_u


def test_rayleigh_deep_fade():
    z = ComplexVector.from_real(np.ones(8))
    with pytest.raises(DeepFadeError):
        rayleigh_transmit_mmse(z, 0.0j, 0.5, np.random.default_rng(0), SCHEDULE)


# ---------------------------------------------------------------------------
# MIMO


def _random_H(rng, M=2):
    return (rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))) / math.sqrt(2.0)


def test_svd_reconstruction_and_unitarity():
    rng = np.random.default_rng(30)
    # large scales too: an absolute tolerance once rejected numpy's exact SVD of 1e6 * H
    for H in [scale * _random_H(rng) for scale in (1.0, 1e6, 1e8) for _ in range(50)]:
        ch = mimo_svd_decompose(H)
        rebuilt = ch.U @ np.diag(ch.singular_values) @ ch.V.conj().T
        assert np.linalg.norm(rebuilt - H) <= 1e-12 * np.linalg.norm(H)
        eye = np.eye(2)
        assert np.linalg.norm(ch.U.conj().T @ ch.U - eye) < 1e-12
        assert np.linalg.norm(ch.V.conj().T @ ch.V - eye) < 1e-12
        assert ch.singular_values[0] >= ch.singular_values[1] >= 0.0


def test_mimo_channel_rejects_inconsistent_factors():
    """The factors are derived from H, so inconsistent ones cannot be passed in."""
    rng = np.random.default_rng(31)
    ch = mimo_svd_decompose(_random_H(rng))
    with pytest.raises(TypeError):
        MimoChannel(H=ch.H * 2.0, U=ch.U, V=ch.V, singular_values=ch.singular_values)
    with pytest.raises(TypeError):
        MimoChannel(ch.H, _tol=1.0)
    doubled = MimoChannel(ch.H * 2.0)
    assert np.allclose(doubled.singular_values, 2.0 * ch.singular_values, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0.0, math.inf)])
def test_mimo_channel_rejects_a_non_finite_matrix(bad):
    H = _random_H(np.random.default_rng(38))
    H[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        MimoChannel(H)
    with pytest.raises(ValueError, match="finite"):
        mimo_svd_decompose(H)


@pytest.mark.parametrize("H", [np.ones((2, 3)), np.ones(4), np.ones((2, 2, 2))])
def test_mimo_channel_rejects_a_non_square_matrix(H):
    with pytest.raises(ValueError, match="square"):
        MimoChannel(H)


def test_mimo_stream_noise_statistics():
    rng = np.random.default_rng(32)
    H = _random_H(rng)
    ch = mimo_svd_decompose(H)
    sigma = 0.4
    n_complex = 20_000  # 10k symbols per stream
    z = ComplexVector.from_real(np.zeros(2 * n_complex))
    out = mimo_transmit(z, ch, sigma, rng, SCHEDULE)
    received = out.received.to_real()
    width = received.size // 2
    for i in range(2):
        eff = (sigma / ch.singular_values[i]) ** 2
        assert out.effective_sigma2[i] == pytest.approx(eff, rel=1e-12)
        stream = received[i * width : (i + 1) * width]
        report = gaussianity_check(stream, 0.0, eff)
        assert report.passed, (i, report.failures)
        assert out.mappings[i].step_u == sigma2_to_step(SCHEDULE, out.effective_sigma2[i]).step_u


def test_mimo_zero_noise_recovers_signal():
    rng = np.random.default_rng(33)
    ch = mimo_svd_decompose(_random_H(rng))
    x = rng.standard_normal(64)
    out = mimo_transmit(ComplexVector.from_real(x), ch, 0.0, rng, SCHEDULE)
    assert np.allclose(out.received.to_real(), x, atol=1e-12)


def test_mimo_rank_deficient_raises():
    u = np.array([[1.0 + 0j], [0.0 + 0j]])
    H = u @ u.conj().T  # rank 1
    ch = mimo_svd_decompose(H)
    z = ComplexVector.from_real(np.ones(8))
    with pytest.raises(RankDeficientChannelError):
        mimo_transmit(z, ch, 0.5, np.random.default_rng(0), SCHEDULE)


@pytest.mark.parametrize("sigma", [0.5, 0.0])
def test_mimo_singular_value_whose_square_underflows_is_dead(sigma):
    """s = 1e-170 is nonzero, but s * s underflows to 0, so the stream's
    variance sigma2 / s**2 has no finite value: the subchannel is dead."""
    ch = mimo_svd_decompose(np.diag([1.0, 1e-170]).astype(complex))
    assert ch.singular_values[1] == 1e-170
    z = ComplexVector.from_real(np.ones(8))
    with pytest.raises(RankDeficientChannelError) as err:
        mimo_transmit(z, ch, sigma, np.random.default_rng(0), SCHEDULE)
    assert err.value.dead_streams == [1]


def test_mimo_stream_divisibility():
    rng = np.random.default_rng(34)
    ch = mimo_svd_decompose(_random_H(rng))
    z = ComplexVector.from_real(np.ones(6))  # 3 symbols, 2 streams
    with pytest.raises(ValueError, match="divisible"):
        mimo_transmit(z, ch, 0.5, rng, SCHEDULE)


def test_mimo_channel_copies_the_caller_arrays():
    rng = np.random.default_rng(36)
    H = _random_H(rng)
    for ch in (mimo_svd_decompose(H), MimoChannel(H)):
        assert H.flags.writeable and ch.H is not H
        kept = {name: getattr(ch, name).copy() for name in ("H", "U", "V", "singular_values")}
        H[0, 0] += 2.0  # the caller's matrix stays writable and detached
        for name, arr in kept.items():
            stored = getattr(ch, name)
            assert not stored.flags.writeable
            assert np.array_equal(stored, arr)
            with pytest.raises(ValueError):
                stored[...] = 0.0
