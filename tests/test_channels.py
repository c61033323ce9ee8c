"""Channel models: real/complex bridge, AWGN/fading/MIMO statistics, equalization.

Monte Carlo moment checks run at 4 standard errors so seeded runs stay
stable; the i.i.d. structure lets one long vector stand in for many
independent trials.
"""

import math

import numpy as np
import pytest

from diffcomm import (
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
SQRT2 = math.sqrt(2.0)


def _bridged(x, noise_re=0.0, noise_im=0.0):
    """``x`` carried on complex symbols with the given noise and back, in
    the channels' own order of operations."""
    out = np.empty_like(x)
    out[0::2] = (x[0::2] / SQRT2 + noise_re) * SQRT2
    out[1::2] = (x[1::2] / SQRT2 + noise_im) * SQRT2
    return out


def _transmit_each(z, rng):
    """``z`` through each channel type, one call each."""
    ch = mimo_svd_decompose(np.eye(2, dtype=complex))
    yield lambda: awgn_transmit(z, 0.5, rng, SCHEDULE)
    yield lambda: rayleigh_transmit_mmse(z, 0.3 - 1.2j, 0.5, rng, SCHEDULE)
    yield lambda: mimo_transmit(z, ch, 0.5, rng, SCHEDULE)


def test_interleave_round_trip_within_one_ulp():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(2048)
    back = awgn_transmit(x, 0.0, rng, SCHEDULE).received
    assert back.shape == x.shape
    assert np.all(np.abs(back - x) <= np.abs(x) * 2.0**-51)


def test_interleave_requires_even_length():
    for call in _transmit_each(np.ones(7), np.random.default_rng(0)):
        with pytest.raises(ValueError, match="^real length must be even, got 7$"):
            call()


@pytest.mark.parametrize("z, message", [
    (np.ones((2, 4)), "^expected a one-dimensional real vector$"),
    (np.ones(()), "^expected a one-dimensional real vector$"),
    (np.ones(0), "^signal must contain at least one symbol$"),
    (np.array([1.0, np.nan, 0.0, 1.0]), "^signal components must be finite$"),
    (np.array([1.0, 0.0, -np.inf, 1.0]), "^signal components must be finite$"),
], ids=["2-D", "0-D", "empty", "nan", "inf"])
def test_every_channel_checks_its_real_input(z, message):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for call in _transmit_each(z, rng):
        with pytest.raises(ValueError, match=message):
            call()
    assert rng.bit_generator.state == state


def test_received_signal_that_overflows_is_rejected():
    """A nonzero fade so deep that the equalized noise overflows."""
    h = 1e-160  # |h|^2 is subnormal, not zero, and conj(h)/|h|^2 is 1e160
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        ValueError, match="^signal components must be finite$"
    ):
        rayleigh_transmit_mmse(np.ones(8), h, 1e150, np.random.default_rng(0), SCHEDULE)


# ---------------------------------------------------------------------------
# AWGN


def test_awgn_noise_statistics():
    rng = np.random.default_rng(10)
    n_real = 100_000
    x = np.zeros(n_real)
    sigma = 0.7
    out = awgn_transmit(x, sigma, rng, SCHEDULE)
    report = gaussianity_check(out.received, 0.0, sigma * sigma)
    assert report.passed, report.failures


def test_awgn_step_mapping_matches_module():
    rng = np.random.default_rng(11)
    z = rng.standard_normal(128)
    sigma2 = step_to_sigma2(SCHEDULE, 259)
    out = awgn_transmit(z, math.sqrt(sigma2), rng, SCHEDULE)
    assert out.mappings[0].step_u == sigma2_to_step(SCHEDULE, sigma2).step_u
    assert out.effective_sigma2[0] == pytest.approx(sigma2, rel=1e-15)


def test_awgn_received_signal_is_signal_plus_drawn_noise():
    # rebuilt from a twin generator: the real parts' noise is drawn first
    x = np.random.default_rng(20).standard_normal(256)
    sigma = 0.8
    out = awgn_transmit(x, sigma, np.random.default_rng(77), SCHEDULE)
    twin = np.random.default_rng(77)
    c = sigma / SQRT2
    noise_re = c * twin.standard_normal(128)
    noise_im = c * twin.standard_normal(128)
    assert np.array_equal(out.received, _bridged(x, noise_re, noise_im))
    assert out.effective_sigma2 == (sigma * sigma,)
    assert out.mappings[0].step_u == sigma2_to_step(SCHEDULE, sigma * sigma).step_u


def test_awgn_zero_noise_is_exact_and_consumes_no_randomness():
    rng = np.random.default_rng(12)
    x = np.linspace(-1, 1, 64)
    out = awgn_transmit(x, 0.0, rng, SCHEDULE)
    assert np.array_equal(out.received, _bridged(x))
    assert out.mappings[0].step_u == 0
    # generator state untouched by the zero-noise path
    fresh = np.random.default_rng(12)
    assert rng.standard_normal() == fresh.standard_normal()


# ---------------------------------------------------------------------------
# Rayleigh + MMSE


def test_rayleigh_zero_noise_exact_passthrough():
    x = np.random.default_rng(21).standard_normal(64)
    out = rayleigh_transmit_mmse(x, 0.3 - 1.2j, 0.0, np.random.default_rng(0), SCHEDULE)
    assert np.array_equal(out.received, _bridged(x))


def test_rayleigh_noise_statistics_after_equalization():
    # |h| = 0.5 doubles the noise std after equalization
    h = 0.3 + 0.4j
    sigma = 0.5
    rng = np.random.default_rng(22)
    x = np.zeros(100_000)
    out = rayleigh_transmit_mmse(x, h, sigma, rng, SCHEDULE)
    eff = sigma * sigma / abs(h) ** 2
    report = gaussianity_check(out.received, 0.0, eff)
    assert report.passed, report.failures
    assert out.effective_sigma2[0] == pytest.approx(eff, rel=1e-12)


def test_rayleigh_convention_switch():
    h = 2.0 + 0.0j
    sigma = 0.5
    z = np.random.default_rng(23).standard_normal(128)
    weighted = rayleigh_transmit_mmse(
        z, h, sigma, np.random.default_rng(5), SCHEDULE, convention="gain_weighted"
    )
    mmse = rayleigh_transmit_mmse(z, h, sigma, np.random.default_rng(5), SCHEDULE, convention="mmse")
    gain2 = abs(h) ** 2
    assert weighted.mappings[0].step_u == sigma2_to_step(SCHEDULE, sigma * sigma * gain2).step_u
    assert mmse.mappings[0].step_u == sigma2_to_step(SCHEDULE, sigma * sigma / gain2).step_u
    # the physical received signal is identical; only the step label moves
    assert np.array_equal(weighted.received, mmse.received)
    assert weighted.effective_sigma2 == mmse.effective_sigma2
    with pytest.raises(ValueError, match="convention"):
        rayleigh_transmit_mmse(z, h, sigma, np.random.default_rng(5), SCHEDULE, convention="other")


def test_rayleigh_conventions_coincide_at_unit_gain():
    h = complex(math.cos(0.7), math.sin(0.7))  # |h| = 1
    z = np.random.default_rng(24).standard_normal(64)
    weighted = rayleigh_transmit_mmse(
        z, h, 0.6, np.random.default_rng(6), SCHEDULE, convention="gain_weighted"
    )
    mmse = rayleigh_transmit_mmse(z, h, 0.6, np.random.default_rng(6), SCHEDULE, convention="mmse")
    assert weighted.mappings[0].step_u == mmse.mappings[0].step_u


def test_rayleigh_deep_fade():
    z = np.ones(8)
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
    out = mimo_transmit(np.zeros(2 * n_complex), ch, sigma, rng, SCHEDULE)
    received = out.received
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
    out = mimo_transmit(x, ch, 0.0, rng, SCHEDULE)
    assert out.received.shape == x.shape
    assert np.allclose(out.received, x, atol=1e-12)


def test_mimo_rank_deficient_raises():
    u = np.array([[1.0 + 0j], [0.0 + 0j]])
    H = u @ u.conj().T  # rank 1
    ch = mimo_svd_decompose(H)
    z = np.ones(8)
    with pytest.raises(RankDeficientChannelError):
        mimo_transmit(z, ch, 0.5, np.random.default_rng(0), SCHEDULE)


@pytest.mark.parametrize("sigma", [0.5, 0.0])
def test_mimo_singular_value_whose_square_underflows_is_dead(sigma):
    """s = 1e-170 is nonzero, but s * s underflows to 0, so the stream's
    variance sigma2 / s**2 has no finite value: the subchannel is dead."""
    ch = mimo_svd_decompose(np.diag([1.0, 1e-170]).astype(complex))
    assert ch.singular_values[1] == 1e-170
    z = np.ones(8)
    with pytest.raises(RankDeficientChannelError) as err:
        mimo_transmit(z, ch, sigma, np.random.default_rng(0), SCHEDULE)
    assert err.value.dead_streams == [1]


def test_mimo_stream_divisibility():
    rng = np.random.default_rng(34)
    ch = mimo_svd_decompose(_random_H(rng))
    z = np.ones(6)  # 3 symbols, 2 streams
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
