"""Forward/reverse process, compensation, and the analytic denoiser.

The reverse-chain accuracy oracle: sampling the exact posterior of an
i.i.d. Gaussian source with variance v observed under noise variance s2
has mean squared error 2*v*s2/(v+s2) (estimator error plus an equal,
independent sampling term).  Long latents make single seeded chains
statistically tight, since every element is an independent replica.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffcomm import (
    AnalyticGaussianDenoiser,
    CompensationInfeasibleError,
    Denoiser,
    GaussianSourceModel,
    Latent,
    adaptive_receive,
    build_linear_schedule,
    compensate_to_step,
    denoise_from_step,
    forward_sample,
    gaussianity_check,
    reverse_step,
    sigma2_to_step,
    step_to_sigma2,
)
from diffcomm import diffusion

SCHEDULE = build_linear_schedule()


class _FixedNoise:
    """Test denoiser that returns a pinned noise prediction array."""

    def __init__(self, eps):
        self.eps = np.asarray(eps, dtype=np.float64)

    def predict_noise(self, y_t, t):
        return self.eps


# ---------------------------------------------------------------------------
# Latent


def test_latent_validation_and_views():
    lat = Latent(data=np.arange(12, dtype=np.float64), shape=(2, 3, 2))
    assert lat.n == 12
    assert lat.as_image().shape == (2, 3, 2)
    assert np.array_equal(Latent(data=lat.data * 2, shape=lat.shape).data, lat.data * 2)
    with pytest.raises(ValueError):
        Latent(data=np.arange(5, dtype=np.float64), shape=(2, 3, 2))
    with pytest.raises(ValueError):
        Latent(data=np.array([1.0, np.nan]), shape=(2, 1, 1))
    with pytest.raises(ValueError):
        Latent(data=np.zeros(0), shape=(0, 1, 1))
    with pytest.raises(ValueError):
        lat.data[0] = 99.0
    for value in (np.nan, np.inf, -np.inf):
        data = np.zeros(12)
        data[5] = value
        with pytest.raises(ValueError, match="finite"):
            Latent(data=data, shape=lat.shape)
    for data, message in (
        (np.zeros((2, 6)), "one-dimensional"),
        (np.zeros((12, 1)), "one-dimensional"),
        (np.zeros(11), "implies 12 elements"),
        (np.zeros(13), "implies 12 elements"),
    ):
        with pytest.raises(ValueError, match=message):
            Latent(data=data, shape=lat.shape)
    out = Latent(data=np.ones(12), shape=lat.shape)
    assert out.shape == lat.shape and out.n == 12
    with pytest.raises(ValueError):
        out.data[0] = 99.0


def test_latent_copies_the_caller_array():
    x = np.arange(8, dtype=np.float64)
    lat = Latent(data=x, shape=(2, 2, 2))
    x[0] = 99.0  # the caller's array stays writable and detached
    assert lat.data[0] == 0.0
    # a view: a value written to its base after validation never shows up
    base = np.zeros(10)
    from_view = Latent(data=base[:4], shape=(4, 1, 1))
    base[1] = np.nan
    assert base.flags.writeable and np.isfinite(from_view.data).all()


# finite values whose squares (or their sum) overflow to inf
HUGE_FINITE = [
    np.full(12, 1e200),
    np.full(12, -1.7e308),
    np.array([0.5, -1e200, 3.0, 1.7e308, -2.0, 1e-300, 0.0, 7.0, -1.7e308, 1.0, 2.0, 1e155]),
]


@pytest.mark.parametrize("data", HUGE_FINITE, ids=["1e200", "-1.7e308", "mixed"])
def test_latent_accepts_finite_values_whose_squares_overflow(data):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lat = Latent(data=data, shape=(2, 3, 2))
        assert np.array_equal(lat.data, data)


@pytest.mark.parametrize("position", [0, 5, 11])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("fill", [0.0, 1e200, -1.7e308], ids=["zeros", "1e200", "-1.7e308"])
def test_latent_rejects_non_finite_at_any_position(fill, value, position):
    data = np.full(12, fill)
    data[position] = value
    with pytest.raises(ValueError, match=r"^latent components must be finite$"):
        Latent(data=data, shape=(2, 3, 2))


def test_source_model_draw_statistics():
    model = GaussianSourceModel(mean=0.5, variance=4.0)
    lat = model.draw((50, 40, 10), np.random.default_rng(0))
    report = gaussianity_check(lat.data, 0.5, 4.0)
    assert report.passed, report.failures
    with pytest.raises(ValueError):
        GaussianSourceModel(variance=-1.0)


# ---------------------------------------------------------------------------
# forward process


def test_forward_sample_statistics():
    rng = np.random.default_rng(1)
    y0 = Latent(data=np.full(100_000, 2.0), shape=(100_000, 1, 1))
    t = 300
    ab = SCHEDULE.alpha_bar(t)
    y_t = forward_sample(y0, t, SCHEDULE, rng)
    report = gaussianity_check(y_t.data, math.sqrt(ab) * 2.0, 1.0 - ab)
    assert report.passed, report.failures


def test_forward_sample_t0_identity_no_rng():
    rng = np.random.default_rng(2)
    y0 = Latent(data=np.ones(8), shape=(8, 1, 1))
    out = forward_sample(y0, 0, SCHEDULE, rng)
    assert np.array_equal(out.data, y0.data)
    assert rng.standard_normal() == np.random.default_rng(2).standard_normal()


# ---------------------------------------------------------------------------
# reverse process


def test_reverse_step_t1_is_deterministic_and_inverts_forward():
    """With the true noise handed to it, the t=1 ancestral step undoes the
    forward update exactly (up to float rounding)."""
    rng = np.random.default_rng(3)
    y0 = Latent(data=rng.standard_normal(256), shape=(256, 1, 1))
    eps = rng.standard_normal(256)
    ab1 = SCHEDULE.alpha_bar(1)
    y1 = Latent(data=math.sqrt(ab1) * y0.data + math.sqrt(1.0 - ab1) * eps, shape=y0.shape)
    state = np.random.default_rng(9)
    rec = reverse_step(y1, 1, _FixedNoise(eps), SCHEDULE, state)
    assert np.allclose(rec.data, y0.data, atol=1e-12)
    assert state.standard_normal() == np.random.default_rng(9).standard_normal()


def test_reverse_step_posterior_variance():
    t = 400
    n = 100_000
    y_t = Latent(data=np.full(n, 1.0), shape=(n, 1, 1))
    out = reverse_step(y_t, t, _FixedNoise(np.zeros(n)), SCHEDULE, np.random.default_rng(4))
    a_t = float(SCHEDULE.alphas[t - 1])
    mu = 1.0 / math.sqrt(a_t)
    var = (1.0 - SCHEDULE.alpha_bar(t - 1)) * (1.0 - a_t) / (1.0 - SCHEDULE.alpha_bar(t))
    report = gaussianity_check(out.data, mu, var)
    assert report.passed, report.failures


def test_reverse_step_range_check():
    y = Latent(data=np.zeros(4), shape=(4, 1, 1))
    with pytest.raises(IndexError):
        reverse_step(y, 0, _FixedNoise(np.zeros(4)), SCHEDULE, np.random.default_rng(0))
    with pytest.raises(IndexError):
        reverse_step(y, SCHEDULE.T + 1, _FixedNoise(np.zeros(4)), SCHEDULE, np.random.default_rng(0))


@pytest.mark.parametrize("shape", [(3,), (5,), (1,), (4, 1), (1, 4)])
def test_reverse_step_rejects_a_wrongly_shaped_prediction(shape):
    y = Latent(data=np.zeros(4), shape=(4, 1, 1))
    with pytest.raises(ValueError):
        reverse_step(y, 10, _FixedNoise(np.zeros(shape)), SCHEDULE, np.random.default_rng(0))


def test_chain_checks_one_latent_per_step(monkeypatch):
    """The prediction is a bare array, so each reverse step builds and
    checks only its own output latent."""
    y = Latent(data=np.ones(4), shape=(4, 1, 1))
    den = AnalyticGaussianDenoiser(GaussianSourceModel(), SCHEDULE)
    checked = []
    real = diffusion._checked_data

    def counting(data, shape):
        checked.append(shape)
        return real(data, shape)

    monkeypatch.setattr(diffusion, "_checked_data", counting)
    denoise_from_step(y, 10, den, SCHEDULE, np.random.default_rng(0))
    assert len(checked) == 10


# ---------------------------------------------------------------------------
# analytic denoiser


def test_analytic_denoiser_satisfies_protocol():
    den = AnalyticGaussianDenoiser(GaussianSourceModel(), SCHEDULE)
    assert isinstance(den, Denoiser)


def test_analytic_denoiser_formula_hand_check():
    model = GaussianSourceModel(mean=2.0, variance=3.0)
    den = AnalyticGaussianDenoiser(model, SCHEDULE)
    t = 100
    ab = SCHEDULE.alpha_bar(t)
    y = Latent(data=np.array([0.0, 1.0, -2.5]), shape=(3, 1, 1))
    expected = math.sqrt(1.0 - ab) * (y.data - math.sqrt(ab) * 2.0) / (ab * 3.0 + 1.0 - ab)
    assert np.allclose(den.predict_noise(y, t), expected, rtol=1e-15)


def test_analytic_denoiser_recovers_noise_for_deterministic_source():
    """With source variance 0 the posterior collapses and the predicted
    noise equals the true noise exactly."""
    model = GaussianSourceModel(mean=1.5, variance=0.0)
    den = AnalyticGaussianDenoiser(model, SCHEDULE)
    rng = np.random.default_rng(5)
    t = 350
    eps = rng.standard_normal(512)
    ab = SCHEDULE.alpha_bar(t)
    y_t = Latent(
        data=math.sqrt(ab) * 1.5 + math.sqrt(1.0 - ab) * eps, shape=(512, 1, 1)
    )
    assert np.allclose(den.predict_noise(y_t, t), eps, atol=1e-12)


# ---------------------------------------------------------------------------
# compensation and adaptive receive


def test_compensation_total_variance_matches_target_step():
    rng = np.random.default_rng(6)
    n = 100_000
    sigma2 = 0.25
    t_target = 200
    s_hat = Latent(data=math.sqrt(sigma2) * rng.standard_normal(n), shape=(n, 1, 1))
    y_t = compensate_to_step(s_hat, sigma2, t_target, SCHEDULE, rng)
    ab = SCHEDULE.alpha_bar(t_target)
    report = gaussianity_check(y_t.data, 0.0, 1.0 - ab)
    assert report.passed, report.failures


def test_compensation_boundary_adds_nothing():
    rng = np.random.default_rng(7)
    t = 259
    sigma2 = step_to_sigma2(SCHEDULE, t)
    s_hat = Latent(data=rng.standard_normal(64), shape=(64, 1, 1))
    state = np.random.default_rng(8)
    y_t = compensate_to_step(s_hat, sigma2, t, SCHEDULE, state)
    assert np.array_equal(y_t.data, math.sqrt(SCHEDULE.alpha_bar(t)) * s_hat.data)
    assert state.standard_normal() == np.random.default_rng(8).standard_normal()


def test_compensation_infeasible_raises():
    s_hat = Latent(data=np.zeros(4), shape=(4, 1, 1))
    with pytest.raises(CompensationInfeasibleError):
        compensate_to_step(s_hat, 1.0, 200, SCHEDULE, np.random.default_rng(0))


def test_adaptive_receive_scales_onto_step():
    sigma2 = step_to_sigma2(SCHEDULE, 300)
    s_hat = Latent(data=np.linspace(-1, 1, 32), shape=(32, 1, 1))
    y_u, mapping = adaptive_receive(s_hat, sigma2, SCHEDULE)
    assert mapping.step_u == 300
    assert mapping.residual == 0.0
    assert np.array_equal(y_u.data, mapping.scale * s_hat.data)


def test_adaptive_receive_clean_signal_passes_through():
    s_hat = Latent(data=np.ones(8), shape=(8, 1, 1))
    y_u, mapping = adaptive_receive(s_hat, 0.0, SCHEDULE)
    assert mapping.step_u == 0
    assert np.array_equal(y_u.data, s_hat.data)


# ---------------------------------------------------------------------------
# full chains


def test_denoise_from_step_zero_is_identity():
    den = AnalyticGaussianDenoiser(GaussianSourceModel(), SCHEDULE)
    y = Latent(data=np.ones(16), shape=(16, 1, 1))
    out = denoise_from_step(y, 0, den, SCHEDULE, np.random.default_rng(0))
    assert np.array_equal(out.data, y.data)


def test_denoise_is_deterministic_given_generator():
    model = GaussianSourceModel()
    den = AnalyticGaussianDenoiser(model, SCHEDULE)
    y0 = model.draw((16, 16, 1), np.random.default_rng(10))
    y_u = forward_sample(y0, 150, SCHEDULE, np.random.default_rng(11))
    a = denoise_from_step(y_u, 150, den, SCHEDULE, np.random.default_rng(12))
    b = denoise_from_step(y_u, 150, den, SCHEDULE, np.random.default_rng(12))
    assert np.array_equal(a.data, b.data)


def test_chain_mse_matches_posterior_sampling_value():
    model = GaussianSourceModel()
    den = AnalyticGaussianDenoiser(model, SCHEDULE)
    sigma2 = step_to_sigma2(SCHEDULE, 259)  # nearest step to unit noise
    n = 20_000
    rng = np.random.default_rng(13)
    y0 = model.draw((n, 1, 1), rng)
    s_hat = Latent(data=y0.data + math.sqrt(sigma2) * rng.standard_normal(n), shape=y0.shape)
    y_u, mapping = adaptive_receive(s_hat, sigma2, SCHEDULE)
    rec = denoise_from_step(y_u, mapping.step_u, den, SCHEDULE, rng)
    err = float(np.mean((rec.data - y0.data) ** 2))
    oracle = 2.0 * sigma2 / (1.0 + sigma2)
    assert err == pytest.approx(oracle, rel=0.10)


def test_chain_mse_decreases_with_snr():
    model = GaussianSourceModel()
    den = AnalyticGaussianDenoiser(model, SCHEDULE)
    n = 4096
    errors = []
    for snr_db in (0.0, 6.0, 12.0):
        sigma2 = 10.0 ** (-snr_db / 10.0)
        rng = np.random.default_rng(14)
        y0 = model.draw((n, 1, 1), rng)
        s_hat = Latent(data=y0.data + math.sqrt(sigma2) * rng.standard_normal(n), shape=y0.shape)
        y_u, mapping = adaptive_receive(s_hat, sigma2, SCHEDULE)
        rec = denoise_from_step(y_u, mapping.step_u, den, SCHEDULE, rng)
        errors.append(float(np.mean((rec.data - y0.data) ** 2)))
    assert errors[0] > errors[1] > errors[2]


def _reference_chain(y_u, u, model, schedule, rng):
    """The ancestral chain written out per step, out of place, from the
    schedule accessors: the arithmetic ``denoise_from_step`` must match
    bit for bit."""
    m, v = model.mean, model.variance
    y = y_u
    for t in range(u, 0, -1):
        ab = schedule.alpha_bar(t)
        eps = math.sqrt(1.0 - ab) * (y.data - math.sqrt(ab) * m) / (ab * v + (1.0 - ab))
        a_t = float(schedule.alphas[t - 1])
        ab_prev = schedule.alpha_bar(t - 1)
        mu = (y.data - (1.0 - a_t) / math.sqrt(1.0 - ab) * eps) / math.sqrt(a_t)
        if t > 1:
            var = (1.0 - ab_prev) * (1.0 - a_t) / (1.0 - ab)
            mu = mu + math.sqrt(var) * rng.standard_normal(y.n)
        y = Latent(data=mu, shape=y.shape)
    return y


def test_chain_is_bit_identical_to_reference_chain():
    model = GaussianSourceModel(mean=0.3, variance=2.5)
    den = AnalyticGaussianDenoiser(model, SCHEDULE)
    n = 257
    for u in (1, 2, 145, 780, SCHEDULE.T):
        y_u = forward_sample(
            model.draw((n, 1, 1), np.random.default_rng(u)), u, SCHEDULE,
            np.random.default_rng(u + 1),
        )
        ref_rng, rng = np.random.default_rng(20 + u), np.random.default_rng(20 + u)
        expected = _reference_chain(y_u, u, model, SCHEDULE, ref_rng)
        got = denoise_from_step(y_u, u, den, SCHEDULE, rng)
        assert got.shape == y_u.shape
        assert np.array_equal(got.data, expected.data), f"u={u}"
        assert rng.standard_normal() == ref_rng.standard_normal(), f"u={u}"


class _CountingGenerator:
    """Generator proxy that counts its ``standard_normal`` calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def standard_normal(self, size):
        self.calls += 1
        return self.rng.standard_normal(size)


@pytest.mark.parametrize("rows", [1, 3, "u", "default"])
def test_chain_noise_blocks_keep_values_and_generator_state(monkeypatch, rows):
    """Blocks of one row, of three, of the whole chain (``u`` rows for the
    ``u - 1`` draws) and of the default size, against the per-step
    reference chain.  A zero source mean also runs the prediction without
    its subtraction."""
    n = 257
    model = GaussianSourceModel(mean=0.0, variance=2.5)
    den = AnalyticGaussianDenoiser(model, SCHEDULE)
    if rows == "default":
        starts = (0, 1, 2, 255, 256, 257, 511, SCHEDULE.T)
    elif rows == "u":
        starts = (0, 1, 2, 3, 145, SCHEDULE.T)
    else:
        starts = (0, 1, 2, rows, rows + 1, 2 * rows + 1)
    for u in starts:
        if rows != "default":
            monkeypatch.setattr(diffusion, "_NOISE_BLOCK_ELEMENTS", (u if rows == "u" else rows) * n)
        per_block = max(1, diffusion._NOISE_BLOCK_ELEMENTS // n)
        y_u = forward_sample(
            model.draw((n, 1, 1), np.random.default_rng(u)), u, SCHEDULE,
            np.random.default_rng(u + 1),
        )
        ref_rng, rng = np.random.default_rng(40 + u), np.random.default_rng(40 + u)
        counting = _CountingGenerator(rng)
        expected = _reference_chain(y_u, u, model, SCHEDULE, ref_rng)
        got = denoise_from_step(y_u, u, den, SCHEDULE, counting)
        assert np.array_equal(got.data, expected.data), f"u={u}"
        assert rng.bit_generator.state == ref_rng.bit_generator.state, f"u={u}"
        assert counting.calls == -(-max(u - 1, 0) // per_block), f"u={u}"


SHORT = build_linear_schedule(40, 1e-3, 0.2)


@st.composite
def stream_sets(draw):
    """1-4 streams of one width; start steps ragged or tied, 0 and 1 among
    them (at least 1 where a top-up draws the start); the draw order; the
    source mean; and the block size of the lazily drawn stream."""
    compensate = draw(st.booleans())
    lo = 1 if compensate else 0
    m = draw(st.integers(1, 4))
    if draw(st.booleans()):
        steps = [draw(st.sampled_from([lo, 1, 2, SHORT.T]))] * m  # tied
    else:
        pool = st.one_of(st.sampled_from([lo, 1, 2]), st.integers(lo, SHORT.T))
        steps = draw(st.lists(pool, min_size=m, max_size=m))
    width = draw(st.integers(1, 5))
    mean = draw(st.sampled_from([0.0, -0.0, 0.7]))
    block_rows = draw(st.sampled_from([1, 3, 40]))
    return compensate, steps, width, mean, block_rows * width, draw(st.integers(0, 2**32))


@settings(max_examples=80, deadline=None)
@given(stream_sets())
def test_ragged_chain_matches_each_stream_denoised_in_turn(case):
    """One ragged chain over a trial's streams, fed from one generator in
    the caller's order (each stream's start, then its noise rows), gives
    each stream's own chain bit for bit and leaves the generator where
    denoising the streams in turn leaves it."""
    compensate, steps, width, mean, block, seed = case
    model = GaussianSourceModel(mean=mean, variance=1.5)
    den = AnalyticGaussianDenoiser(model, SHORT)
    received = np.random.default_rng(seed).standard_normal((len(steps), width))

    def start(i, rng):
        s_hat = Latent(data=received[i], shape=(width, 1, 1))
        if compensate:  # draws the top-up from rng
            return compensate_to_step(s_hat, 0.0, steps[i], SHORT, rng)
        return s_hat

    ref_rng = np.random.default_rng(seed + 1)
    expected = []
    for i, u in enumerate(steps):
        expected.append(_reference_chain(start(i, ref_rng), u, model, SHORT, ref_rng))

    rng = np.random.default_rng(seed + 1)
    starts, noises = [], []
    for i, u in enumerate(steps):
        starts.append(start(i, rng))
        noises.append(diffusion._noise_rows(rng, width, u, held=i < len(steps) - 1))
    with mock.patch.object(diffusion, "_NOISE_BLOCK_ELEMENTS", block):
        got = diffusion._denoise_rows(starts, steps, noises, den, SHORT)

    for want, have in zip(expected, got):
        assert have.shape == (width, 1, 1)
        assert np.array_equal(have.data, want.data)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_ragged_chain_makes_one_reverse_step_call_per_step(monkeypatch):
    """Rows join as t reaches their start step: one call per step of the
    longest row, on the rows started so far, joined in descending-step
    order (ties in the given order)."""
    calls = []
    real = diffusion.reverse_step

    def recording(y_t, t, *args):
        calls.append((t, y_t.shape, y_t.data[::2].copy()))
        return real(y_t, t, *args)

    monkeypatch.setattr(diffusion, "reverse_step", recording)
    den = AnalyticGaussianDenoiser(GaussianSourceModel(), SHORT)
    steps = [2, 0, 4, 2]
    starts = [Latent(data=np.full(2, float(i)), shape=(2, 1, 1)) for i in range(4)]
    rng = np.random.default_rng(0)
    noises = [diffusion._noise_rows(rng, 2, u, held=True) for u in steps]
    got = diffusion._denoise_rows(starts, steps, noises, den, SHORT)
    assert [(t, shape) for t, shape, _ in calls] == [
        (4, (2, 1, 1)), (3, (2, 1, 1)), (2, (6, 1, 1)), (1, (6, 1, 1))]
    assert calls[2][2].tolist()[1:] == [0.0, 3.0]  # rows 0 and 3 join after row 2
    assert got[1] is starts[1]


@pytest.mark.parametrize("u", [0, 1, 145, SCHEDULE.T])
def test_chain_makes_one_reverse_step_call_per_step(monkeypatch, u):
    steps = []
    real = diffusion.reverse_step

    def counting(y_t, t, *args):
        steps.append(t)
        return real(y_t, t, *args)

    monkeypatch.setattr(diffusion, "reverse_step", counting)
    den = AnalyticGaussianDenoiser(GaussianSourceModel(), SCHEDULE)
    y = Latent(data=np.ones(16), shape=(16, 1, 1))
    denoise_from_step(y, u, den, SCHEDULE, np.random.default_rng(0))
    assert steps == list(range(u, 0, -1))


def test_coefficient_tables_match_step_formulas():
    for t in (1, 2, SCHEDULE.T):
        a_t = float(SCHEDULE.alphas[t - 1])
        ab, ab_prev = SCHEDULE.alpha_bar(t), SCHEDULE.alpha_bar(t - 1)
        assert SCHEDULE.reverse_coefs[t - 1] == (
            (1.0 - a_t) / math.sqrt(1.0 - ab),
            math.sqrt(a_t),
            math.sqrt((1.0 - ab_prev) * (1.0 - a_t) / (1.0 - ab)),
        )
    assert SCHEDULE.reverse_coefs[0][2] == 0.0
    # signed zeros, the smallest subnormals and values near the top of the
    # range, compared byte for byte so that the sign of a zero counts; a
    # source mean of +0.0 skips the subtraction, one of -0.0 does not
    data = np.array([0.0, 1.0, -2.5, -0.0, 5e-324, -5e-324, 1e300, -1e300])
    y = Latent(data=data, shape=(data.size, 1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m, v in ((-1.25, 0.4), (0.0, 0.4), (-0.0, 0.4), (0.0, 0.0), (1.5, 0.0)):
            den = AnalyticGaussianDenoiser(GaussianSourceModel(mean=m, variance=v), SCHEDULE)
            for t in (1, 2, SCHEDULE.T):
                ab = SCHEDULE.alpha_bar(t)
                expected = math.sqrt(1.0 - ab) * (data - math.sqrt(ab) * m) / (ab * v + (1.0 - ab))
                assert den.predict_noise(y, t).tobytes() == expected.tobytes(), (m, v, t)
            # t = 0 is the noiseless state: no noise to predict, also for v = 0
            assert np.array_equal(den.predict_noise(y, 0), np.zeros(data.size)), (m, v)
    with pytest.raises(IndexError):
        den.predict_noise(y, -1)
    with pytest.raises(IndexError):
        den.predict_noise(y, SCHEDULE.T + 1)
    with pytest.raises(TypeError):
        den.predict_noise(y, 2.0)


class _NanAtStep:
    """Test denoiser whose prediction array turns NaN at one step; only the
    reverse step's own check on its output can catch it."""

    def __init__(self, bad_t):
        self.bad_t = bad_t

    def predict_noise(self, y_t, t):
        return np.full(y_t.n, np.nan if t == self.bad_t else 0.0)


def test_chain_rejects_non_finite_prediction_mid_chain():
    y = Latent(data=np.ones(4), shape=(4, 1, 1))
    with pytest.raises(ValueError, match="finite"):
        denoise_from_step(y, 50, _NanAtStep(20), SCHEDULE, np.random.default_rng(0))


def _closed_form_mse(schedule, u, scale, sigma2, v):
    """MSE of the analytic-denoiser chain (source mean 0) started at
    ``y_u = scale * (x + noise)``, x ~ N(0, v), noise variance ``sigma2``.

    Each step is affine, y_{t-1} = A_t y_t + s_t z_t, so y_0 given y_u is
    N(P y_u, V) with P = prod A_t and V from the same recursion.
    """
    P, V = 1.0, 0.0
    for t in range(u, 0, -1):
        a_t = float(schedule.alphas[t - 1])
        ab, ab_prev = schedule.alpha_bar(t), schedule.alpha_bar(t - 1)
        gain = (1.0 - a_t) / (ab * v + 1.0 - ab)  # c_eps * sqrt(1 - ab) / denom
        A = (1.0 - gain) / math.sqrt(a_t)
        P, V = A * P, A * A * V + (1.0 - ab_prev) * (1.0 - a_t) / (1.0 - ab)
    return (P * scale - 1.0) ** 2 * v + P * P * scale * scale * sigma2 + V


@pytest.mark.parametrize(
    "snr_db, route, expected",
    [(0.0, "adaptive", 0.9921), (6.0, "adaptive", 0.3951), (12.0, "adaptive", 0.1158),
     (6.0, "compensate", None)],
)
def test_chain_mse_matches_closed_form_law(snr_db, route, expected):
    model = GaussianSourceModel()
    den = AnalyticGaussianDenoiser(model, SCHEDULE)
    sigma2 = 10.0 ** (-snr_db / 10.0)
    n = 20_000
    rng = np.random.default_rng(int(30 + snr_db))
    y0 = model.draw((n, 1, 1), rng)
    s_hat = Latent(data=y0.data + math.sqrt(sigma2) * rng.standard_normal(n), shape=y0.shape)
    if route == "adaptive":
        y_u, mapping = adaptive_receive(s_hat, sigma2, SCHEDULE)
        u, scale, carried = mapping.step_u, mapping.scale, sigma2
    else:
        u = 300
        y_u = compensate_to_step(s_hat, sigma2, u, SCHEDULE, rng)
        scale, carried = math.sqrt(SCHEDULE.alpha_bar(u)), step_to_sigma2(SCHEDULE, u)
    law = _closed_form_mse(SCHEDULE, u, scale, carried, model.variance)
    if expected is not None:
        assert law == pytest.approx(expected, abs=5e-5)
    sq = (denoise_from_step(y_u, u, den, SCHEDULE, rng).data - y0.data) ** 2
    se = float(np.std(sq, ddof=1)) / math.sqrt(n)
    assert abs(float(np.mean(sq)) - law) < 4.0 * se
