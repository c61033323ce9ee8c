"""Forward/reverse process, compensation, and the analytic denoiser.

The reverse-chain accuracy oracle: sampling the exact posterior of an
i.i.d. Gaussian source with variance v observed under noise variance s2
has mean squared error 2*v*s2/(v+s2) (estimator error plus an equal,
independent sampling term).  Long latents make single seeded chains
statistically tight, since every element is an independent replica.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffcomm import (
    AnalyticGaussianDenoiser,
    CompensationInfeasibleError,
    Denoiser,
    GaussianSourceModel,
    CodecArch,
    build_linear_schedule,
    compensate_to_step,
    denoise_from_step,
    downsample,
    forward_sample,
    init_codec,
    reverse_step,
    sigma2_to_step,
    step_to_sigma2,
    upsample,
)
from diffcomm import diffusion

from moments import gaussianity_check

SCHEDULE = build_linear_schedule()


class _FixedNoise:
    """Test denoiser that returns a pinned noise prediction array."""

    def __init__(self, eps):
        self.eps = np.asarray(eps, dtype=np.float64)

    def predict_noise(self, y_t, t):
        return self.eps


class CentringDenoiser:
    """Test denoiser that is not elementwise: the analytic prediction of
    its input centred on the input's own mean."""

    def __init__(self, analytic):
        self.analytic = analytic

    def predict_noise(self, y_t, t):
        return self.analytic.predict_noise(y_t - y_t.mean(), t)


# ---------------------------------------------------------------------------
# the latent check


def _small_codec():
    return init_codec((2, 3, 2), 0.5, CodecArch(hidden=4, blocks=1), np.random.default_rng(0))


def _entry_points():
    """Each public function that takes a latent, as a call on that latent."""
    den = AnalyticGaussianDenoiser(GaussianSourceModel(), SCHEDULE)
    params = _small_codec()
    rng = np.random.default_rng(0)
    return {
        "forward_sample": lambda y: forward_sample(y, 5, SCHEDULE, rng),
        "compensate_to_step": lambda y: compensate_to_step(y, 0.0, 5, SCHEDULE, rng),
        "denoise_from_step": lambda y: denoise_from_step(y, 5, den, SCHEDULE, rng),
        "reverse_step": lambda y: reverse_step(y, 5, den, SCHEDULE, np.ones(np.shape(y))),
        "downsample": lambda y: downsample(y, params),
    }


def test_every_entry_point_rejects_a_malformed_latent():
    """A latent is a nonempty one-dimensional float64 array of finite
    values.  ``reverse_step`` checks the type, dtype and shape of its
    input before its denoiser sees it, but the values of its result: a
    non-finite input value reaches that check through the arithmetic,
    which may warn on the way."""
    bad = [
        (np.zeros((2, 6)), r"^latent must be nonempty and one-dimensional, got shape \(2, 6\)$"),
        (np.zeros(0), r"^latent must be nonempty and one-dimensional, got shape \(0,\)$"),
        (np.r_[np.zeros(11), np.nan], "^latent components must be finite$"),
        (np.r_[np.inf, np.zeros(11)], "^latent components must be finite$"),
    ]
    calls = _entry_points()
    for name, call in calls.items():
        for y, message in bad:
            # only reverse_step computes with the latent before checking
            with np.errstate(invalid="ignore" if name == "reverse_step" else "warn"):
                with pytest.raises(ValueError, match=message):
                    call(y)
    # reverse_step tests its input before its denoiser sees it
    for y, message, names in (
        (np.arange(12), "^latent must be a float64 array, got int64$",
         ("forward_sample", "reverse_step")),
        (np.zeros(12, dtype=np.float32), "^latent must be a float64 array, got float32$",
         ("forward_sample", "reverse_step")),
        ([0.0] * 12, "^latent must be a float64 array, got <class 'list'>$",
         ("forward_sample", "reverse_step")),
    ):
        for name in names:
            with pytest.raises(ValueError, match=message):
                calls[name](y)


def test_no_latent_function_writes_into_its_input():
    """Each latent is a plain array the caller keeps: every public function
    leaves a read-only input bit-for-bit as it was, and ``reverse_step``
    its noise too."""
    den = AnalyticGaussianDenoiser(GaussianSourceModel(mean=0.4, variance=2.0), SCHEDULE)
    params = _small_codec()
    y = np.random.default_rng(1).standard_normal(12)
    z = np.random.default_rng(2).standard_normal(params.m)
    noise = np.random.default_rng(4).standard_normal(12)
    frozen = y.copy(), z.copy(), noise.copy()
    for arr in (y, z, noise):
        arr.flags.writeable = False
    rng = np.random.default_rng(3)
    forward_sample(y, 300, SCHEDULE, rng)
    compensate_to_step(y, step_to_sigma2(SCHEDULE, 300), 300, SCHEDULE, rng)  # adds nothing
    compensate_to_step(y, 0.25, 300, SCHEDULE, rng)  # tops up
    reverse_step(y, 300, den, SCHEDULE, noise)
    denoise_from_step(y, 300, den, SCHEDULE, rng)
    downsample(y, params)
    upsample(z, 4.0, params, rng)
    assert [a.tobytes() for a in (y, z, noise)] == [a.tobytes() for a in frozen]


# finite values whose squares (or their sum) overflow to inf
HUGE_FINITE = [
    np.full(12, 1e200),
    np.full(12, -1.7e308),
    np.array([0.5, -1e200, 3.0, 1.7e308, -2.0, 1e-300, 0.0, 7.0, -1.7e308, 1.0, 2.0, 1e155]),
]


@pytest.mark.parametrize("data", HUGE_FINITE, ids=["1e200", "-1.7e308", "mixed"])
def test_latent_accepts_finite_values_whose_squares_overflow(data):
    """Through the check at two entry points that return step 0's latent itself."""
    den = AnalyticGaussianDenoiser(GaussianSourceModel(), SCHEDULE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert forward_sample(data, 0, SCHEDULE, np.random.default_rng(0)) is data
        assert denoise_from_step(data, 0, den, SCHEDULE, np.random.default_rng(0)) is data


@pytest.mark.parametrize("position", [0, 5, 11])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("fill", [0.0, 1e200, -1.7e308], ids=["zeros", "1e200", "-1.7e308"])
def test_latent_rejects_non_finite_at_any_position(fill, value, position):
    data = np.full(12, fill)
    data[position] = value
    with pytest.raises(ValueError, match=r"^latent components must be finite$"):
        forward_sample(data, 0, SCHEDULE, np.random.default_rng(0))


def test_source_model_draw_statistics():
    model = GaussianSourceModel(mean=0.5, variance=4.0)
    lat = model.draw(20_000, np.random.default_rng(0))
    report = gaussianity_check(lat, 0.5, 4.0)
    assert report.passed, report.failures
    with pytest.raises(ValueError):
        GaussianSourceModel(variance=-1.0)


@pytest.mark.parametrize("mean", [math.nan, math.inf, -math.inf])
def test_source_model_requires_a_finite_mean(mean):
    with pytest.raises(ValueError) as info:
        GaussianSourceModel(mean=mean)
    assert (info.type, str(info.value)) == (ValueError, f"mean must be finite, got {mean!r}")


# ---------------------------------------------------------------------------
# forward process


def test_forward_sample_statistics():
    rng = np.random.default_rng(1)
    y0 = np.full(100_000, 2.0)
    t = 300
    ab = SCHEDULE.alpha_bar(t)
    y_t = forward_sample(y0, t, SCHEDULE, rng)
    report = gaussianity_check(y_t, math.sqrt(ab) * 2.0, 1.0 - ab)
    assert report.passed, report.failures


def test_forward_sample_t0_identity_no_rng():
    rng = np.random.default_rng(2)
    y0 = np.ones(8)
    out = forward_sample(y0, 0, SCHEDULE, rng)
    assert np.array_equal(out, y0)
    assert rng.standard_normal() == np.random.default_rng(2).standard_normal()


@pytest.mark.parametrize("t", [1, 2, 300, SCHEDULE.T])
def test_top_up_from_zero_variance_is_the_forward_sample(t):
    """The CLI's forward route tops the clean source up from variance 0.
    That draws the normals ``forward_sample`` draws, leaves the generator
    in the same state, and differs from it only by rounding."""
    for seed in range(20):
        y0 = np.random.default_rng(seed).standard_normal(256)
        rng_top, rng_fwd = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
        topped = compensate_to_step(y0, 0.0, t, SCHEDULE, rng_top)
        y_t = forward_sample(y0, t, SCHEDULE, rng_fwd)
        assert rng_top.bit_generator.state == rng_fwd.bit_generator.state
        assert np.max(np.abs(topped - y_t)) <= 4 * np.finfo(np.float64).eps * np.max(np.abs(y_t))


# ---------------------------------------------------------------------------
# reverse process


def test_reverse_step_t1_is_deterministic_and_inverts_forward():
    """With the true noise handed to it, the t=1 ancestral step undoes the
    forward update exactly (up to float rounding)."""
    rng = np.random.default_rng(3)
    y0 = rng.standard_normal(256)
    eps = rng.standard_normal(256)
    ab1 = SCHEDULE.alpha_bar(1)
    y1 = math.sqrt(ab1) * y0 + math.sqrt(1.0 - ab1) * eps
    rec = reverse_step(y1, 1, _FixedNoise(eps), SCHEDULE, None)
    assert np.allclose(rec, y0, atol=1e-12)


def test_reverse_step_posterior_variance():
    t = 400
    n = 100_000
    y_t = np.full(n, 1.0)
    noise = np.random.default_rng(4).standard_normal(n)
    out = reverse_step(y_t, t, _FixedNoise(np.zeros(n)), SCHEDULE, noise)
    a_t = float(SCHEDULE.alphas[t - 1])
    mu = 1.0 / math.sqrt(a_t)
    var = (1.0 - SCHEDULE.alpha_bar(t - 1)) * (1.0 - a_t) / (1.0 - SCHEDULE.alpha_bar(t))
    report = gaussianity_check(out, mu, var)
    assert report.passed, report.failures


def test_reverse_step_range_check():
    y = np.zeros(4)
    with pytest.raises(IndexError):
        reverse_step(y, 0, _FixedNoise(np.zeros(4)), SCHEDULE, None)
    with pytest.raises(IndexError):
        reverse_step(y, SCHEDULE.T + 1, _FixedNoise(np.zeros(4)), SCHEDULE, np.zeros(4))


@pytest.mark.parametrize("shape", [(3,), (5,), (1,), (4, 1), (1, 4)])
def test_reverse_step_rejects_a_wrongly_shaped_prediction(shape):
    y = np.zeros(4)
    noise = np.ones(4)
    noise.flags.writeable = False
    message = rf"^predicted noise has shape {re.escape(str(shape))}, the latent \(4,\)$"
    with pytest.raises(ValueError, match=message):
        reverse_step(y, 10, _FixedNoise(np.zeros(shape)), SCHEDULE, noise)
    assert np.array_equal(noise, np.ones(4))


@pytest.mark.parametrize("noise", [None, np.zeros(3), np.zeros(5), np.zeros((4, 1)), np.zeros((1, 4))],
                         ids=["None", "(3,)", "(5,)", "(4, 1)", "(1, 4)"])
def test_reverse_step_rejects_missing_or_misshaped_noise(noise):
    """Every step above 1 adds noise, so it needs an array shaped like the latent."""
    den = AnalyticGaussianDenoiser(GaussianSourceModel(), SCHEDULE)
    shape = None if noise is None else noise.shape
    message = rf"^noise has shape {re.escape(str(shape))}, the latent \(4,\)$"
    with pytest.raises(ValueError, match=message):
        reverse_step(np.ones(4), 2, den, SCHEDULE, noise)


def test_chain_checks_one_latent_per_step(monkeypatch):
    """A chain from step ``u`` checks its start, then each reverse step
    checks only the latent it returns: ``u + 1`` checks."""
    y = np.ones(4)
    den = AnalyticGaussianDenoiser(GaussianSourceModel(), SCHEDULE)
    checked = []
    real = diffusion._checked

    def counting(y):
        checked.append(y.shape)
        return real(y)

    monkeypatch.setattr(diffusion, "_checked", counting)
    for u in (0, 1, 10):
        checked.clear()
        denoise_from_step(y, u, den, SCHEDULE, np.random.default_rng(0))
        assert checked == [(4,)] * (u + 1), u


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
    y = np.array([0.0, 1.0, -2.5])
    expected = math.sqrt(1.0 - ab) * (y - math.sqrt(ab) * 2.0) / (ab * 3.0 + 1.0 - ab)
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
    y_t = math.sqrt(ab) * 1.5 + math.sqrt(1.0 - ab) * eps
    assert np.allclose(den.predict_noise(y_t, t), eps, atol=1e-12)


# ---------------------------------------------------------------------------
# compensation


def test_compensation_total_variance_matches_target_step():
    rng = np.random.default_rng(6)
    n = 100_000
    sigma2 = 0.25
    t_target = 200
    s_hat = math.sqrt(sigma2) * rng.standard_normal(n)
    y_t = compensate_to_step(s_hat, sigma2, t_target, SCHEDULE, rng)
    ab = SCHEDULE.alpha_bar(t_target)
    report = gaussianity_check(y_t, 0.0, 1.0 - ab)
    assert report.passed, report.failures


def test_compensation_boundary_adds_nothing():
    rng = np.random.default_rng(7)
    t = 259
    sigma2 = step_to_sigma2(SCHEDULE, t)
    s_hat = rng.standard_normal(64)
    state = np.random.default_rng(8)
    y_t = compensate_to_step(s_hat, sigma2, t, SCHEDULE, state)
    assert np.array_equal(y_t, math.sqrt(SCHEDULE.alpha_bar(t)) * s_hat)
    assert state.standard_normal() == np.random.default_rng(8).standard_normal()


def test_compensation_infeasible_raises():
    s_hat = np.zeros(4)
    with pytest.raises(CompensationInfeasibleError):
        compensate_to_step(s_hat, 1.0, 200, SCHEDULE, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# full chains


def test_denoise_from_step_zero_is_identity():
    den = AnalyticGaussianDenoiser(GaussianSourceModel(), SCHEDULE)
    y = np.ones(16)
    assert denoise_from_step(y, 0, den, SCHEDULE, np.random.default_rng(0)) is y


def test_denoise_from_step_checks_its_step_as_reverse_step_does():
    """The one step check: an out-of-range step is an IndexError and a
    float step a TypeError, both raised before any noise is drawn."""
    den = AnalyticGaussianDenoiser(GaussianSourceModel(), SCHEDULE)
    y = np.ones(4)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for u in (-1, SCHEDULE.T + 1):
        with pytest.raises(IndexError, match=rf"^step {u} outside \[0, {SCHEDULE.T}\]$"):
            denoise_from_step(y, u, den, SCHEDULE, rng)
    with pytest.raises(TypeError, match="^step index must be an integer, got float$"):
        denoise_from_step(y, 5.0, den, SCHEDULE, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("step", [True, False, np.True_], ids=["True", "False", "np.True_"])
def test_a_bool_is_not_a_step_index(step):
    """``True`` is an ``int`` to Python, but never step 1: the schedule
    accessors, one reverse step and a whole chain all refuse it, before
    any noise is drawn, as the config parser refuses a bool integer."""
    den = AnalyticGaussianDenoiser(GaussianSourceModel(), SCHEDULE)
    y = np.ones(4)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    calls = [
        lambda: SCHEDULE.alpha_bar(step),
        lambda: reverse_step(y, step, den, SCHEDULE, np.zeros(4)),
        lambda: denoise_from_step(y, step, den, SCHEDULE, rng),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="^step index must be an integer, got bool$"):
            call()
    assert rng.bit_generator.state == state


def test_denoise_is_deterministic_given_generator():
    model = GaussianSourceModel()
    den = AnalyticGaussianDenoiser(model, SCHEDULE)
    y0 = model.draw(256, np.random.default_rng(10))
    y_u = forward_sample(y0, 150, SCHEDULE, np.random.default_rng(11))
    a = denoise_from_step(y_u, 150, den, SCHEDULE, np.random.default_rng(12))
    b = denoise_from_step(y_u, 150, den, SCHEDULE, np.random.default_rng(12))
    assert np.array_equal(a, b)


def test_chain_mse_matches_posterior_sampling_value():
    model = GaussianSourceModel()
    den = AnalyticGaussianDenoiser(model, SCHEDULE)
    sigma2 = step_to_sigma2(SCHEDULE, 259)  # nearest step to unit noise
    n = 20_000
    rng = np.random.default_rng(13)
    y0 = model.draw(n, rng)
    s_hat = y0 + math.sqrt(sigma2) * rng.standard_normal(n)
    mapping = sigma2_to_step(SCHEDULE, sigma2)
    rec = denoise_from_step(mapping.scale * s_hat, mapping.step_u, den, SCHEDULE, rng)
    err = float(np.mean((rec - y0) ** 2))
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
        y0 = model.draw(n, rng)
        s_hat = y0 + math.sqrt(sigma2) * rng.standard_normal(n)
        mapping = sigma2_to_step(SCHEDULE, sigma2)
        rec = denoise_from_step(mapping.scale * s_hat, mapping.step_u, den, SCHEDULE, rng)
        errors.append(float(np.mean((rec - y0) ** 2)))
    assert errors[0] > errors[1] > errors[2]


def _reference_chain(y_u, u, model, schedule, rng):
    """The ancestral chain written out per step, out of place, from the
    schedule accessors: the arithmetic ``denoise_from_step`` must match
    bit for bit."""
    m, v = model.mean, model.variance
    y = y_u
    for t in range(u, 0, -1):
        ab = schedule.alpha_bar(t)
        eps = math.sqrt(1.0 - ab) * (y - math.sqrt(ab) * m) / (ab * v + (1.0 - ab))
        a_t = float(schedule.alphas[t - 1])
        ab_prev = schedule.alpha_bar(t - 1)
        mu = (y - (1.0 - a_t) / math.sqrt(1.0 - ab) * eps) / math.sqrt(a_t)
        if t > 1:
            var = (1.0 - ab_prev) * (1.0 - a_t) / (1.0 - ab)
            mu = mu + math.sqrt(var) * rng.standard_normal(y.size)
        y = mu
    return y


def test_chain_is_bit_identical_to_reference_chain():
    model = GaussianSourceModel(mean=0.3, variance=2.5)
    den = AnalyticGaussianDenoiser(model, SCHEDULE)
    n = 257
    for u in (1, 2, 145, 780, SCHEDULE.T):
        y_u = forward_sample(
            model.draw(n, np.random.default_rng(u)), u, SCHEDULE,
            np.random.default_rng(u + 1),
        )
        ref_rng, rng = np.random.default_rng(20 + u), np.random.default_rng(20 + u)
        expected = _reference_chain(y_u, u, model, SCHEDULE, ref_rng)
        got = denoise_from_step(y_u, u, den, SCHEDULE, rng)
        assert got.shape == y_u.shape
        assert np.array_equal(got, expected), f"u={u}"
        assert rng.standard_normal() == ref_rng.standard_normal(), f"u={u}"


class _CountingGenerator:
    """Generator proxy that counts its ``standard_normal`` calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def standard_normal(self, size):
        self.calls += 1
        return self.rng.standard_normal(size)


_CHAIN_STEPS = {
    1: (0, 1, 2, 3),
    3: (0, 1, 2, 3, 4, 7),
    "u": (0, 1, 2, 3, 145, SCHEDULE.T),
    "default": (0, 1, 2, 255, 256, 257, 511, SCHEDULE.T),
}


@pytest.mark.parametrize("rows", [1, 3, "u", "default"])
def test_chain_noise_blocks_keep_values_and_generator_state(rows):
    """Each chain draws its ``u - 1`` noise rows as one block, in one
    ``standard_normal`` call, and matches the per-step reference chain.
    The start steps sit at and around block sizes of one row, of three,
    of the whole chain and of 256 rows.  A zero source mean also runs the
    prediction without its subtraction."""
    n = 257
    model = GaussianSourceModel(mean=0.0, variance=2.5)
    den = AnalyticGaussianDenoiser(model, SCHEDULE)
    for u in _CHAIN_STEPS[rows]:
        y_u = forward_sample(
            model.draw(n, np.random.default_rng(u)), u, SCHEDULE,
            np.random.default_rng(u + 1),
        )
        ref_rng, rng = np.random.default_rng(40 + u), np.random.default_rng(40 + u)
        counting = _CountingGenerator(rng)
        expected = _reference_chain(y_u, u, model, SCHEDULE, ref_rng)
        got = denoise_from_step(y_u, u, den, SCHEDULE, counting)
        assert np.array_equal(got, expected), f"u={u}"
        assert rng.bit_generator.state == ref_rng.bit_generator.state, f"u={u}"
        assert counting.calls == 1, f"u={u}"


SHORT = build_linear_schedule(40, 1e-3, 0.2)


@st.composite
def stream_sets(draw):
    """1-4 rows, of one width or of widths of their own; start steps
    ragged or tied, 0 and 1 among them (at least 1 where a top-up draws
    the start); the draw order; and the source mean."""
    compensate = draw(st.booleans())
    lo = 1 if compensate else 0
    m = draw(st.integers(1, 4))
    if draw(st.booleans()):
        steps = [draw(st.sampled_from([lo, 1, 2, SHORT.T]))] * m  # tied
    else:
        pool = st.one_of(st.sampled_from([lo, 1, 2]), st.integers(lo, SHORT.T))
        steps = draw(st.lists(pool, min_size=m, max_size=m))
    if draw(st.booleans()):
        widths = [draw(st.integers(1, 5))] * m
    else:
        widths = draw(st.lists(st.integers(1, 5), min_size=m, max_size=m))
    mean = draw(st.sampled_from([0.0, -0.0, 0.7]))
    return compensate, steps, widths, mean, draw(st.integers(0, 2**32))


@settings(max_examples=80, deadline=None)
@given(stream_sets())
def test_ragged_chain_matches_each_stream_denoised_in_turn(case):
    """One ragged chain over a trial's rows (streams, and routes whose
    rows may be wider), fed from one generator in the given order (each
    row's top-up if it carries a variance, then its noise rows), gives
    each row's own chain bit for bit and leaves the generator where
    denoising the rows in turn leaves it."""
    compensate, steps, widths, mean, seed = case
    model = GaussianSourceModel(mean=mean, variance=1.5)
    den = AnalyticGaussianDenoiser(model, SHORT)
    received = [np.random.default_rng(seed + i).standard_normal(w) for i, w in enumerate(widths)]
    # a carried variance makes the row's start a top-up drawn from the generator
    rows = [diffusion._Row(s_hat, u, 0.0 if compensate else None)
            for s_hat, u in zip(received, steps)]

    ref_rng = np.random.default_rng(seed + 1)
    expected = []
    for s_hat, u in zip(received, steps):
        start = compensate_to_step(s_hat, 0.0, u, SHORT, ref_rng) if compensate else s_hat
        expected.append(_reference_chain(start, u, model, SHORT, ref_rng))

    rng = np.random.default_rng(seed + 1)
    counting = _CountingGenerator(rng)
    got, calls = diffusion._denoise_rows(rows, den, SHORT, counting)

    for want, have, width in zip(expected, got, widths):
        assert have.shape == (width,)
        assert np.array_equal(have, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # one noise draw per row, after its top-up if it has one
    assert counting.calls == len(steps) * (2 if compensate else 1)
    assert calls == max(steps)  # the joined chain's reverse_step calls


def test_ragged_chain_makes_one_reverse_step_call_per_step(monkeypatch):
    """Rows join as t reaches their start step: one call per step of the
    longest row, on the rows started so far, joined in descending-step
    order (ties in the given order), each with noise shaped like its
    latent but at t = 1.  Each row comes back at its own width."""
    calls = []
    real = diffusion.reverse_step

    def recording(y_t, t, denoiser, schedule, noise):
        calls.append((t, y_t.shape, y_t[::2].copy(), None if noise is None else noise.shape))
        return real(y_t, t, denoiser, schedule, noise)

    monkeypatch.setattr(diffusion, "reverse_step", recording)
    den = AnalyticGaussianDenoiser(GaussianSourceModel(), SHORT)
    steps, widths = [2, 0, 4, 2], [2, 1, 3, 2]
    rows = [diffusion._Row(np.full(w, float(i)), u) for i, (u, w) in enumerate(zip(steps, widths))]
    got, made = diffusion._denoise_rows(rows, den, SHORT, np.random.default_rng(0))
    assert [(t, shape, noise) for t, shape, _, noise in calls] == [
        (4, (3,), (3,)), (3, (3,), (3,)), (2, (7,), (7,)), (1, (7,), None)]
    assert calls[2][2].tolist()[2:] == [0.0, 3.0]  # rows 0 and 3 join after row 2
    assert [y.shape for y in got] == [(2,), (1,), (3,), (2,)] and made == len(calls) == 4
    assert got[1] is rows[1].vector


@pytest.mark.parametrize("starts", [[(50, None), (50, None)], [(50, None), (30, 0.005), (0, None)]],
                         ids=["two-from-50", "ragged-and-topped-up"])
def test_chain_runs_each_row_of_another_denoiser_as_its_own_chain(starts):
    """Joined, a centring denoiser would see every row's mean: each row of
    a denoiser other than the analytic one runs as its own chain, in the
    given order from the same generator, so it equals its own chain bit
    for bit, and the calls made are the rows' steps summed."""
    den = CentringDenoiser(AnalyticGaussianDenoiser(GaussianSourceModel(), SCHEDULE))
    vectors = [np.random.default_rng(i).standard_normal(128) for i in range(len(starts))]
    rows = [diffusion._Row(v, u, s2) for v, (u, s2) in zip(vectors, starts)]
    rng = np.random.default_rng(7)
    got, calls = diffusion._denoise_rows(rows, den, SCHEDULE, rng)

    own_rng = np.random.default_rng(7)
    for have, row in zip(got, rows):
        want = denoise_from_step(row.start(SCHEDULE, own_rng), row.step, den, SCHEDULE, own_rng)
        assert have.tobytes() == want.tobytes()
    assert rng.bit_generator.state == own_rng.bit_generator.state
    assert calls == sum(u for u, _ in starts)


@pytest.mark.parametrize("u", [0, 1, 145, SCHEDULE.T])
def test_chain_makes_one_reverse_step_call_per_step(monkeypatch, u):
    steps = []
    real = diffusion.reverse_step

    def counting(y_t, t, *args):
        steps.append(t)
        return real(y_t, t, *args)

    monkeypatch.setattr(diffusion, "reverse_step", counting)
    den = AnalyticGaussianDenoiser(GaussianSourceModel(), SCHEDULE)
    y = np.ones(16)
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
    y = data
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
    """Test denoiser that predicts NaN at step ``bad_t`` and zeros
    elsewhere: nothing checks a prediction's values, so only the reverse
    step's check on the latent it returns catches it."""

    def __init__(self, bad_t):
        self.bad_t = bad_t

    def predict_noise(self, y_t, t):
        return np.full(y_t.size, np.nan if t == self.bad_t else 0.0)


def test_chain_rejects_non_finite_prediction_mid_chain():
    y = np.ones(4)
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
     (20.0, "adaptive", 0.01835), (30.0, "adaptive", 0.001538), (6.0, "compensate", None)],
)
def test_chain_mse_matches_closed_form_law(snr_db, route, expected):
    model = GaussianSourceModel()
    den = AnalyticGaussianDenoiser(model, SCHEDULE)
    sigma2 = 10.0 ** (-snr_db / 10.0)
    n = 20_000
    rng = np.random.default_rng(int(30 + snr_db))
    y0 = model.draw(n, rng)
    s_hat = y0 + math.sqrt(sigma2) * rng.standard_normal(n)
    if route == "adaptive":
        mapping = sigma2_to_step(SCHEDULE, sigma2)
        u, scale, carried = mapping.step_u, mapping.scale, sigma2
        y_u = scale * s_hat
    else:
        u = 300
        y_u = compensate_to_step(s_hat, sigma2, u, SCHEDULE, rng)
        scale, carried = math.sqrt(SCHEDULE.alpha_bar(u)), step_to_sigma2(SCHEDULE, u)
    law = _closed_form_mse(SCHEDULE, u, scale, carried, model.variance)
    if expected is not None:
        assert law == pytest.approx(expected, abs=5e-5)
    sq = (denoise_from_step(y_u, u, den, SCHEDULE, rng) - y0) ** 2
    se = float(np.std(sq, ddof=1)) / math.sqrt(n)
    assert abs(float(np.mean(sq)) - law) < 4.0 * se
