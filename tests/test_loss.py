"""Hybrid objective: closed forms vs quadrature, exact gradients, trainer."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

import diffcomm.loss
from diffcomm import (
    CodecArch,
    ConfigurationError,
    GaussianSourceModel,
    LossBreakdown,
    LossWeights,
    TrainConfig,
    TrainRecord,
    TrainingDivergedError,
    guidance_kl,
    hybrid_loss_batch,
    init_codec,
    mse,
    prior_kl,
    reconstruction_psnr,
    train_codec,
)
from diffcomm.codec import (
    forward_down_batch,
    forward_up_batch,
    params_to_vector,
    snr_feature,
    vector_to_params,
)
from diffcomm.cli import parse_config


def _kl_quadrature(mu1, sigma1, mu2, sigma2):
    """KL(N(mu1, sigma1^2) || N(mu2, sigma2^2)) by numerical integration."""

    def integrand(x):
        p = math.exp(-0.5 * ((x - mu1) / sigma1) ** 2) / (sigma1 * math.sqrt(2 * math.pi))
        log_p = -0.5 * ((x - mu1) / sigma1) ** 2 - math.log(sigma1 * math.sqrt(2 * math.pi))
        log_q = -0.5 * ((x - mu2) / sigma2) ** 2 - math.log(sigma2 * math.sqrt(2 * math.pi))
        return p * (log_p - log_q)

    val, _ = quad(integrand, mu1 - 12 * sigma1, mu1 + 12 * sigma1, limit=200)
    return val


# ---------------------------------------------------------------------------
# closed forms


def test_guidance_kl_matches_quadrature():
    rng = np.random.default_rng(0)
    for _ in range(12):
        y = float(rng.uniform(-3, 3))
        sigma = float(rng.uniform(0.3, 2.5))
        mu = float(rng.uniform(-3, 3))
        sy = float(rng.uniform(0.3, 2.5))
        closed = guidance_kl(np.array([y]), sigma, np.array([mu]), np.array([sy]))
        assert closed == pytest.approx(_kl_quadrature(y, sigma, mu, sy), abs=1e-6)


def test_prior_kl_matches_quadrature():
    rng = np.random.default_rng(1)
    for _ in range(12):
        mu = float(rng.uniform(-3, 3))
        sy = float(rng.uniform(0.3, 2.5))
        closed = prior_kl(np.array([mu]), np.array([sy]))
        assert closed == pytest.approx(_kl_quadrature(mu, sy, 0.0, 1.0), abs=1e-6)


def test_kl_hand_values():
    zeros, ones = np.zeros(3), np.ones(3)
    assert prior_kl(zeros, ones) == 0.0
    assert guidance_kl(zeros, 1.0, zeros, ones) == 0.0
    # mean shift of 1 at unit variances costs exactly 1/2 nat
    assert prior_kl(ones, ones) == pytest.approx(0.5, rel=1e-15)
    assert guidance_kl(zeros, 1.0, ones, ones) == pytest.approx(0.5, rel=1e-15)


def test_kl_is_a_mean_over_elements():
    assert prior_kl(np.array([0.0, 1.0]), np.array([1.0, 1.0])) == pytest.approx(0.25, rel=1e-15)


def test_guidance_kl_validation():
    zeros, ones = np.zeros(2), np.ones(2)
    with pytest.raises(ValueError, match=r"^sigma must be finite and > 0, got 0\.0$"):
        guidance_kl(zeros, 0.0, zeros, ones)
    with pytest.raises(ValueError, match=r"^shape mismatch: y \(3,\), mu \(2,\), s \(2,\)$"):
        guidance_kl(np.zeros(3), 1.0, zeros, ones)
    with pytest.raises(ValueError, match=r"^shape mismatch: y \(2,\), mu \(2,\), s \(3,\)$"):
        guidance_kl(zeros, 1.0, zeros, np.ones(3))
    with pytest.raises(ValueError, match=r"^shape mismatch: mu \(2,\) vs s \(3,\)$"):
        prior_kl(zeros, np.ones(3))
    # values are not checked: a diverged step's NaN reaches the trainer
    nan = np.array([np.nan, 0.0])
    assert math.isnan(prior_kl(nan, ones))
    assert math.isnan(guidance_kl(zeros, 1.0, nan, ones))


def _check_bounds(cls, section, cases):
    """Each ``(field, value, message, key)`` of ``cases`` is a ConfigurationError
    of ``cls(field=value)`` naming ``field``; a ``key`` also sets ``value`` in
    config ``section`` under that JSON key, where the parser reports the same
    message at ``section.key``."""
    for name, value, message, key in cases:
        with pytest.raises(ConfigurationError) as info:
            cls(**{name: value})
        assert (info.value.field, info.value.message) == (name, message)
        assert isinstance(info.value, ValueError)
        if key is not None:
            text = json.dumps({"channel": {"snr_db": [3.0]}, section: {key: value}})
            with pytest.raises(ConfigurationError) as info:
                parse_config(text)
            assert (info.value.field, info.value.message) == (f"{section}.{key}", message)


def test_loss_weights_validation():
    _check_bounds(LossWeights, "loss", [
        ("lam", -0.1, "must be finite and >= 0, got -0.1", "lambda"),
        ("lam", math.inf, "must be finite and >= 0, got inf", None),
        ("gamma", -0.5, "must be finite and >= 0, got -0.5", "gamma"),
        ("gamma", math.nan, "must be finite and >= 0, got nan", None),
    ])


def test_breakdown_must_recompose():
    """The total is derived from the parts, so it cannot fail to recompose."""
    w = LossWeights(lam=0.3, gamma=0.7)
    b = LossBreakdown(l_kl=1.1, l_mse=2.2, l_g=3.3, weights=w)
    assert b.total == w.lam * 1.1 + 2.2 + w.gamma * 3.3
    assert math.isnan(LossBreakdown(l_kl=1.0, l_mse=math.nan, l_g=3.0, weights=w).total)
    with pytest.raises(TypeError):
        LossBreakdown(l_kl=1.0, l_mse=2.0, l_g=3.0, total=99.0, weights=w)


# ---------------------------------------------------------------------------
# batched loss


SMALL_SHAPE = (2, 2, 2)  # n = 8


def _small_params(seed=0, **arch):
    arch = CodecArch(**{"hidden": 6, "blocks": 1, **arch})
    return init_codec(SMALL_SHAPE, 0.5, arch, np.random.default_rng(seed))


def test_batch_loss_matches_single_sample_forms():
    p = _small_params(seed=3)
    rng = np.random.default_rng(4)
    B, n, m = 3, p.n, p.m
    Y = rng.standard_normal((B, n))
    sigma, snr = 0.7, 2.0
    eps1 = rng.standard_normal((B, n))
    eps2 = rng.standard_normal((B, m))
    eps_y = rng.standard_normal((B, n))
    w = LossWeights()
    breakdown, _ = hybrid_loss_batch(p, Y, sigma, snr, eps1, eps2, eps_y, w)

    Z, _ = forward_down_batch(p, Y)
    Mu, _, Sy, Yhat, _ = forward_up_batch(p, Z + sigma * eps2, snr_feature(p, snr), eps_y)
    kl, err, g = [], [], []
    for i in range(B):
        kl.append(prior_kl(Mu[i], Sy[i]))
        err.append(mse(Yhat[i], Y[i] + sigma * eps1[i]))
        g.append(guidance_kl(Y[i], sigma, Mu[i], Sy[i]))
    assert breakdown.l_kl == pytest.approx(np.mean(kl), rel=1e-12)
    assert breakdown.l_mse == pytest.approx(np.mean(err), rel=1e-12)
    assert breakdown.l_g == pytest.approx(np.mean(g), rel=1e-12)


def test_batch_of_one_loss_is_the_single_sample_forms_exactly():
    p = _small_params(seed=3)
    rng = np.random.default_rng(5)
    n, m = p.n, p.m
    Y = rng.standard_normal((1, n))
    sigma, snr = 0.7, 2.0
    eps1 = rng.standard_normal((1, n))
    eps2 = rng.standard_normal((1, m))
    eps_y = rng.standard_normal((1, n))
    w = LossWeights(lam=0.3, gamma=0.7)
    breakdown, _ = hybrid_loss_batch(p, Y, sigma, snr, eps1, eps2, eps_y, w)

    Z, _ = forward_down_batch(p, Y)
    Mu, _, Sy, Yhat, _ = forward_up_batch(p, Z + sigma * eps2, snr_feature(p, snr), eps_y)
    assert breakdown.l_kl == prior_kl(Mu[0], Sy[0])
    assert breakdown.l_g == guidance_kl(Y[0], sigma, Mu[0], Sy[0])
    assert breakdown.l_mse == mse(Yhat[0], Y[0] + sigma * eps1[0])


def _assert_away_from_kinks(p, Y, sigma, snr, eps2, eps_y, margin=1e-3):
    """Guard for finite differencing: no rectifier input within `margin` of
    its kink, so an h=1e-5 parameter bump cannot cross one."""
    Z, dctx = forward_down_batch(p, Y)
    _, _, _, _, uctx = forward_up_batch(p, Z + sigma * eps2, snr_feature(p, snr), eps_y)
    pre = [b["a"] for b in dctx["blocks"]]
    pre += [b["a"] for b in uctx["mu_blocks"]]
    pre.append(uctx["a2"])
    smallest = min(float(np.min(np.abs(a))) for a in pre)
    assert smallest > margin, f"seed lands a rectifier input at {smallest}; pick another"


def _fd_gradcheck(p, seed, sigma=0.6, snr=3.0, h=1e-5):
    rng = np.random.default_rng(seed)
    B, n, m = 2, p.n, p.m
    Y = rng.standard_normal((B, n))
    eps1 = rng.standard_normal((B, n))
    eps2 = rng.standard_normal((B, m))
    eps_y = rng.standard_normal((B, n))
    w = LossWeights(lam=0.2, gamma=0.3)
    _assert_away_from_kinks(p, Y, sigma, snr, eps2, eps_y)

    _, grads = hybrid_loss_batch(p, Y, sigma, snr, eps1, eps2, eps_y, w)
    analytic = params_to_vector(grads)
    vec = params_to_vector(p)

    def f(v):
        b, _ = hybrid_loss_batch(vector_to_params(p, v), Y, sigma, snr, eps1, eps2, eps_y, w)
        return b.total

    fd = np.empty_like(vec)
    for j in range(vec.size):
        up, dn = vec.copy(), vec.copy()
        up[j] += h
        dn[j] -= h
        fd[j] = (f(up) - f(dn)) / (2 * h)
    rel = np.abs(fd - analytic) / np.maximum.reduce([np.abs(fd), np.abs(analytic), np.full_like(fd, 1e-6)])
    assert float(np.max(rel)) < 1e-4


def test_gradients_match_finite_differences_default():
    _fd_gradcheck(_small_params(seed=5), seed=6)


def test_gradients_match_finite_differences_unnormalized_snr_mu():
    _fd_gradcheck(_small_params(seed=7, power_norm=False, snr_to_mu=True), seed=8)


def test_gradients_match_finite_differences_deep_unconditioned():
    p = _small_params(seed=14, hidden=5, blocks=2, snr_conditioning=False)
    _fd_gradcheck(p, seed=12)


def test_batch_gradients_are_fresh_without_out():
    p = _small_params(seed=9)
    rng = np.random.default_rng(10)
    Y, eps1, eps_y = rng.standard_normal((3, 2, p.n))
    eps2 = rng.standard_normal((2, p.m))
    _, g1 = hybrid_loss_batch(p, Y, 0.6, 3.0, eps1, eps2, eps_y, LossWeights())
    _, g2 = hybrid_loss_batch(p, Y, 0.6, 3.0, eps1, eps2, eps_y, LossWeights())
    assert not np.shares_memory(g1.flat, g2.flat)
    assert np.array_equal(g1.flat, g2.flat)


def test_batch_loss_rejects_bad_sigma():
    p = _small_params()
    Y = np.zeros((1, 8))
    with pytest.raises(ValueError):
        hybrid_loss_batch(p, Y, 0.0, 1.0, Y, np.zeros((1, 4)), Y, LossWeights())


def _batch_of_24(p):
    """A batch of 3 at n = 8: batch * n = 24 is not a power of two."""
    rng = np.random.default_rng(27)
    Y, eps1, eps_y = rng.standard_normal((3, 3, p.n))
    return Y, 0.6, 3.0, eps1, rng.standard_normal((3, p.m)), eps_y, LossWeights()


@pytest.mark.parametrize("s", [1e-3, 2.5])
def test_grad_scale_scales_the_summed_objective_gradient(s):
    p = _small_params(seed=9)
    args = _batch_of_24(p)
    B, n = args[0].shape
    b_mean, g_mean = hybrid_loss_batch(p, *args)
    b_scaled, g_scaled = hybrid_loss_batch(p, *args, grad_scale=s)
    assert b_scaled == b_mean
    np.testing.assert_allclose(g_scaled.flat, s * B * n * g_mean.flat, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("s", [0.0, -1.0, float("nan"), float("inf")])
def test_batch_loss_rejects_bad_grad_scale(s):
    p = _small_params()
    with pytest.raises(ValueError, match="grad_scale must be finite and > 0"):
        hybrid_loss_batch(p, *_batch_of_24(p), grad_scale=s)


def test_reconstruction_psnr_matches_manual_pipeline():
    p = _small_params(seed=11)
    rng = np.random.default_rng(12)
    Y = rng.standard_normal((4, 8))
    eps2 = rng.standard_normal((4, 4))
    eps_y = rng.standard_normal((4, 8))
    got = reconstruction_psnr(p, Y, 0.5, 4.0, eps2, eps_y)
    Z, _ = forward_down_batch(p, Y)
    _, _, _, Yhat, _ = forward_up_batch(p, Z + 0.5 * eps2, snr_feature(p, 4.0), eps_y)
    want = 10.0 * math.log10(1.0 / float(np.mean((Yhat - Y) ** 2)))
    assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# trainer


SOURCE = GaussianSourceModel(mean=0.0, variance=1.0)


def _train(seed=0, steps=5, source=SOURCE, sigma=0.5, params_seed=13, **cfg_kwargs):
    p = _small_params(seed=params_seed)
    cfg = TrainConfig(steps=steps, batch=2, lr=1e-3, holdout=4, eval_every=3, **cfg_kwargs)
    return train_codec(source, sigma, p, LossWeights(), cfg, np.random.default_rng(seed))


def _reference_train(sigma, params, weights, cfg, rng):
    """``train_codec`` on ``SOURCE`` as an out-of-place loop: fresh gradients
    every step and temporaries in the update (evaluations left out; they
    draw nothing and change no parameter).  The gradients come back as the
    step, ``lr`` times the summed objective's gradient, as in the trainer."""
    params = vector_to_params(params, params.flat)
    n, m = params.n, params.m
    snr = 1.0 / (sigma * sigma)
    for shape in ((cfg.holdout, n), (cfg.holdout, m), (cfg.holdout, n)):
        rng.standard_normal(shape)  # holdout data and noise
    velocity = np.zeros_like(params.flat)
    for _ in range(cfg.steps):
        Y = SOURCE.mean + math.sqrt(SOURCE.variance) * rng.standard_normal((cfg.batch, n))
        eps1 = rng.standard_normal((cfg.batch, n))
        eps2 = eps1[:, :m].copy() if cfg.common_noise else rng.standard_normal((cfg.batch, m))
        eps_y = rng.standard_normal((cfg.batch, n))
        _, grads = hybrid_loss_batch(
            params, Y, sigma, snr, eps1, eps2, eps_y, weights, grad_scale=cfg.lr
        )
        if cfg.momentum > 0.0:
            velocity = cfg.momentum * velocity - grads.flat
            params.flat += velocity
        else:
            params.flat -= grads.flat
    return params


@pytest.mark.parametrize(
    "cfg_kwargs", [{}, {"momentum": 0.9}, {"common_noise": True}],
    ids=["sgd", "momentum", "common_noise"],
)
def test_train_matches_out_of_place_reference_bit_for_bit(cfg_kwargs):
    p = _small_params(seed=13)
    # batch * n = 24 is not a power of two, so a gradient scaled in another
    # order than the trainer's (say by 1 / (batch * n), then back) shows in the bits
    cfg = TrainConfig(steps=8, batch=3, lr=1e-3, holdout=4, eval_every=3, **cfg_kwargs)
    trained, _ = train_codec(SOURCE, 0.5, p, LossWeights(), cfg, np.random.default_rng(0))
    want = _reference_train(0.5, p, LossWeights(), cfg, np.random.default_rng(0))
    assert np.array_equal(trained.flat, want.flat)
    assert not np.array_equal(trained.flat, p.flat)


def test_train_steps_through_the_module_level_loss(monkeypatch):
    """The benchmark's tracer counts SGD steps as calls of
    ``diffcomm.loss.hybrid_loss_batch``, so the trainer must look it up there."""
    calls = []
    original = diffcomm.loss.hybrid_loss_batch

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(diffcomm.loss, "hybrid_loss_batch", counting)
    p = _small_params(seed=13)
    cfg = TrainConfig(steps=5, batch=2, lr=1e-3, holdout=4, eval_every=3)
    train_codec(SOURCE, 0.5, p, LossWeights(), cfg, np.random.default_rng(0))
    assert len(calls) == 5
    assert calls[0]["out"] is not None
    assert all(c["out"] is calls[0]["out"] for c in calls)
    assert all(c["grad_scale"] == cfg.lr for c in calls)


def test_train_produces_one_record_per_step():
    _, records = _train(steps=7)
    assert [r.step for r in records] == list(range(1, 8))
    assert all(isinstance(r, TrainRecord) for r in records)
    # eval on multiples of eval_every (3) and on the final step
    assert [r.step for r in records if r.eval_psnr is not None] == [3, 6, 7]


def test_train_zero_steps_is_identity():
    p = _small_params(seed=13)
    before = params_to_vector(p)
    trained, records = train_codec(
        SOURCE, 0.5, p, LossWeights(), TrainConfig(steps=0, holdout=2), np.random.default_rng(0)
    )
    assert records == []
    assert np.array_equal(params_to_vector(trained), before)


def test_train_does_not_mutate_input_params():
    p = _small_params(seed=13)
    before = params_to_vector(p).copy()
    train_codec(
        SOURCE, 0.5, p, LossWeights(), TrainConfig(steps=4, holdout=2), np.random.default_rng(1)
    )
    assert np.array_equal(params_to_vector(p), before)


def test_train_is_deterministic():
    p1, r1 = _train(seed=42, steps=6)
    p2, r2 = _train(seed=42, steps=6)
    assert np.array_equal(params_to_vector(p1), params_to_vector(p2))
    assert [r.breakdown.total for r in r1] == [r.breakdown.total for r in r2]
    p3, _ = _train(seed=43, steps=6)
    assert not np.array_equal(params_to_vector(p1), params_to_vector(p3))


def test_train_accepts_fixed_dataset_and_cycles_it():
    data = np.random.default_rng(14).standard_normal((3, 8))
    p, records = _train(source=data, steps=5)
    assert len(records) == 5
    assert all(math.isfinite(r.breakdown.total) for r in records)
    # batches of 2 and a holdout of 4 wrap around the 3 rows: training on
    # them is training on their repetition, row for row
    q, repeated = _train(source=data[[0, 1, 2, 0, 1, 2]], steps=5)
    assert np.array_equal(params_to_vector(p), params_to_vector(q))
    assert records == repeated
    # rows 3-5 feed steps 2 and 3, so the batches do move through the rows
    r, _ = _train(source=data[[0, 1, 2, 2, 1, 0]], steps=5)
    assert not np.array_equal(params_to_vector(p), params_to_vector(r))


# datasets for latents of 8 elements that a source check refuses, with its
# message; ``run_trials`` refuses them too (tests/test_pipeline.py)
MALFORMED_DATASETS = [
    pytest.param([np.zeros(8)] * 3, "dataset must be a float array, got list", id="list"),
    pytest.param(np.zeros((3, 8), dtype=np.int64), "dataset must be a float array, got int64",
                 id="int"),
    pytest.param(np.zeros(8), "dataset must have shape (rows >= 1, 8), got (8,)", id="1-D"),
    pytest.param(np.zeros((3, 6)), "dataset must have shape (rows >= 1, 8), got (3, 6)",
                 id="width"),
    pytest.param(np.zeros((0, 8)), "dataset must have shape (rows >= 1, 8), got (0, 8)",
                 id="no-rows"),
    pytest.param(np.where(np.arange(24).reshape(3, 8) == 13, np.nan, 0.0),
                 "dataset holds non-finite values", id="nan"),
]


@pytest.mark.parametrize("source, message", MALFORMED_DATASETS)
def test_train_rejects_a_malformed_dataset(source, message):
    with pytest.raises(ValueError) as info:
        _train(source=source, steps=1)
    assert str(info.value) == message


def test_train_common_noise_changes_trajectory():
    a, _ = _train(seed=15, steps=4)
    b, _ = _train(seed=15, steps=4, common_noise=True)
    assert not np.array_equal(params_to_vector(a), params_to_vector(b))


def test_train_momentum_changes_trajectory():
    a, _ = _train(seed=16, steps=6)
    b, _ = _train(seed=16, steps=6, momentum=0.9)
    assert not np.array_equal(params_to_vector(a), params_to_vector(b))


def test_train_diverges_with_absurd_learning_rate():
    p = _small_params(seed=13)
    cfg = TrainConfig(steps=50, batch=2, lr=1e9, holdout=2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError) as err:
            train_codec(SOURCE, 0.5, p, LossWeights(), cfg, np.random.default_rng(2))
    assert err.value.step >= 1
    assert err.value.last_finite_step == err.value.step - 1
    assert str(err.value) == (f"training aborted at step {err.value.step}: loss is not finite "
                              f"(last finite step: {err.value.step - 1})")


@pytest.mark.parametrize("sigma", [0.0, -0.5, math.nan, math.inf])
def test_train_requires_a_finite_positive_sigma(sigma):
    with pytest.raises(ValueError) as info:
        _train(sigma=sigma)
    assert (info.type, str(info.value)) == (ValueError, f"sigma must be finite and > 0, got {sigma!r}")


def test_train_config_validation():
    _check_bounds(TrainConfig, "train", [
        ("steps", -1, "must be >= 0, got -1", "steps"),
        ("batch", 0, "must be >= 1, got 0", "batch"),
        ("lr", 0.0, "must be finite and > 0, got 0.0", "lr"),
        ("lr", math.inf, "must be finite and > 0, got inf", None),
        ("momentum", -0.1, "must lie in [0, 1), got -0.1", "momentum"),
        ("momentum", 1.0, "must lie in [0, 1), got 1.0", "momentum"),
        ("eval_every", 0, "must be >= 1, got 0", "eval_every"),
        ("holdout", 0, "must be >= 1, got 0", "holdout"),
        # the parser reads these counts as integers, so only library calls reach these
        ("steps", 2.5, "must be an integer, got 2.5", None),
        ("steps", True, "must be an integer, got True", None),
        ("batch", 2.0, "must be an integer, got 2.0", None),
        ("eval_every", 1.5, "must be an integer, got 1.5", None),
        ("holdout", True, "must be an integer, got True", None),
    ])
    counts = TrainConfig(steps=np.int64(3), batch=np.int32(2), eval_every=np.int16(1), holdout=np.int8(4))
    assert [type(v) for v in (counts.steps, counts.batch, counts.eval_every, counts.holdout)] == [int] * 4


def test_train_loss_trends_down():
    """A short real run at an aggressive rate: smoothed loss must drop."""
    _, records = _train(seed=17, steps=300, params_seed=18)
    totals = [r.breakdown.total for r in records]
    head = float(np.mean(totals[:20]))
    tail = float(np.mean(totals[-20:]))
    assert tail < head
