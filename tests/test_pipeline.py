"""The channel rules the trial pipeline and the config parser share:
``Channel`` checks its own fields, ``channels.stream_sigma2`` gives a
stream's variances and ``pipeline.start_step`` its adaptive start;
``run_trials`` checks its inputs, a dataset source as ``train_codec``
does, before any draw; and it counts the reverse steps its chains make."""

import math

import numpy as np
import pytest

from diffcomm import (
    AnalyticGaussianDenoiser,
    Channel,
    ConfigurationError,
    GaussianSourceModel,
    awgn_transmit,
    build_linear_schedule,
    rayleigh_transmit_mmse,
    run_trials,
    sigma2_to_step,
)
from diffcomm import diffusion
from diffcomm.channels import stream_sigma2
from diffcomm.pipeline import ROUTES, start_step

from test_diffusion import CentringDenoiser
from test_loss import MALFORMED_DATASETS

SCHEDULE = build_linear_schedule()


@pytest.mark.parametrize("kwargs, field, message", [
    ({"type": "nope"}, "type", "must be one of ['awgn', 'mimo', 'rayleigh'], got 'nope'"),
    ({"type": "mimo", "M": 0}, "M", "must be >= 1, got 0"),
    ({"type": "mimo", "M": 2.5}, "M", "must be an integer, got 2.5"),
    ({"type": "mimo", "M": True}, "M", "must be an integer, got True"),
    ({"type": "rayleigh", "convention": "zf"}, "convention",
     "must be one of ['gain_weighted', 'mmse'], got 'zf'"),
    ({"type": "rayleigh", "h": 0j}, "h", "fade coefficient must be nonzero"),
    ({"type": "rayleigh", "h": 1e-170 + 0j}, "h", "|h|^2 of (1e-170+0j) underflows to zero"),
    ({"type": "awgn", "h": 1 + 0j}, "h", "fixed fade applies to rayleigh channels only"),
    ({"type": "mimo", "h": 0.5 + 0.5j}, "h", "fixed fade applies to rayleigh channels only"),
], ids=["type", "M", "M-float", "M-bool", "convention", "h-zero", "h-underflow", "h-awgn", "h-mimo"])
def test_channel_rejects_each_bad_field(kwargs, field, message):
    with pytest.raises(ConfigurationError) as info:
        Channel(**kwargs)
    assert (info.value.field, info.value.message) == (field, message)


@pytest.mark.parametrize("h", [1.0 + 0j, 2.0 + 0j, 0.8 + 0.3j, 0.005 + 0j])
@pytest.mark.parametrize("convention", ["gain_weighted", "mmse"])
def test_stream_sigma2_is_what_the_fade_carries_and_maps(h, convention):
    out = rayleigh_transmit_mmse(np.ones(8), h, 0.7, np.random.default_rng(0), convention=convention)
    assert stream_sigma2(h, 0.7, convention) == (out.effective_sigma2[0], out.mapped_sigma2[0])


def test_stream_sigma2_at_a_real_unit_gain_is_what_awgn_carries():
    # the config checks an AWGN cell as h = 1.0
    out = awgn_transmit(np.ones(8), 0.7, np.random.default_rng(0))
    assert stream_sigma2(1.0, 0.7) == (out.effective_sigma2[0], out.mapped_sigma2[0])


@pytest.mark.parametrize("sigma2", [0.0, 0.25, 1.0, SCHEDULE.max_sigma2])
def test_start_step_maps_a_variance_up_to_the_last(sigma2):
    assert start_step(SCHEDULE, sigma2) == sigma2_to_step(SCHEDULE, sigma2)


@pytest.mark.parametrize("sigma2", [math.nextafter(SCHEDULE.max_sigma2, math.inf), 4e4, math.inf])
def test_start_step_clips_a_variance_past_the_last_to_step_T(sigma2):
    mapping = start_step(SCHEDULE, sigma2)
    assert mapping == sigma2_to_step(SCHEDULE, SCHEDULE.max_sigma2)
    assert mapping.step_u == SCHEDULE.T


def _adaptive_trial(shape, sigma2, rng, source=None):
    model = GaussianSourceModel()
    return run_trials(SCHEDULE, AnalyticGaussianDenoiser(model, SCHEDULE),
                      model if source is None else source, shape, None,
                      Channel(), sigma2, ROUTES["adaptive"], 100, [rng])


def test_run_trials_rejects_an_odd_latent_without_a_codec_before_any_draw():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"^total elements must be even for complex transmission, got 3$"):
        _adaptive_trial((3, 1, 1), 0.5, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("sigma2", [-1.0, math.nan, math.inf])
def test_run_trials_rejects_a_negative_or_non_finite_sigma2(sigma2):
    with pytest.raises(ValueError, match=rf"^sigma2 must be finite and >= 0, got {sigma2!r}$"):
        _adaptive_trial((2, 1, 1), sigma2, np.random.default_rng(0))


@pytest.mark.parametrize("source, message", MALFORMED_DATASETS)
def test_run_trials_refuses_what_train_codec_refuses_before_any_draw(source, message):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError) as info:
        _adaptive_trial((2, 2, 2), 0.5, rng, source)
    assert (info.type, str(info.value)) == (ValueError, message)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("centring", [False, True], ids=["analytic", "centring"])
def test_run_trials_counts_the_reverse_steps_its_chains_make(monkeypatch, centring):
    """Chain steps are the ``reverse_step`` calls made: the largest start
    step when a trial's rows join (the analytic denoiser), and the rows'
    steps summed, the trial-steps, when each row runs as its own chain."""
    calls = []
    real = diffusion.reverse_step

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(diffusion, "reverse_step", counting)
    model = GaussianSourceModel()
    analytic = AnalyticGaussianDenoiser(model, SCHEDULE)
    den = CentringDenoiser(analytic) if centring else analytic
    rngs = [np.random.default_rng(seed) for seed in range(2)]
    _, _, (steps, chain_steps, _) = run_trials(SCHEDULE, den, model, (4, 2, 1), None,
                                               Channel("mimo"), 0.05, ROUTES["compare"],
                                               SCHEDULE.T, rngs)
    assert chain_steps == len(calls) and (chain_steps == steps) == centring
