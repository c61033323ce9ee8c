"""Forward diffusion, ancestral reverse denoising, and the receiver-side
operations that treat channel noise as part of the forward process.

A latent is a nonempty one-dimensional float64 array of finite values.
Each public function checks the latent it is given (``reverse_step``
the one it returns), and none writes into its input.

The receiver starts the reverse process in one of two ways.  The
adaptive route scales the received signal by the ``scale`` of its step
mapping (``sigma2_to_step``), so it matches the forward state at the
mapped step, and denoising starts there.  ``compensate_to_step`` instead
adds just enough extra noise to reach a chosen target step, so a
fixed-length reverse run can be used regardless of channel quality.

The denoiser is pluggable: it maps a latent and a step to a plain array
of predicted noise.  ``AnalyticGaussianDenoiser`` is the built-in
stand-in for a trained noise-prediction network: for latents with i.i.d.
Gaussian elements it returns the exact conditional expectation of the
injected noise, which makes end-to-end statistics checkable in closed
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from .schedule import Schedule, compensation_variance

__all__ = [
    "Denoiser",
    "GaussianSourceModel",
    "AnalyticGaussianDenoiser",
    "forward_sample",
    "reverse_step",
    "compensate_to_step",
    "denoise_from_step",
]


def _checked(y: np.ndarray) -> np.ndarray:
    """``y`` itself if it is a latent, else ValueError: the one check on
    latents, a nonempty one-dimensional float64 array of finite values."""
    if not (isinstance(y, np.ndarray) and y.dtype == np.float64):
        raise ValueError(f"latent must be a float64 array, got {getattr(y, 'dtype', type(y))}")
    if y.ndim != 1 or y.size == 0:
        raise ValueError(f"latent must be nonempty and one-dimensional, got shape {y.shape}")
    # NaN and inf propagate through the squares and their sum, so a finite
    # dot product proves every element finite; only an overflow of finite
    # values needs the elementwise test.  ``vdot``, unlike ``@``, does not
    # warn about that overflow.
    if not (math.isfinite(np.vdot(y, y)) or np.isfinite(y).all()):
        raise ValueError("latent components must be finite")
    return y


@runtime_checkable
class Denoiser(Protocol):
    """Noise-prediction interface consumed by the reverse process."""

    def predict_noise(self, y_t: np.ndarray, t: int) -> np.ndarray:
        """Estimate the standard-normal noise present in the latent ``y_t``
        at step ``t``, as a float64 array shaped like ``y_t``."""
        ...


@dataclass(frozen=True)
class GaussianSourceModel:
    """I.i.d. Gaussian source: every latent element is N(mean, variance)."""

    mean: float = 0.0
    variance: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean!r}")
        if not (math.isfinite(self.variance) and self.variance >= 0.0):
            raise ValueError(f"variance must be finite and >= 0, got {self.variance!r}")

    def draw(self, size: int | tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        """Source draws of shape ``size``, from one ``rng.standard_normal(size)`` call."""
        return self.mean + math.sqrt(self.variance) * rng.standard_normal(size)


@dataclass(frozen=True)
class AnalyticGaussianDenoiser:
    """Exact noise predictor for i.i.d. Gaussian sources.

    For ``y_t = sqrt(ab_t) * y0 + sqrt(1 - ab_t) * eps`` with
    ``y0 ~ N(m, v)`` elementwise, the conditional expectation of the noise
    is linear in ``y_t``::

        E[eps | y_t] = sqrt(1 - ab_t) * (y_t - sqrt(ab_t) * m)
                       / (ab_t * v + 1 - ab_t)

    A frozen stand-in for a trained network; no parameters, no state.
    """

    model: GaussianSourceModel
    schedule: Schedule
    # entry t: (sqrt(1 - ab_t), sqrt(ab_t) * m, ab_t * v + (1 - ab_t)), t = 0..T,
    # with None for a signal mean of +0.0 (see predict_noise)
    _coefs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ab = np.concatenate(([1.0], self.schedule.alpha_bars))
        m, v = self.model.mean, self.model.variance
        denom = ab * v + (1.0 - ab)
        # At t = 0 the noise sd is 0, so any positive denominator predicts
        # zeros; a zero-variance source's own would make it 0 / 0.
        if v == 0.0:
            denom[0] = 1.0
        signal_means = [
            None if c == 0.0 and math.copysign(1.0, c) > 0.0 else c
            for c in (np.sqrt(ab) * m).tolist()
        ]
        coefs = zip(np.sqrt(1.0 - ab).tolist(), signal_means, denom.tolist())
        object.__setattr__(self, "_coefs", tuple(coefs))

    def predict_noise(self, y_t: np.ndarray, t: int) -> np.ndarray:
        self.schedule._check_step(t, lo=0)
        noise_sd, signal_mean, denom = self._coefs[t]
        # y - (+0.0) is y bit for bit for every finite y, -0.0 included, so
        # that subtraction is skipped; y - (-0.0) turns -0.0 into +0.0 and
        # is kept.
        if signal_mean is None:
            eps = y_t * noise_sd
        else:
            eps = y_t - signal_mean
            eps *= noise_sd
        eps /= denom
        return eps


def forward_sample(
    y0: np.ndarray, t: int, schedule: Schedule, rng: np.random.Generator
) -> np.ndarray:
    """Jump directly to forward step ``t``:
    ``sqrt(ab_t) * y0 + sqrt(1 - ab_t) * eps``.

    ``t = 0`` returns ``y0`` itself without consuming generator state.
    """
    _checked(y0)
    ab = schedule.alpha_bar(t)
    if t == 0:
        return y0
    eps = rng.standard_normal(y0.size)
    return math.sqrt(ab) * y0 + math.sqrt(1.0 - ab) * eps


def reverse_step(
    y_t: np.ndarray,
    t: int,
    denoiser: Denoiser,
    schedule: Schedule,
    rng: np.random.Generator,
) -> np.ndarray:
    """One ancestral reverse step from ``t`` to ``t - 1``.

    The mean subtracts the predicted noise::

        mu = (y_t - (1 - a_t)/sqrt(1 - ab_t) * eps_hat) / sqrt(a_t)

    and the added variance is the forward posterior's,
    ``(1 - ab_{t-1}) * (1 - a_t) / (1 - ab_t)``.  At ``t = 1`` the
    previous state is noiseless (``ab_0 = 1``), the variance vanishes,
    and the step is deterministic.

    The scalars come from ``schedule.reverse_coefs``, built once from the
    same expressions, and the update runs in place on one new array, so
    the result is bit-identical to evaluating the formulas above per
    call.  Each step draws ``y_t.size`` standard normals from ``rng``
    (none at ``t = 1``) through its one call, ``rng.standard_normal(size)``,
    and may scale the returned array in place; any object with that
    method serves.  The prediction is a bare array, and the step checks
    its result, not its input: each operation acts on each element
    alone, so a value of ``y_t`` or of the prediction that is not finite
    makes the result's value non-finite too, and the step raises
    ValueError.  A latent that is not one-dimensional, or a prediction
    not shaped like ``y_t``, raises ValueError before any draw.
    """
    schedule._check_step(t, lo=1)
    c_eps, sqrt_a, sd = schedule.reverse_coefs[t - 1]
    mu = denoiser.predict_noise(y_t, t)
    if mu.shape != y_t.shape or y_t.ndim != 1:
        _checked(y_t)
        raise ValueError(f"predicted noise has shape {mu.shape}, the latent {y_t.shape}")
    mu = mu * c_eps
    np.subtract(y_t, mu, out=mu)
    mu /= sqrt_a
    if t > 1:
        z = rng.standard_normal(y_t.size)
        z *= sd
        mu += z
    return _checked(mu)


def compensate_to_step(
    s_hat: np.ndarray,
    sigma2: float,
    t_target: int,
    schedule: Schedule,
    rng: np.random.Generator,
) -> np.ndarray:
    """Top up channel noise so the signal sits exactly at step ``t_target``.

    Adds independent noise of variance ``step_to_sigma2(t_target) - sigma2``
    and scales by ``sqrt(ab_target)``; the result is distributed like a
    forward sample of the clean source at ``t_target``.  At the boundary
    where the channel variance already matches the step, nothing is added.

    Raises CompensationInfeasibleError (via ``compensation_variance``)
    when the channel is noisier than the target step allows.
    """
    _checked(s_hat)
    extra = compensation_variance(schedule, t_target, sigma2)
    ab = schedule.alpha_bar(t_target)
    if extra == 0.0:
        return math.sqrt(ab) * s_hat
    eps = rng.standard_normal(s_hat.size)
    return math.sqrt(ab) * (s_hat + math.sqrt(extra) * eps)


def denoise_from_step(
    y_u: np.ndarray,
    u: int,
    denoiser: Denoiser,
    schedule: Schedule,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run the reverse process from step ``u`` down to the clean state.

    ``u = 0`` is already clean and returns the input itself.  One
    ``reverse_step`` call per step: this is the one-row case of the
    chain engine that also denoises the streams of a MIMO trial
    together.  The ``u - 1`` steps that add noise take their normals
    from one ``rng.standard_normal((u - 1, n))`` call made before the
    chain runs (``(0, n)`` for ``u`` 0 or 1).  That is the same values
    in the same order as one draw per step, and leaves ``rng`` in the
    same state, whether the chain finishes or raises.
    """
    _checked(y_u)
    schedule._check_step(u, lo=0)
    noise = rng.standard_normal((max(u - 1, 0), y_u.size))
    (y,) = _denoise_rows([y_u], [u], [noise], denoiser, schedule)
    return y


class _TableNoise:
    """The chain's noise source: the ``i``-th ``standard_normal(size)`` call
    returns the first ``size`` elements of row ``i`` of a noise table."""

    __slots__ = ("rows",)

    def __init__(self, table: np.ndarray):
        self.rows = iter(table)

    def standard_normal(self, size: int) -> np.ndarray:
        return next(self.rows)[:size]


def _denoise_rows(
    starts: list[np.ndarray],
    steps: list[int],
    noises: list[np.ndarray],
    denoiser: Denoiser,
    schedule: Schedule,
) -> list[np.ndarray]:
    """Reverse chains of equal-length latents (rows), run as one ragged chain.

    Row ``i`` starts from ``starts[i]`` at step ``steps[i]`` (in
    ``[0, T]``) and takes its noise from ``noises[i]``, the
    ``(max(steps[i] - 1, 0), w)`` normals of its steps from
    ``steps[i]`` down to 2, for ``w`` elements per row; the chain scales
    them in place.  The rows are ordered by descending start step, ties
    in the given order, so the active rows are always a prefix: a row
    joins when ``t`` reaches its start step, and each step makes one
    ``reverse_step`` call on the active rows joined end to end in that
    order.  The noise is laid out in one step-major table of ``top - 1``
    rows for the largest start step ``top``: row ``s`` holds step
    ``top - s``, the active rows' columns first and contiguous in that
    order, so a step's noise is ``table[s, :k * w]``.  One row uses its
    own noise as the table, with no copy.  Every operation of the step
    acts on each element alone, as ``AnalyticGaussianDenoiser`` does, so
    each row's result is bit-identical to its own chain's.  One row makes
    the calls of its own chain exactly.  Returns each row's clean latent,
    in the given order, as a view of the chain's last array; a row from
    step 0 is its start itself.
    """
    order = sorted(range(len(starts)), key=lambda i: -steps[i])
    joins = [steps[i] for i in order] + [-1]  # no t reaches the sentinel
    top = joins[0]
    w = starts[0].size
    if len(starts) == 1:
        table = noises[0]
    else:
        table = np.empty((max(top - 1, 0), len(starts) * w))
        for j, i in enumerate(order):
            table[top - steps[i] :, j * w : (j + 1) * w] = noises[i]
    noise = _TableNoise(table)
    y, k = None, 0
    for t in range(top, 0, -1):
        if t == joins[k]:
            joined = k
            while t == joins[k]:
                k += 1
            if k == 1:
                y = starts[order[0]]
            else:
                parts = [starts[i] for i in order[joined:k]]
                y = np.concatenate(parts if y is None else [y, *parts])
        y = reverse_step(y, t, denoiser, schedule, noise)
    out = list(starts)
    if k == 1:
        out[order[0]] = y
    else:
        for j, i in enumerate(order[:k]):
            out[i] = y[j * w : (j + 1) * w]
    return out
