"""Forward diffusion, ancestral reverse denoising, and the receiver-side
operations that treat channel noise as part of the forward process.

Two receive strategies are supported.  ``adaptive_receive`` scales the
received signal so it matches the forward state at the step nearest the
channel's noise level, and denoising starts there.  ``compensate_to_step``
instead adds just enough extra noise to reach a chosen target step, so a
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
from typing import Optional, Protocol, runtime_checkable

import numpy as np

from .schedule import (
    Schedule,
    StepMapping,
    compensation_variance,
    sigma2_to_step,
)

__all__ = [
    "Latent",
    "Denoiser",
    "GaussianSourceModel",
    "AnalyticGaussianDenoiser",
    "forward_sample",
    "reverse_step",
    "compensate_to_step",
    "adaptive_receive",
    "denoise_from_step",
]

def _checked_data(data: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """``data`` checked and made read-only in place, or ValueError.

    The one check on latent values, shared by the constructor and
    ``Latent._adopt``: one-dimensional, ``w * h * c`` elements for the
    (already validated) ``shape``, all finite.  ``data`` must be a
    float64 array the new latent owns.
    """
    if data.ndim != 1:
        raise ValueError(f"latent data must be one-dimensional, got {data.ndim}")
    w, h, c = shape
    if w * h * c != data.size:
        raise ValueError(
            f"shape {shape} implies {w * h * c} elements, data has {data.size}"
        )
    # NaN and inf propagate through the squares and their sum, so a finite
    # dot product proves every element finite; only an overflow of finite
    # values needs the elementwise test.  ``vdot``, unlike ``@``, does not
    # warn about that overflow.
    if not (math.isfinite(np.vdot(data, data)) or np.isfinite(data).all()):
        raise ValueError("latent components must be finite")
    data.flags.writeable = False
    return data


@dataclass(frozen=True)
class Latent:
    """Flat real-valued latent with its logical (width, height, channels) shape.

    The constructor copies the given values, so the caller's array stays
    writable and later writes to it (or to the array it is a view of)
    never reach the latent.
    """

    data: np.ndarray
    shape: tuple[int, int, int]

    def __post_init__(self):
        shape = tuple(map(int, self.shape))
        if len(shape) != 3 or min(shape) < 1:
            raise ValueError(f"shape must be three positive integers, got {shape}")
        object.__setattr__(self, "shape", shape)
        data = np.array(self.data, dtype=np.float64)
        object.__setattr__(self, "data", _checked_data(data, shape))

    @property
    def n(self) -> int:
        return self.data.size

    def _adopt(self, data: np.ndarray, shape: Optional[tuple[int, int, int]] = None) -> "Latent":
        """A latent holding ``data`` itself, not a copy, for a float64 array
        the caller has just allocated and no one else references.  ``shape``
        (this latent's by default) is trusted, not re-validated; the data
        get the constructor's checks and are read-only afterwards."""
        shape = self.shape if shape is None else shape
        out = object.__new__(Latent)
        object.__setattr__(out, "data", _checked_data(data, shape))
        object.__setattr__(out, "shape", shape)
        return out

    def as_image(self) -> np.ndarray:
        """View as a (width, height, channels) array for windowed metrics."""
        return self.data.reshape(self.shape)


@runtime_checkable
class Denoiser(Protocol):
    """Noise-prediction interface consumed by the reverse process."""

    def predict_noise(self, y_t: Latent, t: int) -> np.ndarray:
        """Estimate the standard-normal noise present in ``y_t`` at step
        ``t``, as a float64 array shaped like ``y_t.data``."""
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

    def draw(self, shape: tuple[int, int, int], rng: np.random.Generator) -> Latent:
        w, h, c = shape
        data = self.mean + math.sqrt(self.variance) * rng.standard_normal(w * h * c)
        return Latent(data=data, shape=tuple(shape))


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

    def predict_noise(self, y_t: Latent, t: int) -> np.ndarray:
        self.schedule._check_step(t, lo=0)
        noise_sd, signal_mean, denom = self._coefs[t]
        # y - (+0.0) is y bit for bit for every finite y, -0.0 included, so
        # that subtraction is skipped; y - (-0.0) turns -0.0 into +0.0 and
        # is kept.
        if signal_mean is None:
            eps = y_t.data * noise_sd
        else:
            eps = y_t.data - signal_mean
            eps *= noise_sd
        eps /= denom
        return eps


def forward_sample(
    y0: Latent, t: int, schedule: Schedule, rng: np.random.Generator
) -> Latent:
    """Jump directly to forward step ``t``:
    ``sqrt(ab_t) * y0 + sqrt(1 - ab_t) * eps``.

    ``t = 0`` returns ``y0`` unchanged without consuming generator state.
    """
    ab = schedule.alpha_bar(t)
    if t == 0:
        return y0
    eps = rng.standard_normal(y0.n)
    return y0._adopt(math.sqrt(ab) * y0.data + math.sqrt(1.0 - ab) * eps)


def reverse_step(
    y_t: Latent,
    t: int,
    denoiser: Denoiser,
    schedule: Schedule,
    rng: np.random.Generator,
) -> Latent:
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
    call.  Each step draws ``y_t.n`` standard normals from ``rng``
    (none at ``t = 1``) through its one call, ``rng.standard_normal(size)``,
    and may scale the returned array in place; any object with that
    method serves.  The prediction is a bare array and the result
    is the step's one new ``Latent``: a prediction that is not finite,
    or not shaped like ``y_t.data``, raises ValueError here.
    """
    schedule._check_step(t, lo=1)
    c_eps, sqrt_a, sd = schedule.reverse_coefs[t - 1]
    mu = denoiser.predict_noise(y_t, t) * c_eps
    np.subtract(y_t.data, mu, out=mu)
    mu /= sqrt_a
    if t > 1:
        z = rng.standard_normal(y_t.n)
        z *= sd
        mu += z
    return y_t._adopt(mu)


def compensate_to_step(
    s_hat: Latent,
    sigma2: float,
    t_target: int,
    schedule: Schedule,
    rng: np.random.Generator,
) -> Latent:
    """Top up channel noise so the signal sits exactly at step ``t_target``.

    Adds independent noise of variance ``step_to_sigma2(t_target) - sigma2``
    and scales by ``sqrt(ab_target)``; the result is distributed like a
    forward sample of the clean source at ``t_target``.  At the boundary
    where the channel variance already matches the step, nothing is added.

    Raises CompensationInfeasibleError (via ``compensation_variance``)
    when the channel is noisier than the target step allows.
    """
    extra = compensation_variance(schedule, t_target, sigma2)
    ab = schedule.alpha_bar(t_target)
    if extra == 0.0:
        data = math.sqrt(ab) * s_hat.data
    else:
        eps = rng.standard_normal(s_hat.n)
        data = math.sqrt(ab) * (s_hat.data + math.sqrt(extra) * eps)
    return s_hat._adopt(data)


def adaptive_receive(
    s_hat: Latent, sigma2: float, schedule: Schedule
) -> tuple[Latent, StepMapping]:
    """Scale a received signal onto the nearest forward step.

    Returns the scaled latent ``sqrt(ab_u) * s_hat`` and the mapping that
    says which step ``u`` the reverse process should start from.  With
    ``sigma2 = 0`` the signal is already clean: step 0, scale 1, and the
    data pass through unchanged.
    """
    mapping = sigma2_to_step(schedule, sigma2)
    if mapping.step_u == 0:
        return s_hat, mapping
    return s_hat._adopt(mapping.scale * s_hat.data), mapping


def denoise_from_step(
    y_u: Latent,
    u: int,
    denoiser: Denoiser,
    schedule: Schedule,
    rng: np.random.Generator,
) -> Latent:
    """Run the reverse process from step ``u`` down to the clean state.

    ``u = 0`` is already clean and returns the input unchanged.  One
    ``reverse_step`` call per step: this is the one-row case of the
    chain engine that also denoises the streams of a MIMO trial
    together.  The ``u - 1`` steps that add noise take their normals
    from one ``rng.standard_normal((u - 1, n))`` call made before the
    chain runs (``(0, n)`` for ``u`` 0 or 1).  That is the same values
    in the same order as one draw per step, and leaves ``rng`` in the
    same state, whether the chain finishes or raises.
    """
    schedule._check_step(u, lo=0)
    noise = rng.standard_normal((max(u - 1, 0), y_u.n))
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
    starts: list[Latent],
    steps: list[int],
    noises: list[np.ndarray],
    denoiser: Denoiser,
    schedule: Schedule,
) -> list[Latent]:
    """Reverse chains of equal-shape rows, run as one ragged chain.

    Row ``i`` starts from ``starts[i]`` at step ``steps[i]`` (in
    ``[0, T]``) and takes its noise from ``noises[i]``, the
    ``(max(steps[i] - 1, 0), w)`` normals of its steps from
    ``steps[i]`` down to 2, for ``w`` elements per row; the chain scales
    them in place.  The rows are ordered by descending start step, ties
    in the given order, so the active rows are always a prefix: a row
    joins when ``t`` reaches its start step, and each step makes one
    ``reverse_step`` call on the latent of the active rows, their data
    joined in that order with shape ``(k * a, b, c)`` for ``k`` rows of
    shape ``(a, b, c)``.  The noise is laid out in one step-major table
    of ``top - 1`` rows for the largest start step ``top``: row ``s``
    holds step ``top - s``, the active rows' columns first and
    contiguous in that order, so a step's noise is ``table[s, :k * w]``.
    One row uses its own noise as the table, with no copy.  Every
    operation of the step acts on each element alone, as
    ``AnalyticGaussianDenoiser`` does, so each row's result is
    bit-identical to its own chain's.  One row makes the calls of its
    own chain exactly.  Returns each row's clean latent, in the given
    order; a row from step 0 is its start, unchanged.
    """
    order = sorted(range(len(starts)), key=lambda i: -steps[i])
    joins = [steps[i] for i in order] + [-1]  # no t reaches the sentinel
    top = joins[0]
    a, b, c = starts[0].shape
    w = a * b * c
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
                parts = [starts[i].data for i in order[joined:k]]
                data = np.concatenate(parts if y is None else [y.data, *parts])
                y = starts[0]._adopt(data, (k * a, b, c))
        y = reverse_step(y, t, denoiser, schedule, noise)
    out = list(starts)
    if k == 1:
        out[order[0]] = y
    else:
        for j, i in enumerate(order[:k]):
            out[i] = starts[i]._adopt(y.data[j * w : (j + 1) * w])
    return out
