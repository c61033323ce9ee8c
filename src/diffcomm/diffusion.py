"""Forward diffusion, ancestral reverse denoising, and the receiver-side
operations that treat channel noise as part of the forward process.

A latent is a nonempty one-dimensional float64 array of finite values.
Each public function checks the latent it is given (``reverse_step``
its dtype and shape, and the values of the one it returns), and none
writes into its input.

The receiver starts the reverse process by one of the two start rules
of a chain row (``_Row``).  An adaptive row is the received signal
scaled by the ``scale`` of its step mapping (``sigma2_to_step``), so it
matches the forward state at the mapped step, and starts as it is.  A
row that carries its variance is topped up (``compensate_to_step``) to a
chosen target step, so a fixed-length reverse run serves any channel.

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
from typing import NamedTuple, Protocol, Union, runtime_checkable

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
    """Noise-prediction interface consumed by the reverse process.  The
    chain joins a trial's rows into one vector per step only for an
    ``AnalyticGaussianDenoiser``, whose ``predict_noise`` acts on each
    element alone; it runs each row of any other denoiser as its own chain."""

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


Source = Union[GaussianSourceModel, np.ndarray]  # a model, or a dataset of latents as rows


def _check_source(source: Source, n: int) -> None:
    """The one check on a source, made before any draw: ValueError unless it is a
    model or a dataset of length-``n`` latents, a finite float ``(rows >= 1, n)`` array."""
    if isinstance(source, GaussianSourceModel):
        return
    if not (isinstance(source, np.ndarray) and source.dtype.kind == "f"):
        got = getattr(source, "dtype", type(source).__name__)
        raise ValueError(f"dataset must be a float array, got {got}")
    if source.ndim != 2 or source.shape[0] < 1 or source.shape[1] != n:
        raise ValueError(f"dataset must have shape (rows >= 1, {n}), got {source.shape}")
    if not np.all(np.isfinite(source)):
        raise ValueError("dataset holds non-finite values")


def _draw_latents(source: Source, n: int, count: int, rng: np.random.Generator, start: int):
    """The one reader of a source: ``count`` length-``n`` latents as rows, drawn from a
    model, or a checked dataset's rows from row ``start`` on, cycled (no ``rng`` draw)."""
    if isinstance(source, GaussianSourceModel):
        return source.draw((count, n), rng)
    return source[(start + np.arange(count)) % len(source)]


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
    """Draw q(y_t | y_0), for library users and for tests as the reference
    forward process: ``sqrt(ab_t) * y0 + sqrt(1 - ab_t) * eps``.

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
    noise: np.ndarray | None,
) -> np.ndarray:
    """One ancestral reverse step from ``t`` to ``t - 1``.

    The mean subtracts the predicted noise::

        mu = (y_t - (1 - a_t)/sqrt(1 - ab_t) * eps_hat) / sqrt(a_t)

    and the added variance is the forward posterior's,
    ``(1 - ab_{t-1}) * (1 - a_t) / (1 - ab_t)``.  At ``t = 1`` the
    previous state is noiseless (``ab_0 = 1``), the variance vanishes,
    and the step is deterministic.

    ``noise`` is the step's ``y_t.size`` standard normals, an array
    shaped like ``y_t``; at ``t = 1``, which adds none, it is ``None``.
    The scalars come from ``schedule.reverse_coefs``, built once from the
    same expressions; the mean is updated in place on one new array, and
    ``noise * sd`` computed into another, so the step writes into none of
    its inputs and its result is bit-identical to evaluating the formulas
    above per call.  The prediction is a bare array, and the step checks
    its result: each operation acts on each element alone, so a value of
    ``y_t``, of the prediction or of ``noise`` that is not finite makes
    the result's value non-finite too, and the step raises ValueError.
    ValueError: a ``y_t`` that is not a one-dimensional float64 array,
    before the denoiser sees it; a prediction not shaped like it, or a
    missing or mis-shaped ``noise`` at ``t > 1``, before the arithmetic.
    """
    schedule._check_step(t, lo=1)
    if not (isinstance(y_t, np.ndarray) and y_t.ndim == 1 and y_t.dtype == np.float64):
        _checked(y_t)
    c_eps, sqrt_a, sd = schedule.reverse_coefs[t - 1]
    mu = denoiser.predict_noise(y_t, t)
    if mu.shape != y_t.shape:
        raise ValueError(f"predicted noise has shape {mu.shape}, the latent {y_t.shape}")
    if t > 1 and getattr(noise, "shape", None) != y_t.shape:
        raise ValueError(f"noise has shape {getattr(noise, 'shape', None)}, the latent {y_t.shape}")
    mu = mu * c_eps
    np.subtract(y_t, mu, out=mu)
    mu /= sqrt_a
    if t > 1:
        mu += noise * sd
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
    chain engine that also denoises the streams and routes of a trial
    together.  The ``u - 1`` steps that add noise take their normals
    from one ``rng.standard_normal((u - 1, n))`` call made before the
    chain runs (``(0, n)`` for ``u`` 0 or 1).  That is the same values
    in the same order as one draw per step, and leaves ``rng`` in the
    same state, whether the chain finishes or raises.
    """
    _checked(y_u)
    schedule._check_step(u, lo=0)
    (y,), _ = _denoise_rows([_Row(y_u, u)], denoiser, schedule, rng)
    return y


class _Row(NamedTuple):
    """A chain row: ``vector`` enters at ``step``, as it is or topped up from ``carried``."""

    vector: np.ndarray
    step: int
    carried: float | None = None

    def start(self, schedule: Schedule, rng: np.random.Generator) -> np.ndarray:
        """The row's start at ``step``: ``vector``, or ``compensate_to_step`` from ``carried``."""
        if self.carried is None:
            return self.vector
        return compensate_to_step(self.vector, self.carried, self.step, schedule, rng)


def _denoise_rows(
    rows: list[_Row],
    denoiser: Denoiser,
    schedule: Schedule,
    rng: np.random.Generator,
) -> tuple[list[np.ndarray], int]:
    """Reverse chains of latents (rows), run as one ragged chain: the one
    place that starts a trial's rows and draws their noise.

    A row of ``w`` elements starts at its step ``u`` (in ``[0, T]``).  In
    the given order, each row takes its start (``_Row.start``), then
    draws its ``rng.standard_normal((max(u - 1, 0), w))`` straight into
    the noise table, so a top-up comes right before its own row's noise,
    and one row's draw is alive at a time.  The rows are ordered by
    descending start step, ties in the given order, so the active rows
    are always a prefix: a row joins when ``t`` reaches its start step,
    and each step makes one ``reverse_step`` call on the active rows
    joined end to end in that order.  The table is step-major, ``top - 1``
    rows for the largest start step ``top``, with the active rows'
    columns first and contiguous in that order: active rows of ``w``
    elements in all take ``table[top - t, :w]`` at step ``t`` (``None`` at
    ``t = 1``).  One row's draw is the table.  Every operation of the step
    acts on each element alone for an ``AnalyticGaussianDenoiser``, so
    each row's result is bit-identical to its own chain's; one row makes
    the calls of its own chain exactly.  Any other denoiser may not act
    on each element alone, so its rows are not joined: each runs as its
    own chain, in the given order, from the same generator, which gives
    the same starts and draws.  Returns each row's clean latent, in the
    given order, as a view of its chain's last array (a row from step 0
    is its start itself), and the ``reverse_step`` calls made: the
    largest start step when the rows join, else the sum of the rows'.
    """
    if len(rows) > 1 and type(denoiser) is not AnalyticGaussianDenoiser:
        chains = [_denoise_rows([row], denoiser, schedule, rng) for row in rows]
        return [y for (y,), _ in chains], sum(calls for _, calls in chains)
    widths = [row.vector.size for row in rows]
    order = sorted(range(len(rows)), key=lambda i: -rows[i].step)
    joins = [rows[i].step for i in order] + [-1]  # no t reaches the sentinel
    top = joins[0]
    # row i's columns, in the table and in the chain, end at end[i]
    end = dict(zip(order, np.cumsum([widths[i] for i in order]).tolist()))
    if len(rows) == 1:
        starts = [rows[0].start(schedule, rng)]
        table = rng.standard_normal((max(top - 1, 0), widths[0]))
    else:
        starts = []
        table = np.empty((max(top - 1, 0), sum(widths)))
        for i, row in enumerate(rows):
            starts.append(row.start(schedule, rng))
            table[top - row.step :, end[i] - widths[i] : end[i]] = rng.standard_normal(
                (max(row.step - 1, 0), widths[i])
            )
    y, k = None, 0
    for t in range(top, 0, -1):
        if t == joins[k]:
            joined = k
            while t == joins[k]:
                k += 1
            parts = [starts[i] for i in order[joined:k]]
            y = np.concatenate(parts if y is None else [y, *parts])
        y = reverse_step(y, t, denoiser, schedule, table[top - t, : y.size] if t > 1 else None)
    for i in order[:k]:
        starts[i] = y[end[i] - widths[i] : end[i]]
    return starts, top
