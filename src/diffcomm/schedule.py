"""Forward-diffusion noise schedule and the channel-noise-to-step mapping.

A linear beta schedule defines per-step noise rates ``beta_t`` for
``t = 1..T`` and the cumulative signal fractions ``alpha_bar_t``.  A
received signal ``y + sigma * eps`` is statistically identical to the
forward-diffusion state at step ``u`` (after scaling by
``sqrt(alpha_bar_u)``) whenever::

    alpha_bar_u = 1 / (1 + sigma^2)

so channel noise can be consumed by the reverse process instead of an
equalizer.  This module owns that correspondence: step -> variance,
variance -> nearest step, and the extra variance needed to push a
received signal out to a chosen step.

Step indices are 1-based; ``u = 0`` is the explicit noiseless state with
``alpha_bar_0 = 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CompensationInfeasibleError, ConfigurationError, SaturationError

__all__ = [
    "Schedule",
    "StepMapping",
    "build_linear_schedule",
    "step_to_sigma2",
    "sigma2_to_step",
    "compensation_variance",
]


@dataclass(frozen=True)
class Schedule:
    """Diffusion noise schedule, built from its per-step noise rates.

    Every attribute but ``betas`` is derived, not a constructor argument.
    Arrays are indexed by ``t - 1`` for ``t = 1..T`` and are read-only
    after construction; ``betas`` is a copy, so the caller's array stays
    writable.

    Attributes
    ----------
    betas : ndarray
        Per-step noise rates, each in (0, 1).
    T : int
        Number of diffusion steps, ``len(betas)``.
    alphas : ndarray
        ``1 - betas``.
    alpha_bars : ndarray
        Cumulative products of ``alphas``; strictly decreasing.
    reverse_coefs : tuple
        Entry ``t - 1`` holds the ancestral reverse step's scalars at step
        ``t`` as Python floats: ``((1 - a_t) / sqrt(1 - ab_t), sqrt(a_t), sd_t)``
        with ``sd_t = sqrt((1 - ab_{t-1}) * (1 - a_t) / (1 - ab_t))``, which is
        exactly 0 at ``t = 1``.
    """

    betas: np.ndarray
    T: int = field(init=False)
    alphas: np.ndarray = field(init=False)
    alpha_bars: np.ndarray = field(init=False)
    reverse_coefs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        betas = np.array(self.betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size == 0:
            raise ConfigurationError("betas", f"must be a nonempty vector, got shape {betas.shape}")
        if not np.all((betas > 0.0) & (betas < 1.0)):
            raise ConfigurationError("betas", "all values must lie in (0, 1)")
        alphas = 1.0 - betas
        alpha_bars = np.cumprod(alphas)
        # cumprod can round to 1 at the start, or stall or underflow later
        if np.any(alpha_bars <= 0.0) or np.any(alpha_bars >= 1.0):
            raise ConfigurationError("alpha_bars", "all values must lie in (0, 1)")
        if np.any(np.diff(alpha_bars) >= 0.0):
            raise ConfigurationError("alpha_bars", "must be strictly decreasing")
        for name, arr in (("betas", betas), ("alphas", alphas), ("alpha_bars", alpha_bars)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "T", betas.size)
        # numpy's elementwise +, -, *, / and sqrt are correctly rounded, as
        # Python float arithmetic and math.sqrt are, so every entry equals
        # its formula evaluated on the scalars bit for bit.
        ab_prev = np.concatenate(([1.0], alpha_bars[:-1]))
        c_eps = (1.0 - alphas) / np.sqrt(1.0 - alpha_bars)
        sd = np.sqrt((1.0 - ab_prev) * (1.0 - alphas) / (1.0 - alpha_bars))
        coefs = tuple(zip(c_eps.tolist(), np.sqrt(alphas).tolist(), sd.tolist()))
        object.__setattr__(self, "reverse_coefs", coefs)

    def alpha_bar(self, u: int) -> float:
        """Cumulative signal fraction at step ``u`` in ``[0, T]``.

        ``u = 0`` is the noiseless state and returns exactly 1.
        """
        self._check_step(u, lo=0)
        if u == 0:
            return 1.0
        return float(self.alpha_bars[u - 1])

    @property
    def max_sigma2(self) -> float:
        """Largest channel variance representable by a step of this schedule."""
        ab = float(self.alpha_bars[-1])
        return (1.0 - ab) / ab

    def _check_step(self, u: int, lo: int):
        if not isinstance(u, (int, np.integer)) or isinstance(u, bool):
            raise TypeError(f"step index must be an integer, got {type(u).__name__}")
        if u < lo or u > self.T:
            raise IndexError(f"step {u} outside [{lo}, {self.T}]")


@dataclass(frozen=True)
class StepMapping:
    """Result of mapping a channel noise variance onto a schedule step.

    Attributes
    ----------
    step_u : int
        Chosen step index in ``[0, T]``.
    alpha_bar_u : float
        Cumulative signal fraction at that step.
    residual : float
        ``|alpha_bar_u - 1 / (1 + sigma^2)|`` at the chosen step.  Zero
        when the variance is exactly representable.
    scale : float
        Derived, not a constructor argument: ``sqrt(alpha_bar_u)``, the
        factor the receiver applies so the scaled signal matches the
        forward-process state at ``step_u``.
    """

    step_u: int
    alpha_bar_u: float
    residual: float
    scale: float = field(init=False)

    def __post_init__(self):
        if self.step_u < 0:
            raise ValueError(f"step_u must be >= 0, got {self.step_u}")
        if not 0.0 < self.alpha_bar_u <= 1.0:
            raise ValueError(f"alpha_bar_u must lie in (0, 1], got {self.alpha_bar_u}")
        if not self.residual >= 0.0:
            raise ValueError(f"residual must be >= 0, got {self.residual}")
        object.__setattr__(self, "scale", math.sqrt(self.alpha_bar_u))


def build_linear_schedule(
    T: int = 1000, beta_start: float = 1e-4, beta_end: float = 0.02
) -> Schedule:
    """Build a schedule with betas linearly spaced from start to end inclusive.

    Parameters
    ----------
    T : int
        Number of steps, at least 1.  ``T = 1`` yields the single beta
        ``beta_start``.
    beta_start, beta_end : float
        Endpoints of the beta ramp; require ``0 < beta_start <= beta_end < 1``.

    Raises
    ------
    ConfigurationError
        If any argument is out of range.  The message names the field.
    """
    if not isinstance(T, (int, np.integer)) or T < 1:
        raise ConfigurationError("T", f"must be an integer >= 1, got {T!r}")
    if not 0.0 < beta_start < 1.0:
        raise ConfigurationError("beta_start", f"must lie in (0, 1), got {beta_start!r}")
    if not 0.0 < beta_end < 1.0:
        raise ConfigurationError("beta_end", f"must lie in (0, 1), got {beta_end!r}")
    if beta_start > beta_end:
        raise ConfigurationError(
            "beta_start", f"must be <= beta_end, got {beta_start!r} > {beta_end!r}"
        )
    return Schedule(betas=np.linspace(beta_start, beta_end, T))


def step_to_sigma2(schedule: Schedule, u: int) -> float:
    """Channel noise variance equivalent to forward step ``u``.

    Inverts ``alpha_bar_u = 1 / (1 + sigma^2)``; ``u = 0`` gives 0.
    """
    ab = schedule.alpha_bar(u)
    if u == 0:
        return 0.0
    return (1.0 - ab) / ab


def sigma2_to_step(schedule: Schedule, sigma2: float) -> StepMapping:
    """Map a channel noise variance to the nearest schedule step.

    Picks the ``u`` in ``[0, T]`` minimizing ``|alpha_bar_u - 1/(1+sigma2)|``,
    breaking ties toward the smaller step.  When ``sigma2`` is exactly the
    variance of some step (bit-for-bit equal to ``step_to_sigma2``), the
    reported residual is exactly zero even if the float reciprocal above
    rounds away from ``alpha_bar_u``.

    Raises
    ------
    ValueError
        If ``sigma2`` is negative or not finite.
    SaturationError
        If ``sigma2`` exceeds the variance of the final step.
    """
    sigma2 = float(sigma2)
    if not math.isfinite(sigma2) or sigma2 < 0.0:
        raise ValueError(f"sigma2 must be finite and >= 0, got {sigma2!r}")
    max_sigma2 = schedule.max_sigma2
    if sigma2 > max_sigma2:
        raise SaturationError(sigma2, max_sigma2)

    target = 1.0 / (1.0 + sigma2)
    # candidate alpha_bars over u = 0..T; index equals u
    candidates = np.concatenate(([1.0], schedule.alpha_bars))
    dist = np.abs(candidates - target)
    u = int(np.argmin(dist))  # first occurrence wins ties: smaller u
    alpha_bar_u = schedule.alpha_bar(u)
    if step_to_sigma2(schedule, u) == sigma2:
        residual = 0.0
    else:
        residual = float(dist[u])
    return StepMapping(step_u=u, alpha_bar_u=alpha_bar_u, residual=residual)


def compensation_variance(schedule: Schedule, t_target: int, sigma2: float) -> float:
    """Extra noise variance that pushes a received signal out to ``t_target``.

    A signal carrying channel noise ``sigma2`` reaches the noise level of
    step ``t_target`` after adding independent noise of the returned
    variance.  Exactly zero at the boundary where the channel variance
    already equals the step's variance.

    Raises
    ------
    IndexError
        If ``t_target`` is outside ``[1, T]``.
    ValueError
        If ``sigma2`` is negative or not finite.
    CompensationInfeasibleError
        If the channel variance exceeds the target step's variance, i.e.
        ``alpha_bar(t_target) < 1/(1+sigma2)`` fails.
    """
    sigma2 = float(sigma2)
    if not math.isfinite(sigma2) or sigma2 < 0.0:
        raise ValueError(f"sigma2 must be finite and >= 0, got {sigma2!r}")
    step_sigma2 = step_to_sigma2(schedule, t_target)
    if t_target == 0:
        raise IndexError("t_target must be >= 1")
    if sigma2 > step_sigma2:
        raise CompensationInfeasibleError(sigma2, step_sigma2, t_target)
    return step_sigma2 - sigma2

