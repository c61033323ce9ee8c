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

from .errors import CompensationInfeasibleError, ConfigurationError, InfiniteSnrError, SaturationError

__all__ = [
    "Schedule",
    "StepMapping",
    "build_linear_schedule",
    "step_to_sigma2",
    "sigma2_to_step",
    "compensation_variance",
    "step_to_snr_db",
]


@dataclass(frozen=True)
class Schedule:
    """Diffusion noise schedule over ``T`` steps.

    Arrays are indexed by ``t - 1`` for ``t = 1..T`` and are read-only
    after construction.

    Attributes
    ----------
    T : int
        Number of diffusion steps.
    betas : ndarray
        Per-step noise rates, each in (0, 1).
    alphas : ndarray
        ``1 - betas``.
    alpha_bars : ndarray
        Cumulative products of ``alphas``; strictly decreasing.
    reverse_coefs : tuple
        Derived, not a constructor argument.  Entry ``t - 1`` holds the
        ancestral reverse step's scalars at step ``t`` as Python floats:
        ``((1 - a_t) / sqrt(1 - ab_t), sqrt(a_t), sd_t)`` with
        ``sd_t = sqrt((1 - ab_{t-1}) * (1 - a_t) / (1 - ab_t))``, which is
        exactly 0 at ``t = 1``.
    """

    T: int
    betas: np.ndarray
    alphas: np.ndarray
    alpha_bars: np.ndarray
    reverse_coefs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.T < 1:
            raise ConfigurationError("T", f"must be >= 1, got {self.T}")
        for name in ("betas", "alphas", "alpha_bars"):
            arr = getattr(self, name)
            if arr.shape != (self.T,):
                raise ConfigurationError(name, f"expected shape ({self.T},), got {arr.shape}")
        if np.any(self.betas <= 0.0) or np.any(self.betas >= 1.0):
            raise ConfigurationError("betas", "all values must lie in (0, 1)")
        if not np.array_equal(self.alphas, 1.0 - self.betas):
            raise ConfigurationError("alphas", "must equal 1 - betas")
        if np.any(self.alpha_bars <= 0.0) or np.any(self.alpha_bars >= 1.0):
            raise ConfigurationError("alpha_bars", "all values must lie in (0, 1)")
        if np.any(np.diff(self.alpha_bars) >= 0.0):
            raise ConfigurationError("alpha_bars", "must be strictly decreasing")
        for name in ("betas", "alphas", "alpha_bars"):
            getattr(self, name).flags.writeable = False
        # numpy's elementwise +, -, *, / and sqrt are correctly rounded, as
        # Python float arithmetic and math.sqrt are, so every entry equals
        # its formula evaluated on the scalars bit for bit.
        a_t = self.alphas
        ab_t = self.alpha_bars
        ab_prev = np.concatenate(([1.0], ab_t[:-1]))
        c_eps = (1.0 - a_t) / np.sqrt(1.0 - ab_t)
        sd = np.sqrt((1.0 - ab_prev) * (1.0 - a_t) / (1.0 - ab_t))
        coefs = tuple(zip(c_eps.tolist(), np.sqrt(a_t).tolist(), sd.tolist()))
        object.__setattr__(self, "reverse_coefs", coefs)

    def beta(self, t: int) -> float:
        """Noise rate at step ``t`` in ``[1, T]``."""
        self._check_step(t, lo=1)
        return float(self.betas[t - 1])

    def alpha(self, t: int) -> float:
        """Signal retention ``1 - beta_t`` at step ``t`` in ``[1, T]``."""
        self._check_step(t, lo=1)
        return float(self.alphas[t - 1])

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
        if not isinstance(u, (int, np.integer)):
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
    scale : float
        ``sqrt(alpha_bar_u)``; the factor the receiver applies so the
        scaled signal matches the forward-process state at ``step_u``.
    residual : float
        ``|alpha_bar_u - 1 / (1 + sigma^2)|`` at the chosen step.  Zero
        when the variance is exactly representable.
    """

    step_u: int
    alpha_bar_u: float
    scale: float
    residual: float

    def __post_init__(self):
        if self.step_u < 0:
            raise ValueError(f"step_u must be >= 0, got {self.step_u}")
        if not 0.0 < self.alpha_bar_u <= 1.0:
            raise ValueError(f"alpha_bar_u must lie in (0, 1], got {self.alpha_bar_u}")
        if self.scale != math.sqrt(self.alpha_bar_u):
            raise ValueError("scale must equal sqrt(alpha_bar_u)")
        if not self.residual >= 0.0:
            raise ValueError(f"residual must be >= 0, got {self.residual}")


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
    betas = np.linspace(beta_start, beta_end, T)
    alphas = 1.0 - betas
    alpha_bars = np.cumprod(alphas)
    return Schedule(T=int(T), betas=betas, alphas=alphas, alpha_bars=alpha_bars)


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
    return StepMapping(
        step_u=u,
        alpha_bar_u=alpha_bar_u,
        scale=math.sqrt(alpha_bar_u),
        residual=residual,
    )


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


def step_to_snr_db(schedule: Schedule, u: int) -> float:
    """SNR in dB of a unit-power signal whose noise matches step ``u``.

    Convenience for reporting which channel quality a step corresponds to
    under the configured schedule.  ``u = 0`` is noiseless and raises
    InfiniteSnrError via the zero variance.
    """
    sigma2 = step_to_sigma2(schedule, u)
    if sigma2 == 0.0:
        raise InfiniteSnrError("step 0 is noiseless; SNR is unbounded")
    return -10.0 * math.log10(sigma2)
