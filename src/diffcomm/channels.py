"""Channel simulation: AWGN, flat Rayleigh fading with MMSE equalization,
and MIMO via singular-value decomposition.

Every transmit operation returns the received signal together with the
step mapping(s) that tell the receiver which forward-diffusion state the
signal corresponds to, so denoising can start at the right step.

Conventions
-----------
Noise variance ``sigma^2`` is per complex symbol, split ``sigma^2/2``
into each real component.  Real-valued latents of even length ``2n``
ride on ``n`` complex symbols via ``ComplexVector.from_real``, which
scales by ``1/sqrt(2)`` so that per-symbol signal power equals the
latent's mean squared value and, after ``to_real`` at the receiver, the
de-interleaved latent carries noise of variance ``sigma^2`` per real
element.  That makes the per-symbol variance convention and the
real-domain diffusion equivalence ``alpha_bar_u = 1/(1+sigma^2)`` agree.
The scaling is the only non-trivial part of the bridge; the round trip
is exact up to one unit in the last place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DeepFadeError, RankDeficientChannelError
from .schedule import Schedule, StepMapping, sigma2_to_step

__all__ = [
    "ComplexVector",
    "ChannelOutput",
    "MimoChannel",
    "awgn_transmit",
    "rayleigh_transmit_mmse",
    "mimo_svd_decompose",
    "mimo_transmit",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ComplexVector:
    """Complex baseband signal stored as separate real and imaginary parts."""

    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        re = np.asarray(self.re, dtype=np.float64)
        im = np.asarray(self.im, dtype=np.float64)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        if re.ndim != 1 or im.ndim != 1:
            raise ValueError("re and im must be one-dimensional")
        if re.shape != im.shape:
            raise ValueError(f"re and im lengths differ: {re.shape} vs {im.shape}")
        if re.size == 0:
            raise ValueError("signal must contain at least one symbol")
        if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
            raise ValueError("signal components must be finite")

    @property
    def n(self) -> int:
        """Number of complex symbols."""
        return self.re.size

    def as_complex(self) -> np.ndarray:
        return self.re + 1j * self.im

    @classmethod
    def from_complex(cls, z: np.ndarray) -> "ComplexVector":
        z = np.asarray(z)
        return cls(re=z.real.astype(np.float64), im=z.imag.astype(np.float64))

    @classmethod
    def from_real(cls, values: np.ndarray) -> "ComplexVector":
        """Interleave a real vector of even length 2n into n complex symbols.

        Consecutive pairs map to (re, im), scaled by 1/sqrt(2) so per-symbol
        power equals the real vector's mean squared value.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("expected a one-dimensional real vector")
        if values.size % 2 != 0:
            raise ValueError(f"real length must be even, got {values.size}")
        return cls(re=values[0::2] / _SQRT2, im=values[1::2] / _SQRT2)

    def to_real(self) -> np.ndarray:
        """De-interleave back to the real vector of length 2n."""
        out = np.empty(2 * self.n, dtype=np.float64)
        out[0::2] = self.re * _SQRT2
        out[1::2] = self.im * _SQRT2
        return out


@dataclass(frozen=True)
class ChannelOutput:
    """Received signal plus the diffusion-step bookkeeping for the receiver.

    ``mappings`` holds one StepMapping per independent stream: a single
    entry for scalar channels, one per subchannel for MIMO.
    ``effective_sigma2`` is the actual per-real-element noise variance of
    each stream of the (rescaled) received signal.
    """

    received: ComplexVector
    mappings: tuple[StepMapping, ...]
    effective_sigma2: tuple[float, ...]

    def __post_init__(self):
        if len(self.mappings) == 0:
            raise ValueError("at least one stream mapping is required")
        if len(self.effective_sigma2) != len(self.mappings):
            raise ValueError("one effective variance per stream mapping is required")


def _complex_noise(rng: np.random.Generator, n: int, sigma: float) -> np.ndarray:
    """Circular Gaussian noise, variance sigma^2 per symbol.

    Draws nothing when sigma is zero, so noiseless calls stay reproducible
    without consuming generator state.
    """
    if sigma == 0.0:
        return np.zeros(n, dtype=np.complex128)
    c = sigma / _SQRT2
    return c * rng.standard_normal(n) + 1j * (c * rng.standard_normal(n))


def _check_sigma(sigma: float) -> float:
    sigma = float(sigma)
    if not math.isfinite(sigma) or sigma < 0.0:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    return sigma


def awgn_transmit(
    z: ComplexVector, sigma: float, rng: np.random.Generator, schedule: Schedule
) -> ChannelOutput:
    """Send ``z`` through an additive white Gaussian noise channel.

    The received signal is ``z + n0`` with noise variance ``sigma^2`` per
    complex symbol.  The returned mapping locates the forward step whose
    noise level matches ``sigma^2``.  This is the flat fading channel at
    ``h = 1``, where both fading conventions map ``sigma^2``.
    """
    return rayleigh_transmit_mmse(z, 1.0, sigma, rng, schedule)


def rayleigh_transmit_mmse(
    z: ComplexVector,
    h: complex,
    sigma: float,
    rng: np.random.Generator,
    schedule: Schedule,
    convention: str = "gain_weighted",
) -> ChannelOutput:
    """Send ``z`` through a flat fading channel and equalize with MMSE.

    The raw channel produces ``h*z + n0``; applying the MMSE coefficient
    and dividing out its leading signal factor leaves::

        received = z + (conj(h)/|h|^2) * n0

    i.e. the signal untouched and effective noise variance
    ``sigma^2 / |h|^2`` per symbol.  The code applies that combined
    coefficient directly, which is algebraically identical to
    equalize-then-rescale and keeps ``h = 1`` bit-identical to
    ``awgn_transmit`` under a shared generator.

    ``convention`` selects which variance feeds the step mapping:

    - ``"gain_weighted"`` : ``sigma^2 * |h|^2``
    - ``"mmse"``          : ``sigma^2 / |h|^2``  (the variance the rescaled
      output actually carries; see the Monte-Carlo equivalence tests)

    Both agree at ``|h| = 1``.  ``effective_sigma2`` always reports the
    carried variance ``sigma^2 / |h|^2``.
    """
    sigma = _check_sigma(sigma)
    if convention not in ("gain_weighted", "mmse"):
        raise ValueError(
            f"unknown convention {convention!r}; use 'gain_weighted' or 'mmse'"
        )
    h = complex(h)
    gain2 = h.real * h.real + h.imag * h.imag
    if gain2 == 0.0:
        raise DeepFadeError("channel gain is zero; the signal is lost")

    noise = _complex_noise(rng, z.n, sigma)
    noise_coeff = h.conjugate() / gain2
    eff = noise_coeff * noise
    received = ComplexVector(re=z.re + eff.real, im=z.im + eff.imag)

    sigma2 = sigma * sigma
    carried_sigma2 = sigma2 / gain2
    mapped_sigma2 = sigma2 * gain2 if convention == "gain_weighted" else carried_sigma2
    mapping = sigma2_to_step(schedule, mapped_sigma2)
    return ChannelOutput(received=received, mappings=(mapping,), effective_sigma2=(carried_sigma2,))


@dataclass(frozen=True)
class MimoChannel:
    """MIMO channel matrix with its singular-value decomposition.

    Takes only ``H``, a finite square matrix, and derives the rest from
    ``numpy.linalg.svd``: ``H = U @ diag(singular_values) @ V^H`` with
    unitary ``U`` and ``V`` and singular values in descending order.
    ``H`` is copied, so the caller's array stays writable and later writes
    to it never reach the channel; all four stored arrays are read-only.
    """

    H: np.ndarray
    U: np.ndarray = field(init=False)
    V: np.ndarray = field(init=False)
    singular_values: np.ndarray = field(init=False)

    def __post_init__(self):
        H = np.array(self.H, dtype=np.complex128)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError(f"H must be a square matrix, got shape {H.shape}")
        if not np.all(np.isfinite(H)):
            raise ValueError("H must be finite")
        U, s, Vh = np.linalg.svd(H)
        V = Vh.T.conj()  # a fresh array, column-major like V^H's transpose
        for name, arr in (("H", H), ("U", U), ("V", V), ("singular_values", s)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def M(self) -> int:
        return self.H.shape[0]


def mimo_svd_decompose(H: np.ndarray) -> MimoChannel:
    """Decompose a finite square channel matrix into parallel subchannels.

    The same as ``MimoChannel(H)``; raises ``ValueError`` when ``H`` is not
    a square 2-D matrix or holds a non-finite entry.
    """
    return MimoChannel(H)


def mimo_transmit(
    z: ComplexVector,
    channel: MimoChannel,
    sigma: float,
    rng: np.random.Generator,
    schedule: Schedule,
) -> ChannelOutput:
    """Send ``z`` over ``M`` parallel eigenmode streams.

    The symbol vector is split into ``M`` contiguous chunks (stream ``i``
    takes symbols ``[i*L, (i+1)*L)``), precoded with ``V``, passed through
    ``H`` with additive noise, and multiplied by ``U^H`` at the receiver,
    which diagonalizes the channel.  Each stream ``i`` is then divided by
    its singular value, leaving ``y_i + (sigma/s_i) * eps`` and one step
    mapping per stream at effective variance ``(sigma/s_i)^2``.
    """
    sigma = _check_sigma(sigma)
    M = channel.M
    dead = [i for i in range(M) if channel.singular_values[i] == 0.0]
    if dead:
        raise RankDeficientChannelError(dead)
    if z.n % M != 0:
        raise ValueError(f"symbol count {z.n} is not divisible by {M} streams")
    L = z.n // M

    Y = z.as_complex().reshape(M, L)
    X = channel.V @ Y
    noise = _complex_noise(rng, M * L, sigma).reshape(M, L)
    Y_rx = channel.H @ X + noise
    Y_eq = channel.U.conj().T @ Y_rx

    s = channel.singular_values
    out = Y_eq / s[:, None]
    received = ComplexVector.from_complex(out.reshape(-1))

    sigma2 = sigma * sigma
    eff = tuple(sigma2 / float(si * si) for si in s)
    mappings = tuple(sigma2_to_step(schedule, e) for e in eff)
    return ChannelOutput(received=received, mappings=mappings, effective_sigma2=eff)
