"""Channel simulation: AWGN, flat Rayleigh fading with MMSE equalization,
and MIMO via singular-value decomposition.

The channels only transmit: each returns the received signal with the
noise variance every stream carries and the variance its step mapping
reads.  The receiver maps a stream onto the step it starts from.

Conventions
-----------
Every channel takes a real vector of even length ``2n`` and returns the
received real vector of the same length.  Noise variance ``sigma^2`` is
per complex symbol, split ``sigma^2/2`` into each real component.
Inside a channel, the ``n`` complex symbols are a complex view of the
real vector scaled by ``1/sqrt(2)``: consecutive pairs are one symbol's
real and imaginary parts, and per-symbol signal power equals the
vector's mean squared value.  The received symbols are viewed back as
reals and scaled up, so each real element carries noise of variance
``sigma^2``.  That makes the per-symbol variance convention and
the real-domain diffusion equivalence ``alpha_bar_u = 1/(1+sigma^2)``
agree.  The scaling is the only non-trivial part of the bridge; a
noiseless round trip is exact up to one unit in the last place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DeepFadeError, RankDeficientChannelError

__all__ = [
    "ChannelOutput",
    "MimoChannel",
    "awgn_transmit",
    "rayleigh_transmit_mmse",
    "mimo_svd_decompose",
    "mimo_transmit",
    "stream_sigma2",
]

_SQRT2 = math.sqrt(2.0)


def _interleave(values: np.ndarray) -> np.ndarray:
    """The ``n`` symbols that a finite, nonempty 1-D real vector of even
    length 2n rides on: a complex view of the vector over 1/sqrt(2)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("expected a one-dimensional real vector")
    if values.size % 2 != 0:
        raise ValueError(f"real length must be even, got {values.size}")
    if values.size == 0:
        raise ValueError("signal must contain at least one symbol")
    if not np.all(np.isfinite(values)):
        raise ValueError("signal components must be finite")
    return (values / _SQRT2).view(np.complex128)


def _deinterleave(symbols: np.ndarray) -> np.ndarray:
    """The real vector of length 2n that ``n`` contiguous received symbols
    carry; the inverse scaling of :func:`_interleave`.  A deep fade can
    overflow the received signal, so it must be finite."""
    if not np.all(np.isfinite(symbols)):
        raise ValueError("signal components must be finite")
    return symbols.view(np.float64) * _SQRT2


@dataclass(frozen=True)
class ChannelOutput:
    """Received real vector plus two noise variances per stream.

    ``received`` is the real vector of the transmitted length, stream
    ``i`` of ``M`` in its ``i``-th contiguous ``1/M``: a single stream for
    scalar channels, one per subchannel for MIMO.  ``effective_sigma2`` is
    the actual per-real-element noise variance of each stream of the
    (rescaled) received signal.  ``mapped_sigma2`` is the variance that a
    stream's step mapping reads: the carried one, except ``sigma^2*|h|^2``
    under Rayleigh's ``gain_weighted`` convention.
    """

    received: np.ndarray
    effective_sigma2: tuple[float, ...]
    mapped_sigma2: tuple[float, ...]

    def __post_init__(self):
        if len(self.effective_sigma2) == 0:
            raise ValueError("at least one stream is required")
        if len(self.mapped_sigma2) != len(self.effective_sigma2):
            raise ValueError("one mapped variance per stream is required")


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


def awgn_transmit(z: np.ndarray, sigma: float, rng: np.random.Generator) -> ChannelOutput:
    """Send ``z`` through an additive white Gaussian noise channel.

    The received signal is ``z + n0`` with noise variance ``sigma^2`` per
    complex symbol, which the stream both carries and maps.  This is the
    flat fading channel at ``h = 1``, where both fading conventions map
    ``sigma^2``.
    """
    return rayleigh_transmit_mmse(z, 1.0, sigma, rng)


def rayleigh_transmit_mmse(
    z: np.ndarray,
    h: complex,
    sigma: float,
    rng: np.random.Generator,
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

    ``stream_sigma2`` gives the variances the stream carries and maps.
    """
    symbols = _interleave(z)
    sigma = _check_sigma(sigma)
    h = complex(h)
    carried_sigma2, mapped_sigma2 = stream_sigma2(h, sigma, convention)
    gain2 = h.real * h.real + h.imag * h.imag
    noise = _complex_noise(rng, symbols.size, sigma)
    received = _deinterleave(symbols + h.conjugate() / gain2 * noise)
    return ChannelOutput(received, (carried_sigma2,), (mapped_sigma2,))


def stream_sigma2(h: complex, sigma: float, convention: str = "gain_weighted") -> tuple[float, float]:
    """The variance a stream faded by ``h`` (AWGN: ``h = 1``) carries after
    MMSE equalization at noise ``sigma``, ``sigma^2 / |h|^2``, and the one
    its step mapping reads: ``sigma^2 * |h|^2`` under ``"gain_weighted"``,
    the carried one under ``"mmse"``.  DeepFadeError: ``|h|^2`` is zero."""
    if convention not in ("gain_weighted", "mmse"):
        raise ValueError(f"unknown convention {convention!r}; use 'gain_weighted' or 'mmse'")
    gain2 = h.real * h.real + h.imag * h.imag
    if gain2 == 0.0:
        raise DeepFadeError("channel gain is zero; the signal is lost")
    sigma2 = sigma * sigma
    carried = sigma2 / gain2  # may overflow to inf
    return carried, (sigma2 * gain2 if convention == "gain_weighted" else carried)


@dataclass(frozen=True)
class MimoChannel:
    """MIMO channel matrix with its singular-value decomposition.

    Takes only ``H``, a finite, nonempty square matrix, and derives the
    rest from ``numpy.linalg.svd``: ``H = U @ diag(singular_values) @ V^H``
    with unitary ``U`` and ``V`` and singular values in descending order.
    ``H`` is copied, so the caller's array stays writable and later writes
    to it never reach the channel; all four stored arrays are read-only.
    """

    H: np.ndarray
    U: np.ndarray = field(init=False)
    V: np.ndarray = field(init=False)
    singular_values: np.ndarray = field(init=False)

    def __post_init__(self):
        H = np.array(self.H, dtype=np.complex128)
        if H.ndim != 2 or H.shape[0] != H.shape[1] or H.size == 0:
            raise ValueError(f"H must be a nonempty square matrix, got shape {H.shape}")
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
    a nonempty square 2-D matrix or holds a non-finite entry.
    """
    return MimoChannel(H)


def mimo_transmit(
    z: np.ndarray,
    channel: MimoChannel,
    sigma: float,
    rng: np.random.Generator,
) -> ChannelOutput:
    """Send ``z`` over ``M`` parallel eigenmode streams.

    The ``n`` symbols that ``z`` rides on are split into ``M`` contiguous
    chunks (stream ``i`` takes symbols ``[i*L, (i+1)*L)``, real elements
    ``[2*i*L, 2*(i+1)*L)``), precoded with ``V``, passed through ``H``
    with additive noise, and multiplied by ``U^H`` at the receiver,
    which diagonalizes the channel.  Each stream ``i`` is then divided by
    its singular value, leaving ``y_i + (sigma/s_i) * eps``: stream ``i``
    carries and maps the variance ``(sigma/s_i)^2``.
    """
    symbols = _interleave(z)
    sigma = _check_sigma(sigma)
    M = channel.M
    s = channel.singular_values
    # a singular value whose square underflows carries no finite variance
    dead = [i for i in range(M) if s[i] * s[i] == 0.0]
    if dead:
        raise RankDeficientChannelError(dead)
    if symbols.size % M != 0:
        raise ValueError(f"symbol count {symbols.size} is not divisible by {M} streams")
    L = symbols.size // M

    X = channel.V @ symbols.reshape(M, L)
    noise = _complex_noise(rng, M * L, sigma).reshape(M, L)
    Y_rx = channel.H @ X + noise
    Y_eq = channel.U.conj().T @ Y_rx

    received = _deinterleave((Y_eq / s[:, None]).reshape(-1))

    sigma2 = sigma * sigma
    eff = tuple(sigma2 / float(si * si) for si in s)
    return ChannelOutput(received=received, effective_sigma2=eff, mapped_sigma2=eff)
