"""Property tests of the real/complex bridge inside the channels.

A noiseless AWGN channel carries a real vector onto complex symbols and
back.  Vectors have even lengths 2..512.  Values span the normal range
1e-300..1e300 in magnitude (and zero), so that neither the ``1/sqrt(2)``
scaling nor its inverse leaves the normal range.  The per-symbol power
convention is pinned by the noise variance per real element, in
``tests/test_channels.py``.

The fading and MIMO channels are pinned bit for bit against a reference
that carries the real and imaginary halves of every symbol apart, with
the same operations per component, so the channels' complex view of the
real vector moves no bit.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")

import numpy as np  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from diffcomm import (  # noqa: E402
    awgn_transmit,
    mimo_svd_decompose,
    mimo_transmit,
    rayleigh_transmit_mmse,
)

SETTINGS = settings(max_examples=60, deadline=None)


def _magnitudes(lo, hi):
    return st.one_of(
        st.just(0.0),
        st.floats(min_value=lo, max_value=hi),
        st.floats(min_value=-hi, max_value=-lo),
    )


def _even_vectors(values):
    return st.integers(min_value=1, max_value=256).flatmap(
        lambda half: arrays(np.float64, 2 * half, elements=values)
    )


@SETTINGS
@given(_even_vectors(_magnitudes(1e-300, 1e300)))
def test_round_trip_is_within_one_ulp(x):
    back = awgn_transmit(x, 0.0, np.random.default_rng(0)).received
    assert back.shape == x.shape
    assert np.all(np.abs(back - x) <= np.spacing(np.abs(x)))


@SETTINGS
@given(st.integers(min_value=0, max_value=255))
def test_odd_lengths_are_rejected(half):
    size = 2 * half + 1
    with pytest.raises(ValueError, match=rf"^real length must be even, got {size}$"):
        awgn_transmit(np.ones(size), 0.5, np.random.default_rng(0))


SQRT2 = math.sqrt(2.0)
H_FADE = 0.3 - 1.2j
SIGMAS = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=10.0))
VALUES = st.floats(min_value=-1e6, max_value=1e6)


def _noise_halves(rng, n, sigma):
    """The channels' noise draw, as (real, imaginary) halves."""
    if sigma == 0.0:
        return np.zeros(n), np.zeros(n)
    c = sigma / SQRT2
    return c * rng.standard_normal(n), c * rng.standard_normal(n)


def _joined(re, im):
    out = np.empty(2 * re.size)
    out[0::2] = re * SQRT2
    out[1::2] = im * SQRT2
    return out


def _fading_reference(z, h, sigma, rng, convention):
    re, im = z[0::2] / SQRT2, z[1::2] / SQRT2
    n_re, n_im = _noise_halves(rng, re.size, sigma)
    gain2 = h.real * h.real + h.imag * h.imag
    eff = h.conjugate() / gain2 * (n_re + 1j * n_im)
    carried = sigma * sigma / gain2
    mapped = sigma * sigma * gain2 if convention == "gain_weighted" else carried
    return _joined(re + eff.real, im + eff.imag), (carried,), (mapped,)


def _mimo_reference(z, ch, sigma, rng):
    re, im = z[0::2] / SQRT2, z[1::2] / SQRT2
    M = ch.M
    L = re.size // M
    n_re, n_im = _noise_halves(rng, M * L, sigma)
    Y_rx = ch.H @ (ch.V @ (re + 1j * im).reshape(M, L)) + (n_re + 1j * n_im).reshape(M, L)
    out = ((ch.U.conj().T @ Y_rx) / ch.singular_values[:, None]).reshape(-1)
    eff = tuple(sigma * sigma / float(s * s) for s in ch.singular_values)
    return _joined(out.real, out.imag), eff, eff


def _assert_same(got, want):
    received, effective, mapped = want
    assert np.array_equal(got.received, received)
    assert got.effective_sigma2 == effective
    assert got.mapped_sigma2 == mapped


@SETTINGS
@given(_even_vectors(VALUES), SIGMAS, st.sampled_from(["gain_weighted", "mmse"]),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_fading_matches_the_split_component_reference(z, sigma, convention, seed):
    got = rayleigh_transmit_mmse(z, H_FADE, sigma, np.random.default_rng(seed), convention)
    _assert_same(got, _fading_reference(z, H_FADE, sigma, np.random.default_rng(seed), convention))


@SETTINGS
@given(st.sampled_from([2, 4]), st.integers(min_value=1, max_value=64), SIGMAS,
       st.integers(min_value=0, max_value=2**32 - 1), st.data())
def test_mimo_matches_the_split_component_reference(M, L, sigma, seed, data):
    z = data.draw(arrays(np.float64, 2 * M * L, elements=VALUES))
    draws = np.random.default_rng(seed)
    ch = mimo_svd_decompose(draws.standard_normal((M, M)) + 1j * draws.standard_normal((M, M)))
    got = mimo_transmit(z, ch, sigma, np.random.default_rng(seed))
    _assert_same(got, _mimo_reference(z, ch, sigma, np.random.default_rng(seed)))
