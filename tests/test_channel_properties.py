"""Property tests of the real/complex bridge inside the channels.

A noiseless AWGN channel carries a real vector onto complex symbols and
back.  Vectors have even lengths 2..512.  Values span the normal range
1e-300..1e300 in magnitude (and zero), so that neither the ``1/sqrt(2)``
scaling nor its inverse leaves the normal range.  The per-symbol power
convention is pinned by the noise variance per real element, in
``tests/test_channels.py``.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

import numpy as np  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from diffcomm import awgn_transmit, build_linear_schedule  # noqa: E402

SCHEDULE = build_linear_schedule()
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
    back = awgn_transmit(x, 0.0, np.random.default_rng(0), SCHEDULE).received
    assert back.shape == x.shape
    assert np.all(np.abs(back - x) <= np.spacing(np.abs(x)))


@SETTINGS
@given(st.integers(min_value=0, max_value=255))
def test_odd_lengths_are_rejected(half):
    size = 2 * half + 1
    with pytest.raises(ValueError, match=rf"^real length must be even, got {size}$"):
        awgn_transmit(np.ones(size), 0.5, np.random.default_rng(0), SCHEDULE)
