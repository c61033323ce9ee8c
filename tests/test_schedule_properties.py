"""Property tests of the channel-noise-to-step mapping and of compensation
feasibility over linear schedules.

Schedules are drawn over T in [1, 1000] and betas in [1e-5, 0.05];
variances over the whole representable range [0, max_sigma2].
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

import numpy as np  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from diffcomm import (  # noqa: E402
    CompensationInfeasibleError,
    build_linear_schedule,
    compensation_variance,
    sigma2_to_step,
    step_to_sigma2,
)

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def schedules(draw):
    T = draw(st.integers(min_value=1, max_value=1000))
    lo, hi = sorted(draw(st.lists(st.floats(1e-5, 0.05), min_size=2, max_size=2)))
    return build_linear_schedule(T, lo, hi)


@st.composite
def schedule_and_sigma2s(draw, count):
    sch = draw(schedules())
    values = st.floats(min_value=0.0, max_value=sch.max_sigma2)
    return sch, [draw(values) for _ in range(count)]


@SETTINGS
@given(sch=schedules(), data=st.data())
def test_step_round_trip_is_exact(sch, data):
    u = data.draw(st.integers(min_value=0, max_value=sch.T))
    mapping = sigma2_to_step(sch, step_to_sigma2(sch, u))
    assert mapping.step_u == u
    assert mapping.residual == 0.0
    assert mapping.alpha_bar_u == sch.alpha_bar(u)


@SETTINGS
@given(drawn=schedule_and_sigma2s(2))
def test_step_is_monotone_in_sigma2(drawn):
    sch, (a, b) = drawn
    a, b = min(a, b), max(a, b)
    assert sigma2_to_step(sch, a).step_u <= sigma2_to_step(sch, b).step_u


@SETTINGS
@given(drawn=schedule_and_sigma2s(1))
def test_step_is_nearest_with_ties_to_the_smaller_step(drawn):
    """The chosen step is no farther from 1/(1+sigma2) than the next one and
    strictly nearer than the previous one, so an exact tie goes to the
    smaller step."""
    sch, (sigma2,) = drawn
    u = sigma2_to_step(sch, sigma2).step_u
    dist = np.abs(np.concatenate(([1.0], sch.alpha_bars)) - 1.0 / (1.0 + sigma2))
    if u > 0:
        assert dist[u] < dist[u - 1]
    if u < sch.T:
        assert dist[u] <= dist[u + 1]


@SETTINGS
@given(sch=schedules(), data=st.data())
def test_exact_midpoint_maps_to_the_smaller_step(sch, data):
    """Where the midpoint of two adjacent alpha-bars survives the float round
    trip through sigma2, the tie goes to the smaller step."""
    u = data.draw(st.integers(min_value=0, max_value=sch.T - 1))
    bars = np.concatenate(([1.0], sch.alpha_bars))
    mid = (bars[u] + bars[u + 1]) / 2.0
    sigma2 = (1.0 - mid) / mid
    tie = 1.0 / (1.0 + sigma2) == mid and bars[u] - mid == mid - bars[u + 1]
    hypothesis.assume(tie)
    assert sigma2_to_step(sch, sigma2).step_u == u


@SETTINGS
@given(sch=schedules(), data=st.data())
def test_compensation_is_feasible_exactly_up_to_the_step_variance(sch, data):
    """Feasible (a variance >= 0) exactly when sigma2 <= step_to_sigma2(t),
    zero exactly at equality, CompensationInfeasibleError past it.  The
    step's own variance and its float neighbours are drawn as well."""
    t = data.draw(st.integers(min_value=1, max_value=sch.T))
    limit = step_to_sigma2(sch, t)
    sigma2 = data.draw(st.one_of(
        st.floats(min_value=0.0, max_value=sch.max_sigma2),
        st.sampled_from([limit, np.nextafter(limit, 0.0), np.nextafter(limit, np.inf)]),
    ))
    if sigma2 <= limit:
        extra = compensation_variance(sch, t, sigma2)
        assert extra >= 0.0
        assert (extra == 0.0) == (sigma2 == limit)
    else:
        with pytest.raises(CompensationInfeasibleError):
            compensation_variance(sch, t, sigma2)
