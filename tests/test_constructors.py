"""Property tests of the constructors: given non-finite, empty or degenerate
values, PollingModel, CostSpec and the channel builders either build an
object or raise a HierPollError, never a bare numpy or Python error."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hierpoll.channels import (
    HierarchyModel,
    expectation_channel,
    friendship_channel,
    intent_channel,
    make_channel,
)
from hierpoll.errors import HierPollError, InvalidArgument
from hierpoll.pomdp import CostSpec, PollingModel
from hierpoll.presets import EXAMPLE1_O1, example1_costs, example1_model, example2_parts
from hierpoll.stochastic import ConvexPolynomial, validate_stochastic

# stochastic matrices that are valid but degenerate (identity, rank one, a
# zero column, a single state), so that the builders get past validation to
# their own argument checks
DEGENERATE = (np.ones((1, 1)), np.eye(2), np.eye(3), np.full((2, 2), 0.5),
              np.full((3, 3), 1 / 3), np.array([[1.0, 0.0], [1.0, 0.0]]), EXAMPLE1_O1)
values = st.floats() | st.sampled_from([0.0, 0.5, 1.0, -1.0])
arrays = hnp.arrays(float, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=3),
                    elements=values)
matrices = st.sampled_from(DEGENERATE) | arrays
vectors = st.lists(values, max_size=4)
small_ints = st.integers(-2, 5)


def _builds_or_raises_typed(build) -> None:
    try:
        build()
    except HierPollError:
        pass


@settings(max_examples=60, deadline=None)
@given(B=matrices, N=small_ints, beta=vectors, polled=small_ints, target=small_ints,
       n_friends=small_ints)
def test_channel_builders(B, N, beta, polled, target, n_friends):
    _builds_or_raises_typed(lambda: make_channel(B))
    _builds_or_raises_typed(lambda: friendship_channel(B, n_friends))
    _builds_or_raises_typed(lambda: intent_channel(
        HierarchyModel(validate_stochastic(B), N), ConvexPolynomial(beta)))
    _builds_or_raises_typed(lambda: expectation_channel(
        HierarchyModel(validate_stochastic(B), N), polled, target))


@settings(max_examples=60, deadline=None)
@given(variant=st.sampled_from(["expectation", "friendship", "intent", ""]),
       measurement=vectors, weights=vectors, offsets=vectors,
       ctilde_weight=st.none() | values)
def test_cost_spec(variant, measurement, weights, offsets, ctilde_weight):
    _builds_or_raises_typed(lambda: CostSpec(variant, measurement, weights, offsets,
                                             ctilde_weight=ctilde_weight))
    betas = (ConvexPolynomial([1.0]), ConvexPolynomial([0.5, 0.5]))
    _builds_or_raises_typed(lambda: CostSpec.intent(measurement, betas, weights, offsets))


@settings(max_examples=40, deadline=None)
@given(P=matrices, channels=st.lists(matrices, max_size=3), rho=values)
def test_polling_model(P, channels, rho):
    _builds_or_raises_typed(lambda: PollingModel(P, tuple(channels), example1_costs(), rho))


@settings(max_examples=40, deadline=None)
@given(rho=values)
def test_discount_outside_unit_interval_is_typed(rho):
    model = example1_model(0.5)
    if 0.0 <= rho < 1.0:
        assert PollingModel(model.P, model.channels, model.costs, rho).rho == rho
    else:
        with pytest.raises(InvalidArgument):
            PollingModel(model.P, model.channels, model.costs, rho)


@pytest.mark.parametrize("seed", [-1, [-1, 0], [0, -2], 1.5, [0, "1"]])
def test_example2_parts_rejects_seed_numpy_would_not_take(seed):
    with pytest.raises(InvalidArgument, match="integers >= 0"):
        example2_parts(3, seed)
