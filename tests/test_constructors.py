"""Property tests of the constructors and the solvers' numeric arguments:
given non-finite, empty, degenerate or wrong-typed values, PollingModel,
CostSpec, the channel builders, the capacity and EM tolerances and the
Renyi orders either build an object or raise a HierPollError, never a bare
numpy or Python error."""
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
from hierpoll.errors import (
    AlphaOutOfRange,
    HierPollError,
    InvalidArgument,
    InvalidCostSpec,
    NonNumericEntry,
)
from hierpoll.estimate import ObservationDataset, em_fit
from hierpoll.infotheory import channel_divergences, renyi_divergence, shannon_capacities
from hierpoll.pomdp import CostSpec, FreudenthalGrid, PollingModel, grid_size, value_iteration
from hierpoll.presets import EXAMPLE1_O1, example1_costs, example1_model, example2_parts
from hierpoll.sim import uniform_belief
from hierpoll.stochastic import (
    ConvexPolynomial,
    check_integer,
    deflate_chain,
    fractional_power,
    matrix_power,
    validate_belief,
    validate_stochastic,
)

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
# values of the wrong type or form: strings, None, and nested (possibly ragged) lists
wrong = st.none() | st.text(max_size=3) | st.lists(vectors, min_size=1, max_size=3)
numbers_or_wrong = values | wrong
vectors_or_wrong = vectors | wrong


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
       measurement=vectors_or_wrong, weights=vectors_or_wrong, offsets=vectors_or_wrong,
       ctilde_weight=numbers_or_wrong)
def test_cost_spec(variant, measurement, weights, offsets, ctilde_weight):
    _builds_or_raises_typed(lambda: CostSpec(variant, measurement, weights, offsets,
                                             ctilde_weight=ctilde_weight))
    betas = (ConvexPolynomial([1.0]), ConvexPolynomial([0.5, 0.5]))
    _builds_or_raises_typed(lambda: CostSpec.intent(measurement, betas, weights, offsets))


@settings(max_examples=40, deadline=None)
@given(P=matrices, channels=st.lists(matrices, max_size=3), rho=numbers_or_wrong)
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


# every integer argument checked by check_integer: (name, least value, call)
_HIERARCHY = HierarchyModel(validate_stochastic(EXAMPLE1_O1), 3)
_DATA = ObservationDataset((np.array([0, 1, 2, 1]),), ("a", "b", "c"))
INTEGER_ARGUMENTS = {
    "check_integer": ("n", 1, lambda v: check_integer("n", v, 1)),
    "FreudenthalGrid-M": ("M", 1, lambda v: FreudenthalGrid(v, 3)),
    "FreudenthalGrid-X": ("X", 2, lambda v: FreudenthalGrid(3, v)),
    "grid_size-M": ("M", 1, lambda v: grid_size(v, 3)),
    "grid_size-X": ("X", 2, lambda v: grid_size(3, v)),
    "example2_parts": ("X", 1, lambda v: example2_parts(v)),
    "uniform_belief": ("X", 1, lambda v: uniform_belief(v)),
    "value_iteration-M": ("M", 1, lambda v: value_iteration(example1_model(0.5), v)),
    "HierarchyModel-N": ("N", 0, lambda v: HierarchyModel(validate_stochastic(EXAMPLE1_O1), v)),
    "friendship_channel": ("n_friends", 1, lambda v: friendship_channel(EXAMPLE1_O1, v)),
    "expectation_channel-polled": ("polled_depth", 1,
                                   lambda v: expectation_channel(_HIERARCHY, v, 1)),
    "expectation_channel-target": ("target_depth", 1,
                                   lambda v: expectation_channel(_HIERARCHY, 3, v)),
    "matrix_power": ("k", 0, lambda v: matrix_power(EXAMPLE1_O1, v)),
    "fractional_power-j": ("j", 1, lambda v: fractional_power(EXAMPLE1_O1, v, 2)),
    "fractional_power-K": ("K", 1, lambda v: fractional_power(EXAMPLE1_O1, 1, v)),
    "deflate_chain": ("steps", 0, lambda v: deflate_chain(ConvexPolynomial([0.5, 0.5]), v)),
    "em_fit": ("max_iter", 1, lambda v: em_fit(_DATA, X=3, max_iter=v)),
}


@pytest.mark.parametrize("entry", INTEGER_ARGUMENTS)
@pytest.mark.parametrize("bad", [2.5, True, np.float64(3.0), "3", "below"],
                         ids=["2.5", "True", "float64", "str", "below-least"])
def test_integer_arguments_reject_what_is_not_an_integer_in_range(entry, bad):
    name, least, call = INTEGER_ARGUMENTS[entry]
    value = least - 1 if bad == "below" else bad
    with pytest.raises(InvalidArgument, match=rf"^{name} must be an integer >= {least}, got "):
        call(value)


@pytest.mark.parametrize("entry", INTEGER_ARGUMENTS)
def test_integer_arguments_take_their_least_value_as_a_numpy_integer(entry):
    _, least, call = INTEGER_ARGUMENTS[entry]
    call(np.int64(least))


def test_a_target_below_the_polled_depth_is_rejected():
    with pytest.raises(InvalidArgument, match="polled_depth must be an integer >= 3, got 2"):
        expectation_channel(_HIERARCHY, 2, 3)


@settings(max_examples=60, deadline=None)
@given(tol=numbers_or_wrong, alphas=vectors_or_wrong | values, alpha=numbers_or_wrong)
def test_solver_arguments(tol, alphas, alpha):
    _builds_or_raises_typed(lambda: shannon_capacities([EXAMPLE1_O1], tol=tol))
    _builds_or_raises_typed(lambda: em_fit(_DATA, X=3, max_iter=2, tol=tol))
    _builds_or_raises_typed(lambda: channel_divergences(EXAMPLE1_O1, alphas))
    _builds_or_raises_typed(lambda: renyi_divergence([0.5, 0.5], [0.25, 0.75], alpha))


# inputs that escaped as numpy or Python errors, or built a broken object
_INTENT_WEIGHTS = ([2.0, 1.0], [1.0, 2.0])
MALFORMED = {
    "intent-measurement-increasing": (
        InvalidCostSpec, lambda: CostSpec("intent", [0.1, 5.0], *_INTENT_WEIGHTS)),
    "intent-recipe-measurement-increasing": (InvalidCostSpec, lambda: CostSpec.intent(
        [1.0, 0.0], (ConvexPolynomial([0.0, 1.0]), ConvexPolynomial([1.0])), *_INTENT_WEIGHTS)),
    "measurement-2d": (InvalidCostSpec, lambda: CostSpec.expectation([[0.5, 0.25]], [0.5, 1.0])),
    "measurement-none": (InvalidCostSpec, lambda: CostSpec.expectation(None, [0.5, 1.0])),
    "weights-string": (InvalidCostSpec, lambda: CostSpec.expectation([0.5, 0.25], "ab")),
    "level-costs-string": (InvalidCostSpec, lambda: CostSpec.intent(
        "ab", (ConvexPolynomial([1.0]),), [1.0], [1.0])),
    "ctilde-weight-string": (InvalidCostSpec, lambda: CostSpec.expectation(
        [0.5, 0.25], [0.5, 1.0], ctilde_weight="a")),
    "rho-none": (InvalidArgument, lambda: PollingModel(
        EXAMPLE1_O1, example1_model(0.5).channels, example1_costs(), None)),
    "rho-string": (InvalidArgument, lambda: PollingModel(
        EXAMPLE1_O1, example1_model(0.5).channels, example1_costs(), "0.5")),
    "rho-bool": (InvalidArgument, lambda: PollingModel(
        EXAMPLE1_O1, example1_model(0.5).channels, example1_costs(), False)),
    "capacity-tol-string": (InvalidArgument, lambda: shannon_capacities([EXAMPLE1_O1], tol="a")),
    "capacity-tol-none": (InvalidArgument, lambda: shannon_capacities([EXAMPLE1_O1], tol=None)),
    "em-tol-string": (InvalidArgument, lambda: em_fit(_DATA, X=3, tol="a")),
    "alphas-string": (AlphaOutOfRange, lambda: channel_divergences(EXAMPLE1_O1, ["a"])),
    "renyi-alpha-string": (AlphaOutOfRange,
                           lambda: renyi_divergence([0.5, 0.5], [0.25, 0.75], "a")),
    # numbers written as strings or bools, and ints past float range
    "measurement-numeric-strings": (InvalidCostSpec, lambda: CostSpec.expectation(
        ["0.5", "0.25"], [0.5, 1.0])),
    "weights-bool-and-int": (InvalidCostSpec, lambda: CostSpec.expectation(
        [0.5, 0.25], [True, 2])),
    "ctilde-weight-huge-int": (InvalidCostSpec, lambda: CostSpec.expectation(
        [0.5, 0.25], [0.5, 1.0], ctilde_weight=10**400)),
    "stochastic-numeric-strings": (NonNumericEntry,
                                   lambda: validate_stochastic([["0.9", "0.1"], ["0.2", "0.8"]])),
    "stochastic-huge-int": (NonNumericEntry, lambda: validate_stochastic([[10**400, 0.0]])),
    "stochastic-ragged": (NonNumericEntry, lambda: validate_stochastic([[0.5, 0.5], [1.0]])),
    "stochastic-uneven-arrays": (NonNumericEntry, lambda: validate_stochastic(
        [np.eye(2), np.array([0.5, 0.5])])),
    "belief-numeric-strings": (NonNumericEntry, lambda: validate_belief(["0.5", "0.5"])),
    "channel-bools": (NonNumericEntry, lambda: make_channel([[True, False], [False, True]])),
    "rho-huge-int": (InvalidArgument, lambda: PollingModel(
        EXAMPLE1_O1, example1_model(0.5).channels, example1_costs(), 10**400)),
    "capacity-tol-huge-int": (InvalidArgument,
                              lambda: shannon_capacities([np.eye(2)], tol=10**400)),
    "em-tol-huge-int": (InvalidArgument, lambda: em_fit(_DATA, X=3, tol=10**400)),
    "renyi-alpha-numeric-string": (AlphaOutOfRange,
                                   lambda: renyi_divergence([0.5, 0.5], [0.4, 0.6], "0.5")),
    "renyi-alpha-false": (AlphaOutOfRange,
                          lambda: renyi_divergence([0.5, 0.5], [0.4, 0.6], False)),
    "alphas-with-a-bool": (AlphaOutOfRange, lambda: channel_divergences(EXAMPLE1_O1, [0.5, True])),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_raises_its_typed_error(case):
    error, call = MALFORMED[case]
    with pytest.raises(error):
        call()
