"""The paper's theorems as seeded randomized tests: on a fixed pool of
random models, the premises imply the conclusion, and dropping a premise
gives a real counterexample rather than a mutant."""
import numpy as np

from hierpoll.pomdp import (CostSpec, PollingModel, myopic_policy, value_iteration,
                            verify_myopic_bound)

from conftest import random_stochastic

X, U, RHO, M = 3, 3, 0.9, 15
POOL = 60


def _pool(chained: bool):
    """POOL seeded models with a Dirichlet P and expectation costs whose
    measurement costs are nonincreasing and whose error weights increase.
    With `chained`, O_{u+1} = O_u R_u for random stochastic R_u, a dominance
    chain; otherwise O_{u+1} = R_u, the same draws without the premise."""
    for seed in range(POOL):
        rng = np.random.default_rng(seed)
        P = random_stochastic(X, X, rng)
        channels = [random_stochastic(X, X, rng)]
        for _ in range(U - 1):
            R = random_stochastic(X, X, rng)
            channels.append(channels[-1] @ R if chained else R)
        costs = CostSpec.expectation(np.sort(rng.uniform(0.0, 1.0, U))[::-1],
                                     np.cumsum(rng.uniform(0.1, 1.0, U)))
        yield seed, PollingModel(P, tuple(channels), costs, RHO)


def test_myopic_bound_holds_on_every_certified_chain():
    # under certified dominance and concave, ordered costs mu*(pi) <= mu_myopic(pi)
    failing = [seed for seed, model in _pool(chained=True)
               if not verify_myopic_bound(model, M).holds]
    assert failing == []


def test_independent_channels_break_the_myopic_bound():
    # without the dominance premise the optimal action exceeds the myopic one
    # somewhere, on a real model of the same pool
    broken = []
    for seed, model in _pool(chained=False):
        gvf = value_iteration(model, M)
        if np.any(gvf.policy > myopic_policy(gvf.points, model.costs)):
            broken.append(seed)
    assert broken, "no model of the pool violates the bound without the premise"
