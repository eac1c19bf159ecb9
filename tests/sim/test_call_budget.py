"""A budget of Python-level calls per discrete request, one per policy.

The discrete request path (arrival, routing, attempt, job, completion,
policy notification) runs once per simulated request, so its cost is
best read as a count of Python function calls per request.  This test
counts them deterministically -- ``call`` events seen by
``sys.setprofile`` over one whole ``run_scenario`` on the 2,000-request
raid10 ``magnitude`` scenario (seed 7, scenario 0), divided by the
request count -- and fails if any policy exceeds its budget.  It is not
a timing check.

Each budget is the count measured on CPython 3.11 when it was set,
rounded up, plus 2.  Python 3.12 inlines comprehensions (PEP 709), so
its counts can only be lower.

The hybrid engine gets a budget too, per policy on two scenarios of the
same workload.  It counts every request, fluid ones included, so its
counts fall as more of the run goes fluid.
"""

import math
import sys
from dataclasses import replace

import pytest

from repro.faults import campaign
from repro.policy import policy_names

N_REQUESTS = 2000

#: Calls per request as measured on CPython 3.11.
MEASURED = {
    "fixed-timeout": 21.1,
    "adaptive-timeout": 24.1,
    "retry-backoff": 21.1,
    "hedged": 19.1,
    "stutter-aware": 31.4,
    "no-mitigation": 17.1,
}
BUDGET = {policy: math.ceil(count) + 2 for policy, count in MEASURED.items()}

#: Hybrid calls per request as measured on CPython 3.11, by scenario:
#: 0 stutters d0, its group's route by name, and 1 stutters d1, off the
#: route.  On scenario 0 only stutter-aware moves its route off d0, so
#: the other five cannot park d0 and run the whole stutter discrete,
#: with the close test running after every event of it.
HYBRID_MEASURED = {
    0: {
        "fixed-timeout": 17.2,
        "adaptive-timeout": 18.9,
        "retry-backoff": 17.2,
        "hedged": 16.2,
        "stutter-aware": 3.4,
        "no-mitigation": 15.2,
    },
    1: {
        "fixed-timeout": 0.7,
        "adaptive-timeout": 1.4,
        "retry-backoff": 0.7,
        "hedged": 0.7,
        "stutter-aware": 3.1,
        "no-mitigation": 0.7,
    },
}
HYBRID_BUDGET = {
    index: {policy: math.ceil(count) + 2 for policy, count in counts.items()}
    for index, counts in HYBRID_MEASURED.items()
}


def calls_per_request(policy: str, index: int = 0,
                      engine: str = "discrete") -> float:
    workload = replace(campaign.WORKLOADS["raid10"], n_requests=N_REQUESTS)
    scenario = campaign.generate_scenario(workload, "magnitude", 7, index)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        outcome = campaign.run_scenario(workload, scenario, policy,
                                        check=False, engine=engine)
    finally:
        sys.setprofile(None)
    assert outcome.n_requests == N_REQUESTS
    assert outcome.engine == engine
    return calls / N_REQUESTS


def _assert_within(budget, counts):
    table = "\n".join(
        f"  {policy:<17} {count:6.2f} calls/request (budget {budget[policy]})"
        for policy, count in counts.items()
    )
    over = [policy for policy, count in counts.items() if count > budget[policy]]
    assert not over, f"over budget: {', '.join(over)}\n{table}"


def _warm_up(engine: str) -> None:
    """Run every policy once, so no lazy import or first-use setup is counted."""
    small = replace(campaign.WORKLOADS["raid10"], n_requests=20)
    for policy in policy_names():
        campaign.run_scenario(small, campaign.generate_scenario(small, "magnitude", 7, 0),
                              policy, check=False, engine=engine)


def test_calls_per_discrete_request_stay_within_budget():
    assert set(BUDGET) == set(policy_names())
    _warm_up("discrete")
    _assert_within(BUDGET, {policy: calls_per_request(policy)
                            for policy in policy_names()})


@pytest.mark.parametrize("index", sorted(HYBRID_BUDGET))
def test_calls_per_hybrid_request_stay_within_budget(index):
    budget = HYBRID_BUDGET[index]
    assert set(budget) == set(policy_names())
    _warm_up("hybrid")
    _assert_within(budget, {policy: calls_per_request(policy, index, "hybrid")
                            for policy in policy_names()})
