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
"""

import math
import sys
from dataclasses import replace

from repro.faults import campaign
from repro.policy import policy_names

N_REQUESTS = 2000

#: Calls per request as measured on CPython 3.11.
MEASURED = {
    "fixed-timeout": 27.1,
    "adaptive-timeout": 29.1,
    "retry-backoff": 27.1,
    "hedged": 25.1,
    "stutter-aware": 38.0,
    "no-mitigation": 20.1,
}
BUDGET = {policy: math.ceil(count) + 2 for policy, count in MEASURED.items()}


def calls_per_request(policy: str) -> float:
    workload = replace(campaign.WORKLOADS["raid10"], n_requests=N_REQUESTS)
    scenario = campaign.generate_scenario(workload, "magnitude", 7, 0)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        outcome = campaign.run_scenario(workload, scenario, policy, check=False)
    finally:
        sys.setprofile(None)
    assert outcome.n_requests == N_REQUESTS
    return calls / N_REQUESTS


def test_calls_per_discrete_request_stay_within_budget():
    assert set(BUDGET) == set(policy_names())
    # Warm up first, so no lazy import or first-use setup is counted.
    small = replace(campaign.WORKLOADS["raid10"], n_requests=20)
    for policy in policy_names():
        campaign.run_scenario(small, campaign.generate_scenario(small, "magnitude", 7, 0),
                              policy, check=False)
    counts = {policy: calls_per_request(policy) for policy in policy_names()}
    table = "\n".join(
        f"  {policy:<17} {count:6.2f} calls/request (budget {BUDGET[policy]})"
        for policy, count in counts.items()
    )
    over = [policy for policy, count in counts.items() if count > BUDGET[policy]]
    assert not over, f"over budget: {', '.join(over)}\n{table}"
