"""Property tests for the scheduling policies' resident indexes and
queue order.

A pool's :class:`~repro.serve.scheduling.ResidentIndex` stands in for
the scan ``max(running, key=policy.victim_key(...))``.  On random
residents — priorities, SLO mixes (both, TTFT only, none), tenants
missing from the table, prefilling and decoding phases, first tokens
and departures — and random clocks, ``index.victim(clock)`` must be the
very object that scan returns, pick after pick until the pool is empty.
The draws favour deadlines a few ulps apart and large clocks, where
``deadline - clock`` rounds distinct deadlines to one slack and the
scan breaks the tie by ``(arrival_s, rid)``.

A second property pins :class:`~repro.serve.scheduling.QueueOrder`:
inserting requests one by one leaves the queue exactly as the stable
``queue_key`` sort of the same requests, computing each key once.
"""

from __future__ import annotations

import math
from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve.batcher import ActiveRequest
from repro.serve.metrics import RequestRecord
from repro.serve.scheduling import PrioritySlack, QueueOrder, YoungestFirst
from repro.workloads.tenants import TenantSpec
from repro.workloads.traces import Request

#: 30.0 and the next float up: 100.0 away, both leave a slack of -70.0.
NEXT_30 = math.nextafter(30.0, math.inf)

#: Instants a few ulps apart (0.1 + 0.2 is not 0.3), plus free floats.
INSTANTS = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.1 + 0.2, 10.0, 29.9, 30.0,
                     NEXT_30]),
    st.floats(min_value=0.0, max_value=200.0))
#: Clocks from 0 to far past every deadline, where one ulp of the
#: clock spans them all and every finite slack in a class ties.
CLOCKS = st.one_of(
    st.sampled_from([0.0, 0.3, 30.0, 100.0, 1e6, 1e16]),
    st.floats(min_value=0.0, max_value=1e7),
    st.floats(min_value=1e15, max_value=1e20))

#: Three tenants ``t0``-``t2`` in at most two priority classes.
TENANTS = st.lists(
    st.builds(dict,
              priority=st.integers(min_value=0, max_value=1),
              ttft_slo_s=st.sampled_from([None, 0.1, 0.2, 0.3, 20.0]),
              tpot_slo_s=st.sampled_from([None, 0.05, 0.1, 0.2])),
    min_size=3, max_size=3)

RESIDENTS = st.lists(
    st.fixed_dictionaries({
        # ``t3`` is a tenant the table does not know.
        "tenant": st.integers(min_value=0, max_value=3),
        "arrival_s": INSTANTS,
        "output_tokens": st.sampled_from([1, 2, 3, 17]),
        # 0: prefilling, 1: decoding on arrival (a KV transfer landing),
        # 2: prefilling, then its first token.
        "phase": st.integers(min_value=0, max_value=2),
        "first_token_s": INSTANTS,
        "departs": st.booleans(),
    }),
    min_size=1, max_size=14)

POLICIES = st.sampled_from([PrioritySlack(), YoungestFirst()])


def build(residents, tenants):
    """The drawn residents as active requests, their records and the
    tenant table (tenant ``t{i}`` for every drawn spec)."""
    table = {f"t{i}": TenantSpec(name=f"t{i}", **spec)
             for i, spec in enumerate(tenants)}
    ars, records = [], {}
    for rid, drawn in enumerate(residents):
        req = Request(rid=rid, arrival_s=drawn["arrival_s"],
                      prompt_tokens=8,
                      output_tokens=drawn["output_tokens"],
                      tenant=f"t{drawn['tenant']}")
        records[rid] = RequestRecord(req)
        ars.append(ActiveRequest(request=req, admitted_s=0.0))
    return ars, records, table


def scan(policy, running, clock, records, table):
    """The reference: the victim ``max`` over ``victim_key`` names."""
    return max(running, key=lambda ar: policy.victim_key(
        ar, clock, records.get(ar.request.rid),
        table.get(ar.request.tenant)))


#: Deadlines 30.0 and the next float up leave equal slack at clock
#: 100.0, so the scan evicts the later arrival: here the request with
#: the *earlier* deadline, which deadline order alone would keep.
ROUNDED_TIE = dict(
    policy=PrioritySlack(),
    tenants=[dict(priority=0, ttft_slo_s=None, tpot_slo_s=0.05)] * 3,
    residents=[dict(tenant=0, arrival_s=0.5, output_tokens=1, phase=1,
                    first_token_s=NEXT_30, departs=False),
               dict(tenant=0, arrival_s=1.0, output_tokens=1, phase=1,
                    first_token_s=30.0, departs=False)],
    clocks=[100.0])


@settings(max_examples=400, deadline=None)
@given(policy=POLICIES, tenants=TENANTS, residents=RESIDENTS,
       clocks=st.lists(CLOCKS, min_size=1, max_size=4))
@example(**ROUNDED_TIE)
def test_victim_is_the_victim_key_scan_pick(policy, tenants, residents,
                                           clocks):
    ars, records, table = build(residents, tenants)
    index = policy.resident_index(records, table)
    running = []
    for ar, drawn in zip(ars, residents):
        if drawn["phase"] == 1:
            ar.prefilled = True
            ar.generated = 1
            records[ar.request.rid].first_token_s = drawn["first_token_s"]
        running.append(ar)
        index.add(ar)
    for ar, drawn in zip(ars, residents):
        if drawn["phase"] == 2:
            ar.prefilled = True
            ar.generated = 1
            records[ar.request.rid].first_token_s = drawn["first_token_s"]
            index.first_token(ar)
    for ar, drawn in zip(ars, residents):
        if drawn["departs"] and len(running) > 1:
            running.remove(ar)
            index.remove(ar)
    pick = 0
    while running:
        clock = clocks[pick % len(clocks)]
        victim = index.victim(clock)
        assert victim is scan(policy, running, clock, records, table)
        running.remove(victim)
        index.remove(victim)
        pick += 1


def test_rounded_tie_is_a_tie():
    assert 30.0 - 100.0 == NEXT_30 - 100.0 == -70.0


QUEUED = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), INSTANTS),
    min_size=1, max_size=20)


class CountingSlack(PrioritySlack):
    """:class:`PrioritySlack` counting its ``queue_key`` calls."""

    def __init__(self) -> None:
        self.calls = 0

    def queue_key(self, req, tenant):
        self.calls += 1
        return super().queue_key(req, tenant)


@settings(max_examples=200, deadline=None)
@given(tenants=TENANTS, queued=QUEUED)
@example(tenants=[dict(priority=1, ttft_slo_s=None, tpot_slo_s=None)],
         queued=[(0, 0.3), (1, 0.1 + 0.2), (0, 0.1 + 0.2), (3, 0.0)])
def test_queue_order_matches_a_stable_sort(tenants, queued):
    table = {f"t{i}": TenantSpec(name=f"t{i}", **spec)
             for i, spec in enumerate(tenants)}
    reqs = [Request(rid=rid, arrival_s=arrival_s, prompt_tokens=8,
                    output_tokens=4, tenant=f"t{tenant}")
            for rid, (tenant, arrival_s) in enumerate(queued)]
    policy = CountingSlack()
    order = QueueOrder(policy, table)
    waiting: deque[Request] = deque()
    for req in reqs:
        order.insert(waiting, req)
    assert policy.calls == len(reqs)
    reference = PrioritySlack()
    assert list(waiting) == sorted(
        reqs, key=lambda r: reference.queue_key(r, table.get(r.tenant)))
