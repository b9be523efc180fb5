"""Stateful differential test of the admission controller.

A hypothesis state machine drives one :class:`AdmissionController`
through arrivals (tenant, priority), time advances and queue-wait
timeouts, and keeps a naive reference model of every request beside
it: when it arrived, whether it queued, and how it ended.  After every
step the controller's ledgers must agree with the model's:

* ``queue_depth()`` — a live counter — equals the model's count of
  queued requests that have not ended;
* queued requests are served in (priority, arrival) order, and no
  arrival takes the fast path past a waiting queue;
* arrivals = admitted + rejected + waiting;
* no tenant is admitted more often than its bucket allows.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.capacity import (
    AdmissionConfig,
    AdmissionController,
    AdmissionRejected,
    TenantQuota,
)
from repro.sim import Environment

TENANTS = ("a", "b", "c")
QUOTAS = {"a": TenantQuota(rate_per_s=2.0, burst=1.0),
          "b": TenantQuota(rate_per_s=5.0, burst=2.0),
          "c": TenantQuota(rate_per_s=0.7, burst=1.0)}


class Request:
    """The reference model's record of one admission call."""

    def __init__(self, key, tenant, arrived):
        self.key = key            # (priority, arrival index)
        self.tenant = tenant
        self.arrived = arrived
        self.queued = False
        self.outcome = None       # "fast" | "served" | "queue_full" | "timeout"
        self.ended = None         # sim time of the outcome
        self.order = None         # position in the service sequence
        self.waited = None


class AdmissionMachine(RuleBasedStateMachine):

    @initialize(max_depth=st.integers(min_value=0, max_value=6),
                max_wait=st.sampled_from([None, 0.3, 1.25]))
    def build(self, max_depth, max_wait):
        self.env = Environment()
        self.controller = AdmissionController(self.env, AdmissionConfig(
            max_queue_depth=max_depth, max_queue_wait_s=max_wait,
            quotas=dict(QUOTAS),
        ))
        self.max_wait = max_wait
        self.requests: list[Request] = []
        self.served = 0

    # -- driving ---------------------------------------------------------------
    def _client(self, tenant, priority):
        """Process: one admission call, recorded step by step in the model."""
        request = Request((priority, len(self.requests)), tenant, self.env.now)
        self.requests.append(request)
        call = self.controller.admit(tenant, priority=priority)
        value = None
        try:
            while True:
                event = call.send(value)
                request.queued = True
                value = yield event
        except StopIteration as done:
            request.outcome = "served" if request.queued else "fast"
            request.waited = done.value
            if request.queued:
                request.order = self.served
                self.served += 1
        except AdmissionRejected as err:
            request.outcome = err.reason
        request.ended = self.env.now

    @rule(tenant=st.sampled_from(TENANTS),
          priority=st.integers(min_value=0, max_value=2))
    def admit(self, tenant, priority):
        self.env.process(self._client(tenant, priority))

    @rule(dt=st.sampled_from([0.0, 0.05, 0.1, 0.4, 1.0]))
    def advance(self, dt):
        self.env.run(until=self.env.now + dt)

    @precondition(lambda self: self.max_wait is not None)
    @rule()
    def time_out(self):
        """Run past the wait bound: everyone queued now is served or gone."""
        self.env.run(until=self.env.now + self.max_wait)
        assert not any(r.queued and r.outcome is None and r.arrived
                       < self.env.now - self.max_wait for r in self.requests)

    # -- invariants --------------------------------------------------------------
    @invariant()
    def depth_counts_the_uncancelled_entries(self):
        waiting = sum(1 for r in self.requests if r.queued and r.outcome is None)
        assert self.controller.queue_depth() == waiting
        assert waiting <= self.controller.config.max_queue_depth

    @invariant()
    def arrivals_are_conserved(self):
        controller = self.controller
        assert len(self.requests) == (controller.admitted + controller.rejected
                                      + controller.queue_depth())
        outcomes = [r.outcome for r in self.requests]
        assert controller.admitted == outcomes.count("fast") + outcomes.count("served")
        assert controller.rejected == (outcomes.count("queue_full")
                                       + outcomes.count("timeout"))

    @invariant()
    def service_follows_priority_then_arrival(self):
        served = [r for r in self.requests if r.outcome == "served"]
        for y in served:
            for x in self.requests:
                # x was queued strictly before y's service and still
                # waiting then: with the smaller key it must go first.
                if not (x.queued and x.key < y.key and x.arrived < y.ended):
                    continue
                if x.outcome == "timeout" and x.ended <= y.ended:
                    continue
                assert x.outcome == "served" and x.order < y.order, (x.key, y.key)

    @invariant()
    def nobody_skips_a_waiting_queue(self):
        for f in self.requests:
            if f.outcome != "fast":
                continue
            assert not any(
                x.queued and x.arrived < f.arrived
                and (x.ended is None or x.ended > f.arrived)
                for x in self.requests
            ), f.key

    @invariant()
    def waits_are_measured_and_bounded(self):
        for r in self.requests:
            if r.outcome == "served":
                assert abs(r.waited - (r.ended - r.arrived)) < 1e-9
                if self.max_wait is not None:
                    assert r.waited <= self.max_wait + 1e-9
            elif r.outcome == "fast":
                assert r.waited == 0.0 and r.ended == r.arrived

    @invariant()
    def no_tenant_outruns_its_bucket(self):
        for tenant, quota in QUOTAS.items():
            admitted = sum(1 for r in self.requests if r.tenant == tenant
                           and r.outcome in ("fast", "served"))
            assert admitted <= quota.burst + quota.rate_per_s * self.env.now + 1e-6


TestAdmissionStateMachine = AdmissionMachine.TestCase
TestAdmissionStateMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None,
)
