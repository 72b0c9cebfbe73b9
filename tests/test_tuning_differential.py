"""One tuning semantics on all three stacks.

A seeded sequence of latency reports, membership changes of servers that
are not the delegate, and delegate fail-overs is fed to the queueing
cluster's :class:`ANUPolicy`, the semantic stack's
:class:`MetadataCluster` and a :class:`ControlPlane` delegate on a
zero-latency, loss-free network.  Every round, all three must reach the
same decision bit for bit: the same ``average`` and the same tuned
servers with the same factors.

On the protocol stack a delegate crash downs the delegate's node and an
election picks the next one; the other two stacks have no concrete
delegate, so they see the same event as a FAIL of that server plus a
fail-over.
"""

import numpy as np
import pytest

from repro.core.tuning import ALL_HEURISTICS, DIVERGENT_ONLY, ServerReport
from repro.fs import MetadataCluster
from repro.membership.faults import FaultEvent, FaultKind
from repro.placement import ANUPolicy, TuningContext
from repro.proto import ControlPlane, NetworkConfig, ProtocolConfig
from repro.runtime import MemorySink

N_NODES = 5
N_STEPS = 40
FILESETS = [f"fs{i:02d}" for i in range(24)]
ROOTS = {name: f"/{name}" for name in FILESETS}
PROTOCOL = ProtocolConfig(
    heartbeat_interval=0.5, heartbeat_timeout=1.6,
    election_timeout=0.3, report_timeout=0.3, tuning_interval=4.0,
)


class Stacks:
    """The three delegates, kept on the same server set."""

    def __init__(self, tuning, seed: int) -> None:
        self.latency: dict[str, ServerReport] = {}
        self.sink = MemorySink()
        self.plane = ControlPlane(
            N_NODES, seed=seed,
            network_config=NetworkConfig(min_latency=0.0, max_latency=0.0),
            protocol_config=PROTOCOL,
            tuning=tuning,
            latency_model=lambda name, now: self.latency[name],
            telemetry=self.sink,
        )
        servers = sorted(self.plane.nodes)
        self.policy = ANUPolicy(tuning)
        self.policy.initial_assignment(FILESETS, servers)
        self.cluster = MetadataCluster(servers, ROOTS, tuning=tuning)
        self.policy_decision = None
        self.cluster_decision = None
        self._spy(self.policy.rounds, "policy_decision")
        self._spy(self.cluster.policy.rounds, "cluster_decision")
        self.plane.start()
        self.next_name = N_NODES
        self.rounds = 0

    def _spy(self, rounds, slot: str) -> None:
        compute = rounds.compute

        def recording(shares, reports):
            decision = compute(shares, reports)
            setattr(self, slot, decision)
            return decision

        rounds.compute = recording

    @property
    def live(self) -> list[str]:
        return self.plane.roster.live()

    def delegate(self) -> str | None:
        """The delegate every live node agrees on, if there is one (an
        election may still be running after a membership change)."""
        name = self.plane.current_delegate()
        views = {self.plane.nodes[n].delegate for n in self.live}
        if name is None or views != {name} or not self.plane.nodes[name].alive:
            return None
        return name

    # ------------------------------------------------------------------
    def tune(self, rng: np.random.Generator) -> None:
        """One round on every stack over the same fresh reports."""
        live = self.live
        self.latency = {
            name: ServerReport(
                name,
                float(rng.lognormal(-4.0, 1.0)),
                int(rng.choice([0, 1, 40, 300])),
            )
            for name in live
        }
        reports = [self.latency[name] for name in live]
        self.policy.update(TuningContext(
            time=0.0, filesets=FILESETS, servers=live, assignment={},
            reports=reports, rng=np.random.default_rng(0),
        ))
        self.cluster.retune(reports)
        before = len(self.sink.of_kind("tuning"))
        while len(self.sink.of_kind("tuning")) == before:
            self.plane.run_until(self.plane.engine.now + 0.25)
        proto = self.sink.of_kind("tuning")[-1]
        self.rounds += 1
        # ``reporting`` counts servers that served requests, as the
        # cluster stack's tuning loop counts them.
        assert proto.reporting == sum(1 for r in reports if r.request_count)
        for decision in (self.policy_decision, self.cluster_decision):
            assert decision.average == proto.average
            assert decision.tuned == proto.tuned

    def membership(self, kind: FaultKind, server: str) -> None:
        """A change of a server that is not the delegate, on every stack."""
        self.plane.apply_fault(FaultEvent(self.plane.engine.now, kind, server))
        self.cluster.director.apply(FaultEvent(0.0, kind, server))
        self.policy.on_membership_change(FILESETS, self.live, {})

    def delegate_crash(self) -> None:
        """The protocol delegate crashes; the others fail that server and
        fail over."""
        victim = self.delegate()
        self.plane.apply_fault(
            FaultEvent(self.plane.engine.now, FaultKind.DELEGATE_CRASH, "*")
        )
        self.cluster.director.apply(FaultEvent(0.0, FaultKind.DELEGATE_CRASH, "*"))
        self.cluster.director.apply(FaultEvent(0.0, FaultKind.FAIL, victim))
        self.policy.on_membership_change(FILESETS, self.live, {})
        self.policy.fail_delegate()


def _step(stacks: Stacks, rng: np.random.Generator) -> None:
    """Draw and apply one legal event; rounds are the most common."""
    live = stacks.live
    down = sorted(set(stacks.plane.nodes) - set(live))
    others = [n for n in live if not stacks.plane.nodes[n].is_delegate]
    choices = ["tune"] * 4 + ["commission"]
    if down:
        choices.append("recover")
    if len(live) > 2 and others:
        choices += ["fail", "decommission"]
    if len(live) > 2 and stacks.delegate() is not None:
        choices.append("delegate-crash")
    choice = choices[int(rng.integers(len(choices)))]
    if choice == "tune":
        stacks.tune(rng)
    elif choice == "delegate-crash":
        stacks.delegate_crash()
    elif choice == "commission":
        stacks.membership(FaultKind.COMMISSION, f"node{stacks.next_name:02d}")
        stacks.next_name += 1
    elif choice == "recover":
        stacks.membership(FaultKind.RECOVER, down[int(rng.integers(len(down)))])
    else:
        kind = FaultKind.FAIL if choice == "fail" else FaultKind.DECOMMISSION
        stacks.membership(kind, others[int(rng.integers(len(others)))])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "tuning",
    [
        pytest.param(ALL_HEURISTICS, id="all-heuristics"),
        pytest.param(DIVERGENT_ONLY, id="divergent-only"),
    ],
)
def test_three_stacks_make_the_same_decision_every_round(tuning, seed):
    stacks = Stacks(tuning, seed)
    rng = np.random.default_rng(seed)
    for _ in range(N_STEPS):
        _step(stacks, rng)
    # Every protocol round was matched by a round on the other stacks.
    assert stacks.rounds > N_STEPS // 3
    assert len(stacks.sink.of_kind("tuning")) == stacks.rounds
