"""Microbenchmark of ``TwoChoicePolicy`` orphan re-placement.

The e2e benchmark times the rest of the membership subsystem on
``fig6-limp-digest``: schedule generation and insertion in its set-up,
roster and director event application (crash, recover, degrade, restore)
in its ``membership`` layer, and the churned run end to end.  It runs
ANU only, so the two-choice policy's re-placement path is pinned here.
"""

from repro.placement import TwoChoicePolicy


def test_two_choice_orphan_replacement_cost(benchmark):
    """Micro-regression: orphan re-placement must not re-sort survivors.

    ``TwoChoicePolicy.on_membership_change`` used to call
    ``sorted(live)`` inside the per-orphan loop — O(k·n log n) for k
    orphans — even though the survivor set is fixed for the whole
    membership change.  This case pins the hoisted-sort cost: a fleet
    losing its most-loaded server re-places ~1/n of a large universe.
    """
    servers = [f"s{i:02d}" for i in range(32)]
    filesets = [f"fs{i:05d}" for i in range(20_000)]
    policy = TwoChoicePolicy()
    assignment = policy.initial_assignment(filesets, servers)
    victim = max(set(assignment.values()),
                 key=lambda s: sum(1 for o in assignment.values() if o == s))
    survivors = [s for s in servers if s != victim]

    def replace():
        return policy.on_membership_change(filesets, survivors, assignment)

    new = benchmark(replace)
    assert set(new) == set(filesets)
    assert victim not in set(new.values())
