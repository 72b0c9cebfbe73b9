"""Contract-decorated mutators are atomic: a rejected call changes nothing.

``repro.contracts`` re-validates a class's invariants after every
*successful* ``@checks_invariants``/``@preserves``/``@invariant`` call.
The failure path has no wrapper check: a mutator that writes validated
state and then raises leaves a torn object behind a caller who believes
nothing changed (``MappedInterval.add_server`` once doubled the
partition count before rejecting a bad ``share_fraction``).

This module checks the failure path at runtime, for every such method
in ``repro.core``, ``repro.cluster``, ``repro.fs`` and
``repro.membership``:

- the methods are discovered by walking the package source with
  :mod:`ast` (:func:`decorated_mutators`), so a new decorated mutator is
  picked up without editing this file;
- each gets a :class:`Case` that builds a receiver and draws the
  arguments an outside caller can pass (server names known and unknown,
  share maps, share fractions, fault events), or an :data:`EXEMPT` entry
  saying why its arguments only ever come from the package's own code;
- the property: the call either succeeds with the validator passing, or
  raises and leaves every attribute the class's ``check_invariants``/
  ``check_consistency`` reads (:func:`validator_reads`) equal to its
  snapshot from before the call.

:func:`test_every_decorated_mutator_has_a_case` fails when a decorated
method has neither a case nor an exemption.  CI also runs this module
with ``REPRO_CONTRACTS=off``, where the wrappers are compiled out and
atomicity rests on validate-then-mutate alone.
"""

from __future__ import annotations

import ast
import dataclasses
import enum
import pathlib
from typing import Any, Callable

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.cluster import ClusterConfig, ClusterSimulation, ServerSpec
from repro.contracts import VALIDATORS, ContractViolation, validator_reads
from repro.core.anu import ANUPlacement
from repro.core.interval import MappedInterval
from repro.fs import MetadataCluster
from repro.membership import FaultEvent, FaultKind
from repro.placement import ANUPolicy
from repro.units import Seconds
from repro.workloads import SyntheticConfig, generate_synthetic

#: Decorator names (terminal, calls unwrapped) that promise atomicity.
CONTRACT_DECORATORS = frozenset({"checks_invariants", "preserves", "invariant"})
#: Subpackages whose decorated mutators are checked.
LAYERS = ("core", "cluster", "fs", "membership")
#: Object nesting below a validated attribute that a snapshot descends;
#: deeper objects compare by identity.
SNAPSHOT_DEPTH = 2

PACKAGE = pathlib.Path(repro.__file__).resolve().parent


# ----------------------------------------------------------------------
# Discovery
# ----------------------------------------------------------------------
def _decorator_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def decorated_mutators() -> set[str]:
    """``module.Class.method`` for every contract-decorated method."""
    found = set()
    for layer in LAYERS:
        for path in sorted((PACKAGE / layer).rglob("*.py")):
            module = ".".join(
                path.relative_to(PACKAGE.parent).with_suffix("").parts
            )
            for cls in ast.walk(ast.parse(path.read_text())):
                if not isinstance(cls, ast.ClassDef):
                    continue
                for fn in cls.body:
                    if isinstance(
                        fn, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and any(
                        _decorator_name(d) in CONTRACT_DECORATORS
                        for d in fn.decorator_list
                    ):
                        found.add(f"{module}.{cls.name}.{fn.name}")
    return found


# ----------------------------------------------------------------------
# Snapshots of validated state
# ----------------------------------------------------------------------
def validator_of(cls: type) -> Callable[[Any], None] | None:
    for name in VALIDATORS:
        validator = getattr(cls, name, None)
        if validator is not None:
            return validator
    return None


def snapshot(obj: Any, depth: int = 0) -> dict[str, Any]:
    """Comparable copy of every attribute ``obj``'s validator reads."""
    return {
        attr: _freeze(getattr(obj, attr), depth)
        for attr in sorted(validator_reads(type(obj)))
    }


def _freeze(value: Any, depth: int) -> Any:
    if value is None or isinstance(value, (bool, int, float, str, enum.Enum)):
        return value
    if isinstance(value, dict):
        return tuple(
            sorted(
                ((k, _freeze(v, depth)) for k, v in value.items()),
                key=lambda item: repr(item[0]),
            )
        )
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v, depth) for v in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(_freeze(v, depth) for v in value)
    name = type(value).__name__
    if depth >= SNAPSHOT_DEPTH:
        return (name, id(value))
    if validator_of(type(value)) is not None:
        return (name, tuple(snapshot(value, depth + 1).items()))
    if dataclasses.is_dataclass(value):
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    elif hasattr(value, "__dict__"):
        fields = vars(value)
    else:
        return (name, id(value))
    return (name, _freeze(fields, depth + 1))


# ----------------------------------------------------------------------
# Receivers and outside-caller arguments
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Case:
    """How to build a receiver and draw one call's arguments."""

    #: Draws a fresh receiver.
    build: Callable[[st.DataObject], Any]
    #: Receiver -> strategy of positional-argument tuples.
    args: Callable[[Any], st.SearchStrategy]
    #: Success-path check; ``None`` means the class validator.
    check: Callable[[Any], None] | None = None


POOL = [f"s{i}" for i in range(5)]
UNKNOWN = "ghost"
#: Share weights and fractions, in and out of every legal range.
NUMBER = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 1.0, 0.5, -1.0, 1e-300, 1e308]
)


def _servers(data: st.DataObject) -> list[str]:
    return data.draw(
        st.lists(st.sampled_from(POOL), min_size=1, max_size=4, unique=True),
        label="servers",
    )


def _name(known) -> st.SearchStrategy:
    return st.sampled_from(sorted(known) + [UNKNOWN])


def _share_map(known) -> st.SearchStrategy:
    return st.one_of(
        st.fixed_dictionaries({n: NUMBER for n in known}),
        NUMBER.map(lambda share: dict.fromkeys(known, share)),
        st.dictionaries(_name(known), NUMBER, max_size=len(known) + 1),
    )


def _build_interval(data: st.DataObject) -> MappedInterval:
    names = _servers(data)
    shares = data.draw(
        st.none()
        | st.fixed_dictionaries(
            {n: st.floats(min_value=0.01, max_value=100.0) for n in names}
        ),
        label="initial shares",
    )
    return MappedInterval(names, shares)


def _build_placement(data: st.DataObject) -> ANUPlacement:
    interval = _build_interval(data)
    return ANUPlacement(interval.servers, shares=interval.shares())


def _fault_event(known) -> st.SearchStrategy:
    return st.builds(
        FaultEvent,
        time=st.just(Seconds(0.0)),
        kind=st.sampled_from(list(FaultKind)),
        server=_name(known) | st.just("*"),
        speed=st.floats(min_value=0.1, max_value=10.0),
        factor=st.floats(min_value=0.1, max_value=1.0),
    )


def _build_simulation(data: st.DataObject) -> ClusterSimulation:
    names = _servers(data)
    trace = generate_synthetic(
        SyntheticConfig(n_filesets=6, n_requests=30, duration=50.0, seed=2)
    )
    config = ClusterConfig(
        servers=tuple(ServerSpec(name=n, speed=1.0 + i) for i, n in enumerate(names)),
        tuning_interval=10.0,
        sample_window=10.0,
    )
    return ClusterSimulation(config, ANUPolicy(), trace)


def _build_metadata_cluster(data: st.DataObject) -> MetadataCluster:
    names = _servers(data)
    n_filesets = data.draw(st.integers(min_value=1, max_value=4), label="filesets")
    cluster = MetadataCluster(names, {f"f{i}": f"/p{i}" for i in range(n_filesets)})
    # Some former members: a known-but-down name recovers on add_server.
    for name in data.draw(st.sets(st.sampled_from(names)), label="failed"):
        if cluster.roster.live_count > 1:
            cluster.fail_server(name)
    return cluster


def _services_match_ownership(cluster: MetadataCluster) -> None:
    """``transfer_ownership``'s own invariant (placement may lag moves)."""
    for fileset, owner in cluster.ownership().items():
        assert owner in cluster.services and cluster.services[owner].owns(fileset)


def _filesets(cluster: MetadataCluster) -> st.SearchStrategy:
    return st.sampled_from(sorted(cluster.ownership()) + ["nowhere"])


CASES: dict[str, Case] = {
    "repro.core.interval.MappedInterval.set_shares": Case(
        _build_interval, lambda iv: st.tuples(_share_map(iv.servers))
    ),
    "repro.core.interval.MappedInterval.add_server": Case(
        _build_interval,
        lambda iv: st.tuples(_name(iv.servers), st.none() | NUMBER),
    ),
    "repro.core.interval.MappedInterval.remove_server": Case(
        _build_interval, lambda iv: st.tuples(_name(iv.servers))
    ),
    "repro.core.interval.MappedInterval.repartition": Case(
        _build_interval, lambda iv: st.just(())
    ),
    "repro.core.anu.ANUPlacement.set_shares": Case(
        _build_placement, lambda pl: st.tuples(_share_map(pl.servers))
    ),
    "repro.core.anu.ANUPlacement.add_server": Case(
        _build_placement,
        lambda pl: st.tuples(_name(pl.servers), st.none() | NUMBER),
    ),
    "repro.core.anu.ANUPlacement.remove_server": Case(
        _build_placement, lambda pl: st.tuples(_name(pl.servers))
    ),
    # The engine applies only events of the schedule __init__ validated;
    # a direct call with any event must still be all-or-nothing.
    "repro.cluster.cluster.ClusterSimulation._on_fault": Case(
        _build_simulation, lambda sim: st.tuples(_fault_event(sim.servers))
    ),
    "repro.cluster.cluster.ClusterSimulation.install_server": Case(
        _build_simulation,
        lambda sim: st.tuples(_name(sim.servers), NUMBER, st.just(Seconds(0.0))),
    ),
    "repro.fs.cluster.MetadataCluster.fail_server": Case(
        _build_metadata_cluster,
        lambda c: st.tuples(_name(c.roster), st.just(0.0)),
    ),
    "repro.fs.cluster.MetadataCluster.add_server": Case(
        _build_metadata_cluster,
        lambda c: st.tuples(_name(c.roster), st.just(0.0)),
    ),
    "repro.fs.cluster.MetadataCluster.remove_server": Case(
        _build_metadata_cluster,
        lambda c: st.tuples(_name(c.roster), st.just(0.0)),
    ),
    "repro.fs.cluster.MetadataCluster.transfer_ownership": Case(
        _build_metadata_cluster,
        lambda c: st.tuples(_filesets(c), _name(c.roster), st.just(0.0)),
        check=_services_match_ownership,
    ),
}

#: Decorated mutators whose arguments only the package's own code builds.
EXEMPT: dict[str, str] = {
    "repro.cluster.cluster.ClusterSimulation.realize": (
        "both assignments come from the policy and pass validate_assignment "
        "before TuningLoop or realize_membership hands them over"
    ),
    "repro.fs.cluster.MetadataCluster.retune": (
        "reports come from the delegate round of a timed run; a report set "
        "that does not match the shares raises in DelegateTuner.compute "
        "before any state is touched"
    ),
    "repro.fs.cluster.MetadataCluster.rescale": (
        "retune's first half: the same delegate-round reports, which raise "
        "in DelegateTuner.compute before any state is touched when they do "
        "not match the shares"
    ),
    "repro.fs.cluster.MetadataCluster.crash_server": (
        "a MembershipHost primitive: the director calls it only after the "
        "roster accepted the FAIL (covered through fail_server)"
    ),
    "repro.fs.cluster.MetadataCluster.drain_server": (
        "a MembershipHost primitive: the director calls it only after the "
        "roster accepted the DECOMMISSION (covered through remove_server)"
    ),
    "repro.fs.cluster.MetadataCluster.restart_server": (
        "a MembershipHost primitive: the director calls it only after the "
        "roster accepted the RECOVER (covered through add_server)"
    ),
    "repro.fs.cluster.MetadataCluster.install_server": (
        "a MembershipHost primitive: the director calls it only after the "
        "roster accepted the COMMISSION (covered through add_server)"
    ),
    "repro.fs.cluster.MetadataCluster.realize_membership": (
        "a MembershipHost primitive: the director passes it the assignment "
        "pair membership_assignment just returned"
    ),
}


# ----------------------------------------------------------------------
# The checks
# ----------------------------------------------------------------------
def test_every_decorated_mutator_has_a_case():
    found = decorated_mutators()
    assert "repro.core.interval.MappedInterval.add_server" in found
    missing = sorted(found - set(CASES) - set(EXEMPT))
    assert not missing, f"decorated mutators with no atomicity case: {missing}"
    stale = sorted((set(CASES) | set(EXEMPT)) - found)
    assert not stale, f"cases for methods that are gone or undecorated: {stale}"
    assert not set(CASES) & set(EXEMPT)


def test_validator_reads_cover_the_interval_state():
    reads = validator_reads(MappedInterval)
    assert {"_p", "_owner", "_prefix", "_full", "_partial", "_shares"} <= reads
    assert "_generation" not in reads


@pytest.mark.parametrize("qualname", sorted(CASES))
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_rejected_call_leaves_validated_state_untouched(qualname, data):
    case = CASES[qualname]
    receiver = case.build(data)
    class_name, method = qualname.rsplit(".", 1)
    assert f"{type(receiver).__module__}.{type(receiver).__name__}" == class_name
    args = data.draw(case.args(receiver), label="args")
    before = snapshot(receiver)
    try:
        getattr(receiver, method)(*args)
    except ContractViolation:
        raise
    except Exception as exc:
        after = snapshot(receiver)
        changed = sorted(k for k in before if before[k] != after[k])
        assert not changed, (
            f"{method}{args!r} raised {exc!r} after changing {changed}"
        )
    else:
        (case.check or validator_of(type(receiver)))(receiver)
