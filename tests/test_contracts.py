"""The runtime contract layer: invariants actually fire under pytest.

The acceptance bar: an intentionally-broken interval mutation raises
:class:`~repro.contracts.ContractViolation`; so does validated state
written outside a contract-decorated call, at the object's next such
call, while helpers, callbacks and nested decorated calls inside one are
sanctioned; the ``REPRO_CONTRACTS=off`` environment compiles the layer
out entirely (no wrappers at all); and the dynamic toggle lets a single
process measure both sides.
"""

import dataclasses
import gc
import os
import pickle
import subprocess
import sys

import pytest

from repro import contracts
from repro.contracts import (
    ContractViolation,
    checks_invariants,
    ensure,
    invariant,
    preserves,
    require,
    set_contracts,
    validator_reads,
)
from repro.core.anu import ANUPlacement
from repro.core.interval import HALF, MappedInterval
from repro.core.tuning import DelegateTuner, ServerReport
from repro.fs import MetadataCluster


@pytest.fixture(autouse=True)
def _contracts_on():
    """Every test here runs with checking enabled, restored afterwards."""
    previous = set_contracts(True)
    yield
    set_contracts(previous)


def test_contracts_are_active_under_pytest():
    assert not contracts.COMPILED_OUT
    assert contracts.contracts_enabled()


# ----------------------------------------------------------------------
# The headline: a broken interval mutation raises
# ----------------------------------------------------------------------
def test_corrupted_interval_raises_on_next_mutation():
    iv = MappedInterval(["a", "b", "c"])
    iv._shares["a"] += 1  # break half-occupancy behind the API's back
    with pytest.raises(ContractViolation, match="set_shares"):
        iv.set_shares({"a": 1.0, "b": 1.0, "c": 1.0})


def test_corrupted_interval_raises_through_anu_layer():
    placement = ANUPlacement(["a", "b"])
    placement.interval._prefix[0] += 1  # desync prefix from share records
    with pytest.raises(ContractViolation):
        placement.set_shares({"a": 2.0, "b": 1.0})


def test_healthy_mutations_pass_all_contracts():
    iv = MappedInterval(["a", "b"])
    iv.set_shares({"a": 3.0, "b": 1.0})
    iv.add_server("c")
    iv.remove_server("a")
    iv.repartition()
    assert sum(iv.shares().values()) == HALF


def test_toggle_disables_and_reenables_checking():
    iv = MappedInterval(["a", "b"])
    iv._shares["a"] += 1
    set_contracts(False)
    try:
        iv.set_shares({"a": 1.0, "b": 1.0})  # corrupted, but unchecked
    finally:
        set_contracts(True)
    # Re-enabled: the lingering corruption is caught on the next mutation.
    iv._shares["a"] += 1
    with pytest.raises(ContractViolation):
        iv.set_shares({"a": 1.0, "b": 1.0})


# ----------------------------------------------------------------------
# Decorator / helper semantics
# ----------------------------------------------------------------------
class _Box:
    """Toy object with a checkable invariant (value must stay >= 0)."""

    def __init__(self) -> None:
        self.value = 0

    @checks_invariants
    def add(self, delta: int) -> None:
        """Mutate; the contract validates afterwards."""
        self.value += delta

    def check_invariants(self) -> None:
        """Raise when the box went negative."""
        if self.value < 0:
            raise ValueError(f"negative value {self.value}")


def test_checks_invariants_wraps_and_chains_cause():
    box = _Box()
    box.add(5)
    with pytest.raises(ContractViolation) as excinfo:
        box.add(-9)
    assert isinstance(excinfo.value.__cause__, ValueError)
    assert "add" in str(excinfo.value)


def test_preserves_detects_state_change():
    class Holder:
        def __init__(self):
            self.frozen = [1, 2]
            self.free = 0

        @preserves(lambda self: list(self.frozen), message="frozen moved")
        def ok(self):
            self.free += 1

        @preserves(lambda self: list(self.frozen), message="frozen moved")
        def bad(self):
            self.frozen.append(3)

    h = Holder()
    h.ok()
    with pytest.raises(ContractViolation, match="frozen moved"):
        h.bad()


def test_invariant_predicate_decorator():
    class Gauge:
        def __init__(self):
            self.level = 0

        @invariant(lambda self: self.level <= 10, "overflow")
        def fill(self, amount):
            self.level += amount

    g = Gauge()
    g.fill(10)
    with pytest.raises(ContractViolation, match="overflow"):
        g.fill(1)


def test_require_and_ensure_helpers():
    require(True, "never shown")
    ensure(True, "never shown")
    with pytest.raises(ContractViolation, match="precondition"):
        require(False, "value {} out of range", 7)
    with pytest.raises(ContractViolation, match="postcondition"):
        ensure(False, "sum drifted")


def test_repartition_boundary_preservation_contract_is_wired():
    iv = MappedInterval(["a", "b"], shares={"a": 3.0, "b": 2.0})
    before = {s: iv.segments(s) for s in iv.servers}
    iv.repartition()
    assert {s: iv.segments(s) for s in iv.servers} == before


# ----------------------------------------------------------------------
# Contract bypass: validated state changes only inside decorated calls
# ----------------------------------------------------------------------
class _Ledger:
    """A validated map: the validator reads ``_items`` and ``label``."""

    def __init__(self) -> None:
        self._items: dict[str, int] = {}
        self.label = "ledger"

    def check_invariants(self) -> None:
        """Keys are non-empty; the label is set."""
        if not all(self._items) or not self.label:
            raise ValueError("empty key or label")

    @checks_invariants
    def put(self, key: str, value: int) -> None:
        """The sanctioned writer."""
        self._items[key] = value

    @checks_invariants
    def put_many(self, pairs) -> None:
        """Delegates each write to an undecorated helper."""
        for key, value in pairs:
            self._apply(key, value)

    def _apply(self, key: str, value: int) -> None:
        self._items[key] = value

    @checks_invariants
    def put_twice(self, key: str, value: int) -> None:
        """Writes, then calls another decorated mutator on itself."""
        self._items[key] = value
        self.put(key + "'", value)

    @checks_invariants
    @preserves(lambda self: sorted(self._items), "keys moved")
    def bump(self, key: str) -> None:
        """Stacked decorators around one write."""
        self._items[key] += 1

    @checks_invariants
    def run(self, callback) -> None:
        """Lets ``callback`` act while the call is in progress."""
        callback()

    @checks_invariants
    def put_then_fail(self, key: str) -> None:
        """Writes, then raises before the validator runs."""
        self._items[key] = 0
        raise KeyError(key)

    def sneak(self, key: str, value: int) -> None:
        """An undecorated writer: a bypass."""
        self._items[key] = value


def test_write_from_another_object_is_caught_at_the_next_call():
    ledger = _Ledger()
    ledger.put("a", 1)
    ledger._items["b"] = 2  # another object reaching in
    with pytest.raises(
        ContractViolation, match=r"_Ledger\._items changed outside .* put"
    ):
        ledger.put("c", 3)


def test_write_from_an_undecorated_method_is_caught():
    ledger = _Ledger()
    ledger.put("a", 1)
    ledger.sneak("a", 5)
    with pytest.raises(ContractViolation, match=r"_Ledger\._items"):
        ledger.bump("a")


@pytest.mark.parametrize(
    "bypass",
    [
        lambda ledger: ledger._items.pop("a"),
        lambda ledger: ledger._items.__delitem__("a"),
        lambda ledger: setattr(ledger, "_items", dict(ledger._items)),
        lambda ledger: setattr(ledger, "label", "other"),
    ],
    ids=["pop", "del", "rebind-container", "rebind-plain"],
)
def test_every_kind_of_write_is_caught(bypass):
    ledger = _Ledger()
    ledger.put("a", 1)
    bypass(ledger)
    with pytest.raises(ContractViolation, match="changed outside"):
        ledger.put("b", 2)


def test_a_bypass_is_reported_once():
    ledger = _Ledger()
    ledger.put("a", 1)
    ledger.sneak("b", 2)
    with pytest.raises(ContractViolation):
        ledger.put("c", 3)
    ledger.put("c", 3)


def test_helpers_and_callbacks_inside_a_decorated_call_are_sanctioned():
    ledger = _Ledger()
    ledger.put("a", 1)
    ledger.put_many([("b", 2), ("c", 3)])
    ledger.run(lambda: ledger._items.update(d=4))  # dynamic extent
    ledger.put("e", 5)
    assert sorted(ledger._items) == ["a", "b", "c", "d", "e"]


def test_nested_and_stacked_decorated_calls_raise_no_false_positive():
    ledger = _Ledger()
    ledger.put("a", 1)
    ledger.put_twice("b", 2)
    ledger.bump("a")
    ledger.put("c", 3)
    assert ledger._items == {"a": 2, "b": 2, "b'": 2, "c": 3}


def test_a_raising_call_records_what_it_wrote():
    ledger = _Ledger()
    ledger.put("a", 1)
    with pytest.raises(KeyError):
        ledger.put_then_fail("b")
    ledger.put("c", 2)  # the write to "b" was inside a decorated call
    assert ledger._items == {"a": 1, "b": 0, "c": 2}


def test_set_contracts_false_checks_nothing():
    ledger = _Ledger()
    ledger.put("a", 1)
    set_contracts(False)
    ledger.sneak("b", 2)
    ledger.put("c", 3)
    ledger.sneak("d", 4)
    set_contracts(True)
    ledger.put("e", 5)  # state changed while off is not a bypass


@dataclasses.dataclass
class _Tally:
    """A validated dataclass, so ``repr`` and ``==`` cover its fields."""

    counts: dict = dataclasses.field(default_factory=dict)

    def check_invariants(self) -> None:
        """Counts are positive."""
        self._check_counts()

    def _check_counts(self) -> None:
        if not all(v > 0 for v in self.counts.values()):
            raise ValueError("non-positive count")

    @checks_invariants
    def add(self, key: str) -> None:
        """Count one more ``key``."""
        self.counts[key] = self.counts.get(key, 0) + 1


def test_fingerprint_stays_out_of_pickle_repr_and_eq():
    used = _Tally()
    used.add("x")
    untouched = _Tally(counts={"x": 1})
    assert used == untouched
    assert repr(used) == repr(untouched)
    assert pickle.dumps(used) == pickle.dumps(untouched)
    assert set(vars(used)) == {"counts"}


def test_tracking_ends_with_the_object():
    """Even when the object's own state refers back to it."""
    baseline = len(contracts._extents)
    for _ in range(50):
        ledger = _Ledger()
        ledger.run(lambda: ledger._items.update(me=ledger))
    del ledger
    gc.collect()
    assert len(contracts._extents) == baseline


def test_ownership_written_around_the_fs_cluster_is_caught():
    cluster = MetadataCluster(["a", "b", "c"], {"fs0": "/p0"})
    cluster.add_server("d")
    owner = cluster.owner_of("fs0")
    other = next(s for s in sorted(cluster.services) if s != owner)
    cluster._ownership["fs0"] = other  # a driver skipping transfer_ownership
    with pytest.raises(ContractViolation, match=r"MetadataCluster\._ownership"):
        cluster.remove_server("d")


def test_protected_state_is_what_the_validator_reads():
    assert validator_reads(_Ledger) == {"_items", "label"}
    assert validator_reads(_Tally) == {"counts"}  # through _check_counts
    assert validator_reads(type("Bare", (), {})) == frozenset()
    # Properties count as reads but hold no state of their own.
    assert "partition_ticks" in validator_reads(MappedInterval)
    assert "partition_ticks" not in contracts._protected(MappedInterval)


# ----------------------------------------------------------------------
# Tuner postconditions
# ----------------------------------------------------------------------
def test_tuner_factor_clamp_contract(monkeypatch):
    tuner = DelegateTuner()
    monkeypatch.setattr(
        DelegateTuner,
        "_factor",
        lambda self, latency, avg, request_count: 1000.0,
    )
    reports = [
        ServerReport("a", 50.0, 100),
        ServerReport("b", 1.0, 100),
        ServerReport("c", 1.0, 100),
    ]
    with pytest.raises(ContractViolation, match="max_step"):
        tuner.compute({"a": 1.0, "b": 1.0, "c": 1.0}, reports)


# ----------------------------------------------------------------------
# Environment compile-out
# ----------------------------------------------------------------------
def _run_python(code: str, **env_overrides) -> None:
    env = dict(os.environ, **env_overrides)
    src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_env_off_compiles_wrappers_out():
    _run_python(
        "import repro.contracts as c\n"
        "from repro.core.interval import MappedInterval\n"
        "assert c.COMPILED_OUT\n"
        "assert not hasattr(MappedInterval.set_shares, '__wrapped__')\n"
        "iv = MappedInterval(['a', 'b'])\n"
        "iv._shares['a'] += 1\n"
        "iv.set_shares({'a': 1.0, 'b': 1.0})  # corrupted but never checked\n",
        REPRO_CONTRACTS="off",
    )


def test_env_on_installs_wrappers():
    _run_python(
        "import repro.contracts as c\n"
        "from repro.core.interval import MappedInterval\n"
        "assert not c.COMPILED_OUT\n"
        "assert hasattr(MappedInterval.set_shares, '__wrapped__')\n",
        REPRO_CONTRACTS="on",
    )
