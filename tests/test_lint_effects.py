"""The effect/purity analysis rules (RPL104–106).

Bad-fixture projects through :func:`repro.lint.lint_project`, each with a
clean twin proving the rule converges to zero on correct code, plus
suppression handling.  The fixtures mirror the real findings this rule
family surfaced: ambient reads on seeded paths (RPL104), the membership
director's emit-then-validate bug (RPL105), and the interval's
repartition-then-validate bug (RPL106).
"""

from repro.lint import lint_project
from repro.lint.flow.purity import ImpureAmbientRead
from repro.lint.flow.telemetry_gap import TelemetryGap
from repro.lint.flow.torn_state import MutateThenRaise


def ids(findings):
    return [f.rule_id for f in findings]


# ----------------------------------------------------------------------
# RPL104 — ambient reads reachable from seeded entry points
# ----------------------------------------------------------------------
def test_rpl104_flags_clock_env_and_mutable_global_on_seeded_path():
    findings = lint_project({
        "src/repro/runtime/scenario.py": (
            "import os\n"
            "from ..util.helpers import jitter\n"
            "class Scenario:\n"
            "    def run_cluster(self):\n"
            "        return jitter() + debug_flag()\n"
            "def debug_flag():\n"
            "    return 1 if os.environ.get('DEBUG') else 0\n"
        ),
        "src/repro/util/helpers.py": (
            "import time\n"
            "_CALLS = 0\n"
            "def bump():\n"
            "    global _CALLS\n"
            "    _CALLS = _CALLS + 1\n"
            "def jitter():\n"
            "    return time.time() + _CALLS\n"
        ),
    }, rules=[ImpureAmbientRead])
    assert ids(findings) == ["RPL104"] * 3
    messages = " | ".join(f.message for f in findings)
    assert "wall-clock" in messages
    assert "environ read of os.environ" in messages
    assert "mutable-global" in messages
    assert "Scenario.run_cluster" in messages


def test_rpl104_ignores_unreachable_reads_and_threaded_values():
    findings = lint_project({
        "src/repro/runtime/scenario.py": (
            "class Scenario:\n"
            "    def run_cluster(self, now):\n"
            "        return now + 1.0\n"
        ),
        "src/repro/util/helpers.py": (
            # Ambient read, but nothing seeded can reach it.
            "import time\n"
            "def wall_clock_tool():\n"
            "    return time.time()\n"
        ),
    }, rules=[ImpureAmbientRead])
    assert findings == []


def test_rpl104_exempts_the_contracts_module():
    findings = lint_project({
        "src/repro/runtime/scenario.py": (
            "from ..contracts import enabled\n"
            "class Scenario:\n"
            "    def run_cluster(self):\n"
            "        return enabled()\n"
        ),
        "src/repro/contracts.py": (
            "import os\n"
            "def enabled():\n"
            "    return os.environ.get('REPRO_CONTRACTS') != 'off'\n"
        ),
    }, rules=[ImpureAmbientRead])
    assert findings == []


# ----------------------------------------------------------------------
# RPL105 — telemetry pairs split by an exception path
# ----------------------------------------------------------------------
PAIR_PREAMBLE = (
    "from ..runtime.telemetry import TelemetryRecord\n"
    "class Started(TelemetryRecord):\n"
    "    pass\n"
    "class Done(TelemetryRecord):\n"
    "    pass\n"
)


def test_rpl105_flags_own_raise_between_paired_emissions():
    findings = lint_project({
        "src/repro/membership/pair.py": PAIR_PREAMBLE + (
            "class Driver:\n"
            "    def __init__(self, sink):\n"
            "        self.sink = sink\n"
            "    def apply(self, n):\n"
            "        if self.sink.enabled:\n"
            "            self.sink.emit(Started(n))\n"
            "        if n < 0:\n"
            "            raise ValueError('rejected after announcing')\n"
            "        if self.sink.enabled:\n"
            "            self.sink.emit(Done(n))\n"
        ),
    }, rules=[TelemetryGap])
    assert ids(findings) == ["RPL105"]
    assert "Done" in findings[0].message


def test_rpl105_flags_raising_validator_called_between_emissions():
    findings = lint_project({
        "src/repro/membership/pair.py": PAIR_PREAMBLE + (
            "class Roster:\n"
            "    def __init__(self):\n"
            "        self.names = []\n"
            "    def commission(self, name):\n"
            "        if name in self.names:\n"
            "            raise ValueError(name)\n"
            "        self.names.append(name)\n"
            "class Driver:\n"
            "    def __init__(self, roster: Roster, sink):\n"
            "        self.roster = roster\n"
            "        self.sink = sink\n"
            "    def apply(self, name):\n"
            "        if self.sink.enabled:\n"
            "            self.sink.emit(Started(name))\n"
            "        self.roster.commission(name)\n"
            "        if self.sink.enabled:\n"
            "            self.sink.emit(Done(name))\n"
        ),
    }, rules=[TelemetryGap])
    assert ids(findings) == ["RPL105"]
    assert "commission" in findings[0].message


def test_rpl105_clean_when_validation_precedes_first_emission():
    findings = lint_project({
        "src/repro/membership/pair.py": PAIR_PREAMBLE + (
            "class Driver:\n"
            "    def __init__(self, sink):\n"
            "        self.sink = sink\n"
            "    def apply(self, n):\n"
            "        if n < 0:\n"
            "            raise ValueError('rejected before announcing')\n"
            "        if self.sink.enabled:\n"
            "            self.sink.emit(Started(n))\n"
            "        if self.sink.enabled:\n"
            "            self.sink.emit(Done(n))\n"
        ),
    }, rules=[TelemetryGap])
    assert findings == []


def test_rpl105_exempts_assertion_raises_and_suppressions():
    base = PAIR_PREAMBLE + (
        "class Driver:\n"
        "    def __init__(self, sink):\n"
        "        self.sink = sink\n"
        "    def apply(self, n):\n"
        "        if self.sink.enabled:\n"
        "            self.sink.emit(Started(n))\n"
        "        if n < 0:\n"
        "            {raise_line}\n"
        "        if self.sink.enabled:\n"
        "            self.sink.emit(Done(n))\n"
    )
    closed_enum = lint_project({
        "src/repro/membership/pair.py": base.format(
            raise_line="raise AssertionError('unreachable')"
        ),
    }, rules=[TelemetryGap])
    assert closed_enum == []
    suppressed = lint_project({
        "src/repro/membership/pair.py": base.format(
            raise_line="raise ValueError(n)  # repro-lint: disable=RPL105"
        ),
    }, rules=[TelemetryGap])
    assert suppressed == []


# ----------------------------------------------------------------------
# RPL106 — protected state written before a reachable raise
# ----------------------------------------------------------------------
BOX_PREAMBLE = (
    "from ..contracts import checks_invariants\n"
    "class Box:\n"
    "    def __init__(self):\n"
    "        self.items = ()\n"
    "        self.capacity = 4\n"
    "    def check_invariants(self):\n"
    "        assert len(self.items) <= self.capacity\n"
    "    def _grow(self):\n"
    "        self.capacity = self.capacity * 2\n"
)


def test_rpl106_flags_direct_write_and_helper_write_before_raise():
    findings = lint_project({
        "src/repro/core/box.py": BOX_PREAMBLE + (
            "    @checks_invariants\n"
            "    def bad_direct(self, item):\n"
            "        self.items = self.items + (item,)\n"
            "        if item is None:\n"
            "            raise ValueError('no item')\n"
            "    @checks_invariants\n"
            "    def bad_helper(self, item):\n"
            "        self._grow()\n"
            "        if item is None:\n"
            "            raise ValueError('no item')\n"
        ),
    }, rules=[MutateThenRaise])
    assert ids(findings) == ["RPL106", "RPL106"]
    messages = " | ".join(f.message for f in findings)
    assert "self.items" in messages
    assert "self._grow()" in messages


def test_rpl106_clean_when_raises_precede_writes():
    findings = lint_project({
        "src/repro/core/box.py": BOX_PREAMBLE + (
            "    @checks_invariants\n"
            "    def good(self, item):\n"
            "        if item is None:\n"
            "            raise ValueError('no item')\n"
            "        self._grow()\n"
            "        self.items = self.items + (item,)\n"
        ),
    }, rules=[MutateThenRaise])
    assert findings == []


def test_rpl106_ignores_undecorated_methods_and_caught_raises():
    findings = lint_project({
        "src/repro/core/box.py": BOX_PREAMBLE + (
            # Undecorated helper: no atomicity promise, not scanned.
            "    def plain(self, item):\n"
            "        self.items = self.items + (item,)\n"
            "        raise ValueError('helper')\n"
            # Raise inside try-with-handler never escapes the mutator.
            "    @checks_invariants\n"
            "    def guarded(self, item):\n"
            "        self._grow()\n"
            "        try:\n"
            "            if item is None:\n"
            "                raise ValueError('no item')\n"
            "        except ValueError:\n"
            "            pass\n"
        ),
    }, rules=[MutateThenRaise])
    assert findings == []
