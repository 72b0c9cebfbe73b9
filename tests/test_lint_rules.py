"""Per-rule fixtures for ``repro-lint``: each rule fires on a known-bad
snippet and stays silent on the matching good one.

Fixtures are linted in-memory via :func:`repro.lint.lint_source` with a
synthetic path, because most rules scope themselves by repository layer
(production code vs tests, ``repro.core`` vs elsewhere, the ``sim/rng.py``
exemption).  The scoping itself is part of what is tested.
"""

import textwrap

import pytest

from repro.lint import REGISTRY, all_rules, lint_source
from repro.lint.cli import main

SRC = "src/repro/example.py"
CORE = "src/repro/core/example.py"
TEST = "tests/test_example.py"
RNG = "src/repro/sim/rng.py"


def ids(source: str, path: str = SRC) -> list[str]:
    """Rule IDs firing on ``source`` linted as if it lived at ``path``."""
    return [d.rule_id for d in lint_source(textwrap.dedent(source), path=path)]


# ----------------------------------------------------------------------
# Registry shape
# ----------------------------------------------------------------------
def test_registry_has_at_least_seven_documented_rules():
    rules = list(REGISTRY.values())
    assert len(rules) >= 7
    for rule in rules:
        assert rule.id.startswith("RPL") and len(rule.id) == 6
        assert rule.title
        assert rule.hint
        assert (rule.__doc__ or "").strip(), f"{rule.id} undocumented"


def test_rule_ids_are_unique_and_sorted():
    listed = [rule.id for rule in all_rules()]
    assert listed == sorted(set(listed))


# ----------------------------------------------------------------------
# RPL002 — np.random outside StreamFactory
# ----------------------------------------------------------------------
def test_rpl002_fires_on_default_rng_and_legacy_api():
    assert "RPL002" in ids(
        "import numpy as np\nrng = np.random.default_rng(0)\n"
    )
    assert "RPL002" in ids("import numpy as np\nx = np.random.random()\n")
    assert "RPL002" in ids(
        "import numpy\nrng = numpy.random.Generator(numpy.random.PCG64(1))\n"
    )


def test_rpl002_silent_on_streams_annotations_and_rng_module():
    good = """
        import numpy as np

        def sample(rng: np.random.Generator) -> float:
            return float(rng.exponential(1.0))
    """
    assert "RPL002" not in ids(good)  # annotation is not a call
    assert "RPL002" not in ids(
        "import numpy as np\nrng = np.random.default_rng(0)\n", path=RNG
    )


# ----------------------------------------------------------------------
# RPL004 — float equality
# ----------------------------------------------------------------------
def test_rpl004_fires_on_float_literal_cast_and_division():
    assert "RPL004" in ids("ok = x == 0.5\n")
    assert "RPL004" in ids("ok = x != float(y)\n")
    assert "RPL004" in ids("ok = a / b == c\n")


def test_rpl004_allows_sentinels_inequalities_and_tests():
    assert "RPL004" not in ids("ok = fraction == 1.0\n")
    assert "RPL004" not in ids("ok = x == 0\n")
    assert "RPL004" not in ids("ok = x <= 0.5\n")
    assert "RPL004" not in ids("assert share == 0.25\n", path=TEST)


# ----------------------------------------------------------------------
# RPL005 — int() of true division
# ----------------------------------------------------------------------
def test_rpl005_fires_on_int_of_division():
    assert "RPL005" in ids("idx = int(tick / psize)\n")
    assert "RPL005" in ids("idx = int(tick / psize)\n", path=TEST)


def test_rpl005_silent_on_floor_division():
    assert "RPL005" not in ids("idx = tick // psize\n")
    assert "RPL005" not in ids("idx = int(x)\n")


# ----------------------------------------------------------------------
# RPL006 — float cast on ticks (core only)
# ----------------------------------------------------------------------
def test_rpl006_fires_on_tick_cast_in_core():
    assert "RPL006" in ids("x = float(ticks)\n", path=CORE)
    assert "RPL006" in ids("x = float(self.partition_ticks)\n", path=CORE)
    assert "RPL006" in ids("x = float(RESOLUTION)\n", path=CORE)


def test_rpl006_scoped_to_core():
    assert "RPL006" not in ids("x = float(ticks)\n")  # not in core/
    assert "RPL006" not in ids("x = float(mean)\n", path=CORE)


# ----------------------------------------------------------------------
# RPL007 — mutable default argument
# ----------------------------------------------------------------------
def test_rpl007_fires_on_mutable_defaults():
    assert "RPL007" in ids("def f(buffer=[]):\n    return buffer\n")
    assert "RPL007" in ids("def f(*, cache={}):\n    return cache\n")
    assert "RPL007" in ids("def f(seen=set()):\n    return seen\n")


def test_rpl007_silent_on_safe_defaults():
    assert "RPL007" not in ids("def f(buffer=None):\n    return buffer or []\n")
    assert "RPL007" not in ids("def f(names=()):\n    return names\n")


# ----------------------------------------------------------------------
# RPL008 — bare except
# ----------------------------------------------------------------------
def test_rpl008_fires_on_bare_except():
    bad = """
        try:
            work()
        except:
            pass
    """
    assert "RPL008" in ids(bad)


def test_rpl008_silent_on_typed_except():
    good = """
        try:
            work()
        except ValueError:
            pass
    """
    assert "RPL008" not in ids(good)


# ----------------------------------------------------------------------
# RPL009 — global statements
# ----------------------------------------------------------------------
def test_rpl009_fires_in_package_only():
    bad = "COUNT = 0\n\ndef bump():\n    global COUNT\n    COUNT += 1\n"
    assert "RPL009" in ids(bad)
    assert "RPL009" not in ids(bad, path=TEST)


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_line_suppression_silences_one_line():
    src = (
        "a = int(x / y)  # repro-lint: disable=RPL005\n"
        "b = int(x / y)\n"
    )
    found = ids(src)
    assert found.count("RPL005") == 1


def test_file_suppression_and_disable_all():
    src = "# repro-lint: disable-file=RPL005\na = int(x / y)\nb = int(x / y)\n"
    assert "RPL005" not in ids(src)
    assert ids("a = int(x / y)  # repro-lint: disable=all\n") == []


def test_suppression_is_rule_specific():
    src = "def f(xs=[]):\n    return int(a / b)  # repro-lint: disable=RPL005\n"
    found = ids(src)
    assert "RPL005" not in found
    assert "RPL007" in found


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert [line.split()[0] for line in lines] == [
        "RPL002", "RPL004", "RPL005", "RPL006", "RPL007", "RPL008",
        "RPL009",
    ]


def test_cli_explain(capsys):
    assert main(["--explain", "rpl002"]) == 0
    out = capsys.readouterr().out
    assert "RPL002" in out and "autofix hint" in out
    assert main(["--explain", "RPL999"]) == 2


def test_cli_exit_codes_on_files(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(xs=[]):\n    return xs\n")
    good = tmp_path / "good.py"
    good.write_text("def f(xs=None):\n    return xs or []\n")
    assert main([str(bad)]) == 1
    assert "RPL007" in capsys.readouterr().out
    assert main([str(good)]) == 0


def test_cli_select_restricts_rules(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(xs=[]):\n    try:\n        pass\n    except:\n        pass\n")
    assert main([str(bad), "--select", "RPL008"]) == 1
    out = capsys.readouterr().out
    assert "RPL008" in out and "RPL007" not in out
    assert main(["--select", "NOPE", str(bad)]) == 2


def test_cli_reports_syntax_error(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    assert main([str(broken)]) == 2


@pytest.mark.parametrize("rule_id", sorted(REGISTRY))
def test_every_rule_reachable_via_select(rule_id, tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main([str(clean), "--select", rule_id]) == 0
