"""Machine-readable linter output: ``--format json`` and ``--format sarif``.

The SARIF document is validated against a vendored subset of the OASIS
SARIF 2.1.0 schema (``tests/data/sarif-2.1.0-subset-schema.json``) —
every constraint in the subset is also a constraint of the full schema,
so a pass here is necessary for GitHub code-scanning ingestion.  The
``jsonschema`` validator is an environment tool, not a project
dependency; the schema tests skip cleanly where it is absent.
"""

import json
import pathlib

import pytest

from repro.lint import lint_source
from repro.lint.cli import main
from repro.lint.output import to_json, to_sarif

SCHEMA_PATH = (
    pathlib.Path(__file__).parent / "data" / "sarif-2.1.0-subset-schema.json"
)

#: Source with two deterministic findings (RPL002 unseeded default_rng is
#: per-file and fires without any project context).
DIRTY = "import numpy as np\ngen = np.random.default_rng()\n"


def dirty_findings():
    findings = lint_source(DIRTY, path="src/repro/example.py")
    assert findings, "fixture no longer triggers any rule"
    return findings


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------
def test_json_roundtrip_carries_every_field():
    findings = dirty_findings()
    rows = json.loads(to_json(findings))
    assert len(rows) == len(findings)
    for row, diag in zip(rows, findings):
        assert row["path"] == diag.path
        assert row["line"] == diag.line
        assert row["col"] == diag.col
        assert row["rule_id"] == diag.rule_id
        assert row["message"] == diag.message


def test_json_of_clean_run_is_empty_array():
    assert json.loads(to_json([])) == []


# ----------------------------------------------------------------------
# SARIF
# ----------------------------------------------------------------------
def test_sarif_structure():
    document = json.loads(to_sarif(dirty_findings()))
    assert document["version"] == "2.1.0"
    (run,) = document["runs"]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {res["ruleId"] for res in run["results"]} <= rule_ids
    for result in run["results"]:
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1
        assert region["startColumn"] >= 1  # SARIF columns are 1-based


def test_sarif_validates_against_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
    document = json.loads(to_sarif(dirty_findings()))
    jsonschema.validate(document, schema)


def test_sarif_of_clean_run_validates_too():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
    document = json.loads(to_sarif([]))
    jsonschema.validate(document, schema)
    assert document["runs"][0]["results"] == []


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
def test_cli_format_sarif(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(DIRTY, encoding="utf-8")
    code = main(["--format", "sarif", str(tmp_path)])
    assert code == 1
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == "2.1.0"
    assert document["runs"][0]["results"]


def test_cli_format_json_clean_exit_zero(tmp_path, capsys):
    clean = tmp_path / "ok.py"
    clean.write_text("x = 1\n", encoding="utf-8")
    code = main(["--format", "json", str(clean)])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == []
