"""The one placement-policy registry behind the figure runner and the sweep.

A policy name must mean the same policy, with the same granted knowledge,
whichever front end builds it: :func:`repro.experiments.runner.run_policy`
and a sweep cell both go through :mod:`repro.placement.registry`.
"""

import pytest

from repro import ClusterConfig, paper_servers
from repro.experiments import runner
from repro.placement.registry import available_policies, make_policy
from repro.sweep.cli import main as sweep_main
from repro.sweep.grid import Cell
from repro.sweep.worker import _scenario_for, run_cell

#: The sweep's quick cell size.
QUICK = {"n_filesets": 12, "n_requests": 60, "duration": 120.0,
         "tuning_interval": 30.0}

GRANTED = ("prescient", "two-choice-weighted", "consistent-hash-weighted")


def _run_policy_built(name, trace, tuning_interval, monkeypatch):
    """The policy ``run_policy`` builds, captured instead of run."""
    built = []

    class Capture:
        def __init__(self, cluster, policy, trace, faults, telemetry=None):
            built.append(policy)

        def run(self):
            return None

    monkeypatch.setattr(runner, "ClusterSimulation", Capture)
    cluster = ClusterConfig(
        servers=tuple(paper_servers()), tuning_interval=tuning_interval
    )
    runner.run_policy(name, trace, cluster)
    return built[0]


@pytest.mark.parametrize("name", GRANTED)
def test_runner_and_sweep_grant_identical_state(name, monkeypatch):
    scenario = _scenario_for(4, {"policy": name, **QUICK})
    from_sweep = scenario.policy()
    from_runner = _run_policy_built(
        name, scenario.trace, QUICK["tuning_interval"], monkeypatch
    )
    assert type(from_runner) is type(from_sweep)
    assert vars(from_runner) == vars(from_sweep)


@pytest.mark.parametrize("name", GRANTED)
def test_granted_policies_need_their_knowledge(name):
    with pytest.raises(ValueError, match=name):
        make_policy(name)


def test_prescient_needs_demand_as_well_as_speeds():
    speeds = {s.name: s.speed for s in paper_servers()}
    with pytest.raises(ValueError, match="horizon"):
        make_policy("prescient", speeds=speeds)


@pytest.mark.parametrize("name", available_policies())
def test_every_registered_policy_runs_a_sweep_cell(name):
    payload = Cell.build(seed=1, params={"policy": name, **QUICK}).payload()
    row = run_cell(payload)
    summary = row["summary"]
    assert sum(summary["completed"].values()) == summary["total_requests"]
    assert row["digest"]


@pytest.mark.parametrize(
    "params, known",
    [
        ({"policy": "quantum"}, ", ".join(available_policies())),
        ({"policy": "anu", "router": "psychic"}, "jsq2"),
    ],
    ids=["policy", "router"],
)
def test_sweep_cell_rejects_unknown_names(params, known):
    payload = Cell.build(seed=0, params={**params, **QUICK}).payload()
    with pytest.raises(ValueError, match="known:") as excinfo:
        run_cell(payload)
    assert known in str(excinfo.value)


def test_sweep_cli_reads_the_registry(capsys, tmp_path):
    assert sweep_main(["--list-policies"]) == 0
    assert capsys.readouterr().out.split() == available_policies()
    with pytest.raises(SystemExit) as excinfo:
        sweep_main(["--out", str(tmp_path), "--policies", "anu,random"])
    assert excinfo.value.code == 2
    assert "unknown policies: random" in capsys.readouterr().err
