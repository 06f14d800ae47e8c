"""The benchmark in ``perfbench/`` wraps package functions from outside.

This installs its tracer and item timers on the package, runs two small
commands through them and uninstalls them again, so that renaming or
removing a name the benchmark wraps fails here.
"""

import importlib
import json
from pathlib import Path

import pytest

import gpeps.cli as cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

COMMANDS = {
    "simulate": {"group": "Z2", "lattice": {"width": 2, "height": 1},
                 "deformations": {"mode": "random", "kappa": 8.0, "seed": 40},
                 "m": 1, "trials": 3, "seed": 1},  # trial 1 fails
    "sweep": {"group": "Z2", "lattice": {"width": 2, "height": 1},
              "step": 1, "kappas": [2.0], "instances": 1, "seed": 1},
}


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("child"), importlib.import_module("tracing")


def test_benchmark_hooks_install_run_uninstall(perfbench, tmp_path, capsys):
    child, tracing = perfbench
    originals = {name: getattr(cli, name)
                 for name in ("main", "run_protocol", "ground_projector", "jordan_decompose")}
    tracer = tracing.Tracer()
    child.install_tracer(tracer)
    timers = {}
    try:
        for command, doc in COMMANDS.items():
            config = tmp_path / f"{command}.json"
            config.write_text(json.dumps(doc))
            timers[command] = timer = child.ItemTimer(command)
            timer.install()
            try:
                code = cli.main([command, "--config", str(config), "--out", str(tmp_path)])
            finally:
                timer.uninstall()
            assert code == 0, command
    finally:
        tracer.uninstall()
    capsys.readouterr()

    assert len(timers["simulate"].items()) == 3
    assert timers["sweep"].ranks == [4, 4]
    assert len(timers["sweep"].items()) == 1
    names = {span.name for span in tracer.spans}
    assert {
        "tensors.build_site_tensor", "lattice.contract_isometric_state",
        "lattice.ground_projector",
        "lattice.projector_from_columns", "spectral.born_measure",
        "spectral.jordan_decompose", "protocol.prepare_protocol",
        "protocol.run_protocol", "protocol.aggregate_step_stats", "cli.main",
    } <= names
    builds = [s for s in tracer.spans if s.name == "tensors.build_site_tensor"]
    assert len(builds) == 2  # one per command

    # the layer metrics attribute the kernels to their callers by parentage:
    # every Born measurement of a trial sits under its run_protocol, and
    # every projector build inside the preparation; no dense coefficients
    # are read, and only the first failed trial re-contracts the twisted
    # states, for the readout pass
    sweep_main = [s.id for s in tracer.spans if s.name == "cli.main"][1]
    simulate = [s for s in tracer.spans if s.id < sweep_main]
    by_id = {s.id: s for s in tracer.spans}
    parent_name = {s.id: by_id[s.parent].name for s in simulate if s.parent is not None}
    traces = [json.loads(line) for line in (tmp_path / "traces.jsonl").read_text().splitlines()]
    runs = [s for s in simulate if s.name == "protocol.run_protocol"]
    assert [s.trial for s in runs] == [t["trial"] for t in traces] == [0, 1, 2]
    measures = [s for s in simulate if s.name == "spectral.born_measure"]
    assert all(parent_name[s.id] == "protocol.run_protocol" for s in measures)
    for run, trace in zip(runs, traces):
        under_run = [s for s in measures if s.parent == run.id]
        assert len(under_run) == trace["total_measurements"] > 0
    failed = {t["trial"] for t in traces if not t["success"]}
    assert failed and len(failed) < len(traces)  # both readouts
    assert not [s for s in simulate if s.name == "lattice.GroundProjector.coefficients"]
    contractions = [s for s in simulate if s.name == "lattice.contract_isometric_state"]
    in_trials = [s for s in contractions if s.trial is not None]
    assert len(in_trials) == len(contractions) // 2 == 4  # one per commuting pair of Z2
    assert all(parent_name[s.id] == "protocol.run_protocol" for s in in_trials)
    assert {s.trial for s in in_trials} == {min(failed)}
    builds = [s for s in simulate if s.name == "lattice.projector_from_columns"]
    assert len(builds) == 3  # P_0, P_1, P_2 on the 2x1 torus
    assert all(parent_name[s.id] == "protocol.prepare_protocol" for s in builds)
    for name, original in originals.items():
        assert getattr(cli, name) is original, name
