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
                 "deformations": {"mode": "random", "kappa": 2.0, "seed": 40},
                 "m": 4, "trials": 3, "seed": 1},
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
    for name, original in originals.items():
        assert getattr(cli, name) is original, name
