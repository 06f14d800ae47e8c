"""CLI subcommands, exit codes, and reproducible outputs."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpeps
from gpeps.cli import main
from gpeps.errors import MissingIdentity, MissingInverse, NonAssociative
from gpeps.groups import (
    CHARACTER_TOL,
    HOMOMORPHISM_TOL,
    REGULAR_WEIGHT_TOL,
    TRACE_IDENTITY_TOL,
    UNITARITY_TOL,
    build_group,
)
from gpeps.tensors import REGROUP_TOL


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_verify_group_pass(tmp_path, capsys):
    cfg = _write(tmp_path, "g.json", {"group": "S3", "rep": "regular"})
    code, payload = _run(capsys, ["verify-group", "--config", cfg])
    assert code == 0
    assert payload["report"]["pass"] is True
    assert payload["version"]
    names = {c["name"] for c in payload["report"]["checks"]}
    assert "delta_trace_identity" in names and "regular_iff_delta_identity" in names


def test_verify_group_semi_regular(tmp_path, capsys):
    cfg = _write(
        tmp_path, "g.json",
        {"group": "Z2", "rep": {"multiplicities": {"trivial": 2, "sign": 1}}},
    )
    code, payload = _run(capsys, ["verify-group", "--config", cfg])
    assert code == 0
    assert payload["resolved_config"]["total_dim"] == 3


def test_verify_group_malformed_table_exit_2(tmp_path, capsys):
    doc = {
        "group": {
            "name": "bad",
            "mult_table": [[0, 1, 2], [1, 0, 0], [2, 0, 1]],
            "irreps": [],
        }
    }
    cfg = _write(tmp_path, "bad.json", doc)
    code = main(["verify-group", "--config", cfg])
    capsys.readouterr()
    assert code == 2


def test_verify_appendix(tmp_path, capsys):
    cfg = _write(
        tmp_path, "a.json",
        {"reps": [
            {"group": "Z2"},
            {"group": "Z2", "rep": {"multiplicities": {"trivial": 2, "sign": 1}}},
        ]},
    )
    code, payload = _run(capsys, ["verify-appendix", "--config", cfg])
    assert code == 0
    for entry in payload["report"]["reps"]:
        assert entry["gram_deviation"] <= 1e-10
        assert entry["entry_check"] is True


def test_overlap_command(tmp_path, capsys):
    cfg = _write(
        tmp_path, "o.json",
        {
            "group": "Z2",
            "lattice": {"width": 2, "height": 2},
            "deformations": {"mode": "random", "kappa": 4.0, "seed": 3},
            "step": 0,
        },
    )
    code, payload = _run(capsys, ["overlap", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    assert payload["report"]["margin"] >= 0
    header = (tmp_path / "overlap.csv").read_text().splitlines()[0]
    assert header == "block,d_k,margin"


def test_simulate_outputs_and_determinism(tmp_path, capsys):
    cfg = _write(
        tmp_path, "s.json",
        {
            "group": "Z2",
            "lattice": {"width": 2, "height": 2},
            "deformations": {"mode": "random", "kappa": 2.0, "seed": 21},
            "epsilon": 0.2,
            "m": 8,
            "trials": 20,
            "seed": 5,
        },
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code, payload = _run(capsys, ["simulate", "--config", cfg, "--out", str(out1)])
    assert code == 0
    assert payload["resolved_config"]["m"] == 8
    assert (out1 / "traces.jsonl").exists() and (out1 / "aggregate.csv").exists()
    lines = (out1 / "traces.jsonl").read_text().splitlines()
    assert len(lines) == 20
    first = json.loads(lines[0])
    assert {"success", "steps", "final_fidelity"} <= set(first)
    header = (out1 / "aggregate.csv").read_text().splitlines()[0]
    assert header.split(",") == [
        "step", "m", "empirical_fail", "analytic_fail",
        "bound", "d_min", "kappa", "trials_reached",
    ]
    code2, _ = _run(capsys, ["simulate", "--config", cfg, "--out", str(out2)])
    assert code2 == 0
    assert (out1 / "traces.jsonl").read_bytes() == (out2 / "traces.jsonl").read_bytes()
    assert (out1 / "aggregate.csv").read_bytes() == (out2 / "aggregate.csv").read_bytes()


def test_simulate_threads_match_serial(tmp_path, capsys):
    cfg = _write(
        tmp_path, "s.json",
        {
            "group": "Z2",
            "lattice": {"width": 2, "height": 2},
            "deformations": {"mode": "random", "kappa": 2.0, "seed": 21},
            "epsilon": 0.2,
            "m": 4,
            "trials": 12,
            "seed": 5,
        },
    )
    out1, out2 = tmp_path / "serial", tmp_path / "threads"
    _run(capsys, ["simulate", "--config", cfg, "--out", str(out1)])
    _run(capsys, ["simulate", "--config", cfg, "--out", str(out2), "--threads", "4"])
    assert (out1 / "traces.jsonl").read_bytes() == (out2 / "traces.jsonl").read_bytes()


def test_sweep_command(tmp_path, capsys):
    cfg = _write(
        tmp_path, "w.json",
        {
            "group": "Z2",
            "lattice": {"width": 2, "height": 2},
            "kappas": [1.0, 2.0],
            "instances": 2,
            "seed": 4,
        },
    )
    code, payload = _run(capsys, ["sweep", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    assert payload["report"]["worst_margin"] >= -1e-9
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(rows) == 1 + 4  # header + 2 kappas x 2 instances


def test_seed_override(tmp_path, capsys):
    cfg = _write(
        tmp_path, "s.json",
        {
            "group": "Z2",
            "lattice": {"width": 2, "height": 2},
            "deformations": {"mode": "random", "kappa": 2.0, "seed": 21},
            "epsilon": 0.2,
            "m": 4,
            "trials": 5,
            "seed": 5,
        },
    )
    code, payload = _run(
        capsys, ["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "99"]
    )
    assert code == 0
    assert payload["resolved_config"]["seed"] == 99


def test_resource_cap_exit_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GPEPS_MAX_AMPLITUDES", "1000")
    cfg = _write(tmp_path, "o.json", {"group": "Z3", "lattice": {"width": 2, "height": 2}})
    code = main(["overlap", "--config", cfg, "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 3


@pytest.mark.parametrize("cap", [8192, 32768], ids=["twisted-stack", "projector-pass"])
def test_resource_cap_counts_allocated_stacks_exit_3(tmp_path, capsys, monkeypatch, cap):
    # Z2 2x2: one state has 4096 amplitudes, the four twisted states 16384,
    # and the two-step projector pass adds a normalized copy and two bases
    monkeypatch.setenv("GPEPS_MAX_AMPLITUDES", str(cap))
    cfg = _write(tmp_path, "o.json", {"group": "Z2", "lattice": {"width": 2, "height": 2}})
    code = main(["overlap", "--config", cfg, "--out", str(tmp_path)])
    assert "resource cap" in capsys.readouterr().err
    assert code == 3


def test_sweep_cap_counts_live_stacks_exit_3(tmp_path, capsys, monkeypatch):
    # Z2 2x2: the twisted stack (16384 amplitudes), one ground_projector
    # copy and the bases of P_t and P_{t+1} are live together, 65536 in all;
    # each call alone counts only its own 32768
    monkeypatch.setenv("GPEPS_MAX_AMPLITUDES", "49152")
    cfg = _write(tmp_path, "w.json", {"group": "Z2", "lattice": {"width": 2, "height": 2},
                                      "kappas": [2.0], "instances": 1})
    code = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "needs 65536 amplitudes" in captured.err
    assert captured.err.count("49152") == 1  # the cap is printed once


def test_numerical_failure_exit_4(tmp_path, capsys, monkeypatch):
    # np.linalg.LinAlgError is a ValueError, but a LAPACK routine that does
    # not converge is a bug signal, not a config error
    def eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    cfg = _write(tmp_path, "o.json", {"group": "Z2", "lattice": {"width": 2, "height": 1}})
    code = main(["overlap", "--config", cfg, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "numerical failure" in captured.err


@pytest.mark.parametrize("command", ["verify-group", "verify-appendix"])
def test_tolerances_are_module_constants(tmp_path, capsys, command):
    # a "tolerances" object is not read: the report is the same without it,
    # and every check quotes its module constant
    plain = _write(tmp_path, "plain.json", {"group": "S3"})
    loose = _write(tmp_path, "loose.json", {
        "group": "S3", "tolerances": {"rep_unitarity": 1.0, "gram": 1.0, "x": None},
    })
    assert main([command, "--config", plain]) == 0
    expected = capsys.readouterr().out
    assert main([command, "--config", loose]) == 0
    assert capsys.readouterr().out == expected
    report = json.loads(expected)["report"]
    if command == "verify-group":
        tolerances = {c["name"]: c["tolerance"] for c in report["checks"]}
        assert tolerances == {
            "table_axioms": 0.0,
            "rep_homomorphism": HOMOMORPHISM_TOL,
            "rep_unitarity": UNITARITY_TOL,
            "irrep_completeness": 0.0,
            "irrep_character_norm": CHARACTER_TOL,
            "delta_commutes": HOMOMORPHISM_TOL,
            "delta_trace_identity": TRACE_IDENTITY_TOL,
            "regular_iff_delta_identity": REGULAR_WEIGHT_TOL,
        }
    else:
        assert [r["tolerance"] for r in report["reps"]] == [REGROUP_TOL]


def test_unknown_group_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "g.json", {"group": "Q8"})
    code = main(["verify-group", "--config", cfg])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("doc", [
    {"group": {"name": "x", "irreps": []}},
    {"group": "Z2", "rep": {"multiplicities": {"trivial": 1, "sign": 1, "nope": 1}}},
], ids=["no-mult-table", "unknown-irrep-label"])
def test_verify_group_bad_document_exit_2(tmp_path, capsys, doc):
    code = main(["verify-group", "--config", _write(tmp_path, "g.json", doc)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "config/validation error" in captured.err


def test_missing_config_exit_2(capsys):
    code = main(["verify-group", "--config", "/nonexistent/x.json"])
    capsys.readouterr()
    assert code == 2


# ---------------------------------------------------------------------------
# bad inputs exit 2, before any report is written

BAD_CONFIGS = {
    "missing-deformation-file": (
        "overlap", {"deformations": {"mode": "file", "path": "/nonexistent/defs.json"}}),
    "non-object-deformations": ("simulate", {"deformations": "random"}),
    "overlap-step-below-0": ("overlap", {"step": -1}),
    "overlap-step-past-last": ("overlap", {"step": 2}),
    "sweep-step-below-0": ("sweep", {"step": -1}),
    "sweep-step-past-last": ("sweep", {"step": 2}),
    "empty-kappas": ("sweep", {"kappas": []}),
    "instances-below-1": ("sweep", {"instances": 0}),
    "negative-trials": ("simulate", {"trials": -3}),
    "null-trials": ("simulate", {"trials": None}),
    "null-epsilon": ("simulate", {"epsilon": None}),
    "null-m": ("simulate", {"m": None}),
    "null-seed": ("simulate", {"seed": None}),
    "null-kappa": ("simulate", {"deformations": {"mode": "random", "kappa": None}}),
    "null-kappa-entry": (
        "simulate", {"deformations": {"mode": "random", "kappa": [2.0, None]}}),
    "null-deformation-seed": (
        "simulate", {"deformations": {"mode": "random", "seed": None}}),
    "null-instances": ("sweep", {"instances": None}),
    "infinite-instances": ("sweep", {"instances": float("inf")}),
    "null-kappas-entry": ("sweep", {"kappas": [2.0, None]}),
    "null-sweep-seed": ("sweep", {"seed": None}),
    "null-overlap-step": ("overlap", {"step": None}),
    "null-overlap-seed": ("overlap", {"seed": None}),
    "null-reps-entry": ("verify-appendix", {"reps": [None]}),
    "scalar-reps": ("verify-appendix", {"reps": 5}),
    "string-check-invariants": ("simulate", {"check_invariants": "no"}),
    "integer-check-invariants": ("simulate", {"check_invariants": 1}),
    **{f"array-config-{command}": (command, ["group", "Z2"])
       for command in ("verify-group", "verify-appendix", "overlap", "simulate", "sweep")},
}


@pytest.mark.parametrize("command,doc", BAD_CONFIGS.values(), ids=list(BAD_CONFIGS))
def test_bad_config_exit_2(tmp_path, capsys, command, doc):
    if isinstance(doc, dict):  # a list is the whole document
        doc = {"group": "Z2", "lattice": {"width": 2, "height": 1}, **doc}
    cfg = _write(tmp_path, "bad.json", doc)
    code = main([command, "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("threads", ["0", "1", "3", "64"])
def test_threads_inert_and_echoed_as_1(tmp_path, capsys, threads):
    cfg = _write(tmp_path, "s.json", {"group": "Z2", "lattice": {"width": 2, "height": 1},
                                      "trials": 2, "seed": 3})
    code, payload = _run(
        capsys, ["simulate", "--config", cfg, "--out", str(tmp_path), "--threads", threads]
    )
    assert code == 0
    assert payload["resolved_config"]["threads"] == 1


@pytest.mark.parametrize("argv", [
    ["sweep", "--trials", "3"],
    ["verify-group", "--seed", "1"],
    ["verify-appendix", "--threads", "1"],
    ["overlap", "--trials", "3"],
], ids=lambda argv: "".join(argv[:2]))
def test_flag_of_another_command_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# SHA-256 of the outcome bits of this fixed run, recorded before the
# ground-space pipeline was rewritten; a refactor must replay it exactly.
Z2_SIMULATE_BITS_SHA256 = "51cf3156fb8b383c81a89053ee23cb49530bfb2d83099f9838df5d12955549a1"


def test_simulate_bits_pinned(tmp_path, capsys):
    cfg = _write(
        tmp_path, "s.json",
        {
            "group": "Z2",
            "lattice": {"width": 2, "height": 2},
            "deformations": {"mode": "random", "kappa": 2.0, "seed": 21},
            "epsilon": 0.2,
            "m": 8,
            "trials": 20,
            "seed": 5,
        },
    )
    code, _ = _run(capsys, ["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    traces = [json.loads(line) for line in (tmp_path / "traces.jsonl").read_text().splitlines()]
    bits = [[step["bits"] for step in trace["steps"]] for trace in traces]
    assert hashlib.sha256(json.dumps(bits).encode()).hexdigest() == Z2_SIMULATE_BITS_SHA256


# ---------------------------------------------------------------------------
# random user group documents


@st.composite
def group_documents(draw):
    """User group documents: relabelled cyclic groups, with or without their
    irreps (one of which may lack a key), random, ragged, flat or scalar
    tables with stray entries, and documents with no table."""
    n = draw(st.integers(1, 4))
    entries = st.integers(-1, n) | st.sampled_from([None, 2**64, "x"])
    kind = draw(st.sampled_from(["cyclic", "square", "ragged", "flat", "scalar", "missing"]))
    irreps = None
    if kind == "cyclic":
        label = draw(st.permutations(range(n)))
        table = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                table[label[a]][label[b]] = label[(a + b) % n]
        if draw(st.booleans()):
            phases = np.exp(2j * np.pi * np.outer(range(n), np.argsort(label)) / n)
            irreps = [
                {"label": f"k{k}", "dim": 1,
                 "matrices_re": row.real.reshape(n, 1, 1).tolist(),
                 "matrices_im": row.imag.reshape(n, 1, 1).tolist()}
                for k, row in enumerate(phases)
            ]
            if draw(st.booleans()):
                del irreps[0][draw(st.sampled_from(["dim", "matrices_re"]))]
    elif kind == "square":
        cells = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
        table = draw(st.lists(cells, min_size=n, max_size=n))
    elif kind == "ragged":
        table = draw(st.lists(st.lists(entries, max_size=4), max_size=4))
    elif kind == "flat":
        table = draw(st.lists(entries, max_size=4))
    elif kind == "scalar":
        table = draw(entries)
    else:
        table = None
    if irreps is None and draw(st.booleans()):
        values = st.lists(st.floats(-1.0, 1.0).map(lambda v: [[v]]), min_size=n, max_size=n)
        entry = st.fixed_dictionaries({
            "label": st.sampled_from(["a", "b", "c"]), "dim": st.just(1),
            "matrices_re": values, "matrices_im": values,
        })
        irreps = draw(st.lists(entry | st.integers(), max_size=n) | st.integers())
    doc = {"name": draw(st.sampled_from(["user", "Z2", "S3"]))}
    if kind != "missing":
        doc["mult_table"] = table
    if draw(st.booleans()):
        doc["order"] = draw(st.sampled_from([n, n + 1, None, "x"]))
    if irreps is not None:
        doc["irreps"] = irreps
    return doc


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(group_documents())
def test_random_group_document_validates_or_exits_2(doc):
    try:
        build_group(doc)
        table_valid = True
    except (NonAssociative, MissingIdentity, MissingInverse, ValueError):
        table_valid = False
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"group": doc}, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["verify-group", "--config", path])
    assert code in (0, 2)
    assert table_valid or code == 2


def test_runtime_leaves_scipy_unloaded(tmp_path):
    # scipy is a test dependency only; importing it would add to every run's RSS
    cfg = _write(tmp_path, "s.json", {"group": "Z2", "lattice": {"width": 2, "height": 1},
                                      "trials": 2, "seed": 3})
    script = (
        "import sys\n"
        "from gpeps.cli import main\n"
        f"code = main(['simulate', '--config', {cfg!r}, '--out', {str(tmp_path)!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(gpeps.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 []"
