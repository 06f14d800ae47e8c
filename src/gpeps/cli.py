"""Experiment runner: every verification is a subcommand with a JSON
config, a fully resolved config echo, and machine-readable outputs.

Exit codes: 0 all checks pass, 2 config/validation error, 3 resource cap
exceeded, 4 a proven bound failed numerically or a LAPACK routine did not
converge (bug signals).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Mapping

import numpy as np

from . import __version__
from .caps import check_amplitudes
from .errors import BoundViolation, ConfigError, DimensionOverflow, GPepsError
from .groups import (
    CHARACTER_TOL,
    HOMOMORPHISM_TOL,
    REGULAR_WEIGHT_TOL,
    TRACE_IDENTITY_TOL,
    UNITARITY_TOL,
    build_group,
    commutation_deviation,
    delta_map,
    load_group_document,
    regular_rep,
    rep_deviations,
    semi_regular_rep,
    trace_identity_deviation,
)
from .lattice import TorusLattice, ground_projector, ground_projectors, twisted_states
from .protocol import (
    ProtocolConfig,
    aggregate_step_stats,
    prepare_protocol,
    run_protocol,
    trace_to_dict,
)
from .spectral import BOUND_SLACK, jordan_decompose, spectrum_csv_rows, verify_overlap_bound
from .tensors import (
    REGROUP_TOL,
    build_site_tensor,
    condition_number_on_symmetric,
    deformation_from_dict,
    identity_deformation,
    random_deformation,
    verify_regroup_equivalence,
)

EXIT_PASS = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_BOUND = 4


def _load_config(path: str | None, command: str) -> Mapping:
    """The config object, with a top-level key that ``command`` does not
    read reported as a config error (a misspelt key would silently take
    its default)."""
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    cfg = _object(cfg, "config")
    _known_keys(cfg, _CONFIG_KEYS[command], command)
    return cfg


def _object(value, name: str) -> Mapping:
    """A JSON object, with any other value reported as a config error."""
    if not isinstance(value, Mapping):
        raise ConfigError(f"{name} must be an object, got {value!r}")
    return value


def _known_keys(spec: Mapping, keys: set[str], name: str) -> None:
    """Report a key of ``spec`` outside ``keys`` as a config error."""
    unknown = sorted(set(spec) - keys)
    if unknown:
        raise ConfigError(f"{name} reads only {sorted(keys)}, not {unknown}")


def _scalar(value, kind: type, name: str):
    """``kind(value)``, with a value of the wrong type reported as a config error."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}") from exc


def _resolve_seed(cfg: Mapping, args) -> int:
    return _scalar(args.seed if args.seed is not None else cfg.get("seed", 0), int, "seed")


def _resolve_group_rep(cfg: Mapping):
    spec = cfg.get("group", "Z2")
    rep_spec = cfg.get("rep", "regular")
    if isinstance(spec, Mapping):
        group, supplied = load_group_document(spec)
    else:
        group, supplied = build_group(str(spec)), None
    if rep_spec == "regular":
        rep = regular_rep(group, supplied)
    elif isinstance(rep_spec, Mapping) and "multiplicities" in rep_spec:
        rep = semi_regular_rep(group, rep_spec["multiplicities"], supplied)
    else:
        raise ConfigError(f"rep must be 'regular' or {{'multiplicities': ...}}, got {rep_spec!r}")
    return group, rep


def _resolve_lattice(cfg: Mapping) -> TorusLattice:
    lat = _object(cfg.get("lattice", {"width": 2, "height": 2}), "lattice")
    _known_keys(lat, {"width", "height"}, "lattice")
    try:
        return TorusLattice.build(int(lat["width"]), int(lat["height"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad lattice spec {lat!r}: {exc}") from exc


def _resolve_step(cfg: Mapping, lattice: TorusLattice) -> int:
    step = _scalar(cfg.get("step", 0), int, "step")
    if not 0 <= step < lattice.n_vertices:
        raise ConfigError(f"step must lie in [0, {lattice.n_vertices - 1}], got {step}")
    return step


def _resolve_deformations(cfg: Mapping, tensor, n_vertices: int, seed: int):
    spec = cfg.get("deformations", {"mode": "identity"})
    if not isinstance(spec, Mapping):
        raise ConfigError(f"deformations must be an object with a 'mode', got {spec!r}")
    mode = spec.get("mode", "identity")
    if mode in _DEFORMATION_KEYS:
        _known_keys(spec, _DEFORMATION_KEYS[mode], f"deformations mode {mode!r}")
    if mode == "identity":
        return [identity_deformation(tensor, site=v) for v in range(n_vertices)]
    if mode == "random":
        kappa = spec.get("kappa", 2.0)
        kappas = list(kappa) if isinstance(kappa, (list, tuple)) else [kappa] * n_vertices
        if len(kappas) != n_vertices:
            raise ConfigError(f"need {n_vertices} kappa values, got {len(kappas)}")
        kappas = [_scalar(k, float, "kappa") for k in kappas]
        base = _scalar(spec.get("seed", seed), int, "deformations seed")
        return [
            random_deformation(tensor, kappas[v], seed=base + v, site=v)
            for v in range(n_vertices)
        ]
    if mode == "file":
        path = spec.get("path")
        if not path:
            raise ConfigError("deformations mode 'file' needs a 'path'")
        try:
            with open(path, encoding="utf-8") as fh:
                defs = [deformation_from_dict(doc) for doc in json.load(fh)]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot read deformations {path!r}: {exc}") from exc
        if len(defs) != n_vertices:
            raise ConfigError(f"file holds {len(defs)} deformations, need {n_vertices}")
        return defs
    raise ConfigError(f"unknown deformations mode {mode!r}")


def _echo(command: str, resolved: dict, report: dict) -> None:
    payload = {
        "command": command,
        "version": __version__,
        "resolved_config": resolved,
        "report": report,
    }
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _write_csv(path: Path, rows: list[dict]) -> None:
    if not rows:
        path.write_text("")
        return
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify_group(cfg: dict, args) -> int:
    group, rep = _resolve_group_rep(cfg)
    irs = [block[0] for block in rep.blocks]
    delta = delta_map(rep)

    hom_dev, uni_dev = rep_deviations(group, rep.matrices)
    completeness = sum(ir.dim**2 for ir in irs)
    char_dev = float(
        max(abs(np.sum(np.abs(ir.characters) ** 2) - group.order) for ir in irs)
    )
    comm_dev = commutation_deviation(delta)
    trace_dev = trace_identity_deviation(delta)
    weight_dev = float(np.abs(delta.weights - 1.0).max())
    regular_consistent = rep.is_regular == delta.is_identity

    def check(name, deviation, tol, passed=None):
        if passed is None:
            passed = deviation <= tol
        return {"name": name, "deviation": deviation, "tolerance": tol, "pass": bool(passed)}

    checks = [
        check("table_axioms", 0.0, 0.0, passed=True),
        check("rep_homomorphism", hom_dev, HOMOMORPHISM_TOL),
        check("rep_unitarity", uni_dev, UNITARITY_TOL),
        check("irrep_completeness", float(abs(completeness - group.order)), 0.0,
              passed=completeness == group.order),
        check("irrep_character_norm", char_dev, CHARACTER_TOL),
        check("delta_commutes", comm_dev, HOMOMORPHISM_TOL),
        check("delta_trace_identity", trace_dev, TRACE_IDENTITY_TOL),
        check("regular_iff_delta_identity", weight_dev if rep.is_regular else 0.0,
              REGULAR_WEIGHT_TOL, passed=regular_consistent),
    ]
    ok = all(c["pass"] for c in checks)
    resolved = {
        "group": group.name,
        "rep": {"multiplicities": rep.multiplicities()},
        "total_dim": rep.total_dim,
    }
    _echo("verify-group", resolved, {"checks": checks, "pass": ok})
    return EXIT_PASS if ok else EXIT_BOUND


def cmd_verify_appendix(cfg: dict, args) -> int:
    entries = cfg.get("reps")
    if entries is None:
        entries = [{k: cfg[k] for k in ("group", "rep") if k in cfg}]
    if not isinstance(entries, list):
        raise ConfigError(f"reps must be a list of objects, got {entries!r}")
    results = []
    ok = True
    for entry in entries:
        group, rep = _resolve_group_rep(_object(entry, "reps entry"))
        report = verify_regroup_equivalence(rep)
        passed = report.gram_deviation <= REGROUP_TOL and report.entry_check
        ok = ok and passed
        results.append(
            {
                "group": group.name,
                "multiplicities": rep.multiplicities(),
                "gram_deviation": report.gram_deviation,
                "entry_check": report.entry_check,
                "entry_deviation": report.entry_deviation,
                "b_decomposition_deviation": report.b_decomposition_deviation,
                "explicit_gram_deviation": report.explicit_gram_deviation,
                "tolerance": REGROUP_TOL,
                "pass": passed,
            }
        )
    resolved = {"reps": [{"group": r["group"], "multiplicities": r["multiplicities"]} for r in results]}
    _echo("verify-appendix", resolved, {"reps": results, "pass": ok})
    return EXIT_PASS if ok else EXIT_BOUND


def cmd_overlap(cfg: dict, args) -> int:
    group, rep = _resolve_group_rep(cfg)
    lattice = _resolve_lattice(cfg)
    seed = _resolve_seed(cfg, args)
    step = _resolve_step(cfg, lattice)
    tensor = build_site_tensor(rep)
    deformations = _resolve_deformations(cfg, tensor, lattice.n_vertices, seed)

    p_t, p_next = ground_projectors(
        lattice, twisted_states(lattice, tensor), deformations, (step, step + 1)
    )
    spectrum = jordan_decompose(p_t, p_next)
    # recomputed, as in prepare_protocol: a deformation file's kappa_sym is not trusted
    kappa = condition_number_on_symmetric(deformations[step], tensor)
    report = verify_overlap_bound(spectrum, kappa)  # raises BoundViolation on failure

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "overlap.csv", spectrum_csv_rows(spectrum, kappa))
    resolved = {
        "group": group.name,
        "rep": {"multiplicities": rep.multiplicities()},
        "lattice": {"width": lattice.width, "height": lattice.height},
        "step": step,
        "seed": seed,
        "deformations": cfg.get("deformations", {"mode": "identity"}),
    }
    _echo("overlap", resolved, {
        "d_min": report.d_min,
        "kappa": report.kappa,
        "bound": report.bound,
        "margin": report.margin,
        "slack": BOUND_SLACK,
        "ranks": [p_t.rank, p_next.rank],
        "csv": str(out / "overlap.csv"),
        "pass": report.passed,
    })
    return EXIT_PASS


def cmd_simulate(cfg: dict, args) -> int:
    group, rep = _resolve_group_rep(cfg)
    lattice = _resolve_lattice(cfg)
    seed = _resolve_seed(cfg, args)
    trials = args.trials if args.trials is not None else cfg.get("trials", 100)
    trials = _scalar(trials, int, "trials")
    if trials < 0:
        raise ConfigError(f"trials must be >= 0, got {trials}")
    epsilon = _scalar(cfg.get("epsilon", 0.1), float, "epsilon")
    m_policy = cfg.get("m", "auto")
    if m_policy != "auto":
        m_policy = _scalar(m_policy, int, "m")
    check_invariants = cfg.get("check_invariants", False)
    if not isinstance(check_invariants, bool):
        raise ConfigError(f"check_invariants must be true or false, got {check_invariants!r}")
    tensor = build_site_tensor(rep)
    deformations = _resolve_deformations(cfg, tensor, lattice.n_vertices, seed)

    config = ProtocolConfig(
        lattice=lattice,
        tensor=tensor,
        deformations=tuple(deformations),
        epsilon=epsilon,
        m_policy=m_policy,
        seed=seed,
        check_invariants=check_invariants,
    )
    prepared = prepare_protocol(config)
    traces = [run_protocol(prepared, trial=k) for k in range(trials)]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "traces.jsonl").open("w", encoding="utf-8") as fh:
        for trace in traces:
            fh.write(json.dumps(trace_to_dict(trace), sort_keys=True) + "\n")
    _write_csv(out / "aggregate.csv", aggregate_step_stats(prepared, traces))

    n_success = sum(tr.success for tr in traces)
    resolved = {
        "group": group.name,
        "rep": {"multiplicities": rep.multiplicities()},
        "lattice": {"width": lattice.width, "height": lattice.height},
        "deformations": cfg.get("deformations", {"mode": "identity"}),
        "epsilon": epsilon,
        "m": prepared.m,
        "seed": seed,
        "trials": trials,
        "threads": 1,  # --threads is accepted but trials always run serially
    }
    _echo("simulate", resolved, {
        "success_fraction": n_success / trials if trials else 0.0,
        "target": 1.0 - epsilon,
        "kappa_max": prepared.kappa_max,
        "traces": str(out / "traces.jsonl"),
        "aggregate": str(out / "aggregate.csv"),
        "pass": True,
    })
    return EXIT_PASS


def cmd_sweep(cfg: dict, args) -> int:
    group, rep = _resolve_group_rep(cfg)
    lattice = _resolve_lattice(cfg)
    seed = _resolve_seed(cfg, args)
    step = _resolve_step(cfg, lattice)
    kappas = cfg.get("kappas", [1.0, 2.0, 4.0, 8.0])
    if not isinstance(kappas, list) or not kappas:
        raise ConfigError(f"kappas must be a non-empty list, got {kappas!r}")
    kappas = [_scalar(kappa, float, "kappas") for kappa in kappas]
    instances = _scalar(cfg.get("instances", 3), int, "instances")
    if instances < 1:
        raise ConfigError(f"instances must be >= 1, got {instances}")
    tensor = build_site_tensor(rep)
    twisted = twisted_states(lattice, tensor)
    # live at once: the twisted stack and the copies that P_t and P_{t+1} hold
    check_amplitudes(3 * twisted.size, "sweep (twisted stack and two projector copies)")
    rows = []
    worst = np.inf
    for kappa in kappas:
        for inst in range(instances):
            inst_seed = seed + 1000 * inst
            deformations = [
                random_deformation(tensor, kappa, seed=inst_seed + v, site=v)
                for v in range(lattice.n_vertices)
            ]
            # the projectors are freed with their copies once compared
            spectrum = jordan_decompose(
                ground_projector(lattice, twisted, deformations, step),
                ground_projector(lattice, twisted, deformations, step + 1),
            )
            realized = deformations[step].kappa_sym
            margin = spectrum.d_min - realized**-2
            worst = min(worst, margin)
            rows.append(
                {
                    "kappa_target": kappa,
                    "kappa": realized,
                    "seed": inst_seed,
                    "d_min": spectrum.d_min,
                    "bound": realized**-2,
                    "margin": margin,
                }
            )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "sweep.csv", rows)
    ok = worst >= -BOUND_SLACK
    resolved = {
        "group": group.name,
        "rep": {"multiplicities": rep.multiplicities()},
        "lattice": {"width": lattice.width, "height": lattice.height},
        "step": step,
        "kappas": kappas,
        "instances": instances,
        "seed": seed,
    }
    _echo("sweep", resolved, {
        "rows": len(rows),
        "worst_margin": float(worst),
        "csv": str(out / "sweep.csv"),
        "pass": bool(ok),
    })
    if not ok:
        raise BoundViolation(f"worst margin {worst:.3e} below -{BOUND_SLACK}")
    return EXIT_PASS


# ---------------------------------------------------------------------------


_FLAGS = {
    "seed": {"type": int, "default": None, "help": "override config seed"},
    "trials": {"type": int, "default": None, "help": "override config trials"},
    "threads": {"type": int, "default": 1, "help": "no effect: trials run serially"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpeps",
        description="Verification suite for measurement-driven preparation of "
        "group-symmetric tensor-network states.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, flags in [
        ("verify-group", "group, representation and re-weighting identities", ()),
        ("verify-appendix", "regrouping equivalence of semi-regular constructions", ()),
        ("overlap", "principal overlaps of consecutive ground spaces vs kappa^-2", ("seed",)),
        ("simulate", "Monte Carlo runs of the measure/rewind protocol",
         ("seed", "trials", "threads")),
        ("sweep", "d_min vs kappa^-2 margin across condition numbers", ("seed",)),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--out", default=".", help="output directory")
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


_GROUP_KEYS = {"group", "rep"}
# the top-level config keys each command reads
_CONFIG_KEYS = {
    "verify-group": _GROUP_KEYS,
    "verify-appendix": _GROUP_KEYS | {"reps"},
    "overlap": _GROUP_KEYS | {"lattice", "seed", "step", "deformations"},
    "simulate": _GROUP_KEYS | {
        "lattice", "seed", "trials", "epsilon", "m", "check_invariants", "deformations",
    },
    "sweep": _GROUP_KEYS | {"lattice", "seed", "step", "kappas", "instances"},
}

# the keys of each deformations mode
_DEFORMATION_KEYS = {
    "identity": {"mode"},
    "random": {"mode", "kappa", "seed"},
    "file": {"mode", "path"},
}

_HANDLERS = {
    "verify-group": cmd_verify_group,
    "verify-appendix": cmd_verify_appendix,
    "overlap": cmd_overlap,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config, args.command)
        return _HANDLERS[args.command](cfg, args)
    except BoundViolation as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except DimensionOverflow as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except np.linalg.LinAlgError as exc:  # a ValueError, but never the config's fault
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (ConfigError, GPepsError, ValueError) as exc:
        print(f"config/validation error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
