"""One benchmark run inside a fresh process: repeated passes of a workload
through ``gpeps.cli.main``.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and BLAS threads pinned.
Untraced passes wrap only the calls ``gpeps.cli`` makes that mark item
boundaries: ``run_protocol`` per trial, and ``ground_projector`` /
``jordan_decompose`` per sweep instance.  In a ``--trace 1`` run passes
1, 4, 5, 8, ... are traced as well; the others give the untraced wall time
that the tracing overhead is measured against.

Writes ``record.json`` and ``spans.jsonl`` into ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import_start = time.perf_counter()
import gpeps.cli as cli  # noqa: E402
import_s = time.perf_counter() - import_start

import numpy as np  # noqa: E402  (already loaded by gpeps)
from gpeps import lattice  # noqa: E402

from tracing import Patches, Tracer  # noqa: E402
from workloads import WORKLOADS, Invocation  # noqa: E402


def _argument(fn, name: str):
    signature = inspect.signature(fn)

    def get(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return get


def install_tracer(tracer: Tracer) -> None:
    deformations_of = _argument(lattice.partial_peps_state, "deformations")
    t_of = _argument(lattice.partial_peps_state, "t")

    def site_applications(args, kwargs, result):
        t = t_of(args, kwargs)
        return {"t": len(deformations_of(args, kwargs)) if t is None else int(t)}

    for module, attr, info in [
        ("gpeps.groups", "build_group", None),
        ("gpeps.groups", "regular_rep", None),
        ("gpeps.groups", "semi_regular_rep", None),
        ("gpeps.groups", "load_group_document", None),
        ("gpeps.tensors", "build_site_tensor",
         lambda a, k, r: {"bytes": (r.bond_dim**4) ** 2 * 16}),
        ("gpeps.tensors", "random_deformation", None),
        ("gpeps.tensors", "verify_regroup_equivalence", None),
        ("gpeps.lattice", "contract_isometric_state", None),
        ("gpeps.lattice", "partial_peps_state", site_applications),
        ("gpeps.lattice", "ground_projector", None),
        ("gpeps.lattice", "projector_from_columns", None),
        ("gpeps.spectral", "born_measure", None),
        ("gpeps.spectral", "jordan_decompose", None),
        ("gpeps.protocol", "prepare_protocol", None),
        ("gpeps.protocol", "run_protocol", None),
        ("gpeps.protocol", "aggregate_step_stats", None),
        ("gpeps.cli", "main", None),
    ]:
        tracer.wrap_function(module, attr, f"{module.split('.')[1]}.{attr}", info)
    tracer.wrap_method(lattice.GroundProjector, "coefficients",
                       "lattice.GroundProjector.coefficients",
                       lambda a, k, r: {"bytes": a[0].basis.nbytes})


class ItemTimer:
    """Marks setup end and item boundaries from the calls ``gpeps.cli`` makes."""

    def __init__(self, command: str) -> None:
        self.command = command
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.ranks: list[int] = []
        self._patches = Patches()

    def _timed(self, fn, on_start: bool, on_end: bool, rank: bool = False):
        def timed(*args, **kwargs):
            if on_start:
                self.starts.append(time.perf_counter())
            result = fn(*args, **kwargs)
            if on_end:
                self.ends.append(time.perf_counter())
            if rank:
                self.ranks.append(int(result.rank))
            return result

        return timed

    def install(self) -> None:
        if self.command == "simulate":
            self._patches.set(cli, "run_protocol", self._timed(cli.run_protocol, True, True))
        elif self.command == "sweep":
            self._patches.set(cli, "ground_projector",
                              self._timed(cli.ground_projector, True, False, rank=True))
            self._patches.set(cli, "jordan_decompose",
                              self._timed(cli.jordan_decompose, False, True))

    def uninstall(self) -> None:
        self._patches.restore()

    def setup_end(self) -> float | None:
        return self.starts[0] if self.starts else None

    def items(self) -> list[float]:
        """Trial durations, or sweep instances as consecutive stretches of
        the run: each ends when its Jordan decomposition does."""
        if self.command == "simulate":
            return [end - start for start, end in zip(self.starts, self.ends)]
        bounds = [self.starts[0]] + self.ends if self.starts else []
        return [b - a for a, b in zip(bounds, bounds[1:])]


def run_invocation(inv: Invocation, directory: Path, tracer: Tracer | None) -> dict:
    directory.mkdir(parents=True, exist_ok=True)
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(inv.config, indent=2, sort_keys=True))
    argv = [inv.command, "--config", str(config_path), "--out", str(directory), *inv.flags]
    timer = ItemTimer(inv.command) if inv.timed else None
    if timer is not None:
        timer.install()
    stdout = io.StringIO()
    span = len(tracer.spans) if tracer is not None else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        rc = -1
    end = time.perf_counter()
    if timer is not None:
        timer.uninstall()
    text = stdout.getvalue()
    files = sum(f.stat().st_size for f in directory.iterdir() if f.name != "config.json")
    return {
        "command": inv.command,
        "argv": argv,
        "out_dir": str(directory),
        "rc": rc,
        "start": start,
        "end": end,
        "stdout": text,
        "output_bytes": len(text.encode()) + files,
        "span": span,
        "setup_end": timer.setup_end() if timer else None,
        "items": timer.items() if timer else [],
        "ranks": timer.ranks if timer else [],
    }


def blas_info() -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trial-seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    tracer = Tracer() if args.trace else None
    min_passes = max(workload.min_passes, 5) if args.trace else workload.min_passes
    passes = []
    run_start = time.perf_counter()
    k = 0
    while True:
        # after the cold pass 0, traced and untraced passes alternate in
        # pairs (t u u t t u ...), so that slow drift biases neither side
        traced = tracer is not None and k > 0 and k % 4 in (0, 1)
        if traced:
            tracer.pass_index = k
            install_tracer(tracer)
        plan = workload.make_pass(args.seed, k, args.trial_seed)
        pass_start = time.perf_counter()
        invocations = [
            run_invocation(inv, out / f"pass{k}-{i}", tracer if traced else None)
            for i, inv in enumerate(plan)
        ]
        pass_end = time.perf_counter()
        if traced:
            tracer.uninstall()
        timed = invocations[next(i for i, inv in enumerate(plan) if inv.timed)]
        setup_end = timed["setup_end"]
        passes.append({
            "index": k,
            "traced": traced,
            "start": pass_start,
            "end": pass_end,
            "setup_s": setup_end - timed["start"] if setup_end is not None else None,
            "items": timed["items"],
            "ranks": timed["ranks"],
            "invocations": invocations,
        })
        print(f"pass {k}{' traced' if traced else ''}: {pass_end - pass_start:.3f} s",
              file=sys.stderr, flush=True)
        k += 1
        elapsed = pass_end - run_start
        # the end-to-end latency sample needs enough untraced items
        n_items = sum(len(p["items"]) for p in passes if not p["traced"])
        sampled = tracer is not None or n_items >= workload.sample_items
        if k >= min_passes and sampled and elapsed + (pass_end - pass_start) > args.seconds:
            break

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trial_seed": args.trial_seed,
        "trace": args.trace,
        "import_s": import_s,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "passes": passes,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_info(),
            "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
        },
    }
    (out / "record.json").write_text(json.dumps(record))
    with open(out / "spans.jsonl", "w", encoding="utf-8") as fh:
        for span in tracer.spans if tracer is not None else []:
            fh.write(json.dumps(span.as_dict()) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
