"""gpeps benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload z3-trials --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workload runs in one fresh child
process (``child.py``) against ``src/`` with BLAS pinned to one thread.
The outputs of every pass are checked here, independently of the gpeps
package.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where the metrics are
the end-to-end ones with ``--trace 0`` and the per-layer ones with
``--trace 1``.  ``--workload all`` runs every workload in turn and prefixes
each metric with its workload.  ``attempted`` counts CLI invocations plus
output checks and ``failed`` those that failed, so the error fraction is
``failed / attempted``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, end_to_end, per_layer
from workloads import TRIAL_SEED, WORKLOADS, read_traces

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
CHILD_TIMEOUT_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"  # steadier than two on a shared two-core machine; at most nproc


def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def run_child(root: Path, workload: str, seed: int, seconds: float, trace: int,
              trial_seed: int) -> tuple[dict, list[dict]] | None:
    out = root / OUT_DIR / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({var: BLAS_THREADS for var in BLAS_THREAD_VARS})
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--trial-seed", str(trial_seed), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.DEVNULL,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() kills the child and waits for it
        print(f"{workload}: child exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{workload}: child exited {proc.returncode}", file=sys.stderr)
        return None
    record = json.loads((out / "record.json").read_text())
    with open(out / "spans.jsonl", encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    return record, spans


def check_outputs(workload, record: dict, reference: dict) -> list[tuple[str, bool, str]]:
    results = []
    for p in record["passes"]:
        try:
            checks = workload.check_pass(p["invocations"], p["ranks"], reference)
        except (OSError, ValueError, KeyError) as exc:  # missing or malformed outputs
            checks = [("outputs readable", False, repr(exc))]
        results.extend((f"pass {p['index']} {name}", ok, detail) for name, ok, detail in checks)
    return results


def forward_bits(record: dict) -> list[int]:
    """Forward-measurement outcomes of the traced simulate passes."""
    bits = []
    for p in record["passes"]:
        for inv in p["invocations"]:
            if p["traced"] and inv["command"] == "simulate" and inv["rc"] == 0:
                for trace in read_traces(inv["out_dir"]):
                    for step in trace["steps"]:
                        bits.extend(step["bits"][0::2])
    return bits


def measure(root: Path, name: str, args) -> tuple[list, dict[str, float]] | None:
    workload = WORKLOADS[name]
    replay = name == "z3-trials" and args.trial_seed == TRIAL_SEED
    reference = json.loads((BENCH_DIR / "reference.json").read_text()) if replay else {}
    result = run_child(root, name, args.seed, args.seconds, args.trace, args.trial_seed)
    if result is None:
        return None
    record, spans = result
    env = record["env"]
    print(f"{name}: git {git_sha(root)}, python {env['python']}, numpy {env['numpy']}, "
          f"blas {env['blas']['name']} {env['blas']['version']}, "
          f"threads {env['blas_threads']}, nproc {env['nproc']} (affinity {env['affinity']})")
    checks = check_outputs(workload, record, reference)
    for label, ok, detail in checks:
        if not ok or label.endswith("bits replay"):
            print(f"{name}: check {label}: {'ok' if ok else 'FAILED'} ({detail})")
    failed = sum(not ok for _, ok, _ in checks)
    if args.trace:
        values = per_layer(record, spans, forward_bits(record))
        traced = sum(p["traced"] for p in record["passes"])
        print(f"{name}: {traced} traced passes of {len(record['passes'])}, "
              f"values are per traced pass")
        for metric, unit, moves in PER_LAYER:
            print(f"{name} {metric} = {values[metric]:.6g} {unit}   -> {moves}")
        units = {metric: unit for metric, unit, _ in PER_LAYER}
    elif not any(p["items"] for p in record["passes"] if not p["traced"]):
        print(f"{name}: no untraced pass timed a single {workload.item}", file=sys.stderr)
        return None
    else:
        values, detail = end_to_end(record, workload.sample_items)
        print(f"{name}: {detail['passes']} passes, {detail['items']} {workload.item}s; "
              f"tail is p{detail['tail_percentile']:g} of the first "
              f"{detail['tail_sample']} {workload.item}s")
        for metric, unit, _, _ in END_TO_END:
            print(f"{name} {metric} = {values[metric]:.6g} {unit}")
        units = {metric: unit for metric, unit, _, _ in END_TO_END}
    print(f"{name} error_frac = {failed}/{len(checks)} = {failed / len(checks):.6g}")
    metrics = {m: {"value": values[m], "unit": unit} for m, unit in units.items()}
    return checks, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True, help="benchmark seed: makes the inputs")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trial-seed", type=int, default=TRIAL_SEED,
                        help="Monte Carlo trial streams; another value rechecks a claim on "
                             "held-out trials (the bits-replay check then does not apply)")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "gpeps" / "cli.py").is_file():
        print("perfbench: run from the repository root (src/gpeps/cli.py not found)",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        result = measure(root, name, args)
        if result is None:
            return 1
        checks, values = result
        attempted += len(checks)
        failed += sum(not ok for _, ok, _ in checks)
        prefix = f"{name}:" if args.workload == "all" else ""
        metrics.update({prefix + m: v for m, v in values.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
