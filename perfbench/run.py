"""Benchmark of the ppmatch pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  Each run starts one fresh worker
process (worker.py) for the workload, times its set-up, lets it run ops
for S seconds and check every op, and prints the metrics by name and
unit.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  Each
run's full record, with the machine and version details, is appended to
.perfbench/results.jsonl in the checkout.

--smoke runs every workload, the two failing baselines included, at toy
size with all checks on, and exits non-zero if any op fails or any
check does.  See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from worker import DEADLINE_S, WORKLOADS  # noqa: E402  (stdlib-only module)

# Set-up is repeated in this many fresh processes per timed run (the
# workload's own process and setup-only ones); setup_s is their median.
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name.startswith("share.") or name.endswith(("_ratio", "_yield")):
        return "ratio"
    if "ops_per_s" in name:
        return "ops/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list[str], deadline: float):
    """Run worker.py; return (set-up seconds, final JSON or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(),
                            stdout=subprocess.PIPE, text=True)
    # A worker past the run's limit is killed, which ends the reads below.
    watchdog = threading.Timer(max(1.0, deadline - t0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def provenance(args) -> dict:
    src = ROOT / "src" / "ppmatch"
    lines = sum(len(p.read_text().splitlines()) for p in src.glob("*.py"))
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": _git_commit(),
        "src_lines": lines,
    }


def run_workload(args) -> tuple[dict, dict]:
    """Run one workload; return (full record, result for the last line)."""
    started = time.perf_counter()
    limit = started + RUN_LIMIT_S
    wargs = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        wargs.append("--smoke")
    setup_s, raw = _worker(wargs, limit)
    setups = [setup_s]
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            s, _ = _worker(wargs + ["--setup-only"], limit)
            setups.append(s)
    if raw is None:
        raise RuntimeError("worker printed no result")

    done = len(raw["op_times_s"])
    if args.trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in sorted(raw["per_layer"].items())}
    else:
        values = {
            "setup_s": statistics.median(setups),
            # Undefined when no op completed (only the failing baselines).
            "op_p50_s": statistics.median(raw["op_times_s"]) if done else None,
            "ops_per_s": done / raw["ops_s"] if raw["ops_s"] > 0 else None,
            "peak_rss_mb": raw["peak_rss_mb"],
            "ok_frac": done / raw["attempted"],
        }
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    record = {**provenance(args), "setup_samples_s": setups,
              "errors": raw["errors"], "reference": raw["reference"],
              "op_times_s": raw["op_times_s"], "deadline_s": DEADLINE_S,
              **result}
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    return record, result


def _print(record: dict, result: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} "
          f"seconds {record['seconds']} trace {record['trace']}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']!s:>24} {m['unit']}")
    print(f"  attempted {result['attempted']} failed {result['failed']} "
          f"errors {record['errors']} correct {result['correct']}")
    env = {k: record[k] for k in ("nproc", "python", "numpy", "scipy",
                                  "commit", "src_lines")}
    print(f"  env {json.dumps(env)}")


def smoke() -> int:
    bad = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=1, seconds=0.3,
                                      trace=trace, smoke=True)
            record, result = run_workload(args)
            _print(record, result)
            ref = record["reference"]
            # A workload whose ops have a digest must have it pinned.
            ok = (result["correct"] and result["failed"] == 0
                  and (ref["digest"] is None or ref["pinned"] is not None))
            bad += not ok
    print(json.dumps({"smoke_ok": bad == 0}))
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ppmatch" / "__init__.py").is_file():
        print(f"no ppmatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke and args.workload is None:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    record, result = run_workload(args)
    _print(record, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
