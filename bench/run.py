"""Benchmark entry point for sofreg.

    python3 bench/run.py --workload mixing --seed 1 --seconds 30 --trace 0

Runs one workload (or ``all`` of them, each in its own process) from the
root of a source checkout, using the package under ``src/``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or the per-layer ones
with ``--trace 1``), as declared in ``BENCHMARK.json``.  Run outputs go
to ``.bench_out/`` at the root.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("mixing", "windows", "cohort")

if (SRC / "sofreg" / "__init__.py").is_file() and str(SRC) not in sys.path:
    sys.path.insert(1, str(SRC))  # after this script's own directory

# One BLAS thread in this process and every process it starts: on a 2-vCPU
# machine, two BLAS threads made identical back-to-back fits vary by +-20%.
os.environ.update({k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})


def _declared() -> dict:
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def _parser(spec: dict) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=float(spec.get("run_seconds", 30)))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def _run_all(args) -> int:
    """Each workload in a child process, so peak memory stays per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for metric, rec in result["metrics"].items():
            print(f"  {metric:45s} {rec['value']:.6g} {rec['unit']}")
            total["metrics"][f"{name}.{metric}"] = rec
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    spec = _declared()
    args = _parser(spec).parse_args(argv)
    if not (SRC / "sofreg" / "__init__.py").is_file():
        print(f"bench: no package sources at {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("bench: --seed must be non-negative", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    import workloads  # after the path check: it imports the package

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    run = workloads.Run(seed=args.seed, seconds=args.seconds, trace=bool(args.trace), out_dir=out_dir)
    if args.workload == "mixing":
        workloads.run_mixing(run)
    elif args.workload == "windows":
        workloads.run_windows(run)
    else:
        workloads.run_cohort(run, SRC)

    result = run.result()
    with open(out_dir / "results.jsonl", "a") as fh:  # raw: every metric the run took
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "trace": args.trace, **result}) + "\n")
    kind = "per_layer" if args.trace else "end_to_end"
    if kind in spec:
        names = [m["name"] for m in spec[kind]]
        missing = [k for k in names if k not in result["metrics"]]
        if missing:
            print(f"bench: {args.workload} did not measure {', '.join(missing)}", file=sys.stderr)
            return 1
        result["metrics"] = {k: result["metrics"][k] for k in names}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
