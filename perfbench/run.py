"""Benchmark of cylwigner: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository; cylwigner is imported from src/.
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run and the tracing overhead.  ``--workload all`` runs every
workload in turn, each in its own process, and prints one line per
metric.  See perfbench/README.md.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC)]

import timing  # noqa: E402
import workloads  # noqa: E402


def run_one(args):
    timing.pin_to_one_cpu()
    setup = workloads.measure_setup(args.workload) if not args.trace else None
    out = workloads.run(args.workload, args.seed, args.seconds, args.trace)
    if setup is not None:
        out.metric("setup_s", setup[0], "s")
        out.notes.append(f"raw: set-up median {setup[1]:.4g} wall seconds, "
                         f"{setup[2]:.4g} CPU seconds")
    for note in out.notes:
        print(note)
    for problem in out.problems:
        print(f"INCORRECT: {problem}")
    print(f"{args.workload}: attempted {out.attempted}, failed {out.failed}, "
          f"correct {not out.problems}")
    for name in sorted(out.metrics):
        m = out.metrics[name]
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not out.problems, "attempted": out.attempted,
                      "failed": out.failed, "metrics": out.metrics}))
    return 0


def run_all(args):
    results = {}
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cylwigner" / "__init__.py").is_file():
        print(f"cylwigner sources not found under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; choose from {list(workloads.NAMES)} or all",
              file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
