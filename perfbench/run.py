"""defreach benchmark: one workload per process, end-to-end or traced metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-k20 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one fixed
unit of work untraced and then traced, and prints the per-layer metrics.
``all`` runs every workload, each in a fresh process. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The program is imported from ``src/`` of the same checkout, never from an
installed copy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NAMES = ("train-k20", "train-k1000", "scan-large")
# One closed-loop caller: a single BLAS thread keeps runs steady on a shared
# machine and never exceeds nproc. It must be set before numpy is imported.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_program():
    """Import defreach from this checkout's src/; exit with an error when it is not there."""
    if not os.path.isfile(os.path.join(SRC, "defreach", "__init__.py")):
        sys.exit(f"error: no defreach sources under {SRC}")
    sys.path.insert(0, SRC)
    import defreach

    if os.path.dirname(os.path.dirname(os.path.abspath(defreach.__file__))) != SRC:
        sys.exit(f"error: defreach was imported from {defreach.__file__}, not {SRC}")


def blas_threads():
    """Thread count the loaded OpenBLAS reports, else the pinned setting."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def environment(args) -> dict:
    import platform

    import numpy

    from defreach import kernels

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
    except OSError:  # no git on this machine
        commit = None
    digest = hashlib.sha256()
    package = os.path.join(SRC, "defreach")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as f:
                digest.update(name.encode() + f.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernels.backend_name(),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "git_commit": commit.stdout.strip() if commit and commit.returncode == 0 else None,
        "source_sha256": digest.hexdigest(),
    }


def run_one(args) -> dict:
    import workloads

    if args.trace:
        rec, metrics, span_table = workloads.run_traced(args.workload, args.seed, ROOT)
    else:
        rec, metrics = workloads.run(args.workload, args.seed, args.seconds, ROOT)
        span_table = None
    record = {
        "env": environment(args),
        "details": workloads.details(rec),
        "spans": span_table,
    }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:24s} {value:14.6g} {unit}")
    print(f"{args.workload:12s} correct={not rec.wrong} attempted={rec.attempted} failed={rec.failed}")
    print("record " + json.dumps(record))
    return {
        "correct": not rec.wrong,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own fresh process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    import_program()
    sys.path.insert(0, HERE)
    if args.workload == "all":
        result = run_all(args)
    else:
        import spans

        try:
            result = run_one(args)
        except spans.MissingSpans as exc:
            sys.exit(f"error: traced run of {args.workload}: {exc}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
