"""Benchmark of the ergodec command line.

Run from the repository root:

    python3 perfbench/run.py --workload single-block --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The untraced run (``--trace 0``) generates the workload's instances from the
seed, then drives ``python3 -m ergodec`` from ``src/`` in a closed loop with
one client: one subprocess at a time, the next one spawned when the last has
exited.  Every output is checked by an independent oracle and its sha256 is
compared with the earlier repeats of the same instance and command.  The
traced run (``--trace 1``) runs the same commands in-process through
``ergodec.cli.main``, with spans around the calls into each module, and
reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, seeds, samples, digests, problems and, when traced, the spans)
is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

from drive import ROOT, SRC, run_cli, run_traced
from workloads import WORKLOADS, set_up

OUT = ROOT / ".perfbench_out"


def blas_threads():
    """Thread count reported by the OpenBLAS library loaded into this process, if found."""
    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD of the repository rooted here; None in a checkout that is not a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(seed, instance_seeds) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workload_seed": seed,
        "instance_seeds": instance_seeds,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances of every workload, plus oracle self-tests")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ergodec" / "__init__.py").is_file():
        print(f"error: no ergodec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ergodec.cli  # noqa: F401  compiles every module once, before any timing

    if args.smoke:
        import smoke

        return smoke.main(json.loads((ROOT / "BENCHMARK.json").read_text()), OUT / "smoke")
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    rundir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    try:
        setup = set_up(workload, args.seed, rundir)
        runner = run_traced if args.trace else run_cli
        metrics, checker, record = runner(workload, setup, args.seconds, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    record = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed, [i.seed for i in setup.instances]),
        "metrics": metrics,
        "attempted": checker.attempted,
        "failed": checker.failed,
        **record,
    }
    with open(OUT / f"{rundir.name}.json", "w") as handle:
        json.dump(record, handle, indent=1)
    print("environment: " + json.dumps(record["environment"]))
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    if "tail" in record:
        t = record["tail"]
        print(f"instance_wall_tail_s is p{t['percentile']} of {t['samples']} instances "
              f"({t['beyond']} beyond)")
    print(f"failed_frac: {record['failed_frac']:.6g} ({checker.failed} of {checker.attempted} commands)")
    for p in checker.problems[:5]:
        print(f"problem: {p}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
