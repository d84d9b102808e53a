"""The two measuring loops: the CLI closed loop and the traced in-process run.

Both check every output with the oracle and keep the sha256 of each
command's output per (instance, command).
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import layers
import oracle
from tracing import Recorder, Untraced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 120.0

END_TO_END = {
    "instance_wall_p50_s": "s",
    "instance_wall_tail_s": "s",
    "instances_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """The helper process that starts each CLI process and measures it; see launcher.py."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py"), str(CHILD_TIMEOUT_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )

    def run(self, argv, stdout_path: Path, stderr_path: Path):
        """Run one child to completion: (exit code, wall seconds, peak RSS in MB)."""
        request = {"argv": argv, "stdout": str(stdout_path), "stderr": str(stderr_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["code"], reply["wall_s"], reply["peak_rss_mb"]

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


# The tail is this fixed percentile, so that every commit reports the same
# statistic however many instances fit into its run.  A 30 s run holds 20 to
# 25 instances, and "the highest percentile with at least ten samples beyond
# it" is p50 to p60 there, so at those counts the tail lies close to the
# median and is no independent figure of the slowest instances.
TAIL_PERCENTILE = 60


def tail(samples):
    """The TAIL_PERCENTILE-th percentile, interpolated, and how many samples lie above it."""
    if len(samples) < 2:
        return samples[0], 0
    value = statistics.quantiles(samples, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return value, sum(x > value for x in samples)


class Digests:
    """sha256 of each command's output per (instance, command); a change between repeats fails."""

    def __init__(self):
        self.seen = {}

    def check(self, key, stdout: bytes, stderr: bytes) -> list:
        digest = [hashlib.sha256(stdout).hexdigest(), hashlib.sha256(stderr).hexdigest()]
        first = self.seen.setdefault(key, digest)
        return [] if first == digest else [f"output digest changed between repeats of {key}"]


class Checker:
    """Oracle checks and digests for every command of a run, with its failure count."""

    def __init__(self, setup):
        self.paths = {inst.index: inst.path for inst in setup.instances}
        self.facts = {}
        self.digests = Digests()
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, k, command, code, stdout: bytes, stderr: bytes) -> None:
        if k not in self.facts:
            with open(self.paths[k]) as handle:
                self.facts[k] = oracle.Facts(json.load(handle))
        out = oracle.Output(code, stdout.decode(errors="replace"), stderr.decode(errors="replace"))
        try:
            problems = oracle.CHECKS[command](out, self.facts[k])
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"malformed output: {exc!r}"]
        problems += self.digests.check(f"instance{k}/{command}", stdout, stderr)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append({"instance": k, "command": command, "problems": problems})


def run_cli(workload, setup, seconds, rundir, *, min_instances=1):
    """Closed loop over the instance pool for ``seconds``; end-to-end metrics and record."""
    checker = Checker(setup)
    walls, commands = [], []
    peak_rss = 0.0
    loop_s = 0.0  # the closed loop's own time: checks and set-up repeats are left out
    launcher = Launcher(child_env())
    try:
        while len(walls) < min_instances or loop_s < seconds:
            inst = setup.instances[len(walls) % len(setup.instances)]
            results = []
            wall_s = 0.0
            start = perf_counter()
            for command in workload.commands:
                argv = [sys.executable, "-m", "ergodec", command, "--input", str(inst.path)]
                stdout_path, stderr_path = rundir / f"{command}.stdout", rundir / f"{command}.stderr"
                code, wall, rss = launcher.run(argv, stdout_path, stderr_path)
                results.append((command, code, stdout_path.read_bytes(), stderr_path.read_bytes()))
                commands.append({"instance": inst.index, "command": command, "code": code,
                                 "wall_s": wall, "peak_rss_mb": rss})
                peak_rss = max(peak_rss, rss)
                wall_s += wall
            loop_s += perf_counter() - start
            walls.append(wall_s)
            for command, code, stdout, stderr in results:
                checker.check(inst.index, command, code, stdout, stderr)
            setup.make(inst)
    finally:
        launcher.close()

    tail_value, beyond = tail(walls)
    values = {
        "instance_wall_p50_s": statistics.median(walls),
        "instance_wall_tail_s": tail_value,
        "instances_per_s": len(walls) / loop_s,
        "peak_rss_mb": peak_rss,
        "setup_s": statistics.median(setup.setup_s),
    }
    record = {
        "tail": {"percentile": TAIL_PERCENTILE, "samples": len(walls), "beyond": beyond},
        "failed_frac": checker.failed / checker.attempted,
        "instance_walls_s": walls,
        "commands": commands,
        "digests": checker.digests.seen,
        "problems": checker.problems,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, checker, record


def fresh_import_s(env) -> float:
    """Time of ``import ergodec.cli`` in a new interpreter."""
    code = "import time; t = time.perf_counter(); import ergodec.cli; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(proc.stdout)


def run_traced(workload, setup, seconds, rundir, *, min_instances=1):
    """Traced in-process run of the CLI for ``seconds``; per-layer metrics and record.

    Each visit of an instance times a fresh import, an untraced in-process
    run and a traced one with probes.  The first visit is also traced once
    more under tracemalloc for the allocation peaks.
    """
    import inprocess

    out = rundir / "inprocess.out"

    def trace_visit(rec, inst):
        """Run the commands on one instance, then its probes, under ``rec``."""
        first_span = len(rec.spans)
        rec.install()
        try:
            with inprocess.cli_spans(rec):
                outputs = [inprocess.run_command(rec, c, inst.path, out) for c in workload.commands]
            seen = {s["name"] for s in rec.spans[first_span:]}
            inprocess.run_probes(rec, inst.path, inst.seed, seen)
        finally:
            rec.uninstall()
        return outputs

    env = child_env()
    checker = Checker(setup)
    rec, memory = Recorder(), Recorder(memory=True)
    visits = []
    traced_s = 0.0  # time of the visits: set-up repeats are left out
    while len(visits) < min_instances or traced_s < seconds:
        inst = setup.instances[len(visits) % len(setup.instances)]
        start = perf_counter()
        import_s = fresh_import_s(env)
        t0 = perf_counter()
        for command in workload.commands:
            inprocess.run_command(Untraced(), command, inst.path, out)
        untraced_s = perf_counter() - t0

        rec.instance = memory.instance = len(visits)
        outputs = trace_visit(rec, inst)
        if not visits:
            trace_visit(memory, inst)
        for command, (code, stdout, stderr) in zip(workload.commands, outputs):
            checker.check(inst.index, command, code, stdout, stderr)
        visits.append({"pool_index": inst.index, "untraced_s": untraced_s, "import_s": import_s})
        traced_s += perf_counter() - start
        setup.make(inst)

    metrics, nonrepeating = layers.layer_metrics(
        rec.spans, memory.spans, visits, setup.random_form_s
    )
    with open(rundir.parent / f"{rundir.name}.spans.jsonl", "w") as handle:
        for name, recorder in (("time", rec), ("memory", memory)):
            for span in recorder.spans:
                handle.write(json.dumps({"pass": name, **span}) + "\n")
    record = {
        "visits": visits,
        "nonrepeating_counts": nonrepeating,
        "failed_frac": checker.failed / checker.attempted,
        "digests": checker.digests.seen,
        "problems": checker.problems,
    }
    return metrics, checker, record
