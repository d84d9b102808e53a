"""Smoke mode: every workload end to end at n=40, and the oracle's own self-test.

``BENCHMARK.json`` must name the workloads and metrics this package
reports.  For each workload, the CLI loop and the traced in-process run go
over the whole tiny pool; both must pass the oracle, every layer must be
measured and every count must repeat.  Then the oracle is fed a decomposition report with two fibers
merged and a witness that the contraction leaves fixed, and must flag both.
"""

from __future__ import annotations

import json
import shutil

import numpy as np

import layers
import oracle
import inprocess
from drive import END_TO_END, run_cli, run_traced
from tracing import Untraced
from workloads import WORKLOADS, set_up


def _merge_two_fibers(stdout: str) -> str:
    report = json.loads(stdout)
    (za, a), (zb, b) = list(report["fibers"].items())[:2]
    wa, wb = report["nu"][za], report["nu"][zb]
    a["support"] += b["support"]
    a["mu"] = [wa * m / (wa + wb) for m in a["mu"]] + [wb * m / (wa + wb) for m in b["mu"]]
    a["edges"] += b["edges"]
    a["killing"] += b["killing"]
    report["nu"][za] = wa + wb
    del report["nu"][zb], report["fibers"][zb]
    return json.dumps(report, indent=2) + "\n"


def _fixed_witness(stderr: str) -> str:
    """The same message with the witness replaced by its own unit contraction."""
    f = oracle.Output(2, "", stderr).witness()
    fixed = ", ".join(f"{v:.12g}" for v in np.clip(f, 0.0, 1.0))
    return stderr[: stderr.index("contraction witness: [")] + f"contraction witness: [{fixed}])\n"


def _self_test(outdir) -> list:
    """The oracle passes a clean output and flags its corrupted copy: (label, ok, detail)."""
    results = []
    cases = (
        ("many-blocks", "decompose", "merged fiber",
         lambda code, out, err: oracle.Output(code, _merge_two_fibers(out), err)),
        ("reject-nonmarkov", "verify", "fixed-point witness",
         lambda code, out, err: oracle.Output(code, out, _fixed_witness(err))),
    )
    for name, command, label, corrupt in cases:
        setup = set_up(WORKLOADS[name], 0, outdir / f"selftest-{name}", smoke=True)
        inst = setup.instances[0]
        with open(inst.path) as handle:
            facts = oracle.Facts(json.load(handle))
        code, stdout, stderr = inprocess.run_command(
            Untraced(), command, inst.path, outdir / "selftest.out"
        )
        output = (code, stdout.decode(), stderr.decode())
        clean = oracle.CHECKS[command](oracle.Output(*output), facts)
        corrupted = oracle.CHECKS[command](corrupt(*output), facts)
        results.append((f"{label}: clean output passes", not clean, clean))
        results.append((f"{label}: corrupted output is flagged", bool(corrupted), corrupted))
    return results


def _spec_matches(spec) -> list:
    def units(entries):
        return {m["name"]: m["unit"] for m in entries}

    workload_names = [w["name"] for w in spec["workloads"]]
    return [
        ("BENCHMARK.json names the workloads", workload_names == list(WORKLOADS), ""),
        ("BENCHMARK.json names the end-to-end metrics", units(spec["end_to_end"]) == END_TO_END, ""),
        ("BENCHMARK.json names the per-layer metrics", units(spec["per_layer"]) == layers.PER_LAYER, ""),
    ]


def main(spec, outdir) -> int:
    shutil.rmtree(outdir, ignore_errors=True)
    results = _spec_matches(spec)
    for workload in WORKLOADS.values():
        rundir = outdir / workload.name
        setup = set_up(workload, 0, rundir, smoke=True)
        pool = len(setup.instances)
        _, cli, _ = run_cli(workload, setup, 0, rundir, min_instances=pool)
        metrics, traced, record = run_traced(workload, setup, 0, rundir, min_instances=pool + 1)
        results += [
            (f"{workload.name}: CLI outputs pass the oracle", cli.failed == 0, cli.problems),
            (f"{workload.name}: in-process outputs pass the oracle", traced.failed == 0,
             traced.problems),
            (f"{workload.name}: every layer measured",
             all(m["value"] > 0 for m in metrics.values() if m["unit"] in ("s", "MB")),
             [name for name, m in metrics.items() if m["value"] == 0]),
            (f"{workload.name}: counts repeat", not record["nonrepeating_counts"],
             record["nonrepeating_counts"]),
        ]
    results += _self_test(outdir)
    shutil.rmtree(outdir, ignore_errors=True)
    for label, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {label}" + ("" if ok or not detail else f": {detail}"))
    failed = sum(not ok for _, ok, _ in results)
    print(f"smoke: {len(results) - failed} passed, {failed} failed")
    return 1 if failed else 0
