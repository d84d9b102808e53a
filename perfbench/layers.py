"""Per-layer metrics of the traced run, computed from its spans.

A metric ``<span>_s`` is the time spent in spans of that name per instance;
``<span>.self_s`` the same minus the eigendecomposition time inside them;
``<span>.eig_calls`` and ``<span>.eig_n3`` the eigendecompositions inside
them and the sum of n^3 over those calls; ``<span>.peak_alloc_mb`` the
largest tracemalloc peak of one such span, from the separate memory pass
over the first instance.  ``linalg.*`` add up the
eigendecompositions of the traced CLI commands, without probes.  Times
are medians over the instances traced.  Counts are those of the first
instance, and every later visit of the same pool instance must repeat them.
"""

from __future__ import annotations

import statistics

# name -> unit, in the order of BENCHMARK.json
PER_LAYER = {
    "cli.import_s": "s",
    "cli.emit_s": "s",
    "serialize.json_parse_s": "s",
    "serialize.form_from_json_s": "s",
    "serialize.form_from_json.eig_calls": "count",
    "serialize.decomposition_report_s": "s",
    "forms.is_markovian_s": "s",
    "forms.is_markovian.eig_calls": "count",
    "forms.spectrum_s": "s",
    "forms.invariant_sets_s": "s",
    "forms.semigroup_s": "s",
    "forms.classify_s": "s",
    "forms.classify.eig_calls": "count",
    "spaces.disintegrate_over_partition_s": "s",
    "direct_integral.assemble_l2_s": "s",
    "ergodic.decompose_s": "s",
    "ergodic.decompose.self_s": "s",
    "ergodic.decompose.eig_calls": "count",
    "ergodic.decompose.peak_alloc_mb": "MB",
    "ergodic.verify_decomposition_s": "s",
    "ergodic.verify_decomposition.self_s": "s",
    "ergodic.verify_decomposition.eig_calls": "count",
    "ergodic.verify_decomposition.eig_n3": "count",
    "ergodic.verify_decomposition.peak_alloc_mb": "MB",
    "ergodic.classification_decomposition_s": "s",
    "ergodic.classification_decomposition.eig_calls": "count",
    "ergodic.ergodic_measures_s": "s",
    "ergodic.decompose_invariant_measure_s": "s",
    "linalg.eig_calls": "count",
    "linalg.eig_n3": "count",
    "linalg.eig_s": "s",
    "linalg.eig_share": "ratio",
    "generate.random_form_s": "s",
    "trace.overhead_frac": "ratio",
}

_STATS = (".self_s", ".eig_calls", ".eig_n3", ".peak_alloc_mb")


def _span_stat(spans, name, stat):
    chosen = [s for s in spans if s["name"] == name]
    if stat == ".peak_alloc_mb":
        return max((s["peak_alloc_mb"] for s in chosen), default=0.0)
    if stat == ".self_s":
        return sum(s["end"] - s["start"] - s["eig_s"] for s in chosen)
    if stat in (".eig_calls", ".eig_n3"):
        return sum(s[stat[1:]] for s in chosen)
    return sum(s["end"] - s["start"] for s in chosen)


def visit_values(spans, visit) -> dict:
    """Every span-derived metric of one traced instance visit."""
    commands = [s for s in spans if s["name"].startswith("command.")]
    traced_s = sum(s["end"] - s["start"] for s in commands)
    eig_s = sum(s["eig_s"] for s in commands)
    values = {
        "linalg.eig_calls": sum(s["eig_calls"] for s in commands),
        "linalg.eig_n3": sum(s["eig_n3"] for s in commands),
        "linalg.eig_s": eig_s,
        "linalg.eig_share": eig_s / traced_s,
        "trace.overhead_frac": traced_s / visit["untraced_s"] - 1.0,
        "cli.import_s": visit["import_s"],
    }
    for name in PER_LAYER:
        if name in values or name.endswith(".peak_alloc_mb") or name == "generate.random_form_s":
            continue
        stat = next((s for s in _STATS if name.endswith(s)), "_s")
        values[name] = _span_stat(spans, name[: -len(stat)], stat)
    return values


def layer_metrics(spans, memory_spans, visits, random_form_s):
    """Per-layer metrics over the visits, and the counts that did not repeat.

    ``visits`` lists, per traced instance in order, its pool index, its
    untraced in-process time and its fresh import time.  ``random_form_s`` are
    the generator times of the set-up; when the workload does not use the
    generator there, the probe spans of the counterpart are used.
    """
    by_visit = [[] for _ in visits]
    for span in spans:
        by_visit[span["instance"]].append(span)
    values = [visit_values(s, v) for s, v in zip(by_visit, visits)]
    if random_form_s:
        generate = list(random_form_s)
    else:
        generate = [_span_stat(s, "generate.random_form", "_s") for s in by_visit]
    metrics, nonrepeating = {}, []
    for name, unit in PER_LAYER.items():
        if name == "generate.random_form_s":
            value = statistics.median(generate)
        elif name.endswith(".peak_alloc_mb"):
            value = _span_stat(memory_spans, name[: -len(".peak_alloc_mb")], ".peak_alloc_mb")
        elif unit == "count":
            value = values[0][name]
            first = {}
            for v, visit in zip(values, visits):
                if first.setdefault(visit["pool_index"], v[name]) != v[name]:
                    nonrepeating.append(name)
                    break
        else:
            value = statistics.median(v[name] for v in values)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, nonrepeating
