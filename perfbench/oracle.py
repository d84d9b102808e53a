"""Independent checks of the CLI's outputs.

Every check uses numpy and the instance file only, never ergodec, so a
broken library cannot vouch for itself.  A check returns the list of its
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import re

import numpy as np

SUM_TOL = 1e-9  # normalized weights must sum to one within this
ZERO_EIG_RTOL = 1e-9  # spectrum values at or below this times the scale count as zero
# Killing at or below this times the largest edge weight is roundoff of the row sums.
ZERO_KILLING_RTOL = 1e-9

_WITNESS = re.compile(r"contraction witness: \[([^\]]*)\]")


class Facts:
    """What the instance file alone says about the expected outputs.

    For the "edges" format: the connected components of the input edges
    (union-find) and which of them carry no killing.  For the "matrix"
    format: the symmetrized energy matrix, for the witness check.
    """

    def __init__(self, obj: dict):
        self.points = list(obj["space"]["points"])
        self.n = len(self.points)
        self.matrix = None
        self.edges = []
        self.components = []
        self.killing_free = []
        if "matrix" in obj:
            q = np.array(obj["matrix"], dtype=float)
            self.matrix = 0.5 * (q + q.T)
            return
        index = {p: i for i, p in enumerate(self.points)}
        edges = [(index[x], index[y], w) for x, y, w in obj.get("edges", []) if w > 0]
        self.edges = [(a, b) for a, b, _ in edges]
        parent = list(range(self.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        groups = {}
        for x in range(self.n):
            groups.setdefault(find(x), []).append(x)
        self.components = [tuple(g) for g in groups.values()]
        killing = np.array(obj.get("killing") or np.zeros(self.n), dtype=float)
        floor = ZERO_KILLING_RTOL * max([1.0] + [w for _, _, w in edges])
        self.killing_free = [bool(np.all(killing[list(c)] <= floor)) for c in self.components]

    def labels(self, component) -> frozenset:
        return frozenset(self.points[i] for i in component)


class Output:
    """A command's exit code and its standard output and error text."""

    def __init__(self, code: int, stdout: str, stderr: str):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr

    def report(self):
        try:
            return json.loads(self.stdout)
        except ValueError:
            return None

    def witness(self):
        match = _WITNESS.search(self.stderr)
        if match is None:
            return None
        return np.array([float(v) for v in match.group(1).split(",")])


def _expect_code(out: Output, code: int) -> list:
    return [] if out.code == code else [f"exit code {out.code}, expected {code}"]


def check_decompose(out: Output, facts: Facts) -> list:
    problems = _expect_code(out, 0)
    report = out.report()
    if report is None:
        return problems + ["stdout is not a JSON report"]
    fibers = report["fibers"]
    owner = {}
    for z, fiber in fibers.items():
        for p in fiber["support"]:
            if p in owner:
                problems.append(f"point {p!r} lies in fibers {owner[p]} and {z}")
            owner[p] = z
    if set(owner) != set(facts.points):
        problems.append("fiber supports do not cover the points")
    points = facts.points
    crossing = sum(owner.get(points[a]) != owner.get(points[b]) for a, b in facts.edges)
    if crossing:
        problems.append(f"{crossing} input edges cross fibers")
    if len(fibers) != len(facts.components):
        problems.append(f"{len(fibers)} fibers, {len(facts.components)} connected components")
    if abs(sum(report["nu"].values()) - 1.0) > SUM_TOL:
        problems.append("nu does not sum to 1")
    for z, fiber in fibers.items():
        if abs(sum(fiber["mu"]) - 1.0) > SUM_TOL:
            problems.append(f"fiber {z} mu does not sum to 1")
    return problems


def check_classify(out: Output, facts: Facts) -> list:
    problems = _expect_code(out, 0)
    report = out.report()
    if report is None:
        return problems + ["stdout is not a JSON report"]
    spectrum = np.array(report["spectrum"], dtype=float)
    if spectrum.shape != (facts.n,):
        return problems + [f"spectrum has {spectrum.size} values for {facts.n} points"]
    scale = max(1.0, float(np.abs(spectrum).max()))
    zeros = int(np.sum(spectrum <= ZERO_EIG_RTOL * scale))
    expected = sum(facts.killing_free)
    if zeros != expected:
        problems.append(f"{zeros} zero eigenvalues, {expected} killing-free components")
    return problems


def check_measures(out: Output, facts: Facts) -> list:
    problems = _expect_code(out, 0)
    report = out.report()
    if report is None:
        return problems + ["stdout is not a JSON report"]
    expected = {facts.labels(c) for c, free in zip(facts.components, facts.killing_free) if free}
    got = [frozenset(m["component"]) for m in report["ergodic"]]
    if len(got) != len(expected) or set(got) != expected:
        problems.append(
            f"{len(got)} ergodic measures do not match the {len(expected)} killing-free components"
        )
    for m in report["ergodic"]:
        if abs(sum(m["weights"]) - 1.0) > SUM_TOL:
            problems.append(f"ergodic measure on {len(m['component'])} points does not sum to 1")
    return problems


def check_witness(out: Output, facts: Facts) -> list:
    """Exit code 2 and a printed witness f with Q(clip(f, 0, 1)) > Q(f)."""
    problems = _expect_code(out, 2)
    f = out.witness()
    if f is None:
        return problems + ["no contraction witness printed"]
    if f.shape != (facts.n,):
        return problems + [f"witness has {f.size} entries for {facts.n} points"]
    g = np.clip(f, 0.0, 1.0)
    q = facts.matrix
    if not float(g @ q @ g) > float(f @ q @ f):
        problems.append("witness does not increase energy under the unit contraction")
    return problems


CHECKS = {
    "decompose": check_decompose,
    "classify": check_classify,
    "measures": check_measures,
    "verify": check_witness,
}
