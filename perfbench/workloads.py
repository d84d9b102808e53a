"""Workloads of the ergodec benchmark and the instances they run.

A unit of work is one *instance*: one generated input file, run through a
fixed sequence of CLI commands.  Each run generates a small pool of
instances from the workload seed and its closed loop cycles through the
pool, so every instance is run several times and its output digests can be
compared between repeats.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    pool: int
    kind: str  # "form": random_form instance in the "edges" format; "nonmarkov": dense B @ B.T
    params: dict
    smoke_params: dict

    def instance_seeds(self, seed: int, count: int) -> list:
        """Seeds of the pool's instances; they depend on the workload seed and name only."""
        sequence = np.random.SeedSequence([seed, zlib.crc32(self.name.encode())])
        return [int(s) for s in sequence.generate_state(count)]


# Sizes keep one instance near 1.0-1.7 s on a 2-core x86 machine, so that a
# 30 s run completes 20 or more instances and the tail percentile has ten
# samples beyond it.  many-blocks keeps the block size of n=1000 with 250
# components (about four points per block).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "single-block",
            ("decompose", "classify"),
            pool=6,
            kind="form",
            params=dict(n=500, components=1, killing_prob=0.0, density=0.05),
            smoke_params=dict(n=40, components=1, killing_prob=0.0, density=0.2),
        ),
        Workload(
            "many-blocks",
            ("decompose", "measures"),
            pool=6,
            kind="form",
            params=dict(n=500, components=125, killing_prob=0.1, density=0.5),
            smoke_params=dict(n=40, components=10, killing_prob=0.1, density=0.5),
        ),
        Workload(
            "reject-nonmarkov",
            ("verify",),
            pool=8,
            kind="nonmarkov",
            params=dict(n=240, rank=120),
            smoke_params=dict(n=40, rank=20),
        ),
    )
}


def form_instance(seed: int, *, n, components, killing_prob, density):
    """A ``random_form`` instance as an "edges" JSON object, and the generator's time."""
    from ergodec.generate import random_form

    start = perf_counter()
    form = random_form(seed, n, components, killing_prob, density)
    generate_s = perf_counter() - start
    points = list(form.space.points)
    rows, cols = np.nonzero(np.triu(form.jump, 1))
    weights = form.jump[rows, cols].tolist()
    obj = {
        "space": {"points": points, "mu": form.space.mu.tolist()},
        "edges": [[points[i], points[j], w] for i, j, w in zip(rows.tolist(), cols.tolist(), weights)],
        "killing": form.killing.tolist(),
    }
    return obj, generate_s


def nonmarkov_instance(seed: int, *, n, rank):
    """A dense PSD matrix B @ B.T, B standard normal of shape (n, rank), with positive mu.

    About half of its off-diagonal entries are positive, so it is never Markovian.
    """
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, rank))
    mu = rng.uniform(0.1, 2.0, size=n)
    obj = {
        "space": {"points": [f"p{i}" for i in range(n)], "mu": mu.tolist()},
        "matrix": (b @ b.T).tolist(),
    }
    return obj, None


@dataclass(frozen=True)
class Instance:
    index: int
    seed: int
    path: Path


class Setup:
    """The instance pool, and the set-up times measured so far."""

    def __init__(self, make, params, instances):
        self._make = make
        self._params = params
        self.instances = tuple(instances)
        self.setup_s = []  # per set-up of one instance: generate and write
        self.random_form_s = []  # per set-up of one instance, for "form" workloads

    def make(self, inst: Instance) -> None:
        """Generate one instance, write it to its file and record the times."""
        start = perf_counter()
        obj, generate_s = self._make(inst.seed, **self._params)
        with open(inst.path, "w") as handle:
            json.dump(obj, handle)
        self.setup_s.append(perf_counter() - start)
        if generate_s is not None:
            self.random_form_s.append(generate_s)


def set_up(workload: Workload, seed: int, directory: Path, *, smoke: bool = False) -> Setup:
    """Generate the workload's instance pool from its seed and write it to ``directory``.

    The measuring loops set up each instance they have run once more, which
    writes the same bytes to its file again.  A shared host can change speed
    by half or more for tens of seconds, longer than it takes to set up the
    pool once; the repeats spread the set-up samples over the whole run, so
    that their median does not hang on the few seconds before it.  The
    generator runs in this process as it would in any caller, with no change
    to its CPU placement or BLAS threads.
    """
    params = workload.smoke_params if smoke else workload.params
    make = form_instance if workload.kind == "form" else nonmarkov_instance
    directory.mkdir(parents=True, exist_ok=True)
    seeds = workload.instance_seeds(seed, workload.pool)
    setup = Setup(make, params, (Instance(k, s, directory / f"instance{k}.json")
                                 for k, s in enumerate(seeds)))
    for inst in setup.instances:
        setup.make(inst)
    return setup
