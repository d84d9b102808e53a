"""Span recorder with eigendecomposition counts and allocation peaks.

Spans are kept in memory and written out when the run ends.  While a
recorder is installed, ``numpy.linalg.eigh`` and ``numpy.linalg.eigvalsh``
are wrapped from here (ergodec looks them up at call time), and each call
adds one to the count, n^3 to the operation count and its time to every
open span.  A memory recorder also runs ``tracemalloc`` so that each span
records the peak of traced memory inside it; tracemalloc slows
allocation-heavy Python loops several times over, so its spans are not
used for time.
"""

from __future__ import annotations

import contextlib
import functools
import tracemalloc
from time import perf_counter

import numpy as np


class Untraced:
    """The recorder interface with nothing recorded, for the untraced in-process run."""

    def span(self, name, probe=False):
        return contextlib.nullcontext()


class Recorder:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans = []
        self.instance = None
        self._open = []
        self._originals = None

    def install(self):
        self._originals = (np.linalg.eigh, np.linalg.eigvalsh)
        np.linalg.eigh = self._counted(np.linalg.eigh)
        np.linalg.eigvalsh = self._counted(np.linalg.eigvalsh)
        if self.memory:
            tracemalloc.start()

    def uninstall(self):
        if self.memory:
            tracemalloc.stop()
        np.linalg.eigh, np.linalg.eigvalsh = self._originals

    def _counted(self, eig):
        def counted(a, *args, **kwargs):
            start = perf_counter()
            try:
                return eig(a, *args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                n = np.shape(a)[-1]
                for span in self._open:
                    span["eig_calls"] += 1
                    span["eig_n3"] += n**3
                    span["eig_s"] += elapsed

        return counted

    def wrap(self, name, fn):
        """``fn`` with each call recorded as a span named ``name``."""

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return spanned

    @contextlib.contextmanager
    def span(self, name, probe=False):
        """Record a span around the block; ``probe`` marks calls the CLI does not make."""
        parent = self._open[-1] if self._open else None
        base = self._memory_enter(parent)
        span = {
            "id": len(self.spans),
            "name": name,
            "instance": self.instance,
            "parent": None if parent is None else parent["id"],
            "probe": probe,
            "eig_calls": 0,
            "eig_n3": 0,
            "eig_s": 0.0,
            "_base": base,
            "_peak": base,
        }
        self.spans.append(span)
        self._open.append(span)
        span["start"] = perf_counter()
        try:
            yield span
        finally:
            span["end"] = perf_counter()
            self._open.pop()
            self._memory_exit(span, parent)

    def _memory_enter(self, parent):
        if not self.memory:
            return 0
        # reset_peak serves one span at a time, so fold the parent's peak so far first.
        if parent is not None:
            parent["_peak"] = max(parent["_peak"], tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return tracemalloc.get_traced_memory()[0]

    def _memory_exit(self, span, parent):
        base, peak = span.pop("_base"), span.pop("_peak")
        if not self.memory:
            return
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        span["peak_alloc_mb"] = (peak - base) / 2**20
        if parent is not None:
            parent["_peak"] = max(parent["_peak"], peak)
        tracemalloc.reset_peak()
