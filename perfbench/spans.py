"""In-memory span recording around the program's public layer calls.

The benchmark never edits the program.  A traced pass wraps the public
functions of each layer at the names their callers use (for mapping,
``repro.core.engine.build_kmap`` rather than ``repro.mapping.kmap``'s
own binding), records one span per call, and restores every original
on exit.  A span is ``[name, start, end, parent, group]``: the host
clock (``time.perf_counter``) at entry and exit, the index of the
enclosing span (-1 at the top), and the id shared by every span of one
frame or campaign.  Self time is a span's duration minus the time its
direct children cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, GROUP = range(5)


class SpanRecorder:
    """Append-only span store for one traced pass."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        #: id stamped on every span opened from now on
        self.group = 0
        #: host clock at each journaled arrival of the serve loop
        self.arrivals: list = []

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` with one span recorded per call; ``on_call(recorder,
        args)`` runs first when given."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, args)
            rec = [name, time.perf_counter(), 0.0,
                   self._stack[-1] if self._stack else -1, self.group]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                self._stack.pop()

        return traced

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict:
        """``name -> (self seconds, inclusive seconds of outermost calls,
        calls)``."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child_time[rec[PARENT]] += rec[END] - rec[START]
        out: dict = defaultdict(lambda: [0.0, 0.0, 0])
        for i, rec in enumerate(self.spans):
            dur = rec[END] - rec[START]
            agg = out[rec[NAME]]
            agg[0] += dur - child_time[i]
            agg[2] += 1
            if self.nearest(i, rec[NAME]) < 0:
                agg[1] += dur
        return {k: tuple(v) for k, v in out.items()}

    def nearest(self, i: int, name: str) -> int:
        """Index of span ``i``'s closest ancestor named ``name`` (-1)."""
        p = self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][NAME] == name:
                return p
            p = self.spans[p][PARENT]
        return -1


@contextmanager
def patched(recorder: SpanRecorder, targets):
    """Wrap every ``(owner, attribute, span name[, on_call])`` target
    for the duration of the block, then restore the originals."""
    saved = []
    try:
        for owner, attr, name, *on_call in targets:
            # restore the raw attribute (a classmethod stays one); wrap
            # the bound form, which callers reach through the owner
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), *on_call))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def engine_targets() -> list:
    """The engine layers: coordinate tables, kernel maps and downsampling,
    dataflow, and the engine entry points."""
    import repro.core.engine as engine_mod
    from repro.core.engine import BaseEngine, CoordIndex

    return [
        (CoordIndex, "build", "hashmap"),
        (engine_mod, "build_kmap", "mapping"),
        (engine_mod, "downsample_coords", "mapping"),
        (engine_mod, "execute_gather_matmul_scatter", "core.dataflow"),
        (engine_mod, "execute_fetch_on_demand", "core.dataflow"),
        (BaseEngine, "convolution", "core.engine"),
        (BaseEngine, "pooling", "core.engine"),
        (BaseEngine, "pointwise", "core.engine"),
    ]


def serve_targets() -> list:
    """The serving layers: oracle pricing, the event loop, the flight
    recorder and the artifact store."""
    from repro.obs.timeline import TimelineRecorder
    from repro.persist.store import ArtifactStore
    from repro.serve.cluster import LatencyOracle
    from repro.serve.server import Server

    return [
        (LatencyOracle, "base_latency", "serve.cluster"),
        (LatencyOracle, "batch_latency", "serve.cluster"),
        (Server, "run", "serve.server"),
        (TimelineRecorder, "emit", "obs.timeline", _sample_arrival),
        (ArtifactStore, "save", "persist.put"),
        (ArtifactStore, "load", "persist.get"),
    ]


def _sample_arrival(recorder: SpanRecorder, args: tuple) -> None:
    """Note the host clock whenever the serve loop journals an arrival
    (``TimelineRecorder.emit(self, kind, t, ...)``)."""
    if args[1] == "arrival":
        recorder.arrivals.append(time.perf_counter())
