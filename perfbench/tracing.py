"""Spans recorded around the serving stack's public entry points.

The benchmark's traced run wraps each layer's entry point *where it is
bound when called*: a method on its class, or an imported name in the
module that calls it (``repro.core.model.build_gis``, not
``repro.core.gis.build_gis``).  Nothing under ``src/`` is edited.  A
wrapper takes ``*args, **kwargs`` so signature changes pass through, and
a target that no longer exists is reported in ``Tracer.absent`` instead
of raising.

Each span records name, start, end, parent span and request id (the id
of the root span of its thread's stack).  Spans are kept per thread in
memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

#: (layer, owner, attribute, span name).  ``owner`` is "module" or
#: "module:Class".  Module-level names are patched in the module that
#: calls them.  ``MicroBatcher._dispatch`` is private; it is the one
#: place where the kernel-pool checkout shows (as dispatch self time).
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("serving.batcher", "repro.serving.batcher:MicroBatcher", "submit", "batcher.submit"),
    ("serving.batcher", "repro.serving.batcher:MicroBatcher", "_dispatch", "batcher.dispatch"),
    ("serving.service", "repro.serving.service:PredictionService", "predict_many",
     "service.predict"),
    ("core.model", "repro.core.model:CFSF", "fit", "model.fit"),
    ("core.model", "repro.core.model:CFSF", "predict_many", "model.predict"),
    ("core.model", "repro.core.model:CFSF", "active_user_state", "model.state"),
    ("core.model", "repro.core.model:CFSF", "build_online_kernel", "kernel.build"),
    ("core.icluster", "repro.core.model", "profile_cluster_affinity", "icluster.affinity"),
    ("core.icluster", "repro.core.icluster:IClusterIndex", "candidates_for_ranking",
     "icluster.candidates"),
    ("core.icluster", "repro.core.model", "build_icluster", "icluster.build"),
    ("core.selection", "repro.core.model", "select_top_k_users", "selection.topk"),
    ("core.fusion", "repro.core.fusion:FusionKernel", "prepare_user", "fusion.prepare"),
    ("core.fusion", "repro.core.fusion:FusionKernel", "fuse_many", "fusion.fuse"),
    ("core.gis", "repro.core.model", "build_gis", "gis.build"),
    ("core.clustering", "repro.core.model", "cluster_users", "cluster.fit"),
    ("core.smoothing", "repro.core.model", "smooth_ratings", "smooth.apply"),
    ("data.matrix", "repro.data.matrix:RatingMatrix", "with_ratings", "data.with_ratings"),
)

#: Span name -> the input count it records: (user, items) blocks per
#: ``fuse_many`` call, its first argument after ``self``.
ARG_COUNTS: dict[str, Callable[[tuple, dict], int]] = {
    "fusion.fuse": lambda args, kwargs: len(kwargs["blocks"] if "blocks" in kwargs else args[1]),
}


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    request: int
    name: str
    start: float
    end: float
    thread: int
    #: Output size where the target returns an array (requests served).
    size: int | None = None
    #: Input count where ``ARG_COUNTS`` names one for this span.
    args: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(owner: str) -> Any:
    module_name, _, cls = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls) if cls else module


def _result_size(result: Any) -> int | None:
    size = getattr(result, "size", None)
    if isinstance(size, int):
        return size
    predictions = getattr(result, "predictions", None)
    return getattr(predictions, "size", None)


class Tracer:
    """Install span-recording wrappers; collect spans while enabled."""

    def __init__(self) -> None:
        self.enabled = False
        self.absent: list[str] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[list[tuple]] = []
        self._buffers_lock = threading.Lock()

    # -- installation ---------------------------------------------------
    def install(self, targets=TARGETS) -> "Tracer":
        for _layer, owner, attr, name in targets:
            try:
                obj = _resolve(owner)
            except (ImportError, AttributeError):
                self.absent.append(f"{owner}.{attr}")
                continue
            self.wrap(obj, attr, name)
        return self

    def wrap(self, obj: Any, attr: str, name: str) -> bool:
        """Wrap ``obj.attr`` in a span named *name*; False when absent."""
        raw = inspect.getattr_static(obj, attr, None)
        if not inspect.isfunction(raw):
            self.absent.append(f"{getattr(obj, '__name__', obj)}.{attr}")
            return False
        setattr(obj, attr, self._wrapper(raw, name))
        self._patches.append((obj, attr, raw))
        return True

    def patch(self, obj: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``obj.attr`` by ``make(original)`` until :meth:`uninstall`."""
        raw = inspect.getattr_static(obj, attr)
        setattr(obj, attr, make(raw))
        self._patches.append((obj, attr, raw))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, raw = self._patches.pop()
            setattr(obj, attr, raw)

    def _wrapper(self, target: Callable, name: str) -> Callable:
        tracer = self
        clock = time.perf_counter
        count_args = ARG_COUNTS.get(name)

        @functools.wraps(target)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return target(*args, **kwargs)
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.spans = []
                local.tid = threading.get_ident()
                with tracer._buffers_lock:
                    tracer._buffers.append(local.spans)
            sid = next(tracer._ids)
            parent, request = stack[-1] if stack else (None, sid)
            stack.append((sid, request))
            result = None
            start = clock()
            try:
                result = target(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                n_args = None
                if count_args is not None:
                    try:
                        n_args = count_args(args, kwargs)
                    except (IndexError, KeyError, TypeError):
                        n_args = None
                # A tuple of atomics: the collector soon stops tracking it,
                # so a traced run does not lengthen collection pauses.
                local.spans.append(
                    (sid, parent, request, name, start, end, local.tid,
                     _result_size(result), n_args)
                )

        return traced

    # -- results --------------------------------------------------------
    def spans(self) -> list[Span]:
        with self._buffers_lock:
            out = [Span(*span) for buf in self._buffers for span in buf]
        out.sort(key=lambda s: s.start)
        return out

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one enabled wrapper adds to a call (measured here)."""
        def noop() -> None:
            return None

        probe = Tracer()
        traced = probe._wrapper(noop, "probe")
        probe.enabled = True
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        return max((t2 - t1) - (t1 - t0), 0.0) / calls


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
    return {span.sid: span.duration - child_time.get(span.sid, 0.0) for span in spans}


def write_spans(path, spans: list[Span]) -> None:
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({
                "id": s.sid, "parent": s.parent, "request": s.request, "name": s.name,
                "start": s.start, "end": s.end, "thread": s.thread, "size": s.size,
                "args": s.args,
            }) + "\n")


def layer_table(spans: list[Span], wall_s: float) -> str:
    """Per-span-name counts, self and total times, and the cold-state split."""
    selfs = self_times(spans)
    rows: dict[str, list[Span]] = {}
    for span in spans:
        rows.setdefault(span.name, []).append(span)
    lines = [
        f"{'span':<22}{'calls':>8}{'total_ms':>11}{'self_ms':>11}{'mean_ms':>9}"
        f"{'p50_ms':>9}{'p99_ms':>9}{'self%wall':>10}"
    ]
    for name in sorted(rows, key=lambda n: -sum(selfs[s.sid] for s in rows[n])):
        group = rows[name]
        dur = np.array([s.duration for s in group]) * 1e3
        self_ms = sum(selfs[s.sid] for s in group) * 1e3
        lines.append(
            f"{name:<22}{len(group):>8}{dur.sum():>11.2f}{self_ms:>11.2f}{dur.mean():>9.4f}"
            f"{np.percentile(dur, 50):>9.4f}{np.percentile(dur, 99):>9.4f}"
            f"{(100 * self_ms / 1e3 / wall_s if wall_s else 0.0):>10.2f}"
        )
    cold = cold_states(spans)
    if cold:
        children: dict[str, float] = {}
        for span in spans:
            if span.parent in cold:
                children[span.name] = children.get(span.name, 0.0) + span.duration
        total = sum(s.duration for s in cold.values())
        lines.append("")
        lines.append(f"cold model.state split ({len(cold)} cold states, {1e3 * total:.2f} ms):")
        for name in ("icluster.affinity", "icluster.candidates", "selection.topk",
                     "fusion.prepare"):
            t = children.get(name, 0.0)
            lines.append(f"  {name:<22}{1e3 * t:>11.2f} ms{100 * t / total:>8.1f}%")
        own = total - sum(children.values())
        lines.append(f"  {'(state self)':<22}{1e3 * own:>11.2f} ms{100 * own / total:>8.1f}%")
    return "\n".join(lines)


def cold_states(spans: list[Span]) -> dict[int, Span]:
    """``model.state`` spans that computed a state (have child spans)."""
    states = {s.sid: s for s in spans if s.name == "model.state"}
    return {p: states[p] for p in {s.parent for s in spans if s.parent in states}}
