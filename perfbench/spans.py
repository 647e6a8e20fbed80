"""Spans and counters recorded from outside the program.

A traced sweep calls :func:`install`, which wraps the public functions
and methods the scheduler calls — found through ``repro.eval.api`` —
in place, in every loaded ``repro`` module that binds them.  Nothing
under ``src/`` changes.  Untraced sweeps never import this module's
wrappers, so they run the program untouched.

Each wrapped call records one span: a name, its start and end on the
host's monotonic clock (comparable across processes), the span open
around it in the same process, and counts measured at the boundary
(bytes, refs, lanes).  The self time of a span is its duration minus
the durations of its children; in one thread children never overlap,
so the self times of a tree sum to the duration of its root.  That
makes the sum no check by itself: :func:`validate` compares it with the
sweep's wall as ``sweep.py`` times it, apart from the spans, and checks
that every span lies inside its parent and outlasts its children.

Pool workers are spawned fresh and re-import the sweep's main module;
the sweep installs the same wrappers there (see ``sweep.py``), and a
worker appends each finished span to its own JSON-lines file, which
the parent reads after the sweep.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from pathlib import Path

clock = time.monotonic

#: The layers :func:`install` wraps.  A target that cannot be found
#: (renamed, moved, deleted) leaves its layer in ``Recorder.missing``.
LAYERS = ("draw", "record", "store", "price", "pool", "scheduler",
          "merge", "result")

#: How far the self times of a sweep's span trees may sum from its
#: separately timed wall: the harness's own steps between sweeps (per
#: root) plus a share of the wall.
SUM_SLACK_PER_ROOT_S = 1e-4
SUM_SLACK_FRAC = 0.01
#: Clock resolution slack for one span against its parent.
SPAN_SLACK_S = 1e-6


class Recorder:
    """The spans of one process: a stack of open spans and the list of
    finished ones.  ``sink`` (a path) makes every finished span also
    land in a JSON-lines file, for processes whose spans another
    process collects."""

    def __init__(self, sink: Path | None = None) -> None:
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.sink = sink
        self.missing: list[str] = []
        self._ids = 0

    def new(self, name: str, **counts) -> dict:
        """A span record under the innermost open span, not opened."""
        self._ids += 1
        return {
            "id": self._ids, "name": name, "pid": os.getpid(),
            "parent": self.stack[-1]["id"] if self.stack else None,
            "t0": clock(), "t1": None, "dur": None, **counts,
        }

    def open(self, name: str, **counts) -> dict:
        record = self.new(name, **counts)
        self.stack.append(record)
        return record

    def close(self, record: dict) -> None:
        record["t1"] = clock()
        if record["dur"] is None:
            record["dur"] = record["t1"] - record["t0"]
        popped = self.stack.pop()
        if popped is not record:  # a wrapper raised out of order
            raise RuntimeError(f"span {record['name']} closed out of order")
        self.spans.append(record)
        if self.sink is not None:
            with open(self.sink, "a") as out:
                out.write(json.dumps(record) + "\n")

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        record = self.open(name, **counts)
        try:
            yield record
        finally:
            self.close(record)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus its children's, by span id."""
    own = {span["id"]: span["dur"] for span in spans}
    for span in spans:
        if span["parent"] in own:
            own[span["parent"]] -= span["dur"]
    return own


def children_of(spans: list[dict]) -> dict[int | None, list[dict]]:
    """Spans grouped by the id of their parent."""
    children: dict[int | None, list[dict]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    return children


def descendants(children: dict, root: dict) -> list[dict]:
    """``root`` and every span under it."""
    out = [root]
    frontier = [root]
    while frontier:
        kids = children.get(frontier.pop()["id"], [])
        out.extend(kids)
        frontier.extend(kids)
    return out


def layer_of(name: str) -> str:
    """The layer a span belongs to: ``store.get`` -> ``store``."""
    layer = name.split(".")[0]
    return "store" if layer in ("decode", "encode") else layer


def validate(recorder: Recorder, roots: list[dict],
             wall_s: float) -> list[tuple[str, str]]:
    """``(layer, problem)`` for each way the span trees under ``roots``
    are wrong: a span that lies outside its parent's interval or whose
    children outlast it (double-counted or mis-parented spans), and self
    times that do not sum to ``wall_s``, the wall time of the same
    sweeps measured without the spans.  Layer ``sweep`` means every
    self time is suspect."""
    own = self_times(recorder.spans)
    by_id = {span["id"]: span for span in recorder.spans}
    children = children_of(recorder.spans)
    problems: set[tuple[str, str]] = set()
    total = 0.0
    for root in roots:
        for span in descendants(children, root):
            total += own[span["id"]]
            name = span["name"]
            if own[span["id"]] < -SPAN_SLACK_S:
                problems.add((layer_of(name),
                              f"{name} spans: children outlast them"))
            parent = by_id.get(span["parent"])
            if parent is not None and (
                    span["t0"] < parent["t0"] - SPAN_SLACK_S
                    or span["t1"] > parent["t1"] + SPAN_SLACK_S):
                problems.add((layer_of(name), f"{name} spans: outside "
                              f"their parent {parent['name']}"))
    slack = SUM_SLACK_PER_ROOT_S * len(roots) + SUM_SLACK_FRAC * wall_s
    if abs(total - wall_s) > slack:
        problems.add(("sweep", f"self times sum to {total:.4f} s, the "
                      f"sweep wall is {wall_s:.4f} s"))
    return sorted(problems)


def has_ancestor(spans_by_id: dict[int, dict], span: dict,
                 name: str) -> bool:
    parent = spans_by_id.get(span["parent"])
    while parent is not None:
        if parent["name"] == name:
            return True
        parent = spans_by_id.get(parent["parent"])
    return False


# ------------------------------------------------------------ wrappers

def _rebind(original, wrapper) -> int:
    """Point every loaded ``repro`` module's binding of ``original`` at
    ``wrapper``; returns how many bindings moved."""
    moved = 0
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                moved += 1
    return moved


def _wrap_function(recorder: Recorder, original, layer: str, name: str,
                   counts):
    """A span around every call; ``counts(args, kwargs, result)`` adds
    boundary counts to the span.  Counts that no longer fit the call's
    signature mark the layer missing instead of failing the sweep."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        record = recorder.open(name)
        try:
            result = original(*args, **kwargs)
            if counts is not None:
                try:
                    record.update(counts(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError):
                    recorder.missing.append(layer)
            return result
        finally:
            recorder.close(record)

    return wrapper


def _wrap_draw(recorder: Recorder, original):
    """A drawer yields blocks lazily, inside the record pass: one span
    per stream whose duration is the time spent producing blocks."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        # Time accrues per block drawn, not per stream: the record pass
        # interleaves its own work between blocks.
        record = recorder.new("draw", refs=0, dur=0.0)
        record["t1"] = record["t0"]
        recorder.spans.append(record)
        stream = iter(original(*args, **kwargs))
        while True:
            started = clock()
            try:
                item = next(stream)
            except StopIteration:
                return
            finally:
                record["t1"] = clock()
                record["dur"] += record["t1"] - started
            if type(item) is tuple:
                record["refs"] += len(item[0])
            yield item

    return wrapper


def _price_counts(api, args, kwargs) -> dict:
    """Events walked and lanes priced by one batch-pricing pass."""
    tasks, recording = args[0], args[1]
    lanes = kwargs.get("lanes") or (args[2] if len(args) > 2 else None)
    if lanes is None:
        lanes = [None] * len(tasks)
    return {
        "events": recording.event_count,
        "lanes": sum(len(api.task_lanes(task)) if subset is None
                     else len(subset)
                     for task, subset in zip(tasks, lanes)),
    }


def _ref_bytes(ref) -> int:
    if not isinstance(ref, dict):
        return 0
    if "size" in ref:
        return int(ref["size"])
    return len(ref.get("payload") or b"")


def install(recorder: Recorder, api=None, sources=None, *,
            worker: bool = False) -> None:
    """Wrap every layer boundary this module knows, reached through
    ``api`` (default ``repro.eval.api``) and, for the drawers,
    ``sources`` (default ``repro.workloads.sources``).  A target they no
    longer offer is skipped and its layer recorded in
    ``recorder.missing``.  In a pool worker (``worker=True``) only the
    pricing layer runs, so only it is wrapped."""
    if api is None:
        try:
            import repro.eval.api as api
        except ImportError:
            recorder.missing.extend(LAYERS)
            return

    def function(layer: str, owner, attr: str, name: str,
                 counts=None) -> None:
        original = getattr(owner, attr, None)
        if original is None or not _rebind(original, _wrap_function(
                recorder, original, layer, name, counts)):
            recorder.missing.append(layer)

    def method(layer: str, cls_name: str, attr: str, name: str,
               counts=None) -> None:
        cls = getattr(api, cls_name, None)
        original = getattr(cls, attr, None) if cls is not None else None
        if original is None:
            recorder.missing.append(layer)
            return
        setattr(cls, attr,
                _wrap_function(recorder, original, layer, name, counts))

    function("price", api, "price_batch", "price",
             lambda a, k, r: _price_counts(api, a, k))
    if worker:
        return

    function("record", api, "record", "record",
             lambda a, k, r: {"refs": a[0].scale.total_refs,
                              "events": r.event_count})
    function("scheduler", api, "run_tasks", "scheduler")
    function("merge", api, "merge_shard_events", "merge")

    method("store", "TraceStore", "get_entry", "store.get",
           lambda a, k, r: {"hit": r is not None})
    method("store", "TraceStore", "get_payload", "store.get",
           lambda a, k, r: {"hit": r is not None})
    method("store", "TraceStore", "put", "store.put")
    # The store's codec, found beside the store rather than in the API.
    codec = sys.modules.get(getattr(getattr(api, "TraceStore", None),
                                    "__module__", ""))
    function("store", codec, "recording_from_bytes", "decode",
             lambda a, k, r: {"bytes": len(a[0])})
    function("store", codec, "recording_to_bytes", "encode",
             lambda a, k, r: {"bytes": len(r)})

    method("result", "ResultCache", "get", "result.get",
           lambda a, k, r: {"hit": r is not None})
    method("result", "ResultCache", "put", "result.put")

    method("pool", "WorkerPool", "grow", "pool.spawn")
    method("pool", "WorkerPool", "warm", "pool.spawn")
    method("pool", "WorkerPool", "ship_recording", "pool.ship",
           lambda a, k, r: {"bytes": _ref_bytes(r)})
    method("pool", "WorkerPool", "run", "pool.run",
           lambda a, k, r: {"items": len(a[2]), "workers": min(
               k.get("max_workers") or a[0].n_workers, a[0].n_workers,
               len(a[2]))})

    if sources is None:
        try:
            import repro.workloads.sources as sources
        except ImportError:
            sources = None
    base = getattr(sources, "WorkloadSource", None)
    if base is None:
        recorder.missing.append("draw")
        return
    classes = [base]
    while classes:
        cls = classes.pop()
        classes.extend(cls.__subclasses__())
        if "stream_blocks" in vars(cls):
            cls.stream_blocks = _wrap_draw(recorder, cls.stream_blocks)


def read_sink_dir(directory: Path, skip_pid: int) -> list[dict]:
    """Every span other processes appended under ``directory``."""
    spans: list[dict] = []
    for path in sorted(directory.glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if record["pid"] != skip_pid:
                spans.append(record)
    return spans


def install_worker(directory: Path) -> Recorder:
    """Trace a pool worker: its pricing spans, and the moment it
    started (a worker starting after the sweep began is a respawn)."""
    recorder = Recorder(sink=directory / f"spans-{os.getpid()}.jsonl")
    recorder.close(recorder.open("worker.start"))
    install(recorder, worker=True)
    return recorder


def summarise(recorder: Recorder, roots: list[dict],
              worker_spans: list[dict]) -> dict:
    """Per-sweep layer figures: totals over the spans under each
    ``sweep`` root (and the worker spans inside its interval), divided
    by the number of roots.  ``pool_spawn_s`` is the set-up spent
    starting and warming the pool, outside every root."""
    totals: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    own = self_times(recorder.spans)
    by_id = {span["id"]: span for span in recorder.spans}
    children = children_of(recorder.spans)
    for root in roots:
        tree = descendants(children, root)
        add("wall_s", root["dur"])
        for span in tree:
            name, dur = span["name"], span["dur"]
            if name == "draw":
                add("draw_s", dur)
                add("draw_refs", span.get("refs", 0))
            elif name == "record":
                add("record_s", own[span["id"]])
                add("record_refs", span.get("refs", 0))
                add("record_events", span.get("events", 0))
            elif name in ("store.get", "store.put", "result.get",
                          "result.put", "merge", "pool.ship", "decode",
                          "encode"):
                key = name.replace(".", "_")
                add(f"{key}_s", dur)
                add(f"{key}_n", 1)
                add(f"{key}_bytes", span.get("bytes", 0))
                add(f"{key}_hits", 1 if span.get("hit") else 0)
            elif name == "price":
                add("price_s", dur)
                add("event_lanes",
                    span.get("events", 0) * span.get("lanes", 0))
                add("shards", 1)
                if has_ancestor(by_id, span, "pool.run"):
                    add("retried", 1)  # a dead worker's item, re-run here
            elif name == "pool.run" and not has_ancestor(
                    by_id, span, "pool.spawn"):
                add("wait_s", dur)
                add("worker_s", dur * span.get("workers", 0))
                add("dispatched", span.get("items", 0))
            elif name == "scheduler":
                add("scheduler_self_s", own[span["id"]])
            elif name == "render":
                add("render_s", dur)
        for span in worker_spans:
            if not root["t0"] <= span["t0"] <= root["t1"]:
                continue
            if span["name"] == "worker.start":
                add("respawned", 1)
            elif span["name"] == "price":
                add("price_s", span["dur"])
                add("busy_s", span["dur"])
                add("event_lanes",
                    span.get("events", 0) * span.get("lanes", 0))
                add("shards", 1)
    layers = {key: value / max(len(roots), 1)
              for key, value in totals.items()}
    layers["pool_spawn_s"] = sum(
        span["dur"] for span in recorder.spans
        if span["name"] == "pool.spawn" and span["parent"] is None
    )
    return layers
