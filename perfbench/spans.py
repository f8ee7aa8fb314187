"""Span tracing around confdb's layer boundaries, and the per-layer metrics.

The tracer wraps functions from the benchmark's side: each call records a
span ``(id, parent id, name, start ns, end ns, note)``.  The parent is the
innermost traced call of the same thread, so a span's descendants are the
layer work it caused.  Spans stay in memory until the run ends.  The
clock is ``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux), which is
shared by every process on the host, so the server's spans and the
client's spans fall on one time line.

``_scan_log``, ``Store._apply_transactions``, ``commitproc._analyze`` and
``os.fsync`` are private or foreign; when one of them is gone the metrics
built on it are left out of the result and named on standard error.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time
from contextlib import contextmanager

# (span name, owner path, attribute, note function or None).  The owner
# path is a module name, optionally followed by ":Class".  Note functions
# get (args, result) and return a small value kept with the span.
TARGETS = [
    ("encode", "confdb.model", "encode_payload", None),
    ("decode", "confdb.model", "decode_payload", None),
    ("open", "confdb.store", "open_store", None),
    ("scan", "confdb.store", "_scan_log", lambda a, r: sum(len(t) for t in r[0])),
    ("apply", "confdb.store:Store", "_apply_transactions", None),
    ("fsync", "os", "fsync", None),
    ("refresh", "confdb.store:Store", "refresh", None),
    ("get_object", "confdb.store:Store", "get_object", None),
    ("txn_commit", "confdb.store:WriteTransaction", "commit", None),
    ("create", "confdb.store:WriteTransaction", "create_object", lambda a, r: a[3].kind),
    ("lookup", "confdb.tree", "lookup_path", None),
    ("walk", "confdb.tree", "walk_tree", None),
    ("resolve", "confdb.tree", "resolve_run_type", None),
    ("commit_alias", "confdb.commitproc", "commit_alias_tree", None),
    ("analyze", "confdb.commitproc", "_analyze", None),
    ("alias_load", "confdb.alias", "load_alias_tree", None),
    ("alias_save", "confdb.alias", "save_alias_tree", None),
    ("handle", "confdb.service", "handle_request", lambda a, r: a[1].split(" ", 1)[0].strip()),
    ("fetch", "confdb.client", "fetch_raw", None),
]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        # Ids stay unique when the spans of several processes are merged.
        self._ids = itertools.count(os.getpid() * 10**9 + 1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording their calls."""
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = False

    def wrap(self, fn, name: str, note=None):
        spans, ids, local = self.spans, self._ids, self._local
        stack_of = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if getattr(local, "paused", False):
                return fn(*args, **kwargs)
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append((span_id, parent, name, start, end,
                          note(args, result) if note else None))
            return result

        return traced

    def install(self, extra_modules=()):
        """Wrap every target everywhere the program or the benchmark holds it.

        Module functions are replaced in each module that imported them by
        name, so ``from .model import encode_payload`` is traced too.
        """
        holders = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "confdb" or n.startswith("confdb."))]
        holders += list(extra_modules)
        for name, owner, attr, note in TARGETS:
            module_name, _, class_name = owner.partition(":")
            target = sys.modules[module_name]
            if class_name:
                target = getattr(target, class_name)
            original = target.__dict__.get(attr) if class_name else getattr(target, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            traced = self.wrap(original, name, note)
            setattr(target, attr, traced)
            if not class_name:
                for holder in holders:
                    if getattr(holder, attr, None) is original:
                        setattr(holder, attr, traced)


# ---------------------------------------------------------------------------
# per-layer metrics

# (metric, unit); the README maps each to the end-to-end metric it moves.
PER_LAYER = [
    ("model.encode_us", "us"),
    ("model.decode_us", "us"),
    ("model.encodes_per_get", "count"),
    ("model.encodes_per_commit", "count"),
    ("store.scan_s", "s"),
    ("store.records_per_open", "count"),
    ("store.apply_ms", "ms"),
    ("store.fsync_ms", "ms"),
    ("store.txn_commit_ms", "ms"),
    ("store.refresh_us", "us"),
    ("store.get_object_us", "us"),
    ("tree.lookup_us", "us"),
    ("tree.walk_ms", "ms"),
    ("tree.resolve_us", "us"),
    ("commitproc.commit_ms", "ms"),
    ("commitproc.noop_commit_ms", "ms"),
    ("commitproc.diff_ms", "ms"),
    ("commitproc.maps_written_per_commit", "count"),
    ("alias.load_ms", "ms"),
    ("alias.save_ms", "ms"),
    ("service.get_us", "us"),
    ("service.manifest_ms", "ms"),
    ("service.resolve_us", "us"),
    ("client.get_us", "us"),
    ("client.get_p99_us", "us"),
    ("client.wait_us", "us"),
    ("trace.op_overhead_pct", "%"),
    ("trace.read_overhead_pct", "%"),
]

# Span names each metric is built on; a metric is left out when one is missing.
_NEEDS = {
    "store.scan_s": ("scan",),
    "store.records_per_open": ("scan",),
    "store.apply_ms": ("apply",),
    "store.fsync_ms": ("fsync",),
    "commitproc.commit_ms": ("fsync",),
    "commitproc.noop_commit_ms": ("fsync",),
    "commitproc.diff_ms": ("analyze",),
}

_SCALE = {"s": 1e-9, "ms": 1e-6, "us": 1e-3}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list, missing: list) -> dict:
    """Per-layer figures from the spans of every traced process of a run.

    Times are medians of span durations, ``client.get_p99_us`` the 99th
    percentile; a layer the workload never entered reads 0.
    """
    by_id = {s[0]: s for s in spans}
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)
        children.setdefault(span[1], []).append(span)

    def durations(name, unit, keep=None):
        scale = _SCALE[unit]
        return [(s[4] - s[3]) * scale for s in by_name.get(name, ()) if keep is None or keep(s)]

    def within(span, name) -> list:
        found, todo = [], list(children.get(span[0], ()))
        while todo:
            child = todo.pop()
            if child[2] == name:
                found.append(child)
            todo.extend(children.get(child[0], ()))
        return found

    def verb(v):
        return lambda s: s[5] == v

    gets = [s for s in by_name.get("handle", ()) if s[5] == "GET"]
    fetches = by_name.get("fetch", [])
    commits = by_name.get("commit_alias", [])
    noop = {s[0] for s in commits if not within(s, "fsync")}
    opens = by_name.get("open", [])
    fetch_times = sorted(durations("fetch", "us"))

    def count(spans_, name, keep=None) -> int:
        return sum(1 for s in spans_ for c in within(s, name) if keep is None or keep(c))

    def per(spans_, name, keep=None) -> float:
        return count(spans_, name, keep) / len(spans_) if spans_ else 0.0

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    if fetches:
        decode_in_fetch = [sum(c[4] - c[3] for c in within(s, "decode")) / 1e3 for s in fetches]
        wait = mean(durations("fetch", "us")) - mean(decode_in_fetch) - mean(
            [(s[4] - s[3]) / 1e3 for s in gets])
    else:
        wait = 0.0

    values = {
        "model.encode_us": _median(durations("encode", "us")),
        "model.decode_us": _median(durations("decode", "us")),
        "model.encodes_per_get": (
            (count(gets, "encode") + count(fetches, "encode")) / len(gets) if gets else 0.0),
        "model.encodes_per_commit": per(commits, "encode"),
        "store.scan_s": _median(durations("scan", "s")),
        "store.records_per_open": mean(
            [sum(c[5] for c in within(s, "scan")) for s in opens]),
        "store.apply_ms": _median(durations("apply", "ms")),
        "store.fsync_ms": _median(durations("fsync", "ms")),
        "store.txn_commit_ms": _median(durations("txn_commit", "ms")),
        "store.refresh_us": _median(durations("refresh", "us")),
        "store.get_object_us": _median(durations("get_object", "us")),
        "tree.lookup_us": _median(durations("lookup", "us")),
        "tree.walk_ms": _median(durations("walk", "ms")),
        "tree.resolve_us": _median(durations("resolve", "us")),
        "commitproc.commit_ms": _median(
            durations("commit_alias", "ms", lambda s: s[0] not in noop)),
        "commitproc.noop_commit_ms": _median(
            durations("commit_alias", "ms", lambda s: s[0] in noop)),
        "commitproc.diff_ms": _median(durations(
            "analyze", "ms", lambda s: by_id.get(s[1], (0, 0, ""))[2] != "analyze")),
        "commitproc.maps_written_per_commit": per(commits, "create", lambda c: c[5] == "map"),
        "alias.load_ms": _median(durations("alias_load", "ms")),
        "alias.save_ms": _median(durations("alias_save", "ms")),
        "service.get_us": _median(durations("handle", "us", verb("GET"))),
        "service.manifest_ms": _median(durations("handle", "ms", verb("MANIFEST"))),
        "service.resolve_us": _median(durations("handle", "us", verb("RESOLVE"))),
        "client.get_us": _median(fetch_times),
        "client.get_p99_us": fetch_times[int(0.99 * (len(fetch_times) - 1))] if fetch_times else 0.0,
        "client.wait_us": wait,
    }
    absent = set(missing)
    return {
        name: values[name]
        for name, _ in PER_LAYER
        if name in values and not absent.intersection(_NEEDS.get(name, ()))
    }


def write_spans(path: str, tracer: Tracer) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(tracer.spans, f)


def read_spans(path: str) -> list:
    with open(path, encoding="utf-8") as f:
        return [tuple(s) for s in json.load(f)]
