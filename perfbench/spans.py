"""Spans and counters recorded from outside the program.

The benchmark never edits the program.  A traced run instead replaces the
calls into each layer's entry points with thin wrappers (and restores
them afterwards), so every layer boundary records a span:
``(span_id, name, start, end, parent_id, op_id, self_s)``.  Spans are
kept in memory and written out as JSON lines when the run ends.

A layer's self time is its span's duration minus the time covered by its
child spans (spans nest per thread, so children never overlap).

:data:`LAYERS` is the one table of wrapped entry points;
``run.per_layer`` turns span names into metrics and ``README.md`` maps
each metric to its layer and workload.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from time import perf_counter

# (module, owner attribute or None for a module function, attribute, span)
LAYERS = [
    ("repro.core.store", None, "parse_gremlin", "gremlin.parse"),
    ("repro.core.store", "SQLGraphStore", "_compile", "translate"),
    ("repro.core.translator", "GremlinTranslator", "translate", "translate"),
    ("repro.relational.database", "Database", "_prepare", "sql.prepare"),
    ("repro.relational.locks", "LockManager", "acquire", "lock"),
    ("repro.relational.database", "Database", "_dispatch", "executor"),
    ("repro.relational.planner", "Planner", "plan_select_statement",
     "planner.plan"),
    ("repro.relational.planner", "Planner", "plan_query_expr",
     "planner.plan"),
    ("repro.relational.planner", "Planner", "_materialize_cte",
     "planner.cte"),
    ("repro.relational.wal", "WriteAheadLog", "append", "wal.append"),
    ("repro.relational.wal", "WriteAheadLog", "commit_point", "wal.commit"),
    ("repro.relational.database", "Database", "checkpoint",
     "wal.checkpoint"),
    ("repro.core.procedures", "GraphProcedures", "add_vertex", "crud"),
    ("repro.core.procedures", "GraphProcedures", "update_vertex", "crud"),
    ("repro.core.procedures", "GraphProcedures", "delete_vertex", "crud"),
    ("repro.core.procedures", "GraphProcedures", "add_edge", "crud"),
    ("repro.core.procedures", "GraphProcedures", "update_edge", "crud"),
    ("repro.core.procedures", "GraphProcedures", "delete_edge", "crud"),
    ("repro.server.protocol", None, "encode_frame", "wire.encode"),
    ("repro.server.protocol", None, "decode_payload", "wire.decode"),
    ("repro.server.server", "SQLGraphServer", "_handle_request",
     "server.handle"),
]


def _owner(module_name, owner_name):
    module = importlib.import_module(module_name)
    return module if owner_name is None else getattr(module, owner_name)


class Patches:
    """Replace attributes and put the originals back on :meth:`undo`."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attribute, make_wrapper):
        original = owner.__dict__[attribute]
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, make_wrapper(original))

    def undo(self):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


class Tracer:
    """In-memory span recorder for the calls listed in :data:`LAYERS`."""

    def __init__(self):
        self.spans = []
        #: bytes of every frame encoded while tracing
        self.wire_bytes = 0
        self._bytes_lock = threading.Lock()
        self.lock_wait_s = 0.0
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = Patches()
        self._metrics_were_enabled = False
        self._lock_wait_before = 0.0

    # -- recording -----------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op_id):
        """Tag the calling thread's following spans with *op_id*."""
        self._local.op_id = op_id

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span called *name*."""
        stack = self._stack()
        span_id = next(self._ids)
        parent_id = stack[-1][0] if stack else -1
        children = [0.0]
        stack.append((span_id, children))
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1][0] += duration
            self.spans.append((
                span_id, name, start, end, parent_id,
                getattr(self._local, "op_id", None), duration - children[0],
            ))

    def _wrapper(self, name, original):
        span = self.span
        if name == "server.handle":
            set_op = self.set_op

            def wrapper(server, session, message):
                set_op(f"{session.session_id}:{message.get('id')}")
                return span(name, original, server, session, message)
        elif name == "wire.encode":
            def wrapper(*args, **kwargs):
                frame = span(name, original, *args, **kwargs)
                with self._bytes_lock:  # server sessions encode concurrently
                    self.wire_bytes += len(frame)
                return frame
        else:
            def wrapper(*args, **kwargs):
                return span(name, original, *args, **kwargs)
        return functools.wraps(original)(wrapper)

    # -- installation --------------------------------------------------
    def install(self):
        """Wrap every entry point in :data:`LAYERS`.  The engine metrics
        registry is switched on too, for the (timing-dependent) lock wait."""
        from repro.obs.metrics import ENGINE_METRICS

        for module_name, owner_name, attribute, name in LAYERS:
            self._patches.replace(
                _owner(module_name, owner_name), attribute,
                functools.partial(self._wrapper, name),
            )
        self._metrics_were_enabled = ENGINE_METRICS.enabled
        ENGINE_METRICS.enable()
        self._lock_wait_before = ENGINE_METRICS.value("lock.wait_seconds")

    def uninstall(self):
        """Restore the originals; returns :meth:`report`."""
        from repro.obs.metrics import ENGINE_METRICS

        self.lock_wait_s = (
            ENGINE_METRICS.value("lock.wait_seconds") - self._lock_wait_before
        )
        ENGINE_METRICS.enabled = self._metrics_were_enabled
        self._patches.undo()
        return self.report()

    # -- results -------------------------------------------------------
    def report(self):
        """JSON-able span summary, frame bytes and lock wait."""
        return {
            "spans": self.summary(),
            "wire_bytes": self.wire_bytes,
            "lock_wait_s": self.lock_wait_s,
        }

    def summary(self):
        """``{name: {"self_s", "total_s", "count"}}`` over every span."""
        out = {}
        for __, name, start, end, __, __, self_s in self.spans:
            entry = out.setdefault(
                name, {"self_s": 0.0, "total_s": 0.0, "count": 0}
            )
            entry["self_s"] += self_s
            entry["total_s"] += end - start
            entry["count"] += 1
        return out

    def write(self, path):
        """Write every span as one JSON line."""
        fields = ("id", "name", "start", "end", "parent", "op", "self_s")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")


class CountWindow:
    """Exact work counters over a window of ops on one store.

    Reads the program's own counters (buffer pool, caches, WAL, the
    engine metrics registry) before and after, and turns on
    ``database.collect_stats`` so every SELECT reports its operator rows.
    Counting wrappers (no spans) add WAL bytes, the row writes
    (heap-table insert/update/delete) that CRUD procedures issue below the
    SQL layer, and the wall time of each checkpoint.
    """

    def __init__(self, store):
        self.store = store
        self._patches = Patches()
        self.extra = {
            "operator_rows": 0, "result_rows": 0, "selects": 0,
            "wal_bytes": 0, "row_writes": 0, "checkpoint_s": 0.0,
        }
        self._before = None
        self._metrics_were_enabled = False

    def snapshot(self):
        from repro.obs.metrics import ENGINE_METRICS

        database = self.store.database
        pool = database.buffer_pool
        wal = database.wal_stats() or {}
        translation = self.store.translation_cache.stats()
        plan = database.plan_cache.stats()
        return {
            "page_hits": pool.hits,
            "page_misses": pool.misses,
            "page_evictions": pool.evictions,
            "translation_hits": translation["hits"],
            "translation_misses": translation["misses"],
            "plan_hits": plan["hits"],
            "plan_misses": plan["misses"],
            "statements": database.statements_executed,
            "wal_records": wal.get("records", 0),
            "wal_checkpoints": wal.get("checkpoints", 0),
            "index_probes": ENGINE_METRICS.value("index.probes"),
            "index_range_scans": ENGINE_METRICS.value("index.range_scans"),
            "lock_acquisitions": ENGINE_METRICS.value("lock.acquisitions"),
        }

    def start(self):
        from repro.obs.metrics import ENGINE_METRICS

        extra = self.extra

        def count_rows(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                stats = result[3]
                extra["operator_rows"] += stats.total_operator_rows()
                extra["result_rows"] += stats.rows_returned
                extra["selects"] += 1
                return result
            return wrapper

        def count_wal_bytes(original):
            def wrapper(wal, *args, **kwargs):
                before = wal._file.tell()
                result = original(wal, *args, **kwargs)
                after = wal._file.tell()
                if after >= before:
                    extra["wal_bytes"] += after - before
                return result
            return wrapper

        def count_row_writes(original):
            def wrapper(*args, **kwargs):
                extra["row_writes"] += 1
                return original(*args, **kwargs)
            return wrapper

        from repro.relational.database import Database
        from repro.relational.table import HeapTable
        from repro.relational.wal import WriteAheadLog

        def time_checkpoints(original):
            def wrapper(*args, **kwargs):
                started = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    extra["checkpoint_s"] += perf_counter() - started
            return wrapper

        self._patches.replace(Database, "_run_instrumented", count_rows)
        self._patches.replace(Database, "checkpoint", time_checkpoints)
        self._patches.replace(WriteAheadLog, "append", count_wal_bytes)
        for attribute in ("insert", "update", "delete"):
            self._patches.replace(HeapTable, attribute, count_row_writes)
        self._metrics_were_enabled = ENGINE_METRICS.enabled
        ENGINE_METRICS.enable()
        self.store.database.collect_stats = True
        self._before = self.snapshot()

    def stop(self):
        """End the window; returns ``{counter: delta}``."""
        from repro.obs.metrics import ENGINE_METRICS

        after = self.snapshot()
        self.store.database.collect_stats = False
        ENGINE_METRICS.enabled = self._metrics_were_enabled
        self._patches.undo()
        counts = {name: after[name] - self._before[name] for name in after}
        counts.update(self.extra)
        return counts
