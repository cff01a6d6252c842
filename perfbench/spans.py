"""Span tracer for the traced (``--trace 1``) run.

The program is not instrumented: the tracer wraps, from here, the public
functions each layer exposes (and a few entry points the engine calls
internally), records spans in memory and writes them out when the run ends.
A span is ``[name, start, end, parent, op, child_seconds]``; ``parent`` is the
index of the enclosing span on the same thread, or the op's root span for
work the server executor thread does on the client's behalf.  A layer's self
time is its duration minus ``child_seconds``, the time of spans nested in it.

Functions called once per row (record decode, page reads, index probes, WAL
appends) are *counted* rather than spanned: each call adds to a per-op-kind
counter and, when timed, adds its time to the enclosing span's children, so
self times stay exact without millions of span records.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.scheduler import DegradationScheduler
from repro.engine.daemon import DegradationDaemon
from repro.engine.database import InstantDB
from repro.index.base import Index
from repro.query.executor import Executor
from repro.query.prepared import PreparedStatement
from repro.query import prepared as prepared_module
from repro.server import protocol
from repro.server.sessions import Session
from repro.storage.degradable_store import TableStore
from repro.storage.pager import FilePager
from repro.storage.wal import WriteAheadLog
from repro.txn.recovery import RecoveryManager
from repro.txn.transaction import TransactionManager

_SERVER_THREAD = "instantdb-server"


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        #: Op id of new spans: >= 1 a timed op, 0 set-up, -1 the traced
        #: recovery, -2 anything else.
        self.op = -2
        self.op_kind = "idle"
        self._op_span: Optional[int] = None
        self._local = threading.local()
        self.counters: Dict[Tuple[str, str], float] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self.recovery: Dict[str, float] = {}

    # -- op boundaries (client thread) -----------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op: int, kind: str) -> None:
        self.op = op
        self.op_kind = kind
        self._op_span = self._open(f"op.{kind}")

    def end_op(self) -> None:
        self._close(self._op_span)
        self._op_span = None
        self.op = -2
        self.op_kind = "idle"

    def phase(self, name: str, start: float, end: float) -> None:
        """Record a set-up phase the benchmark timed itself."""
        self.spans.append([name, start, end, None, 0, 0.0])

    def recovery_report(self, report: Any) -> None:
        data = report.recovery
        self.recovery["records_replayed"] = (
            data.redone_inserts + data.redone_degrades + data.redone_removes
            + data.redone_updates + data.undone_inserts + data.undone_updates)

    # -- spans -------------------------------------------------------------------

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._op_span
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op, 0.0])
        stack.append(index)
        return index

    def _close(self, index: Optional[int]) -> None:
        if index is None:
            return
        span = self.spans[index]
        span[2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        parent = span[3]
        if parent is not None:
            self.spans[parent][5] += span[2] - span[1]

    def add(self, name: str, amount: float = 1.0) -> None:
        key = (name, self.op_kind)
        self.counters[key] = self.counters.get(key, 0.0) + amount

    # -- patching ------------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def span(self, owner: Any, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = tracer._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(index)
        self._patch(owner, attr, wrapper)

    def count(self, owner: Any, attr: str, name: str, timed: bool = False) -> None:
        """Count calls of ``owner.attr`` (and their time when ``timed``)."""
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not timed:
                tracer.add(name)
                return original(*args, **kwargs)
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                tracer.add(name)
                tracer.add(name + ".s", elapsed)
                stack = tracer._stack()
                parent = stack[-1] if stack else tracer._op_span
                if parent is not None:
                    tracer.spans[parent][5] += elapsed
        self._patch(owner, attr, wrapper)

    def install(self, db: InstantDB) -> None:
        """Wrap every layer boundary the per-layer metrics are taken at.

        Class attributes are wrapped for every engine; ``db``, built before
        the tracer was installed, also gets its daemon's bound callbacks
        re-wrapped.
        """
        # client / server
        for attr in ("execute", "executemany", "fetch", "commit", "rollback",
                     "close_cursor", "begin"):
            self.span(Session, attr, "server.engine")
        self._wrap_advance()
        self._wrap_codec()
        # query
        self.span(prepared_module, "parse", "query.parse")
        self.span(PreparedStatement, "bind", "query.bind")
        self.span(InstantDB, "_plan_select", "query.plan")
        self.span(Executor, "execute_physical", "query.exec")
        self._wrap_stream()
        self.count(InstantDB, "execute_statement", "query.statements")
        # index
        for attr in ("search", "range_search"):
            self._wrap_index(attr)
        # storage
        self.count(TableStore, "_decode_row", "store.decode", timed=True)
        self.count(FilePager, "read_page", "pager.read")
        self.span(TableStore, "degrade_many", "store.degrade")
        self.span(TableStore, "remove_many", "store.remove")
        # storage.wal + OS
        self.count(WriteAheadLog, "append", "wal.append")
        self.span(WriteAheadLog, "flush", "wal.flush")
        self.span(WriteAheadLog, "scrub_records", "wal.scrub")
        self._wrap_rewrite()
        self.span(os, "fsync", "io.fsync")
        # txn
        self.span(TransactionManager, "lock_shared", "txn.lock")
        self.span(TransactionManager, "lock_exclusive", "txn.lock")
        self.span(TransactionManager, "commit", "txn.commit")
        # scheduler / daemon
        self._wrap_run_pending()
        self.span(DegradationScheduler, "run_due_batched", "scheduler.run_due")
        self.span(InstantDB, "_apply_degradation_batch", "daemon.apply")
        self.span(InstantDB, "_on_records_final", "daemon.apply")
        self.span(db.daemon, "batch_applier", "daemon.apply")
        self.span(db.daemon, "on_complete_batch", "daemon.apply")
        # recovery
        self.span(RecoveryManager, "recover", "recovery.replay")
        self.span(DegradationDaemon, "catch_up", "recovery.catch_up")

    def _wrap_codec(self) -> None:
        tracer = self
        for attr, direction in (("encode_frame", "out"), ("decode_frame_body", "in")):
            original = protocol.__dict__[attr]

            def wrapper(*args: Any, _original=original, _direction=direction) -> Any:
                server = threading.current_thread().name == _SERVER_THREAD
                prefix = "server" if server else "client"
                index = tracer._open(f"{prefix}.codec")
                try:
                    result = _original(*args)
                finally:
                    tracer._close(index)
                size = len(result) if _direction == "out" else len(args[0]) + 4
                tracer.add(f"{prefix}.wire_bytes", size)
                return result
            self._patch(protocol, attr, wrapper)

    def _wrap_advance(self) -> None:
        """Clock advances the server executor runs count as engine time."""
        original = InstantDB.__dict__["advance_time"]
        tracer = self

        def wrapper(db: InstantDB, *args: Any, **kwargs: Any) -> Any:
            if threading.current_thread() is threading.main_thread():
                return original(db, *args, **kwargs)
            index = tracer._open("server.engine")
            try:
                return original(db, *args, **kwargs)
            finally:
                tracer._close(index)
        self._patch(InstantDB, "advance_time", wrapper)

    def _wrap_stream(self) -> None:
        """Span the opening of a streamed pipeline and every row pulled from it."""
        original = Executor.__dict__["stream_physical"]
        tracer = self

        def pulls(iterator: Any) -> Any:
            while True:
                index = tracer._open("query.exec")
                try:
                    row = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._close(index)
                yield row

        def wrapper(executor: Executor, plan: Any) -> Any:
            index = tracer._open("query.exec")
            try:
                result = original(executor, plan)
            finally:
                tracer._close(index)
            result._iterator = pulls(result._iterator)
            return result
        self._patch(Executor, "stream_physical", wrapper)

    def _wrap_index(self, attr: str) -> None:
        # Every index class overrides the probe methods of the base class.
        for cls in [Index] + _subclasses(Index):
            if attr in cls.__dict__:
                self.count(cls, attr, "index.probe")

    def _wrap_rewrite(self) -> None:
        original = WriteAheadLog.__dict__["_rewrite_file"]
        tracer = self

        def wrapper(wal: WriteAheadLog) -> None:
            before = wal.stats.bytes_written
            index = tracer._open("wal.rewrite")
            try:
                original(wal)
            finally:
                tracer._close(index)
                tracer.add("wal.rewrite_bytes", wal.stats.bytes_written - before)
        self._patch(WriteAheadLog, "_rewrite_file", wrapper)

    def _wrap_run_pending(self) -> None:
        original = DegradationDaemon.__dict__["run_pending"]
        tracer = self

        def wrapper(daemon: DegradationDaemon, now: Optional[float] = None) -> Any:
            index = tracer._open("daemon.run_pending")
            try:
                applied = original(daemon, now)
            finally:
                tracer._close(index)
            tracer.add("scheduler.steps", len(applied))
            return applied
        self._patch(DegradationDaemon, "run_pending", wrapper)

    # -- output --------------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans,
                       "counters": [[k[0], k[1], v] for k, v in self.counters.items()]},
                      handle)


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


# ------------------------------------------------------------------- reduction

def per_layer(tracer: Tracer, ops: int, op_kinds: Dict[int, str],
              rows_returned: int, point_reads: int, firing_waves: int,
              buffer_delta: Tuple[int, int]) -> Dict[str, float]:
    """Reduce the spans and counters of the timed ops (ids >= 1) to metrics.

    ``*_per_op`` divides by every op attempted, ``*_per_wave`` by the waves
    that fired a step, ``*_per_commit`` by the commits outside waves (a wave
    flushes and fsyncs without a user commit).
    """
    kinds = set(op_kinds.values())
    # (name, inside a wave) -> [calls, seconds, self seconds]
    agg: Dict[Tuple[str, bool], List[float]] = {}
    engine_by_op: Dict[int, float] = {}
    op_seconds: Dict[int, float] = {}
    for name, start, end, _parent, op, child in tracer.spans:
        if op < 1 or end is None:
            continue
        duration = end - start
        entry = agg.setdefault((name, op_kinds[op] == "wave"), [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if name == "server.engine":
            engine_by_op[op] = engine_by_op.get(op, 0.0) + duration
        elif name.startswith("op."):
            op_seconds[op] = duration

    def spans(name: str, field: int, wave: Optional[bool] = None) -> float:
        return sum(agg.get((name, flag), (0, 0.0, 0.0))[field]
                   for flag in ((False, True) if wave is None else (wave,)))

    def counter(name: str, only: Optional[set] = None) -> float:
        return sum(value for (key, kind), value in tracer.counters.items()
                   if key == name and kind in (only or kinds))

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    ms = 1000.0
    commits = spans("txn.commit", 0, wave=False)
    served = [(op_seconds[op], engine_by_op.get(op, 0.0)) for op in op_seconds] \
        if engine_by_op else []
    hits, misses = buffer_delta
    return {
        "server.engine_ms_p50":
            statistics.median(e for _t, e in served) * ms if served else 0.0,
        "client.wire_ms_p50":
            statistics.median(t - e for t, e in served) * ms if served else 0.0,
        "server.codec_ms_per_op": ratio(spans("server.codec", 1), ops) * ms,
        "server.wire_bytes_per_op": ratio(counter("server.wire_bytes"), ops),
        "query.parse_ms_per_op": ratio(spans("query.parse", 1), ops) * ms,
        "query.parses_per_stmt": ratio(spans("query.parse", 0),
                                       counter("query.statements")),
        "query.bind_ms_per_op": ratio(spans("query.bind", 1), ops) * ms,
        "query.plan_ms_per_op": ratio(spans("query.plan", 2), ops) * ms,
        "query.exec_self_ms_per_op": ratio(spans("query.exec", 2), ops) * ms,
        "query.rows_examined_per_row_returned": ratio(
            counter("store.decode", {"point_read", "range_scan", "join", "aggregate"}),
            rows_returned),
        "index.probes_per_point_read": ratio(counter("index.probe", {"point_read"}),
                                             point_reads),
        "store.rows_decoded_per_op": ratio(counter("store.decode"), ops),
        "store.decode_ms_per_op": ratio(counter("store.decode.s"), ops) * ms,
        "buffer.hit_ratio": ratio(hits, hits + misses),
        "pager.reads_per_op": ratio(counter("pager.read"), ops),
        "store.degrade_ms_per_wave":
            ratio(spans("store.degrade", 1, wave=True), firing_waves) * ms,
        "store.remove_ms_per_wave":
            ratio(spans("store.remove", 1, wave=True), firing_waves) * ms,
        "wal.appends_per_op": ratio(counter("wal.append"), ops),
        "wal.flush_ms_per_commit": ratio(spans("wal.flush", 1, wave=False), commits) * ms,
        "wal.scrub_ms_per_wave": ratio(spans("wal.scrub", 1, wave=True), firing_waves) * ms,
        "wal.rewrite_bytes_per_wave":
            ratio(counter("wal.rewrite_bytes", {"wave"}), firing_waves),
        "io.fsyncs_per_commit": ratio(spans("io.fsync", 0, wave=False), commits),
        "io.fsync_ms_per_commit": ratio(spans("io.fsync", 1, wave=False), commits) * ms,
        "txn.lock_wait_ms_per_op": ratio(spans("txn.lock", 1), ops) * ms,
        "txn.commit_ms_per_op": ratio(spans("txn.commit", 1), ops) * ms,
        "scheduler.steps_per_wave": ratio(counter("scheduler.steps", {"wave"}),
                                          firing_waves),
        "scheduler.self_ms_per_wave":
            ratio(spans("scheduler.run_due", 2, wave=True), firing_waves) * ms,
        "daemon.apply_ms_per_wave":
            ratio(spans("daemon.apply", 1, wave=True), firing_waves) * ms,
    }


def unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if "_ms" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "B"
    if name == "buffer.hit_ratio":
        return "ratio"
    return "count"


def setup_and_recovery(tracer: Tracer) -> Dict[str, float]:
    """Set-up phases of the kept set-up, recovery phases of the last recovery."""
    phases: Dict[str, float] = {}
    for name, start, end, _parent, op, _child in tracer.spans:
        if end is not None and (op == 0 or op == -1):
            phases[name] = phases.get(name, 0.0) + end - start
    return {
        "setup.generate_s": phases.get("setup.generate", 0.0),
        "setup.load_s": phases.get("setup.load", 0.0),
        "recovery.replay_s": phases.get("recovery.replay", 0.0),
        "recovery.catch_up_s": phases.get("recovery.catch_up", 0.0),
        "recovery.records_replayed": float(tracer.recovery.get("records_replayed", 0)),
    }
