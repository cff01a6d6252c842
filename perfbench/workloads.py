"""The three workloads: ``keyed_served``, ``retention_soak`` and ``scan_mix``.

Each is a closed loop: one client, one connection, the next op sent when the
previous one returned.  A run does a fixed amount of seeded work (whole
rounds of a fixed op composition; the round count follows from
``--seconds``), then checks every output against the shadow model
(:mod:`model`) outside the timed section.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import os
import random
import shutil
import struct
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.connection import connect as local_connect
from repro.client import connect as remote_connect
from repro.core.domains import build_location_tree
from repro.core.errors import IntegrityError
from repro.scenarios.driver import DEFAULT_MIX, WAVE_MIN_S, OpStream
from repro.scenarios.generator import employee_salary
from repro.server import ServerThread

import common
from common import DAY, HOUR
from model import POLICIES, CheckFailure, Model, canonical_rows

INSERT_APP = ("INSERT INTO job_applications (id, user_id, company_id, status, "
              "applicant_address, applied_day) VALUES (?, ?, ?, ?, ?, ?)")
INSERT_EMPLOYEE = ("INSERT INTO employee_records (id, user_id, company_id, salary, "
                   "address, hired_day) VALUES (?, ?, ?, ?, ?, ?)")
UPDATE_STATUS = "UPDATE job_applications SET status = ? WHERE id = ?"
DELETE_APP = "DELETE FROM job_applications WHERE id = ?"
POINT_USER = "SELECT id, name, address, health_note FROM users WHERE id = ?"
POINT_APP = ("SELECT id, user_id, status, applicant_address "
             "FROM job_applications WHERE id = ?")
POINT_APPROVAL = "SELECT id, user_id, number, status FROM approvals WHERE id = ?"

_STATUSES = ("new", "processing", "accepted", "refused")


@dataclass
class Op:
    kind: str
    sql: str = ""
    params: tuple = ()
    purpose: Optional[str] = None
    advance: float = 0.0
    rows: List[tuple] = field(default_factory=list)
    ordered: bool = False
    #: Model query giving the expected rows (read ops).
    expect: Optional[Callable[[Model], List[tuple]]] = None


# ------------------------------------------------------------ expected results

def _expectation(sql: str, params: tuple, purpose: Optional[str]
                 ) -> Callable[[Model], List[tuple]]:
    """The model query answering one of the scenario's read templates."""
    p = params
    known: Dict[str, Callable[[Model], List[tuple]]] = {
        POINT_USER: lambda m: m.point("users", p[0], ("id", "name", "address",
                                                      "health_note"), purpose),
        POINT_APP: lambda m: m.point("job_applications", p[0],
                                     ("id", "user_id", "status",
                                      "applicant_address"), purpose),
        POINT_APPROVAL: lambda m: m.point("approvals", p[0],
                                          ("id", "user_id", "number", "status"),
                                          purpose),
        ("SELECT id, name, signup_day FROM users WHERE signup_day >= ? AND "
         "signup_day <= ? ORDER BY id LIMIT 25"):
            lambda m: m.band("users", "signup_day", p[0], p[1],
                             ("id", "name", "signup_day"), purpose, limit=25),
        ("SELECT id, user_id, salary FROM employee_records WHERE salary >= ? "
         "AND salary <= ? ORDER BY id"):
            lambda m: m.band("employee_records", "salary", p[0], p[1],
                             ("id", "user_id", "salary"), purpose),
        ("SELECT id, user_id, status FROM approvals WHERE granted_day >= ? AND "
         "granted_day <= ? ORDER BY id"):
            lambda m: m.band("approvals", "granted_day", p[0], p[1],
                             ("id", "user_id", "status"), purpose),
        ("SELECT job_applications.id, users.name, users.address FROM "
         "job_applications JOIN users ON job_applications.user_id = users.id "
         "WHERE job_applications.company_id = ?"):
            lambda m: m.apps_join_users(p[0], purpose),
        ("SELECT employee_records.id, companies.name, employee_records.address "
         "FROM employee_records JOIN companies ON employee_records.company_id = "
         "companies.id WHERE companies.id = ?"):
            lambda m: m.employees_join_companies(p[0], purpose),
        ("SELECT status, COUNT(*) AS n FROM job_applications GROUP BY status "
         "ORDER BY status"):
            lambda m: m.count_by("job_applications", "status", purpose),
        "SELECT address, COUNT(*) AS n FROM users GROUP BY address":
            lambda m: m.count_by("users", "address", purpose),
        ("SELECT applicant_address, COUNT(*) AS n FROM job_applications "
         "GROUP BY applicant_address"):
            lambda m: m.count_by("job_applications", "applicant_address", purpose),
    }
    if sql not in known:
        raise CheckFailure(f"no model for query template {sql!r}")
    return known[sql]


def read_op(kind: str, sql: str, params: tuple, purpose: Optional[str],
            ordered: bool = False) -> Op:
    return Op(kind, sql, tuple(params), purpose, ordered=ordered,
              expect=_expectation(sql, tuple(params), purpose))


# --------------------------------------------------------------------- clients

class EmbeddedClient:
    """The in-process PEP 249 driver over an engine."""

    def __init__(self, db: Any) -> None:
        self.db = db
        self.conn = local_connect(engine=db)

    def execute(self, sql: str, params: tuple, purpose: Optional[str]) -> Any:
        return self.conn.execute(sql, params, purpose=purpose)

    def executemany(self, sql: str, rows: List[tuple]) -> Any:
        cursor = self.conn.cursor()
        cursor.executemany(sql, rows)
        return cursor

    def commit(self) -> None:
        self.conn.commit()

    def rollback(self) -> None:
        self.conn.rollback()

    def advance(self, seconds: float) -> None:
        self.db.advance_time(seconds)

    def engine_call(self, fn: Callable[..., Any]) -> Any:
        return fn(self.db)

    def close(self) -> None:
        self.conn.close()


class RemoteClient(EmbeddedClient):
    """One ``repro.client`` connection to an in-process ``ServerThread``."""

    def __init__(self, db: Any) -> None:
        self.db = db
        self.server = ServerThread(db).start()
        host, port = self.server.address
        self.conn = remote_connect(host, port)

    def advance(self, seconds: float) -> None:
        self.server.submit(functools.partial(self.db.advance_time, seconds))

    def engine_call(self, fn: Callable[..., Any]) -> Any:
        return self.server.submit(functools.partial(fn, self.db))

    def close(self) -> None:
        try:
            self.conn.close()
        finally:
            self.server.stop()


# ------------------------------------------------------------------ the loop

@dataclass
class Outcome:
    results: List[Any]
    samples: common.Samples
    seconds: float
    wchar: int
    failed: int
    firing_waves: int
    rows_returned: int
    point_reads: int


def digest(rows: Sequence[Sequence[Any]], ordered: bool) -> Tuple[int, str]:
    """Row count and hash of a read result, as the check compares them."""
    text = repr(canonical_rows(rows, ordered)).encode()
    return len(rows), hashlib.sha1(text).hexdigest()


def run_ops(client: EmbeddedClient, ops: Sequence[Op], tracer: Any) -> Outcome:
    """Execute ``ops`` in order, timing each.

    Returns what the check needs: each write's row count, each read's
    :func:`digest` (not its rows, so the benchmark's own memory stays small).
    ``seconds`` is the time spent inside the ops.
    """
    samples = common.Samples()
    results: List[Any] = []
    failed = firing = returned = points = 0
    steps = lambda db: db.stats.degradation_steps_applied
    wrote = common.wchar()
    busy = 0.0
    for index, op in enumerate(ops, 1):
        if tracer is not None:
            tracer.begin_op(index, op.kind)
        started = time.perf_counter()
        kind = op.kind
        if kind == "wave":
            before = steps(client.db)
            client.advance(op.advance)
            result = steps(client.db) - before
            if result:
                firing += 1
            else:
                kind = "wave_idle"
        elif kind == "bulk":
            result = client.executemany(op.sql, op.rows).rowcount
            client.commit()
        elif kind == "resend":
            try:
                client.execute(op.sql, op.params, op.purpose)
                result = "accepted"
                failed += 1
            except IntegrityError:
                result = "rejected"
            client.rollback()
        elif op.expect is not None:
            result = client.execute(op.sql, op.params, op.purpose).fetchall()
            client.commit()
            returned += len(result)
            points += kind == "point_read"
        else:
            result = client.execute(op.sql, op.params, op.purpose).rowcount
            client.commit()
        elapsed = time.perf_counter() - started
        if tracer is not None:
            tracer.end_op()
        busy += elapsed
        samples.add(kind, elapsed)
        if op.expect is not None:
            result = digest(result, op.ordered)
        results.append(result)
    return Outcome(results, samples, busy, common.wchar() - wrote, failed,
                   firing, returned, points)


def check_results(model: Model, ops: Sequence[Op], results: Sequence[Any]) -> None:
    """Replay ``ops`` through the model and compare every recorded result."""
    for index, (op, result) in enumerate(zip(ops, results), 1):
        where = f"op {index} ({op.kind} {op.sql or op.advance} {op.params!r})"
        if op.kind == "wave":
            model.advance(op.advance)
            continue
        if op.kind == "resend":
            if result not in ("accepted", "rejected"):
                raise CheckFailure(f"{where}: unexpected outcome {result!r}")
            continue
        if op.kind == "bulk":
            for row in op.rows:
                model.insert("job_applications", row)
            want: Any = len(op.rows)
        elif op.kind == "insert":
            model.insert(_insert_table(op.sql), op.params)
            want = 1
        elif op.kind == "update":
            want = model.update_status(op.params[1], op.params[0], op.purpose)
        elif op.kind == "delete":
            want = model.delete_app(op.params[0], op.purpose)
        else:
            expected = op.expect(model)
            want = digest(expected, op.ordered)
            if result != want:
                raise CheckFailure(
                    f"{where}: engine returned {result[0]} rows, model expects "
                    f"{want[0]} (digests differ); model rows: "
                    f"{canonical_rows(expected, op.ordered)[:5]!r}")
        if result != want:
            raise CheckFailure(f"{where}: engine returned {result!r}, "
                               f"model expects {want!r}")


def _insert_table(sql: str) -> str:
    return "employee_records" if sql == INSERT_EMPLOYEE else "job_applications"


# ------------------------------------------------------------------ workloads

@dataclass
class Spec:
    """How a workload is set up and sized."""

    scale: int
    history_s: float
    round_seconds: float  # nominal wall time of one round on a 2-core machine
    remote: bool = False
    forensic: bool = False


def smoke_spec(spec: Spec) -> Spec:
    """A tenth of the scale: the same ops and checks, done in seconds."""
    return Spec(max(50, spec.scale // 10), spec.history_s, spec.round_seconds,
                spec.remote, spec.forensic)


def rounds_for(spec: Spec, seconds: float) -> int:
    return max(1, int(round(seconds / spec.round_seconds)))


KEYED = Spec(scale=2000, history_s=4 * DAY, round_seconds=5.0, remote=True)
SOAK = Spec(scale=500, history_s=4 * DAY, round_seconds=7.5, forensic=True)
SCAN = Spec(scale=2000, history_s=4 * DAY, round_seconds=3.6)

#: keyed_served round: 100 requests in the proportions of the scenario's
#: ``DEFAULT_MIX`` restricted to the kinds this workload sends (point read
#: 0.30, insert 0.12, update 0.08 → 60/24/16), the point reads split over
#: the tables as ``OpStream`` splits them (45 % users, 35 % applications,
#: 20 % approvals).  Plus one re-send and seven 3-hour waves.  The wave
#: advance equals the set-up's cohort spacing, so every wave crosses the same
#: transitions of the same tables (with 1-hour waves, two waves in three
#: found nothing or one paranoid row, one in three degraded every table, and
#: the median fell between the two clusters).
KEYED_ROUND = {"point_user": 27, "point_app": 21, "point_approval": 12,
               "update": 16, "insert": 24}
KEYED_WAVES_PER_ROUND = 7
KEYED_WAVE_S = 3 * HOUR

#: scan_mix round: ``DEFAULT_MIX`` × 100 for range scans, joins, aggregates,
#: inserts, updates and deletes; point reads cut from 30 to 4, since the
#: workload is the scan-heavy one.  A wave follows every 11 ops (the mix's
#: 8 waves to 89 other ops) and advances ``WAVE_MIN_S`` (6 hours), the low
#: end of ``OpStream``'s wave window, fixed so that every wave crosses the
#: same number of load cohorts.
SCAN_ROUND = {"range_scan": 14, "join": 12, "aggregate": 8, "point_read": 4,
              "insert": 12, "update": 8, "delete": 5}
SCAN_OPS_PER_WAVE = 11
SCAN_WAVE_S = WAVE_MIN_S

#: retention_soak: thirteen simulated weeks of 12-hour steps; the round count
#: sets how many single-row inserts each step makes (two per round).
SOAK_WEEKS = 13
SOAK_STEP_S = 12 * HOUR
SOAK_STEPS_PER_WEEK = int(7 * DAY / SOAK_STEP_S)
SOAK_BULK_ROWS = 40


def keyed_ops(setup: common.Setup, seed: int, rounds: int) -> List[Op]:
    """Point reads, status updates, inserts and 3-hour waves, in rounds.

    The first insert of every round is re-sent right after it was
    acknowledged, as a client retry would; its row is derived from the round
    number alone, so the re-send does not depend on the seed.
    """
    scenario = setup.scenario
    rng = random.Random(seed * 7919 + 11)
    addresses = _addresses()
    next_app = scenario.num_applications + 1
    ops: List[Op] = []
    for round_index in range(rounds):
        body: List[Op] = []
        for kind, count in KEYED_ROUND.items():
            for _ in range(count):
                body.append(Op(kind))
        rng.shuffle(body)
        first_insert = next(i for i, op in enumerate(body) if op.kind == "insert")
        chunk = len(body) // KEYED_WAVES_PER_ROUND
        round_ops: List[Op] = []
        for position, slot in enumerate(body):
            if slot.kind == "insert":
                if position == first_insert:
                    row = (next_app, 1 + (round_index * 7) % scenario.num_users,
                           1 + round_index % scenario.num_companies, "new",
                           addresses[round_index % len(addresses)],
                           round_index % 365)
                else:
                    row = (next_app, rng.randint(1, scenario.num_users),
                           rng.randint(1, scenario.num_companies), "new",
                           rng.choice(addresses), rng.randint(0, 365))
                next_app += 1
                round_ops.append(Op("insert", INSERT_APP, row))
                if position == first_insert:
                    round_ops.append(Op("resend", INSERT_APP, row))
            elif slot.kind == "update":
                round_ops.append(Op("update", UPDATE_STATUS,
                                    (rng.choice(_STATUSES),
                                     rng.randint(1, next_app - 1)), "statistics"))
            elif slot.kind == "point_user":
                round_ops.append(read_op(
                    "point_read", POINT_USER, (rng.randint(1, scenario.num_users),),
                    rng.choice(("placement", "casework"))))
            elif slot.kind == "point_app":
                round_ops.append(read_op(
                    "point_read", POINT_APP, (rng.randint(1, next_app - 1),),
                    "placement"))
            else:
                round_ops.append(read_op(
                    "point_read", POINT_APPROVAL,
                    (rng.randint(1, scenario.num_approvals),), None))
            if (position + 1) % chunk == 0:
                round_ops.append(Op("wave", advance=KEYED_WAVE_S))
        ops.extend(round_ops)
    return ops


def scan_ops(setup: common.Setup, seed: int, rounds: int) -> List[Op]:
    """Scan-heavy rounds assembled from a seeded ``OpStream`` by op kind.

    The stream is drawn (and, being a prefix-stable sequence, lengthened)
    until every kind's pool holds what the rounds take.
    """
    mix = {kind: float(count) for kind, count in SCAN_ROUND.items()}
    count = rounds * sum(SCAN_ROUND.values()) * 2
    while True:
        pools: Dict[str, List[Any]] = {kind: [] for kind in SCAN_ROUND}
        for op in OpStream(setup.scenario, seed=seed, mix=mix, count=count).ops():
            pools[op.kind].append(op)
        if all(len(pools[kind]) >= rounds * need
               for kind, need in SCAN_ROUND.items()):
            break
        count *= 2
    rng = random.Random(seed * 104729 + 3)
    ops: List[Op] = []
    taken = {kind: 0 for kind in SCAN_ROUND}
    for _ in range(rounds):
        body: List[Op] = []
        for kind, count in SCAN_ROUND.items():
            for _ in range(count):
                source = pools[kind][taken[kind]]
                taken[kind] += 1
                if kind in ("insert", "update", "delete"):
                    purpose = None if kind == "insert" else "statistics"
                    body.append(Op(kind, source.sql, tuple(source.params), purpose))
                else:
                    body.append(read_op(kind, source.sql, source.params,
                                        source.purpose, source.ordered))
        rng.shuffle(body)
        for position, op in enumerate(body):
            ops.append(op)
            if (position + 1) % SCAN_OPS_PER_WAVE == 0:
                ops.append(Op("wave", advance=SCAN_WAVE_S))
    return ops


def soak_ops(setup: common.Setup, seed: int, inserts_per_step: int) -> List[Op]:
    """Thirteen simulated weeks of continuous ingestion in 12-hour steps.

    Every step inserts ``inserts_per_step`` single rows, alternating
    ``job_applications`` (paranoid users included) and ``employee_records``
    (unique salaries), then advances the clock; once a week a batch of
    applications arrives through ``executemany``.
    """
    scenario = setup.scenario
    rng = random.Random(seed * 1299709 + 5)
    addresses = _addresses()
    next_app = scenario.num_applications + 1
    next_employee = scenario.num_employees + 1
    ops: List[Op] = []

    def application() -> tuple:
        nonlocal next_app
        user = rng.randint(1, scenario.num_users)
        row = (next_app, user, rng.randint(1, scenario.num_companies),
               rng.choice(_STATUSES), rng.choice(addresses), rng.randint(0, 365))
        next_app += 1
        return row

    for _week in range(SOAK_WEEKS):
        for _step in range(SOAK_STEPS_PER_WEEK):
            for slot in range(inserts_per_step):
                if slot % 2 == 0:
                    ops.append(Op("insert", INSERT_APP, application()))
                else:
                    ops.append(Op("insert", INSERT_EMPLOYEE, (
                        next_employee, rng.randint(1, scenario.num_users),
                        rng.randint(1, scenario.num_companies),
                        employee_salary(next_employee), rng.choice(addresses),
                        rng.randint(0, 365))))
                    next_employee += 1
            ops.append(Op("wave", advance=SOAK_STEP_S))
        ops.append(Op("bulk", INSERT_APP,
                      rows=[application() for _ in range(SOAK_BULK_ROWS)]))
    return ops


def _addresses() -> List[str]:
    return list(build_location_tree().values_at_level(0))


# --------------------------------------------------------------- forensics

def salary_images(salaries: Sequence[int]) -> Dict[bytes, int]:
    """The engine's record encoding of each salary (INT tag + little-endian q)."""
    return {b"\x01" + struct.pack("<q", salary): salary for salary in salaries}


def expired_salaries(model: Model, inserted: Dict[int, float]) -> List[int]:
    """Unique salaries past their first transition at the model clock."""
    first = POLICIES["employee_records"]["salary"][1][1]
    return [employee_salary(employee_id)
            for employee_id, at in inserted.items() if model.now - at >= first]


def raw_search(directory: str, images: Dict[bytes, int]) -> List[Tuple[str, int]]:
    """Every (file, salary) whose encoded image occurs in a file's raw bytes."""
    found = []
    for entry in sorted(os.scandir(directory), key=lambda e: e.name):
        if not entry.is_file():
            continue
        with open(entry.path, "rb") as handle:
            data = handle.read()
        for image, salary in images.items():
            if image in data:
                found.append((entry.name, salary))
    return found


# ----------------------------------------------------------------------- run

def run(name: str, seed: int, seconds: float, tracer: Any,
        smoke: bool = False, crash_mid_log: bool = False) -> Dict[str, Any]:
    spec = {"keyed_served": KEYED, "retention_soak": SOAK, "scan_mix": SCAN}[name]
    if smoke:
        spec = smoke_spec(spec)
    root = common.run_dir(name)
    try:
        return _run(name, spec, seed, seconds, tracer, root,
                    setup_repeats=1 if smoke else common.SETUP_REPEATS,
                    crash_mid_log=crash_mid_log)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _run(name: str, spec: Spec, seed: int, seconds: float, tracer: Any,
         root: str, setup_repeats: int, crash_mid_log: bool) -> Dict[str, Any]:
    setup, setup_s = common.repeated_setup(root, spec.scale, seed, spec.history_s,
                                           setup_repeats, tracer)
    rounds = rounds_for(spec, seconds)
    if name == "keyed_served":
        ops = keyed_ops(setup, seed, rounds)
    elif name == "scan_mix":
        ops = scan_ops(setup, seed, rounds)
    else:
        ops = soak_ops(setup, seed, inserts_per_step=2 * rounds)
    db = setup.db
    data_dir = os.path.join(root, f"data{setup_repeats - 1}")
    client: EmbeddedClient = RemoteClient(db) if spec.remote else EmbeddedClient(db)
    pool_before = (db.buffer_pool.stats.hits, db.buffer_pool.stats.misses)
    if tracer is not None:
        tracer.install(db)
    gc.collect()
    try:
        outcome = run_ops(client, ops, tracer)
        crash_dir = os.path.join(root, "crash")
        if not crash_mid_log:
            # The crash image is taken at a checkpoint (the engine stays
            # open): a copy taken mid-log makes recover() lose an
            # acknowledged row or leave an attribute late on some seeds.
            client.engine_call(lambda engine: engine.checkpoint())
        common.crash_copy(data_dir, crash_dir)
        disk_mb = common.dir_mb(data_dir)
        stored = client.engine_call(common.stored_rows)
        engine_now = client.engine_call(lambda engine: engine.clock.now())
    finally:
        client.close()
    pool_after = (db.buffer_pool.stats.hits, db.buffer_pool.stats.misses)
    db.close()

    # Checks run outside the timed section; a failed one is reported with the
    # metrics (``correct`` false), and the recoveries are still timed.
    failures: List[str] = []
    model: Optional[Model] = setup.model
    try:
        check_results(model, ops, outcome.results)
    except CheckFailure as failure:
        failures.append(f"op results: {failure}")
        model = None  # replayed only in part: no later check can use it
    inspect = None
    if model is not None:
        try:
            if engine_now != model.now:
                raise CheckFailure(f"engine clock {engine_now} != model clock "
                                   f"{model.now}")
            model.check_engine_rows(stored)
        except CheckFailure as failure:
            failures.append(f"live engine: {failure}")
        if spec.forensic:
            try:
                inspect = _forensic_check(model, ops, crash_dir)
            except CheckFailure as failure:
                failures.append(str(failure))
    recover_s, recovery_failures = common.timed_recoveries(
        crash_dir, root, model, repeats=3, tracer=tracer, inspect=inspect)
    failures += recovery_failures

    attempted = len(ops)
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (attempted / outcome.seconds, "1/s"),
        "wave_p50_ms": (outcome.samples.median_ms("wave"), "ms"),
        "recover_s": (recover_s, "s"),
        "bytes_written_per_op": (outcome.wchar / attempted, "B"),
        "disk_mb": (disk_mb, "MB"),
        "peak_rss_mb": (common.peak_rss_mb(), "MB"),
    }
    details = outcome.samples.details()
    details.update(rounds=rounds, timed_s=round(outcome.seconds, 3),
                   firing_waves=outcome.firing_waves)
    layer = None
    if tracer is not None:
        from spans import per_layer, setup_and_recovery
        op_kinds = {index: op.kind for index, op in enumerate(ops, 1)}
        layer = per_layer(tracer, attempted, op_kinds, outcome.rows_returned,
                          outcome.point_reads, outcome.firing_waves,
                          (pool_after[0] - pool_before[0],
                           pool_after[1] - pool_before[1]))
        layer.update(setup_and_recovery(tracer))
    return {"attempted": attempted, "failed": outcome.failed, "metrics": metrics,
            "details": details, "per_layer": layer, "failures": failures}


def _forensic_check(model: Model, ops: Sequence[Op],
                    crash_dir: str) -> Callable[[str], None]:
    """Raw-byte forensic check of the crash image (and, later, the recovered
    directory): no salary past its first transition may survive in any file.

    Only salaries the soak inserted are searched for: their insertion times
    follow from the op sequence and the final model clock.
    """
    inserted_at: Dict[int, float] = {}
    now = model.now - sum(op.advance for op in ops if op.kind == "wave")
    for op in ops:
        if op.kind == "wave":
            now += op.advance
        elif op.kind == "insert" and op.sql == INSERT_EMPLOYEE:
            inserted_at[op.params[0]] = now
    expired = expired_salaries(model, inserted_at)
    if not expired:
        raise CheckFailure("forensic check has no expired salary to look for")
    images = salary_images(expired)
    leaks = raw_search(crash_dir, images)
    if leaks:
        raise CheckFailure(f"crash image holds {len(leaks)} expired salaries in "
                           f"plaintext, e.g. {leaks[0]}")

    def after_recovery(directory: str) -> None:
        found = raw_search(directory, images)
        if found:
            raise CheckFailure(f"recovered files hold {len(found)} expired "
                               f"salaries in plaintext, e.g. {found[0]}")
    return after_recovery

