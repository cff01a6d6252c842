"""Shared machinery of the workloads: set-up, timing, process counters, crash copy.

Everything a run writes goes under ``.perfbench_run/`` in the current
directory (the checkout the benchmark runs from).
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.connection import connect
from repro.engine.database import InstantDB
from repro.scenarios.generator import InclusionGenerator, TableBatch
from repro.scenarios.inclusion import InclusionScenario

from model import CheckFailure, Model

RUN_ROOT = ".perfbench_run"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Load cohorts: rows inserted at the same simulated time.
COHORTS = 32

HOUR = 3600.0
DAY = 86400.0


def run_dir(workload: str) -> str:
    path = os.path.join(RUN_ROOT, f"{workload}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def wchar() -> int:
    """Bytes this process handed to write(2) so far (sockets use send(2))."""
    with open("/proc/self/io") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_mb(path: str) -> float:
    total = 0
    for entry in os.scandir(path):
        if entry.is_file():
            total += entry.stat().st_size
    return total / 1e6


def percentile(samples: Sequence[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile, or ``None`` with fewer than ten samples beyond it."""
    if not samples:
        return None
    ordered = sorted(samples)
    if fraction == 0.5:
        if len(ordered) < 20:
            return None
        return statistics.median(ordered)
    rank = max(0, min(len(ordered) - 1, int(round(fraction * len(ordered))) - 1))
    if len(ordered) - 1 - rank < 10:
        return None
    return ordered[rank]


class Samples:
    """Latency samples (seconds) per op kind."""

    def __init__(self) -> None:
        self.by_kind: Dict[str, List[float]] = {}

    def add(self, kind: str, seconds: float) -> None:
        self.by_kind.setdefault(kind, []).append(seconds)

    def ms(self, kind: str, fraction: float) -> Optional[float]:
        value = percentile(self.by_kind.get(kind, ()), fraction)
        return None if value is None else value * 1000.0

    def median_ms(self, kind: str) -> float:
        """The median; a short (smoke) run with fewer than 20 samples still
        gets one, which its details flag through ``<kind>_n``."""
        samples = self.by_kind.get(kind)
        if not samples:
            raise CheckFailure(f"the run has no {kind} sample")
        return statistics.median(samples) * 1000.0

    def details(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for kind in sorted(self.by_kind):
            out[f"{kind}_n"] = len(self.by_kind[kind])
            for fraction in (0.5, 0.9):
                value = self.ms(kind, fraction)
                if value is not None:
                    out[f"{kind}_p{int(fraction * 100)}_ms"] = round(value, 4)
        return out


# ----------------------------------------------------------------------- set-up

class Setup:
    """One loaded database plus the model of what was loaded."""

    def __init__(self, db: InstantDB, model: Model, generate_s: float,
                 load_s: float, scenario: InclusionScenario,
                 generator: InclusionGenerator) -> None:
        self.db = db
        self.model = model
        self.generate_s = generate_s
        self.load_s = load_s
        self.scenario = scenario
        self.generator = generator


def load_scenario(data_dir: str, scale: int, seed: int, history_s: float,
                  tracer: Any = None) -> Setup:
    """Generate the scenario at ``scale`` and load it into ``data_dir``.

    The rows of every table are split into :data:`COHORTS` equal slices.  Each
    cohort is loaded (one ``executemany`` + commit per table) and the
    simulated clock then advances by ``history_s / COHORTS``: the loaded
    platform holds rows of every age up to ``history_s``, the degradation
    waves of that aging run during the load, and later clock advances keep
    finding cohorts that cross a transition.
    """
    started = time.perf_counter()
    scenario = InclusionScenario(scale)
    generator = InclusionGenerator(scenario, seed=seed)
    cohorts = split_cohorts(list(generator.batches(batch_size=10 ** 9)))
    generated = time.perf_counter()
    db = InstantDB(data_dir=data_dir)
    scenario.install(db)
    conn = connect(engine=db)
    step = float(int(history_s / COHORTS))
    start_clock = db.clock.now()
    for cohort in cohorts:
        for batch in cohort:
            cursor = conn.cursor()
            cursor.executemany(batch.insert_sql, batch.rows)
            conn.commit()
        db.advance_time(step)
    loaded = time.perf_counter()
    if tracer is not None:
        tracer.phase("setup.generate", started, generated)
        tracer.phase("setup.load", generated, loaded)
    model = Model(start_clock)
    for cohort in cohorts:
        for batch in cohort:
            for row in batch.rows:
                model.insert(batch.table, row)
        model.advance(step)
    return Setup(db, model, generated - started, loaded - generated,
                 scenario, generator)


def split_cohorts(tables: List[TableBatch]) -> List[List[TableBatch]]:
    """Cut each table's rows into :data:`COHORTS` slices, in FK-safe order."""
    cohorts: List[List[TableBatch]] = [[] for _ in range(COHORTS)]
    for whole in tables:
        count = len(whole.rows)
        for index in range(COHORTS):
            rows = whole.rows[index * count // COHORTS:(index + 1) * count // COHORTS]
            if rows:
                cohorts[index].append(TableBatch(whole.table, whole.columns, rows))
    return cohorts


def repeated_setup(root: str, scale: int, seed: int, history_s: float,
                   repeats: int, tracer: Any = None) -> Tuple[Setup, float]:
    """Set up ``repeats`` times in fresh directories; keep the last.

    Returns the kept set-up and the median set-up time.
    """
    times = []
    for attempt in range(repeats):
        gc.collect()
        data_dir = os.path.join(root, f"data{attempt}")
        last = attempt == repeats - 1
        setup = load_scenario(data_dir, scale, seed, history_s,
                              tracer if last else None)
        times.append(setup.generate_s + setup.load_s)
        if not last:
            setup.db.close()
            shutil.rmtree(data_dir)
    check_stored(setup.db, setup.model)
    return setup, statistics.median(times)


def stored_rows(db: InstantDB) -> Dict[str, List[Any]]:
    return {table: list(db.table_store(table).scan()) for table in db.tables()}


def check_stored(db: InstantDB, model: Model) -> None:
    if db.clock.now() != model.now:
        raise CheckFailure(f"engine clock {db.clock.now()} != model {model.now}")
    model.check_engine_rows(stored_rows(db))


# ------------------------------------------------------------------ crash copy

def crash_copy(data_dir: str, dest: str) -> None:
    """Copy the files of an engine that is still open (a crash image)."""
    os.makedirs(dest)
    for entry in os.scandir(data_dir):
        if entry.is_file():
            shutil.copyfile(entry.path, os.path.join(dest, entry.name))


def timed_recoveries(crash_dir: str, root: str, model: Optional[Model],
                     repeats: int,
                     tracer: Any = None,
                     inspect: Optional[Callable[[str], None]] = None
                     ) -> Tuple[float, List[str]]:
    """Reopen copies of ``crash_dir`` and ``recover()`` them.

    Each recovered engine is checked against the model at the recovered
    clock, as strictly as the live engine: every acknowledged row present,
    no other row, every attribute at exactly its mandated level and holding
    the original value generalized to it (no check without a ``model``).
    ``inspect`` runs on the last recovered directory after its engine
    closed.  A failed check does not stop the timing: returns the median
    recovery seconds and the distinct check failures.
    """
    times = []
    failures: List[str] = []
    for attempt in range(repeats):
        work = os.path.join(root, f"recover{attempt}")
        shutil.copytree(crash_dir, work)
        gc.collect()
        traced = tracer if attempt == repeats - 1 else None
        if traced is not None:
            traced.begin_op(-1, "recover")
        started = time.perf_counter()
        db = InstantDB(data_dir=work)
        report = db.recover(drain=True)
        elapsed = time.perf_counter() - started
        if traced is not None:
            traced.end_op()
            traced.recovery_report(report)
        times.append(elapsed)
        try:
            if model is not None:
                if report.recovered_to > model.now:
                    raise CheckFailure(f"recovered clock {report.recovered_to} is "
                                       f"past the crash clock {model.now}")
                check_stored(db, model.at(report.recovered_to))
        except CheckFailure as failure:
            message = f"after recover(): {failure}"
            if message not in failures:
                failures.append(message)
        db.close()
        if inspect is not None and attempt == repeats - 1:
            try:
                inspect(work)
            except CheckFailure as failure:
                failures.append(str(failure))
        shutil.rmtree(work)
    return statistics.median(times), failures
