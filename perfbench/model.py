"""Shadow model of the inclusion scenario, computed from the benchmark's inputs.

The model never asks the engine how data should look.  It keeps every row the
benchmark generated or inserted, with the simulated time of its insertion, and
derives from the scenario's declared policies:

* the *mandated* accuracy level of each degradable attribute at any clock
  (the number of cumulative transition delays already elapsed);
* the value at a level, by walking the domain tree's parent links (location,
  diagnosis) or by bucketing (salary ranges);
* visibility under a purpose: a row is hidden exactly when some degradable
  column is stored coarser than the level the purpose demands (with no
  purpose every column is demanded exact);
* physical removal: tables created with ``remove_on_final`` drop a row once
  every attribute reached a final state that suppresses it (``users`` never
  does: its address policy stops at ``country``).

The ``point``/``band``/``count_by``/``*_join_*`` queries answer the read
templates the workloads send; ``check_engine_rows`` compares the engine's
stored rows with the model.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.domains import (build_diagnosis_tree, build_location_tree,
                                build_salary_ranges)
from repro.core.values import NULL, REMOVED, SUPPRESSED
from repro.scenarios import inclusion

_UNITS = {"second": 1, "minute": 60, "hour": 3600, "day": 86400, "week": 604800}


def delay_seconds(text: str) -> float:
    """``"4 hours"`` / ``"1 day"`` → seconds (the forms the scenario uses)."""
    number, unit = text.split()
    return float(number) * _UNITS[unit.rstrip("s")]


def entry_times(transitions: Sequence[str]) -> List[float]:
    """Offsets since insertion at which each level is entered (level 0 at 0)."""
    times = [0.0]
    for text in transitions:
        times.append(times[-1] + delay_seconds(text))
    return times


def level_at(entries: Sequence[float], elapsed: float) -> int:
    level = 0
    for index, when in enumerate(entries):
        if when <= elapsed:
            level = index
    return level


def _parent_map(tree) -> Dict[Tuple[int, Any], Any]:
    """(level, value) → value one level up, from the tree's parent links."""
    parents: Dict[Tuple[int, Any], Any] = {}
    for level in range(1, tree.num_levels - 1):
        for value in tree.values_at_level(level):
            for child in tree.children_of(value, level):
                parents[(level - 1, child)] = value
    return parents


class _TreeDomain:
    def __init__(self, tree) -> None:
        self.max_level = tree.num_levels - 1
        self.parents = _parent_map(tree)

    def at(self, value: Any, level: int) -> Any:
        if level >= self.max_level:
            return SUPPRESSED
        for current in range(level):
            value = self.parents[(current, value)]
        return value


class _RangeDomain:
    def __init__(self, scheme) -> None:
        self.widths = [int(width) for width in scheme.widths]
        self.max_level = len(self.widths) + 1

    def at(self, value: Any, level: int) -> Any:
        if level >= self.max_level:
            return SUPPRESSED
        if level == 0:
            return value
        width = self.widths[level - 1]
        low = (value // width) * width
        return f"{low}-{low + width}"


LOCATION = _TreeDomain(build_location_tree())
DIAGNOSIS = _TreeDomain(build_diagnosis_tree())
SALARY = _RangeDomain(build_salary_ranges())

#: table → degradable column → (domain, entry times); the policy pack of
#: ``repro.scenarios.inclusion``.
POLICIES: Dict[str, Dict[str, Tuple[Any, List[float]]]] = {
    "users": {
        "address": (LOCATION, entry_times(inclusion.USER_ADDRESS_TRANSITIONS)),
        "health_note": (DIAGNOSIS, entry_times(inclusion.HEALTH_NOTE_TRANSITIONS)),
    },
    "job_applications": {
        "applicant_address": (LOCATION, entry_times(inclusion.APP_ADDRESS_TRANSITIONS)),
    },
    "employee_records": {
        "salary": (SALARY, entry_times(inclusion.EMPLOYEE_TRANSITIONS)),
        "address": (LOCATION, entry_times(inclusion.EMPLOYEE_TRANSITIONS)),
    },
}
PARANOID_APP_ENTRIES = entry_times(inclusion.APP_ADDRESS_PARANOID_TRANSITIONS)

#: Tables whose rows are physically removed at the end of their life cycle.
REMOVE_ON_FINAL = {"users", "employee_records"}

#: Purpose → (table, column) → demanded level (PURPOSES_SQL of the scenario).
PURPOSES: Dict[str, Dict[Tuple[str, str], int]] = {
    "casework": {("users", "address"): 0, ("users", "health_note"): 0,
                 ("job_applications", "applicant_address"): 0,
                 ("employee_records", "salary"): 0,
                 ("employee_records", "address"): 0},
    "placement": {("users", "address"): 1, ("users", "health_note"): 1,
                  ("job_applications", "applicant_address"): 1,
                  ("employee_records", "salary"): 1,
                  ("employee_records", "address"): 1},
    "statistics": {("users", "address"): 3, ("users", "health_note"): 2,
                   ("job_applications", "applicant_address"): 3,
                   ("employee_records", "salary"): 3,
                   ("employee_records", "address"): 3},
}

COLUMNS = {
    "companies": ("id", "name", "city", "sector"),
    "users": ("id", "name", "address", "health_note", "signup_day"),
    "approvals": ("id", "user_id", "number", "granted_day", "status"),
    "employee_records": ("id", "user_id", "company_id", "salary", "address",
                         "hired_day"),
    "job_applications": ("id", "user_id", "company_id", "status",
                         "applicant_address", "applied_day"),
}


class CheckFailure(AssertionError):
    """An engine output disagreed with the model (the run is not correct)."""


def canonical(value: Any) -> Any:
    if value is SUPPRESSED:
        return "<SUPPRESSED>"
    if value is REMOVED:
        return "<REMOVED>"
    if value is NULL or value is None:
        return "<NULL>"
    return value


def canonical_rows(rows: Sequence[Sequence[Any]], ordered: bool) -> List[tuple]:
    result = [tuple(canonical(value) for value in row) for row in rows]
    if not ordered:
        result.sort(key=repr)
    return result


class Row:
    __slots__ = ("table", "values", "inserted_at", "entries")

    def __init__(self, table: str, values: Dict[str, Any], inserted_at: float) -> None:
        self.table = table
        self.values = values
        self.inserted_at = inserted_at
        entries = {column: spec[1]
                   for column, spec in POLICIES.get(table, {}).items()}
        if table == "job_applications" and \
                inclusion.paranoid_user(values["user_id"]):
            entries["applicant_address"] = PARANOID_APP_ENTRIES
        self.entries = entries


class Model:
    """Rows by table and id, plus the simulated clock."""

    def __init__(self, now: float) -> None:
        self.now = now
        self.tables: Dict[str, Dict[int, Row]] = {name: {} for name in COLUMNS}

    def at(self, now: float) -> "Model":
        """The same rows seen at clock ``now`` (no row is un-removed)."""
        clone = Model(now)
        clone.tables = self.tables
        return clone

    # -- state changes ---------------------------------------------------------

    def insert(self, table: str, row: Sequence[Any]) -> None:
        values = dict(zip(COLUMNS[table], row))
        rows = self.tables[table]
        if values["id"] in rows:
            raise CheckFailure(f"benchmark generated duplicate {table} id {values['id']}")
        rows[values["id"]] = Row(table, values, self.now)

    def advance(self, seconds: float) -> None:
        self.now += seconds
        for table in REMOVE_ON_FINAL:
            rows = self.tables[table]
            for key in [key for key, row in rows.items() if self._final(row)]:
                del rows[key]

    def levels(self, row: Row) -> Dict[str, int]:
        elapsed = self.now - row.inserted_at
        return {column: level_at(entries, elapsed)
                for column, entries in row.entries.items()}

    def _final(self, row: Row) -> bool:
        elapsed = self.now - row.inserted_at
        return all(elapsed >= entries[-1]
                   and len(entries) - 1 == POLICIES[row.table][column][0].max_level
                   for column, entries in row.entries.items())

    def visible(self, row: Row, purpose: Optional[str]) -> Optional[Dict[str, Any]]:
        """The row as a query under ``purpose`` sees it, or ``None`` if hidden."""
        levels = self.levels(row)
        demands = PURPOSES[purpose] if purpose else {}
        seen = dict(row.values)
        for column, level in levels.items():
            demanded = demands.get((row.table, column), 0)
            if level > demanded:
                return None
            domain = POLICIES[row.table][column][0]
            seen[column] = domain.at(row.values[column], demanded)
        return seen

    def stored_value(self, row: Row, column: str, level: int) -> Any:
        return POLICIES[row.table][column][0].at(row.values[column], level)

    def update_status(self, app_id: int, status: str, purpose: Optional[str]) -> int:
        row = self.tables["job_applications"].get(app_id)
        if row is None or self.visible(row, purpose) is None:
            return 0
        row.values["status"] = status
        return 1

    def delete_app(self, app_id: int, purpose: Optional[str]) -> int:
        row = self.tables["job_applications"].get(app_id)
        if row is None or self.visible(row, purpose) is None:
            return 0
        del self.tables["job_applications"][app_id]
        return 1

    # -- expected query results -------------------------------------------------

    def _seen(self, table: str, purpose: Optional[str]):
        for row in self.tables[table].values():
            seen = self.visible(row, purpose)
            if seen is not None:
                yield seen

    def point(self, table: str, key: int, columns: Sequence[str],
              purpose: Optional[str]) -> List[tuple]:
        row = self.tables[table].get(key)
        seen = None if row is None else self.visible(row, purpose)
        return [] if seen is None else [tuple(seen[c] for c in columns)]

    def band(self, table: str, column: str, low: Any, high: Any,
             columns: Sequence[str], purpose: Optional[str],
             limit: Optional[int] = None) -> List[tuple]:
        rows = sorted((seen for seen in self._seen(table, purpose)
                       if low <= seen[column] <= high), key=lambda s: s["id"])
        if limit is not None:
            rows = rows[:limit]
        return [tuple(seen[c] for c in columns) for seen in rows]

    def count_by(self, table: str, column: str, purpose: Optional[str]) -> List[tuple]:
        counts: Dict[Any, int] = {}
        for seen in self._seen(table, purpose):
            key = canonical(seen[column])
            counts[key] = counts.get(key, 0) + 1
        return sorted(counts.items(), key=lambda item: repr(item[0]))

    def apps_join_users(self, company_id: int, purpose: str) -> List[tuple]:
        users = {seen["id"]: seen for seen in self._seen("users", purpose)}
        return [(app["id"], users[app["user_id"]]["name"],
                 users[app["user_id"]]["address"])
                for app in self._seen("job_applications", purpose)
                if app["company_id"] == company_id and app["user_id"] in users]

    def employees_join_companies(self, company_id: int, purpose: str) -> List[tuple]:
        company = self.tables["companies"].get(company_id)
        if company is None:
            return []
        return [(emp["id"], company.values["name"], emp["address"])
                for emp in self._seen("employee_records", purpose)
                if emp["company_id"] == company_id]

    # -- engine state check -----------------------------------------------------

    def check_engine_rows(self, stored_by_table: Dict[str, List[Any]]) -> None:
        """Compare the engine's stored rows with the model.

        Every model row must be stored exactly once, with equal non-degradable
        values, its insertion time, each degradable attribute at exactly the
        mandated level (neither late nor early) and holding the original value
        generalized to that level.  No other row may be stored.  The same
        check applies to a live engine and to one recovered from a crash
        image: an acknowledged row must survive the crash, and an attribute
        whose transition is due must be degraded.
        """
        for table, expected in self.tables.items():
            seen_ids = set()
            for stored in stored_by_table[table]:
                key = stored.values["id"]
                if key in seen_ids:
                    raise CheckFailure(f"{table} id {key} stored twice")
                seen_ids.add(key)
                row = expected.get(key)
                if row is None:
                    raise CheckFailure(f"{table} id {key} stored but not in the model")
                if stored.inserted_at != row.inserted_at:
                    raise CheckFailure(
                        f"{table} id {key}: inserted_at {stored.inserted_at} "
                        f"!= model {row.inserted_at}")
                levels = self.levels(row)
                for column in COLUMNS[table]:
                    if column in levels:
                        level = stored.levels.get(column, 0)
                        if level != levels[column]:
                            when = "late" if level < levels[column] else "early"
                            raise CheckFailure(
                                f"{table} id {key}.{column}: stored level {level}, "
                                f"mandated {levels[column]} ({when})")
                        want = self.stored_value(row, column, level)
                    else:
                        want = row.values[column]
                    if canonical(stored.values[column]) != canonical(want):
                        raise CheckFailure(
                            f"{table} id {key}.{column}: stored "
                            f"{stored.values[column]!r}, model {want!r}")
            missing = set(expected) - seen_ids
            if missing:
                raise CheckFailure(
                    f"{table}: {len(missing)} model rows missing from the engine "
                    f"(e.g. id {min(missing)})")
