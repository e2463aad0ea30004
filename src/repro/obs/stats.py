"""Statement-level statistics: the ``pg_stat_statements`` shape.

A process-global :class:`StatementRegistry` accumulates one entry per
*statement shape* — keyed on the planner's canonical query text (the
same :func:`~repro.query.printer.format_query` string the plan cache
keys on) plus the scope kind it ran against — recording calls, rows
returned/scanned, total/max latency with a p50/p99 reservoir,
plan-cache verdicts and scatter-vs-serial counts. It answers the
question the per-request trace ring cannot: *which statement shape is
eating the server*, aggregated across every connection and thread.

Like :mod:`repro.obs.trace`, the disabled path is the design
constraint: recording is threaded through
:func:`repro.query.planner.execute`, so the hook pre-checks the
module-level :data:`ENABLED` flag (reference-counted via
:func:`enable`/:func:`disable` — the server holds one enablement for
its lifetime). The E15d bench guard runs with the registry enabled to
keep the combined overhead honest.

Surfaced four ways: the shell's ``.statements`` dot-command, the
``statements`` wire op (both servers), ``repro_statement_*``
Prometheus top-N series (:mod:`repro.obs.export`) and
:func:`repro.bench.statements_table`.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from typing import Dict, List, Optional, Tuple

# The module-level gate, checked by the planner before anything else.
ENABLED = False

# Bounded footprint: at most this many distinct statement shapes; past
# it, the cheapest entry (least total time) is evicted per insert.
REGISTRY_CAP = 512

# Latency samples kept per entry for the percentile estimates.
RESERVOIR_CAP = 512

_enablements = 0
_enable_lock = threading.Lock()
_reservoir_seeds = itertools.count(1)
_tls = threading.local()


def enable() -> None:
    """Hold one enablement of statement recording (re-entrant)."""
    global ENABLED, _enablements
    with _enable_lock:
        _enablements += 1
        ENABLED = True


def disable() -> None:
    """Release one enablement; the last release stops recording."""
    global ENABLED, _enablements
    with _enable_lock:
        if _enablements > 0:
            _enablements -= 1
        ENABLED = _enablements > 0


# ----------------------------------------------------------------------
# Examined-rows observation channel
# ----------------------------------------------------------------------
#
# The scatter path (repro.query.shard) knows how many rows the shards
# scanned, a serial plan how many it examined itself; the planner hook
# that records the statement knows neither. The thread-local slot below
# carries that one observation — ``(rows, scattered)`` — upward without
# threading a parameter through the whole call chain.


def note_examined(rows: int, scattered: bool = False) -> None:
    """Record the rows the current statement examined: scanned across
    its shards (``scattered``), or by its serial plan — probe
    candidates visited, extent rows iterated by a scan.

    A statement that scattered accumulates: an aggregate rewrite may
    scatter several subqueries, then run what is left serially. A
    serial plan alone reports once, as it finishes — after any
    statement nested in it (a population query) has reported and been
    recorded — so its count replaces the slot.
    """
    if not ENABLED:
        return
    previous = getattr(_tls, "examined", None)
    if previous is not None and previous[1]:
        rows, scattered = rows + previous[0], True
    _tls.examined = (rows, scattered)


def take_examined() -> Tuple[int, bool]:
    """Consume the current statement's observation: ``(rows,
    scattered)``, ``(0, False)`` when nothing reported."""
    value = getattr(_tls, "examined", None)
    _tls.examined = None
    return value or (0, False)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


class _Reservoir:
    """A bounded latency sample (Vitter's algorithm R), deterministic
    per instance — the same idiom as
    :class:`repro.server.metrics.LatencyReservoir`, duplicated here so
    the obs package stays import-cycle-free from the server."""

    __slots__ = ("_cap", "_samples", "_seen", "_random")

    def __init__(self, cap: int = RESERVOIR_CAP):
        self._cap = cap
        self._samples: List[float] = []
        self._seen = 0
        self._random = random.Random(next(_reservoir_seeds))

    def record(self, seconds: float) -> None:
        self._seen += 1
        if len(self._samples) < self._cap:
            self._samples.append(seconds)
            return
        slot = self._random.randrange(self._seen)
        if slot < self._cap:
            self._samples[slot] = seconds

    def percentile(self, fraction: float) -> float:
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        index = min(
            len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5)
        )
        return ordered[index]


class StatementEntry:
    """Accumulated statistics for one (statement text, scope kind)."""

    __slots__ = (
        "text", "kind", "calls", "errors", "rows_returned",
        "rows_scanned", "total_seconds", "max_seconds", "plan_hits",
        "plans_compiled", "scattered", "serial", "_reservoir",
    )

    def __init__(self, text: str, kind: str):
        self.text = text
        self.kind = kind
        self.calls = 0
        self.errors = 0
        self.rows_returned = 0
        self.rows_scanned = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0
        self.plan_hits = 0
        self.plans_compiled = 0
        self.scattered = 0
        self.serial = 0
        self._reservoir = _Reservoir()

    def snapshot(self) -> dict:
        mean = self.total_seconds / self.calls if self.calls else 0.0
        return {
            "text": self.text,
            "kind": self.kind,
            "calls": self.calls,
            "errors": self.errors,
            "rows_returned": self.rows_returned,
            "rows_scanned": self.rows_scanned,
            "total_ms": round(self.total_seconds * 1e3, 3),
            "mean_ms": round(mean * 1e3, 3),
            "max_ms": round(self.max_seconds * 1e3, 3),
            "p50_ms": round(self._reservoir.percentile(0.50) * 1e3, 3),
            "p99_ms": round(self._reservoir.percentile(0.99) * 1e3, 3),
            "plan_hits": self.plan_hits,
            "plans_compiled": self.plans_compiled,
            "scattered": self.scattered,
            "serial": self.serial,
        }


class StatementRegistry:
    """Thread-safe bounded map of statement shapes to statistics."""

    def __init__(self, cap: int = REGISTRY_CAP):
        self._lock = threading.Lock()
        self._cap = cap
        self._entries: Dict[Tuple[str, str], StatementEntry] = {}
        self.evictions = 0

    def record(
        self,
        text: str,
        kind: str,
        seconds: float,
        rows: int = 0,
        scanned: int = 0,
        plan_hit: Optional[bool] = None,
        scattered: bool = False,
        error: bool = False,
    ) -> None:
        """Fold one execution into the entry for ``(text, kind)``."""
        key = (text, kind)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                if len(self._entries) >= self._cap:
                    self._evict_one()
                entry = StatementEntry(text, kind)
                self._entries[key] = entry
            entry.calls += 1
            if error:
                entry.errors += 1
            entry.rows_returned += rows
            entry.rows_scanned += scanned
            entry.total_seconds += seconds
            if seconds > entry.max_seconds:
                entry.max_seconds = seconds
            entry._reservoir.record(seconds)
            if plan_hit is True:
                entry.plan_hits += 1
            elif plan_hit is False:
                entry.plans_compiled += 1
            if scattered:
                entry.scattered += 1
            else:
                entry.serial += 1

    def _evict_one(self) -> None:
        # Cheapest total time goes first: the top-N views stay intact.
        victim = min(
            self._entries, key=lambda k: self._entries[k].total_seconds
        )
        del self._entries[victim]
        self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self, top: Optional[int] = None) -> List[dict]:
        """Entries as dicts, sorted by total time descending; at most
        ``top`` of them when given."""
        with self._lock:
            entries = [e.snapshot() for e in self._entries.values()]
        entries.sort(key=lambda e: e["total_ms"], reverse=True)
        return entries[:top] if top else entries

    def reset(self) -> None:
        with self._lock:
            self._entries.clear()
            self.evictions = 0

    def describe(self, top: int = 10) -> str:
        """The ``.statements`` shell report: a top-N table by total
        time."""
        entries = self.snapshot(top)
        if not entries:
            if not ENABLED:
                return (
                    "(statement statistics disabled — the server"
                    " enables them on start; in code, call"
                    " repro.obs.stats.enable())"
                )
            return "(no statements recorded)"
        header = (
            f"{'calls':>7}  {'total ms':>10}  {'mean ms':>9}"
            f"  {'p99 ms':>9}  {'rows':>9}  {'scanned':>9}  {'plan':>11}"
            f"  {'scatter':>7}  statement"
        )
        lines = [header, "-" * len(header)]
        for entry in entries:
            plan = f"{entry['plan_hits']}h/{entry['plans_compiled']}c"
            text = entry["text"]
            if len(text) > 72:
                text = text[:69] + "..."
            suffix = f" [{entry['kind']}]" if entry["kind"] else ""
            lines.append(
                f"{entry['calls']:>7}  {entry['total_ms']:>10.3f}"
                f"  {entry['mean_ms']:>9.3f}  {entry['p99_ms']:>9.3f}"
                f"  {entry['rows_returned']:>9}"
                f"  {entry['rows_scanned']:>9}  {plan:>11}"
                f"  {entry['scattered']:>7}  {text}{suffix}"
            )
        return "\n".join(lines)


# The process-wide registry every surface reads.
REGISTRY = StatementRegistry()


def record_call(
    text: str,
    kind: str,
    started: float,
    rows: int,
    plan_hit: Optional[bool],
    error: bool,
) -> None:
    """The planner's recording tail: closes the examined-rows
    observation and folds the call into :data:`REGISTRY`."""
    elapsed = time.perf_counter() - started
    scanned, scattered = take_examined()
    REGISTRY.record(
        text,
        kind,
        elapsed,
        rows=rows,
        scanned=scanned,
        plan_hit=plan_hit,
        scattered=scattered,
        error=error,
    )
