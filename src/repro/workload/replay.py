"""CSV trace replay: turn Azure-trace-shaped files into scenarios.

The Azure Functions trace (Shahrad et al., ATC'20) that motivates the
paper's overload argument is distributed as per-minute invocation counts.
This module replays files of that shape — CSV rows of::

    app,func,minute,count

where ``app``/``func`` identify an application's function, ``minute`` is a
zero-based trace minute, and ``count`` is how many invocations that
function received during that minute.  Rows are **streamed**: the file is
read line by line and each row is expanded into requests immediately, so a
multi-gigabyte trace never needs to be materialised in memory as rows
(only the resulting requests are kept).

Unknown trace functions are mapped onto the simulator's catalog by a
stable FNV-1a hash of ``app/func``, so the same trace always exercises the
same service-time distributions across runs and machines.  By default each
``app/func`` pair keeps its own identity (a namespaced copy of the mapped
catalog entry), so distinct trace functions get distinct containers and
estimator state — the popularity skew of the trace becomes container-pool
contention, exactly the effect the paper's Sect. VI analyses.

Caching caveat: the result cache fingerprints the *parameters* of a
replay scenario (the path string), not the bytes of the file.  If you
edit a trace file in place, use a fresh ``--cache-dir`` or a new path.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple, Union

import numpy as np

from repro.workload.functions import FunctionSpec, sebs_catalog
from repro.workload.generator import BurstScenario, Request, RequestStream
from repro.workload.registry import (
    REQUIRED,
    Param,
    register_scenario,
    register_stream_builder,
)

__all__ = [
    "TraceRow",
    "iter_trace_rows",
    "replay_scenario",
    "replay_stream",
    "write_trace_csv",
]

#: Expected CSV column order.
TRACE_COLUMNS = ("app", "func", "minute", "count")


@dataclass(frozen=True)
class TraceRow:
    """One per-minute invocation-count record of a trace file.

    Attributes
    ----------
    app / func:
        Application and function identifiers (opaque strings).
    minute:
        Zero-based trace minute the invocations fall into.
    count:
        Invocations of ``app/func`` during that minute (>= 0).
    """

    app: str
    func: str
    minute: int
    count: int

    def __post_init__(self) -> None:
        if self.minute < 0:
            raise ValueError(f"minute must be >= 0, got {self.minute!r}")
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count!r}")

    @property
    def key(self) -> str:
        """The trace function's identity, ``app/func``."""
        return f"{self.app}/{self.func}"


RowSource = Union[str, Path, TextIO, Iterable[TraceRow]]


def iter_trace_rows(source: RowSource) -> Iterator[TraceRow]:
    """Stream :class:`TraceRow` items from *source*.

    *source* may be a CSV path, an open text file, or an iterable of
    already-built :class:`TraceRow` objects (handy in tests).  A header
    line (``app,func,minute,count``) is skipped if present; blank lines
    and ``#`` comments are ignored.  Malformed rows raise
    :class:`ValueError` naming the offending line.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8") as handle:
            yield from _iter_csv(handle)
        return
    if hasattr(source, "read"):
        yield from _iter_csv(source)
        return
    for row in source:
        yield row


def _iter_csv(handle: TextIO) -> Iterator[TraceRow]:
    seen_data = False
    for lineno, fields in enumerate(csv.reader(handle), start=1):
        if not fields or (len(fields) == 1 and not fields[0].strip()):
            continue
        if fields[0].lstrip().startswith("#"):
            continue
        if not seen_data and [f.strip().lower() for f in fields] == list(TRACE_COLUMNS):
            continue  # header (possibly preceded by comments/blank lines)
        seen_data = True
        if len(fields) != len(TRACE_COLUMNS):
            raise ValueError(
                f"trace line {lineno}: expected {len(TRACE_COLUMNS)} columns "
                f"{TRACE_COLUMNS}, got {len(fields)}: {fields!r}"
            )
        app, func, minute, count = (f.strip() for f in fields)
        try:
            yield TraceRow(app=app, func=func, minute=int(minute), count=int(count))
        except ValueError as exc:
            raise ValueError(f"trace line {lineno}: {exc}") from None


def write_trace_csv(path: Union[str, Path], rows: Iterable[TraceRow]) -> Path:
    """Write *rows* as a header-led CSV at *path* (inverse of
    :func:`iter_trace_rows`; used by tests and the replay example)."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_COLUMNS)
        for row in rows:
            writer.writerow([row.app, row.func, row.minute, row.count])
    return path


def _fnv1a(text: str) -> int:
    """Process-independent 64-bit FNV-1a hash (Python's ``hash`` is salted,
    which would make trace→catalog mapping differ across runs)."""
    value = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value


def _row_requests(
    source: RowSource,
    rng: np.random.Generator,
    catalog: Sequence[FunctionSpec],
    minute_s: float,
    namespace_functions: bool,
    max_minutes: Optional[int],
) -> Iterator[Tuple[TraceRow, List[Request]]]:
    """The row loop both builders share: each row before *max_minutes*,
    in file order, with its requests (none for a zero count).  Rids count
    up from 0, and each row draws its release times, then its service
    times, from *rng*."""
    specs: Dict[str, FunctionSpec] = {}
    rid = 0
    for row in iter_trace_rows(source):
        if max_minutes is not None and row.minute >= max_minutes:
            continue
        requests: List[Request] = []
        if row.count:
            spec = specs.get(row.key)
            if spec is None:
                base = catalog[_fnv1a(row.key) % len(catalog)]
                spec = replace(base, name=f"{row.key}#{base.name}") if namespace_functions else base
                specs[row.key] = spec
            start = row.minute * minute_s
            arrivals = rng.uniform(start, start + minute_s, size=row.count)
            services = spec.service_distribution.sample(rng, size=row.count)
            for arrival, service in zip(arrivals, services):
                requests.append(Request(rid, spec, float(arrival), float(service)))
                rid += 1
        yield row, requests


def replay_scenario(
    source: RowSource,
    rng: np.random.Generator,
    catalog: Optional[Sequence[FunctionSpec]] = None,
    *,
    minute_s: float = 60.0,
    namespace_functions: bool = True,
    max_minutes: Optional[int] = None,
    label: str = "replay",
) -> BurstScenario:
    """Replay a trace as a :class:`~repro.workload.generator.BurstScenario`.

    Each row's ``count`` invocations are released uniformly at random
    within its minute, i.e. within ``[minute * minute_s, (minute + 1) *
    minute_s)`` seconds; service times come from the mapped catalog
    function's fitted distribution.  Rows are consumed streamingly in file
    order, and all randomness is drawn from *rng* in that order, so a
    fixed seed reproduces the scenario bit for bit.

    Parameters
    ----------
    source:
        CSV path, open text file, or iterable of :class:`TraceRow`.
    minute_s:
        Simulated seconds per trace minute (60.0 replays in real time;
        smaller values time-compress the trace).
    namespace_functions:
        ``True`` (default) keeps each ``app/func`` identity distinct —
        separate containers and estimator state per trace function.
        ``False`` collapses trace functions onto the bare catalog names
        (at most 11 distinct functions, all pre-warmed by the runner).
    max_minutes:
        Ignore rows at or beyond this minute (``None`` = replay all).
    """
    if minute_s <= 0:
        raise ValueError(f"minute_s must be positive, got {minute_s!r}")
    catalog = list(catalog) if catalog is not None else sebs_catalog()
    requests: List[Request] = []
    last_minute = -1
    rows = _row_requests(source, rng, catalog, minute_s, namespace_functions, max_minutes)
    for row, row_requests in rows:
        last_minute = max(last_minute, row.minute)
        requests += row_requests
    window = (last_minute + 1) * minute_s if last_minute >= 0 else minute_s
    return BurstScenario(requests=requests, window=window, label=label)


def replay_stream(
    source: RowSource,
    rng: np.random.Generator,
    catalog: Optional[Sequence[FunctionSpec]] = None,
    *,
    minute_s: float = 60.0,
    namespace_functions: bool = True,
    max_minutes: Optional[int] = None,
    label: str = "replay",
) -> RequestStream:
    """Replay a trace as a lazy :class:`RequestStream` in bounded memory.

    Produces the *exact* requests of :func:`replay_scenario` — same rids,
    release times, functions, and service times (randomness is drawn from
    *rng* in the same row order) — but never materialises the full list:
    peak memory is one trace minute's worth of requests, so a
    ten-million-invocation day replays in constant memory.

    The lazy-injection contract requires requests in release-time order.
    Minute buckets ``[m * minute_s, (m + 1) * minute_s)`` are disjoint, so
    sorting each bucket locally reproduces the global sort — **provided
    the rows arrive grouped by non-decreasing minute**.  A row whose
    minute goes backwards raises :class:`ValueError` naming the offending
    row; sort the trace file by its ``minute`` column (e.g. ``sort -t, -k3
    -n``) or fall back to the materialising ``retain_records=True`` path,
    which accepts any row order.
    """
    if minute_s <= 0:
        raise ValueError(f"minute_s must be positive, got {minute_s!r}")
    catalog = list(catalog) if catalog is not None else sebs_catalog()

    def generate() -> Iterator[Request]:
        bucket: List[Request] = []
        bucket_minute = -1
        rows = _row_requests(source, rng, catalog, minute_s, namespace_functions, max_minutes)
        for row, requests in rows:
            if row.minute < bucket_minute:
                raise ValueError(
                    f"streaming replay requires rows grouped by "
                    f"non-decreasing minute, but row "
                    f"{row.app}/{row.func} has minute {row.minute} after "
                    f"minute {bucket_minute}; sort the trace by its minute "
                    f"column or run with retain_records=True (the "
                    f"materialising path accepts any row order)"
                )
            if row.minute > bucket_minute:
                bucket.sort(key=lambda r: (r.release_time, r.rid))
                yield from bucket
                bucket = []
                bucket_minute = row.minute
            bucket += requests
        bucket.sort(key=lambda r: (r.release_time, r.rid))
        yield from bucket

    return RequestStream(generate, window=None, label=label)


@register_scenario(
    "replay",
    description="Replay an Azure-shaped CSV trace (app,func,minute,count rows)",
    paper_section="extension",
    params=(
        Param("path", REQUIRED, "CSV trace file to replay"),
        Param("minute_s", 60.0, "simulated seconds per trace minute"),
        Param(
            "namespace_functions", True,
            "keep each app/func identity distinct (own containers) vs. "
            "collapsing onto the bare catalog",
        ),
        Param("max_minutes", None, "replay only the first N trace minutes"),
    ),
)
def _replay(cores, intensity, rng, *, window, catalog, path, minute_s, namespace_functions, max_minutes):
    """Registry adapter.  The trace file defines the load, so ``cores`` and
    ``intensity`` are ignored (they still shape the node under test)."""
    return replay_scenario(
        path,
        rng,
        catalog=catalog,
        minute_s=float(minute_s),
        namespace_functions=bool(namespace_functions),
        max_minutes=None if max_minutes is None else int(max_minutes),
        label=f"replay {Path(path).name}",
    )


@register_stream_builder("replay")
def _replay_stream(cores, intensity, rng, *, window, catalog, path, minute_s, namespace_functions, max_minutes):
    """Streaming registry adapter: same parameters, bounded memory
    (requires the trace grouped by non-decreasing minute)."""
    return replay_stream(
        path,
        rng,
        catalog=catalog,
        minute_s=float(minute_s),
        namespace_functions=bool(namespace_functions),
        max_minutes=None if max_minutes is None else int(max_minutes),
        label=f"replay {Path(path).name}",
    )
