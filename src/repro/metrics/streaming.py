"""Constant-memory streaming metrics: exact sums, quantile sketches, and
the accumulator that replaces full :class:`~repro.metrics.records.CallRecord`
retention.

A million-invocation (or an Azure-scale, ten-million-invocation) replay
cannot afford an O(invocations) record list.  This module folds each
completed call into constant-size state instead:

* :class:`ExactSum` — Shewchuk-style error-free summation (the algorithm
  behind :func:`math.fsum`).  The running value is the *correctly rounded*
  IEEE-754 sum of everything added, which makes it **order-independent**:
  folding calls in completion order, in rid order, or merging partial sums
  computed by different pool workers all yield bit-identical totals.  This
  is what lets streaming runs report the exact same means as retained
  runs, and lets cross-worker merges stay deterministic.

* :class:`TDigest` — a merging t-digest quantile sketch (Dunning &
  Ertl).  Centroid sizes are bounded by ``4·n·q(1-q)/δ`` (``δ`` =
  :attr:`~TDigest.compression`), so the sketch keeps ``O(δ·log(n/δ))``
  centroids — a few hundred at δ=200, growing only logarithmically with
  stream length — and estimates the ``q``-quantile
  with a *rank* error of at most ``q(1-q) · RANK_ERROR_FACTOR / δ``
  (see :meth:`TDigest.rank_error_bound`; the bound is deliberately
  generous and enforced by ``tests/metrics/test_streaming_quantiles.py``).
  Merging digests is supported and approximately commutative/associative:
  exact state differs with merge order, but every estimate stays within
  the documented bound of the exact quantile.

* :class:`SummaryAccumulator` — the :class:`MetricsAccumulator` protocol's
  reference implementation: counts, cold-start tallies, exact moment sums
  for mean/std, the max completion moment, and t-digests for response
  time and stretch.  ``add`` folds one record, ``merge`` combines
  accumulators across seeds or pool workers, ``summary`` renders a
  :class:`StreamingSummary` that is attribute-compatible with
  :class:`~repro.metrics.stats.SummaryStats` (reports and tables consume
  either).

Exactness contract: ``n_calls``, ``cold_starts``, ``max_completion_time``
and the means are **exact** (bit-identical across streaming/retained runs
and any merge order); only the percentiles are sketched, with the bound
above.  Golden-fingerprint runs therefore keep ``retain_records=True``
and the historical exact percentiles.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Protocol, Tuple, runtime_checkable

from repro.metrics.records import CallRecord
from repro.metrics.serialize import pack_floats, unpack_floats
from repro.metrics.stats import PAPER_PERCENTILES

__all__ = [
    "ExactSum",
    "TDigest",
    "MetricsAccumulator",
    "StreamingSummary",
    "SummaryAccumulator",
    "merge_accumulators",
]


class ExactSum:
    """Error-free streaming summation (Shewchuk's algorithm, as in
    ``math.fsum``).

    Keeps a list of non-overlapping partials whose exact sum equals the
    exact real sum of everything added; :attr:`value` rounds that to the
    nearest double.  The partial list stays tiny in practice (its length
    is bounded by the exponent range, ~40 for well-scaled data), so the
    accumulator is effectively constant-size.

    A sum that leaves the finite doubles ends as ``math.fsum`` of the same
    terms ends: :attr:`value` raises :class:`OverflowError` once finite
    terms overflow, and otherwise sums the infinite and nan terms apart
    (``inf``, ``-inf``, ``nan``, or :class:`ValueError` for ``inf + -inf``).
    """

    __slots__ = ("_partials", "_special")

    def __init__(self, partials: Optional[Iterable[float]] = None) -> None:
        self._partials: List[float] = []
        #: The infinite and nan terms, one of each kind.
        self._special: List[float] = []
        if partials:
            for x in partials:
                self.add(float(x))

    def add(self, x: float) -> None:
        """Fold *x* into the running sum, exactly (each rounding error by
        Knuth's TwoSum, which needs no comparison of magnitudes)."""
        partials = self._partials
        term = x
        i = 0
        for y in partials:
            hi = x + y
            yy = hi - x
            lo = (x - (hi - yy)) + (y - yy)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        if x - x:  # inf or nan: the sum overflowed, or the term is not finite
            self._set_aside(term)
        else:
            partials[i:] = [x]

    def _set_aside(self, term: float) -> None:
        """What ``math.fsum`` does when the running sum is not finite: a
        finite *term* overflowed it (fsum raises), any other is summed
        apart from the partials, which start afresh."""
        self._partials.clear()
        special = self._special
        if term - term == 0.0:
            # Two terms whose sum overflows: ``value`` raises as fsum does,
            # also after a ``to_list`` round trip.
            special[:] = [sys.float_info.max] * 2
        elif repr(term) not in map(repr, special):  # as text: nan != nan
            special.append(term)

    def merge(self, other: "ExactSum") -> None:
        """Fold another exact sum in; for a finite sum the result is the
        exact sum of the union, independent of merge order."""
        for x in other.to_list():
            self.add(x)

    @property
    def value(self) -> float:
        """The correctly rounded sum of everything added so far.

        The partial decomposition depends on insertion order, but the
        exact real number it represents does not; ``math.fsum`` rounds
        that exact value correctly, so ``value`` is bit-identical across
        any add/merge order.  The set-aside terms come first, so that
        ``math.fsum`` ends on them as it ended on the terms themselves.
        """
        return math.fsum(self._special + self._partials)

    def to_list(self) -> List[float]:
        """JSON-compatible state (exact: partials are plain doubles); the
        set-aside terms, if any, come first."""
        return self._special + self._partials

    @classmethod
    def from_list(cls, partials: Iterable[float]) -> "ExactSum":
        return cls(partials)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExactSum({self.to_list()!r})"


#: Safety factor in the documented t-digest rank-error bound (the merging
#: digest's theoretical per-centroid bound is ``2·n·q(1-q)/δ`` ranks;
#: interpolation plus repeated merges motivate the doubled headroom).
_RANK_ERROR_FACTOR = 4.0

#: Incoming values are buffered and merged in batches of
#: ``_BUFFER_FACTOR × compression`` — larger batches amortise the sort.
_BUFFER_FACTOR = 5


class TDigest:
    """A merging t-digest: streaming quantiles in bounded memory.

    Parameters
    ----------
    compression:
        The ``δ`` knob: more centroids → tighter quantiles → more memory.
        The default (200) keeps ``O(δ·log(n/δ))`` centroids (~550 at two
        thousand points, ~1.3k at ten million — tail ranks get singleton
        centroids, which is what buys the tight tail quantiles) and a
        worst-case rank error of ``q(1-q)·4/δ`` — at most 0.5% of ranks
        at the median, proportionally tighter in the tails (P99 error ≤
        0.02% of ranks).

    Determinism: compression is a pure function of the buffered points, so
    two digests fed the same stream are bit-identical — the property the
    streaming-vs-retained equivalence tests pin.
    """

    __slots__ = ("compression", "_means", "_weights", "_count", "_buffer", "_min", "_max")

    def __init__(self, compression: float = 200.0) -> None:
        if compression < 20:
            raise ValueError(f"compression must be >= 20, got {compression!r}")
        self.compression = float(compression)
        self._means: List[float] = []
        self._weights: List[float] = []
        self._count: float = 0.0
        self._buffer: List[Tuple[float, float]] = []
        self._min = float("inf")
        self._max = float("-inf")

    # ------------------------------------------------------------------
    @property
    def count(self) -> float:
        """Total weight added so far."""
        return self._count + sum(w for _, w in self._buffer)

    @property
    def centroid_count(self) -> int:
        """Compressed centroids currently held (diagnostic)."""
        return len(self._means)

    def rank_error_bound(self, q: float) -> float:
        """Documented worst-case *rank* error (as a fraction of ``n``) of
        :meth:`quantile` at quantile ``q``."""
        q = min(max(q, 0.0), 1.0)
        return max(q * (1.0 - q), 1e-3) * _RANK_ERROR_FACTOR / self.compression

    def add(self, x: float, w: float = 1.0) -> None:
        """Fold one observation of weight *w* into the sketch."""
        if w <= 0:
            raise ValueError(f"weight must be positive, got {w!r}")
        x = float(x)
        if x != x:  # NaN would silently poison every later estimate
            raise ValueError("cannot add NaN to a TDigest")
        self._buffer.append((x, float(w)))
        if x < self._min:
            self._min = x
        if x > self._max:
            self._max = x
        if len(self._buffer) >= _BUFFER_FACTOR * self.compression:
            self._compress()

    def merge(self, other: "TDigest") -> None:
        """Fold another digest in (approximately commutative: estimates
        from ``merge(a, b)`` and ``merge(b, a)`` agree within the rank
        bound, though internal centroids may differ)."""
        other._compress()
        for mean, weight in zip(other._means, other._weights):
            self._buffer.append((mean, weight))
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max
        self._compress()

    # ------------------------------------------------------------------
    def _k_limit(self, cumulative: float, total: float) -> float:
        """Max weight of a centroid whose left edge sits at *cumulative*:
        the merging-digest size bound ``4·n·q(1-q)/δ`` (never below 1 so
        singletons always fit)."""
        q = cumulative / total
        return max(4.0 * total * q * (1.0 - q) / self.compression, 1.0)

    def _compress(self) -> None:
        """Merge buffered points into the centroid list (the merging
        t-digest's single pass over the sorted union)."""
        if not self._buffer:
            return
        points = sorted(
            list(zip(self._means, self._weights)) + self._buffer,
            key=lambda mw: mw[0],
        )
        self._buffer = []
        total = sum(w for _, w in points)
        means: List[float] = []
        weights: List[float] = []
        cum = 0.0  # weight fully to the left of the open centroid
        cur_mean, cur_weight = points[0]
        for mean, weight in points[1:]:
            if cur_weight + weight <= self._k_limit(cum + cur_weight / 2.0, total):
                # Weighted mean update keeps the centroid's center of mass.
                cur_weight += weight
                cur_mean += (mean - cur_mean) * (weight / cur_weight)
            else:
                means.append(cur_mean)
                weights.append(cur_weight)
                cum += cur_weight
                cur_mean, cur_weight = mean, weight
        means.append(cur_mean)
        weights.append(cur_weight)
        self._means = means
        self._weights = weights
        self._count = total

    # ------------------------------------------------------------------
    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1]) of everything
        added so far; raises :class:`ValueError` on an empty sketch."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q!r}")
        self._compress()
        if not self._means:
            raise ValueError("cannot take a quantile of an empty sketch")
        means, weights, total = self._means, self._weights, self._count
        if len(means) == 1:
            return means[0]
        target = q * total
        # Walk centroids; centroid i's mass is centred at C_i = cum + w_i/2.
        cum = 0.0
        prev_center = None
        prev_mean = self._min
        for mean, weight in zip(means, weights):
            center = cum + weight / 2.0
            if target < center:
                if prev_center is None:
                    # Below the first centroid's center: lerp from the min.
                    span = center
                    frac = target / span if span > 0 else 0.0
                    return self._min + (mean - self._min) * frac
                span = center - prev_center
                frac = (target - prev_center) / span if span > 0 else 0.0
                return prev_mean + (mean - prev_mean) * frac
            cum += weight
            prev_center, prev_mean = center, mean
        # Above the last centroid's center: lerp to the max.
        span = total - prev_center
        frac = (target - prev_center) / span if span > 0 else 1.0
        return prev_mean + (self._max - prev_mean) * min(frac, 1.0)

    def percentile(self, p: float) -> float:
        """Estimate the *p*-th percentile (``p`` in [0, 100])."""
        return self.quantile(p / 100.0)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible state.  The centroid means and weights are
        base64 of their little-endian float64 bytes (the cache's record
        float-column codec, :func:`~repro.metrics.serialize.pack_floats`);
        the scalars are JSON floats.  Both round-trip exactly."""
        self._compress()
        return {
            "compression": self.compression,
            "means": pack_floats(self._means),
            "weights": pack_floats(self._weights),
            "min": self._min,
            "max": self._max,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TDigest":
        """Inverse of :meth:`to_dict`.  Raises :class:`ValueError` when
        ``means`` or ``weights`` is not well-formed base64 of whole
        float64s, or when the two hold different numbers of centroids."""
        means = unpack_floats(data["means"])
        weights = unpack_floats(data["weights"])
        if len(means) != len(weights):
            raise ValueError(f"{len(means)} centroid means but {len(weights)} weights")
        digest = cls(compression=data["compression"])
        digest._means = list(means)
        digest._weights = list(weights)
        digest._count = sum(weights)
        digest._min = float(data["min"])
        digest._max = float(data["max"])
        return digest

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<TDigest n={self.count:g} centroids={self.centroid_count} "
            f"compression={self.compression:g}>"
        )


@runtime_checkable
class MetricsAccumulator(Protocol):
    """What the runner/platform require of a streaming metrics sink.

    Implementations must be picklable (they cross the parallel engine's
    process boundary inside :class:`~repro.experiments.runner
    .ExperimentResult`) and mergeable (grid views pool per-seed
    accumulators the way retained mode pools record lists).
    """

    def add(self, record: CallRecord) -> None:
        """Fold one completed call in (called at response time)."""
        ...  # pragma: no cover - protocol

    def merge(self, other: "MetricsAccumulator") -> None:
        """Fold another accumulator in (cross-seed / cross-worker)."""
        ...  # pragma: no cover - protocol

    def summary(self) -> "StreamingSummary":
        """Render the constant-size state as summary statistics."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class StreamingSummary:
    """Summary statistics from a streaming accumulator.

    Attribute-compatible with :class:`~repro.metrics.stats.SummaryStats`
    (same field names, same ``response_percentile``/``stretch_percentile``
    /``as_row`` API), so report renderers accept either.  The percentile
    dicts hold *sketch estimates*; everything else is exact.
    """

    n_calls: int
    mean_response_time: float
    response_time_percentiles: dict
    mean_stretch: float
    stretch_percentiles: dict
    max_completion_time: float
    cold_starts: int
    #: Streaming standard deviations (population); ``SummaryStats`` has no
    #: counterpart — extra information, not a compatibility break.
    std_response_time: float = 0.0
    std_stretch: float = 0.0
    #: Failure-injection accounting (exact integers, zero on the
    #: failure-free path) — mirrors ``SummaryStats``.
    retries: int = 0
    gave_up: int = 0
    failed_calls: int = 0

    def response_percentile(self, q: int) -> float:
        return self.response_time_percentiles[q]

    def stretch_percentile(self, q: int) -> float:
        return self.stretch_percentiles[q]

    def as_row(self) -> List[float]:
        """Values in the paper's Table-III column order."""
        return [
            self.mean_response_time,
            *(self.response_time_percentiles[q] for q in PAPER_PERCENTILES),
            self.mean_stretch,
            *(self.stretch_percentiles[q] for q in PAPER_PERCENTILES),
            self.max_completion_time,
        ]


@dataclass
class SummaryAccumulator:
    """Constant-size fold of completed calls (the default accumulator).

    Exact fields (order- and merge-order-independent, bit-identical to a
    retained run): ``n_calls``, ``cold_starts``, ``max_completion_time``,
    the response/stretch means (via :class:`ExactSum`), and the second
    moments behind the streaming standard deviations.  Sketched fields:
    the response/stretch percentiles (:class:`TDigest`, rank error per
    :meth:`TDigest.rank_error_bound`).
    """

    compression: float = 200.0
    n_calls: int = 0
    cold_starts: int = 0
    retries: int = 0
    gave_up: int = 0
    failed_calls: int = 0
    max_completion_time: float = float("-inf")
    response_sum: ExactSum = field(default_factory=ExactSum)
    response_sumsq: ExactSum = field(default_factory=ExactSum)
    stretch_sum: ExactSum = field(default_factory=ExactSum)
    stretch_sumsq: ExactSum = field(default_factory=ExactSum)
    response_digest: TDigest = field(default=None)  # type: ignore[assignment]
    stretch_digest: TDigest = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.response_digest is None:
            self.response_digest = TDigest(self.compression)
        if self.stretch_digest is None:
            self.stretch_digest = TDigest(self.compression)

    # ------------------------------------------------------------------
    def add(self, record: CallRecord) -> None:
        """Fold one completed call in."""
        # ``record.response_time`` and ``record.stretch``, spelled out: no
        # property call per record.
        completed = record.completed_at
        response = completed - record.release_time
        stretch = response / record.reference_response_time
        self.n_calls += 1
        if record.cold_start:
            self.cold_starts += 1
        # Same accounting as repro.metrics.stats.summarize, so retained
        # and streaming runs report identical failure counters; every
        # increment is zero for a first-attempt ``ok`` record.
        attempts, outcome = record.attempts, record.outcome
        if attempts != 1 or outcome != "ok":
            self.retries += attempts - 1
            if outcome == "gave-up":
                self.gave_up += 1
            self.failed_calls += (attempts - 1) + (1 if outcome != "ok" else 0)
        if completed > self.max_completion_time:
            self.max_completion_time = completed
        self.response_sum.add(response)
        self.response_sumsq.add(response * response)
        self.stretch_sum.add(stretch)
        self.stretch_sumsq.add(stretch * stretch)
        self.response_digest.add(response)
        self.stretch_digest.add(stretch)

    def merge(self, other: "SummaryAccumulator") -> None:
        """Fold another accumulator in.  Exact fields combine exactly
        (any merge order gives bit-identical values); digests combine
        within their rank bound."""
        self.n_calls += other.n_calls
        self.cold_starts += other.cold_starts
        self.retries += other.retries
        self.gave_up += other.gave_up
        self.failed_calls += other.failed_calls
        if other.max_completion_time > self.max_completion_time:
            self.max_completion_time = other.max_completion_time
        self.response_sum.merge(other.response_sum)
        self.response_sumsq.merge(other.response_sumsq)
        self.stretch_sum.merge(other.stretch_sum)
        self.stretch_sumsq.merge(other.stretch_sumsq)
        self.response_digest.merge(other.response_digest)
        self.stretch_digest.merge(other.stretch_digest)

    # ------------------------------------------------------------------
    @staticmethod
    def _std(sumsq: ExactSum, total: ExactSum, n: int) -> float:
        mean = total.value / n
        variance = sumsq.value / n - mean * mean
        return variance**0.5 if variance > 0 else 0.0

    def summary(self) -> StreamingSummary:
        """The accumulated statistics; raises on an empty accumulator
        (mirroring :func:`repro.metrics.stats.summarize`)."""
        if self.n_calls == 0:
            raise ValueError("cannot summarize zero records")
        n = self.n_calls
        return StreamingSummary(
            n_calls=n,
            mean_response_time=self.response_sum.value / n,
            response_time_percentiles={
                q: self.response_digest.percentile(q) for q in PAPER_PERCENTILES
            },
            mean_stretch=self.stretch_sum.value / n,
            stretch_percentiles={
                q: self.stretch_digest.percentile(q) for q in PAPER_PERCENTILES
            },
            max_completion_time=self.max_completion_time,
            cold_starts=self.cold_starts,
            std_response_time=self._std(self.response_sumsq, self.response_sum, n),
            std_stretch=self._std(self.stretch_sumsq, self.stretch_sum, n),
            retries=self.retries,
            gave_up=self.gave_up,
            failed_calls=self.failed_calls,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible state for the on-disk result cache."""
        return {
            "compression": self.compression,
            "n_calls": self.n_calls,
            "cold_starts": self.cold_starts,
            "retries": self.retries,
            "gave_up": self.gave_up,
            "failed_calls": self.failed_calls,
            "max_completion_time": self.max_completion_time,
            "response_sum": self.response_sum.to_list(),
            "response_sumsq": self.response_sumsq.to_list(),
            "stretch_sum": self.stretch_sum.to_list(),
            "stretch_sumsq": self.stretch_sumsq.to_list(),
            "response_digest": self.response_digest.to_dict(),
            "stretch_digest": self.stretch_digest.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SummaryAccumulator":
        return cls(
            compression=data["compression"],
            n_calls=int(data["n_calls"]),
            cold_starts=int(data["cold_starts"]),
            retries=int(data.get("retries", 0)),
            gave_up=int(data.get("gave_up", 0)),
            failed_calls=int(data.get("failed_calls", 0)),
            max_completion_time=float(data["max_completion_time"]),
            response_sum=ExactSum.from_list(data["response_sum"]),
            response_sumsq=ExactSum.from_list(data["response_sumsq"]),
            stretch_sum=ExactSum.from_list(data["stretch_sum"]),
            stretch_sumsq=ExactSum.from_list(data["stretch_sumsq"]),
            response_digest=TDigest.from_dict(data["response_digest"]),
            stretch_digest=TDigest.from_dict(data["stretch_digest"]),
        )


def merge_accumulators(
    accumulators: Iterable[SummaryAccumulator],
) -> SummaryAccumulator:
    """Pool accumulators (per-seed, per-worker, per-node) into one.

    The streaming counterpart of pooling record lists: exact fields are
    merge-order-independent, so parallel and serial grids pool to
    bit-identical counts/means/makespans.
    """
    merged: Optional[SummaryAccumulator] = None
    for acc in accumulators:
        if merged is None:
            merged = SummaryAccumulator(compression=acc.compression)
        merged.merge(acc)
    if merged is None:
        raise ValueError("cannot merge zero accumulators")
    return merged
