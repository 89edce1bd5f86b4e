"""Per-relation statistics for cost-based query planning.

The planner (:mod:`repro.cq.plan`) estimates how many rows an index probe
will return before choosing a join order.  Those estimates come from
:class:`RelationStatistics`: the relation's cardinality, the number of
distinct values per column, exact per-value frequencies, and *order
statistics* — per-column min/max plus an equi-depth histogram — used to
price range probes (``<``/``<=``/``>``/``>=`` pushed into ordered access
paths).  Frequency statistics are maintained *incrementally* —
:class:`~repro.relational.database.RelationInstance` calls
:meth:`add_row` / :meth:`remove_row` on every mutation — so reading them
is O(1) and planning never scans data.  Order statistics are derived
lazily from the frequency counters (O(NDV log NDV) on first read after a
mutation, cached until the next one), so they too never scan rows.

A monotonically increasing :attr:`version` counter lets plan caches
detect staleness without hashing the data.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from repro.util.lru import VersionedLRU

#: Selectivity assumed for a range probe over a column whose values mix
#: incomparable types (no histogram can be built): the classic System-R
#: default for inequality predicates.
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0

#: Bucket budget for equi-depth histograms; bounded so histograms stay
#: O(1)-sized regardless of column cardinality.
HISTOGRAM_BUCKETS = 64


@dataclass(frozen=True)
class Interval:
    """A merged ``[lo, hi]`` value interval for one variable/column.

    ``None`` bounds are unbounded (comparisons against the constant
    ``None`` are never absorbed into intervals, so ``None`` is free to
    act as the sentinel); ``lo_open`` / ``hi_open`` distinguish strict
    (``<``/``>``) from inclusive (``<=``/``>=``) endpoints.  Instances
    are immutable and picklable (plans carrying them cross process-pool
    boundaries).
    """

    lo: Any = None
    lo_open: bool = False
    hi: Any = None
    hi_open: bool = False

    def is_empty(self) -> bool | None:
        """True when provably empty, False when not, None when unknown.

        Unknown arises when the bounds are mutually incomparable
        (``TypeError``); the planner then keeps the comparisons residual
        instead of short-circuiting.
        """
        if self.lo is None or self.hi is None:
            return False
        try:
            if self.lo > self.hi:
                return True
            if self.lo == self.hi and (self.lo_open or self.hi_open):
                return True
            return False
        except TypeError:
            return None

    def admits(self, value: Any) -> bool | None:
        """Whether ``value`` can lie inside the interval (None = unknown)."""
        try:
            if self.lo is not None:
                if value < self.lo or (value == self.lo and self.lo_open):
                    return False
            if self.hi is not None:
                if value > self.hi or (value == self.hi and self.hi_open):
                    return False
            return True
        except TypeError:
            return None

    def describe(self) -> str:
        """Mathematical rendering for EXPLAIN output: ``[2, 5)`` etc."""
        left = "(" if (self.lo is None or self.lo_open) else "["
        right = ")" if (self.hi is None or self.hi_open) else "]"
        lo = "-inf" if self.lo is None else repr(self.lo)
        hi = "+inf" if self.hi is None else repr(self.hi)
        return f"{left}{lo}, {hi}{right}"


class EquiDepthHistogram:
    """An equi-depth (equal-height) histogram over one column.

    Buckets hold roughly equal row counts, so skewed columns get fine
    buckets where the data is dense.  Built from the exact per-value
    frequency counter — never from the rows — and only over values that
    form a total order (NaN values are excluded; they satisfy no range
    predicate).
    """

    __slots__ = ("buckets", "rows")

    def __init__(
        self, buckets: list[tuple[Any, Any, int]], rows: int
    ) -> None:
        #: ``(bucket_lo, bucket_hi, row_count)`` triples, ascending.
        self.buckets = buckets
        self.rows = rows

    @classmethod
    def from_frequencies(
        cls, items: Sequence[tuple[Any, int]]
    ) -> "EquiDepthHistogram":
        """Build from ascending ``(value, frequency)`` pairs."""
        total = sum(count for __, count in items)
        depth = max(1, math.ceil(total / HISTOGRAM_BUCKETS))
        buckets: list[tuple[Any, Any, int]] = []
        bucket_lo: Any = None
        in_bucket = 0
        for value, count in items:
            if in_bucket == 0:
                bucket_lo = value
            in_bucket += count
            if in_bucket >= depth:
                buckets.append((bucket_lo, value, in_bucket))
                in_bucket = 0
        if in_bucket:
            buckets.append((bucket_lo, items[-1][0], in_bucket))
        return cls(buckets, total)

    def estimate_rows(self, interval: Interval) -> float:
        """Estimated rows inside ``interval``.

        Buckets wholly inside/outside count fully/not at all; partially
        covered buckets interpolate linearly when the endpoints are
        numeric and assume half coverage otherwise.  Raises ``TypeError``
        when the interval bounds are incomparable with the column values
        (callers fall back to :data:`DEFAULT_RANGE_SELECTIVITY`).
        """
        total = 0.0
        for bucket_lo, bucket_hi, rows in self.buckets:
            total += rows * _bucket_coverage(bucket_lo, bucket_hi, interval)
        return total


def _bucket_coverage(bucket_lo: Any, bucket_hi: Any, interval: Interval) -> float:
    """Fraction of a bucket's rows assumed to fall inside ``interval``."""
    if interval.lo is not None:
        if bucket_hi < interval.lo or (
            bucket_hi == interval.lo and interval.lo_open
        ):
            return 0.0
    if interval.hi is not None:
        if bucket_lo > interval.hi or (
            bucket_lo == interval.hi and interval.hi_open
        ):
            return 0.0
    lo_inside = interval.lo is None or bucket_lo > interval.lo or (
        bucket_lo == interval.lo and not interval.lo_open
    )
    hi_inside = interval.hi is None or bucket_hi < interval.hi or (
        bucket_hi == interval.hi and not interval.hi_open
    )
    if lo_inside and hi_inside:
        return 1.0
    # Partial overlap: interpolate on numeric axes, else assume half.
    try:
        span = bucket_hi - bucket_lo
        if not span:
            return 0.5
        clipped_lo = bucket_lo
        if interval.lo is not None and interval.lo > bucket_lo:
            clipped_lo = interval.lo
        clipped_hi = bucket_hi
        if interval.hi is not None and interval.hi < bucket_hi:
            clipped_hi = interval.hi
        fraction = (clipped_hi - clipped_lo) / span
        return min(1.0, max(0.0, fraction))
    except TypeError:
        return 0.5


class RelationStatistics:
    """Incrementally maintained statistics of one relation instance.

    Attributes
    ----------
    cardinality:
        Number of rows currently stored.
    version:
        Bumped on every mutation; plan caches compare versions to decide
        whether cached cost estimates are still trustworthy.
    """

    __slots__ = (
        "arity",
        "cardinality",
        "version",
        "_column_counts",
        "_order_cache",
    )

    def __init__(self, arity: int) -> None:
        self.arity = arity
        self.cardinality = 0
        self.version = 0
        self._column_counts: tuple[Counter, ...] = tuple(
            Counter() for __ in range(arity)
        )
        #: position -> (histogram, min, max), tagged with the version
        #: it was derived at: the lazily derived order statistics.  A
        #: ``None`` histogram records a mixed-type or empty column, so
        #: the negative result is cached too.  Keys are column
        #: positions, so the arity bounds it.
        self._order_cache: VersionedLRU[
            int, tuple[EquiDepthHistogram | None, Any, Any]
        ] = VersionedLRU(max(1, arity), "order statistics")

    # -- maintenance ----------------------------------------------------------

    def add_row(self, values: Sequence[Any]) -> None:
        self.cardinality += 1
        self.version += 1
        for counter, value in zip(self._column_counts, values):
            counter[value] += 1

    def add_rows(self, rows: Sequence[Sequence[Any]]) -> None:
        """Absorb a batch of rows in one pass per column.

        Semantically ``for values in rows: add_row(values)`` — the
        version advances by ``len(rows)`` so caches built between the
        equivalent single-row calls stay distinguishable — but each
        column counter is updated once with the whole column instead of
        once per row, which is what makes bulk loads (``insert_many``,
        ``Database.copy``) cheap.
        """
        batch = [tuple(values) for values in rows]
        if not batch:
            return
        self.cardinality += len(batch)
        self.version += len(batch)
        for counter, column in zip(self._column_counts, zip(*batch)):
            counter.update(column)

    def remove_row(self, values: Sequence[Any]) -> None:
        """Retract one row's contribution.

        Validates before mutating: removing a row that was never counted
        raises :class:`ValueError` and leaves every counter untouched
        (frequencies are clamped at zero, never stored negative).  A
        negative frequency would silently poison every estimate built on
        top — distinct counts, selectivities, histograms.
        """
        if self.cardinality <= 0:
            raise ValueError(
                "cannot remove a row from empty statistics "
                f"(arity {self.arity})"
            )
        for position, (counter, value) in enumerate(
            zip(self._column_counts, values)
        ):
            if counter.get(value, 0) <= 0:
                raise ValueError(
                    f"cannot remove value {value!r} at position {position}: "
                    "it was never recorded (frequency underflow)"
                )
        self.cardinality -= 1
        self.version += 1
        for counter, value in zip(self._column_counts, values):
            remaining = counter[value] - 1
            if remaining:
                counter[value] = remaining
            else:
                del counter[value]

    def clear(self) -> None:
        """Forget every row; the version advances by the rows forgotten,
        as if each had been removed."""
        self.version += self.cardinality
        self.cardinality = 0
        for counter in self._column_counts:
            counter.clear()

    # -- estimators -----------------------------------------------------------

    def distinct(self, position: int) -> int:
        """Number of distinct values in column ``position``."""
        return len(self._column_counts[position])

    def frequency(self, position: int, value: Any) -> int:
        """Exact number of rows with ``value`` at ``position``.

        Values must be hashable (they are: rows are hashable throughout);
        unseen values report 0.
        """
        try:
            return self._column_counts[position][value]
        except TypeError:  # unhashable probe value: fall back to average
            return max(1, self.cardinality // max(1, self.distinct(position)))

    def equality_selectivity(self, position: int) -> float:
        """Estimated fraction of rows matching ``column = <unknown value>``.

        Assumes a uniform distribution over the distinct values — the
        standard System-R estimate ``1/NDV``.
        """
        distinct = self.distinct(position)
        if distinct == 0:
            return 0.0
        return 1.0 / distinct

    def value_selectivity(self, position: int, value: Any) -> float:
        """Exact fraction of rows matching ``column = value``."""
        if self.cardinality == 0:
            return 0.0
        return self.frequency(position, value) / self.cardinality

    # -- order statistics -----------------------------------------------------

    def _ordered(
        self, position: int
    ) -> tuple[EquiDepthHistogram | None, Any, Any]:
        """(histogram, min, max) for a column, rebuilt lazily per version.

        Mixed-type columns (values not totally ordered) cache
        ``(None, None, None)``; NaN values are excluded (no range
        predicate matches them).
        """
        cached = self._order_cache.get(position, version=self.version)
        if cached is not None:
            return cached
        counter = self._column_counts[position]
        ordered: tuple[EquiDepthHistogram | None, Any, Any] = (
            None, None, None
        )
        try:
            items = sorted(
                (value, count)
                for value, count in counter.items()
                if value == value  # drop NaN
            )
        except TypeError:
            items = []
        if items:
            ordered = (
                EquiDepthHistogram.from_frequencies(items),
                items[0][0],
                items[-1][0],
            )
        self._order_cache.put(position, ordered, version=self.version)
        return ordered

    def min_value(self, position: int) -> Any:
        """Smallest value in the column (None: empty or mixed-type)."""
        return self._ordered(position)[1]

    def max_value(self, position: int) -> Any:
        """Largest value in the column (None: empty or mixed-type)."""
        return self._ordered(position)[2]

    def histogram(self, position: int) -> EquiDepthHistogram | None:
        """The column's equi-depth histogram (None: empty or mixed-type)."""
        return self._ordered(position)[0]

    def range_selectivity(self, position: int, interval: Interval) -> float:
        """Estimated fraction of rows with the column inside ``interval``."""
        if self.cardinality == 0:
            return 0.0
        histogram, lo, hi = self._ordered(position)
        if histogram is None:
            return DEFAULT_RANGE_SELECTIVITY
        # min/max fast path: an interval past either end matches nothing.
        try:
            if interval.lo is not None and (
                hi < interval.lo or (hi == interval.lo and interval.lo_open)
            ):
                return 0.0
            if interval.hi is not None and (
                lo > interval.hi or (lo == interval.hi and interval.hi_open)
            ):
                return 0.0
            rows = histogram.estimate_rows(interval)
        except TypeError:
            # Interval bounds incomparable with the column's values: the
            # probe will degrade to a residual filter; price it like one.
            return DEFAULT_RANGE_SELECTIVITY
        return min(1.0, max(0.0, rows / self.cardinality))

    def estimate_matches(
        self,
        equality_positions: Sequence[int] = (),
        constant_constraints: Sequence[tuple[int, Any]] = (),
        range_constraints: Sequence[tuple[int, Interval]] = (),
    ) -> float:
        """Estimated rows matching an index probe.

        ``equality_positions`` are columns constrained to a value unknown
        at plan time (join variables); ``constant_constraints`` are
        ``(position, value)`` pairs known at plan time;
        ``range_constraints`` are ``(position, interval)`` pairs from
        pushed range comparisons, priced with the equi-depth histogram.
        Selectivities multiply under the usual independence assumption.
        """
        return self.estimate_access_paths(
            equality_positions, constant_constraints, range_constraints
        )[0]

    def estimate_access_paths(
        self,
        equality_positions: Sequence[int] = (),
        constant_constraints: Sequence[tuple[int, Any]] = (),
        range_constraints: Sequence[tuple[int, Interval]] = (),
    ) -> tuple[float, float]:
        """``(matched, probed)`` row estimates for one probe.

        ``matched`` applies every constraint — it is what
        :meth:`estimate_matches` returns and what a *composite* access
        path (hash probe + in-bucket bisect) touches, since the range
        narrowing happens inside the probe.  ``probed`` applies only the
        equality constraints: the rows a single-index hash probe hands
        to residual filtering.  The ``probed - matched`` gap is exactly
        the per-probe work a composite index saves, which is how the
        planner prices a composite probe against single-index probes and
        scans.  Selectivities multiply under the usual independence
        assumption.
        """
        probed = float(self.cardinality)
        for position in equality_positions:
            probed *= self.equality_selectivity(position)
        for position, value in constant_constraints:
            probed *= self.value_selectivity(position, value)
        matched = probed
        for position, interval in range_constraints:
            matched *= self.range_selectivity(position, interval)
        return matched, probed

    def __repr__(self) -> str:
        distinct = ", ".join(
            str(len(counter)) for counter in self._column_counts
        )
        return (
            f"RelationStatistics(cardinality={self.cardinality}, "
            f"distinct=[{distinct}])"
        )

