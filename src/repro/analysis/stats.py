"""Statistics helpers: list-based reducers and streaming aggregators.

Two families live here.  The list-based functions (:func:`mean`,
:func:`median`, :func:`quantile`, :func:`ecdf`, :func:`ecdf_at`,
:func:`pearson`) materialise their input; they are the *differential
oracles* the streaming analysis layer is tested against.  The
single-pass aggregators (:class:`OnlineStats`, :class:`StreamingECDF`)
consume a value stream once with bounded state, so an
analysis fed from :func:`~repro.measure.storage.iter_records` or
:meth:`~repro.api.result.RunResult.iter_records` never holds the
record stream in memory.

Exactness contract: while :class:`StreamingECDF` stays under its
point budget (every quantile/ECDF query is answered from exact
value counts) its answers are **byte-identical** to the list-based
oracles over the same stream — the property the streaming
figure/table pipeline relies on.  Past the budget it degrades to a
bounded-memory histogram sketch (closest-pair collapse) and answers
become approximate.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import AnalysisError


def mean(values: Iterable[float]) -> float:
    items = list(values)
    if not items:
        raise AnalysisError("mean() of empty data")
    return sum(items) / len(items)


def median(values: Iterable[float]) -> float:
    items = sorted(values)
    if not items:
        raise AnalysisError("median() of empty data")
    n = len(items)
    mid = n // 2
    if n % 2:
        return float(items[mid])
    return (items[mid - 1] + items[mid]) / 2.0


def quantile(values: Iterable[float], q: float) -> float:
    """Linear-interpolation quantile, q in [0, 1]."""
    if not 0 <= q <= 1:
        raise AnalysisError("quantile q must be within [0, 1]")
    items = sorted(values)
    if not items:
        raise AnalysisError("quantile() of empty data")
    if len(items) == 1:
        return float(items[0])
    position = q * (len(items) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high:
        return float(items[low])
    fraction = position - low
    return items[low] * (1 - fraction) + items[high] * fraction


def ecdf(values: Iterable[float]) -> List[Tuple[float, float]]:
    """Empirical CDF as (value, cumulative fraction) steps."""
    items = sorted(values)
    if not items:
        raise AnalysisError("ecdf() of empty data")
    n = len(items)
    out: List[Tuple[float, float]] = []
    for index, value in enumerate(items, start=1):
        if out and out[-1][0] == value:
            out[-1] = (value, index / n)
        else:
            out.append((value, index / n))
    return out


def ecdf_at(values: Sequence[float], threshold: float) -> float:
    """Fraction of values <= threshold."""
    items = list(values)
    if not items:
        raise AnalysisError("ecdf_at() of empty data")
    return sum(1 for v in items if v <= threshold) / len(items)


class OnlineStats:
    """Single-pass count/mean/min/max.

    O(1) state however long the stream; the running mean is updated
    incrementally (Welford), so it never sums the whole stream.
    """

    __slots__ = ("count", "mean", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> "OnlineStats":
        value = float(value)
        self.count += 1
        self.mean += (value - self.mean) / self.count
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        return self

    def extend(self, values: Iterable[float]) -> "OnlineStats":
        for value in values:
            self.add(value)
        return self

    def merge(self, other: "OnlineStats") -> "OnlineStats":
        """Absorb *other* (Chan's parallel-Welford combination)."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.min = other.min
            self.max = other.max
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self.mean += delta * other.count / total
        self.count = total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self


class StreamingECDF:
    """Bounded-memory empirical distribution over a value stream.

    Exact while the number of *distinct* values stays within
    ``max_points`` (the default budget comfortably covers prices,
    cookie counts, and bucket-like measurement values): every query —
    :meth:`fraction_at_most`, :meth:`quantile`, :meth:`median`,
    :meth:`ecdf` — then returns byte-for-byte what the list-based
    oracles return for the same stream, because the same
    interpolation arithmetic runs over the same value multiset.
    When the budget is exceeded the two closest points are collapsed
    (weight-merged, Ben-Haim/Tom-Tov style), turning the structure
    into an approximate histogram sketch; :attr:`exact` reports which
    regime the instance is in.
    """

    def __init__(self, max_points: int = 4096) -> None:
        if max_points < 2:
            raise AnalysisError("StreamingECDF needs max_points >= 2")
        self.max_points = max_points
        self.count = 0
        self.exact = True
        self._counts: Dict[float, int] = {}
        self._sorted: Optional[List[Tuple[float, int]]] = None

    def add(self, value: float, weight: int = 1) -> "StreamingECDF":
        value = float(value)
        self.count += weight
        self._counts[value] = self._counts.get(value, 0) + weight
        self._sorted = None
        if len(self._counts) > self.max_points:
            self._collapse_closest()
        return self

    def extend(self, values: Iterable[float]) -> "StreamingECDF":
        for value in values:
            self.add(value)
        return self

    def merge(self, other: "StreamingECDF") -> "StreamingECDF":
        for value, weight in other._counts.items():
            self.add(value, weight)
        self.exact = self.exact and other.exact
        return self

    def _collapse_closest(self) -> None:
        """Merge the two closest points into their weighted mean."""
        points = sorted(self._counts)
        gaps = (
            (points[i + 1] - points[i], i) for i in range(len(points) - 1)
        )
        _, i = min(gaps)
        a, b = points[i], points[i + 1]
        wa, wb = self._counts.pop(a), self._counts.pop(b)
        merged = (a * wa + b * wb) / (wa + wb)
        self._counts[merged] = self._counts.get(merged, 0) + wa + wb
        self.exact = False
        self._sorted = None

    def _points(self) -> List[Tuple[float, int]]:
        if self._sorted is None:
            self._sorted = sorted(self._counts.items())
        return self._sorted

    def fraction_at_most(self, threshold: float) -> float:
        """Fraction of values <= threshold (the :func:`ecdf_at` oracle)."""
        if self.count == 0:
            raise AnalysisError("fraction_at_most() of empty StreamingECDF")
        covered = sum(w for v, w in self._points() if v <= threshold)
        return covered / self.count

    def _value_at(self, position: int) -> float:
        """The value a sorted materialisation would hold at *position*."""
        seen = 0
        for value, weight in self._points():
            seen += weight
            if position < seen:
                return value
        return self._points()[-1][0]

    def quantile(self, q: float) -> float:
        """Linear-interpolation quantile (the :func:`quantile` oracle)."""
        if not 0 <= q <= 1:
            raise AnalysisError("quantile q must be within [0, 1]")
        if self.count == 0:
            raise AnalysisError("quantile() of empty StreamingECDF")
        if self.count == 1:
            return float(self._points()[0][0])
        # Identical arithmetic to stats.quantile over the sorted
        # multiset, so exact-regime answers match byte for byte.
        position = q * (self.count - 1)
        low = int(math.floor(position))
        high = int(math.ceil(position))
        low_value = self._value_at(low)
        if low == high:
            return float(low_value)
        high_value = self._value_at(high)
        if low_value == high_value:
            return float(low_value)
        fraction = position - low
        return low_value * (1 - fraction) + high_value * fraction

    def median(self) -> float:
        """Median via the :func:`median` oracle's midpoint arithmetic."""
        if self.count == 0:
            raise AnalysisError("median() of empty StreamingECDF")
        mid = self.count // 2
        if self.count % 2:
            return float(self._value_at(mid))
        return (self._value_at(mid - 1) + self._value_at(mid)) / 2.0

    def ecdf(self) -> List[Tuple[float, float]]:
        """(value, cumulative fraction) steps (the :func:`ecdf` oracle)."""
        if self.count == 0:
            raise AnalysisError("ecdf() of empty StreamingECDF")
        out: List[Tuple[float, float]] = []
        seen = 0
        for value, weight in self._points():
            seen += weight
            out.append((value, seen / self.count))
        return out


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient (0.0 for degenerate input)."""
    if len(xs) != len(ys):
        raise AnalysisError("pearson() needs equal-length sequences")
    n = len(xs)
    if n < 2:
        raise AnalysisError("pearson() needs at least two points")
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx == 0 or vy == 0:
        return 0.0
    return cov / math.sqrt(vx * vy)
