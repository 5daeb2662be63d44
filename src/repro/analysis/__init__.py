"""Analysis: statistics and the paper's tables/figures as data + ASCII.

Two equivalent computation paths live here: the list-based oracle
functions (``compute_*`` over materialised records) and the
single-pass streaming aggregators (:class:`StreamingCrawlAnalysis`,
:class:`StreamingCookieComparison` over record streams).  Their
outputs are byte-identical; the streaming path's memory is bounded by
the analysis result, not the stream length.
"""

from repro.analysis.stats import (
    OnlineStats,
    StreamingECDF,
    ecdf,
    ecdf_at,
    mean,
    median,
    pearson,
    quantile,
)
from repro.analysis.discrepancy import StreamingDiscrepancyReport
from repro.analysis.failures import StreamingFailureTaxonomy
from repro.analysis.streaming import (
    StreamingCookieComparison,
    StreamingCrawlAnalysis,
)

__all__ = [
    "median",
    "mean",
    "quantile",
    "ecdf",
    "ecdf_at",
    "pearson",
    "OnlineStats",
    "StreamingECDF",
    "StreamingCrawlAnalysis",
    "StreamingCookieComparison",
    "StreamingDiscrepancyReport",
    "StreamingFailureTaxonomy",
]
