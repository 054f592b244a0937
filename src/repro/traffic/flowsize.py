"""Empirical flow-size distributions (the paper's "real-world traffic [2]").

The paper's Figure 2(f) simulation uses the pFabric workloads (Alizadeh et
al., SIGCOMM 2013).  We re-encode the two published CDFs — the web-search
workload (from the DCTCP production cluster) and the data-mining workload
(from a VL2-style cluster) — as piecewise log-linear CDFs and sample them
by inverse transform.  These are the standard re-encodings used across the
datacenter-transport literature; absolute byte values are approximate but
the shape (heavy tail, dominant short flows) is what the experiments need.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence, Tuple

import numpy as np

from ..errors import TrafficError
from ..util import ensure_rng, RngLike

__all__ = ["FlowSizeDistribution", "WEB_SEARCH", "DATA_MINING"]

KB = 1000

#: Elements :meth:`FlowSizeDistribution.quantiles` converts at a time.
_QUANTILE_SLICE = 1 << 14


class FlowSizeDistribution:
    """A flow-size CDF with inverse-transform sampling.

    Parameters
    ----------
    points:
        ``(size_bytes, cdf)`` knots, strictly increasing in both
        coordinates, ending at cdf = 1.0.  Sizes between knots are
        interpolated log-linearly (flow sizes span many decades).
    name:
        Label used in reports.
    """

    def __init__(self, points: Sequence[Tuple[float, float]], name: str = "custom"):
        pts = [(float(s), float(c)) for s, c in points]
        if len(pts) < 2:
            raise TrafficError("a CDF needs at least 2 points")
        sizes = [s for s, _ in pts]
        cdfs = [c for _, c in pts]
        if any(s <= 0 for s in sizes):
            raise TrafficError("flow sizes must be positive")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise TrafficError("sizes must be strictly increasing")
        if any(b < a for a, b in zip(cdfs, cdfs[1:])):
            raise TrafficError("CDF values must be non-decreasing")
        if not 0.0 <= cdfs[0] < 1.0 or abs(cdfs[-1] - 1.0) > 1e-12:
            raise TrafficError("CDF must start below 1 and end at exactly 1")
        self.name = str(name)
        self._sizes = sizes
        self._cdfs = cdfs
        # Array twins for :meth:`quantiles`; the knot logs are taken with
        # ``math.log`` once each, so they equal the scalar path's.
        self._cdf_arr = np.array(cdfs)
        self._log_arr = np.array([math.log(s) for s in sizes])

    # -- queries ---------------------------------------------------------------

    @property
    def min_size(self) -> float:
        return self._sizes[0]

    @property
    def max_size(self) -> float:
        return self._sizes[-1]

    def quantile(self, u: float) -> float:
        """Inverse CDF with log-linear interpolation between knots."""
        if not 0.0 <= u <= 1.0:
            raise TrafficError(f"quantile argument must be in [0, 1], got {u}")
        cdfs, sizes = self._cdfs, self._sizes
        if u <= cdfs[0]:
            return sizes[0]
        if u >= cdfs[-1]:
            return sizes[-1]
        idx = bisect.bisect_left(cdfs, u)
        idx = min(idx, len(cdfs) - 1)
        lo_c, hi_c = cdfs[idx - 1], cdfs[idx]
        lo_s, hi_s = sizes[idx - 1], sizes[idx]
        if hi_c == lo_c:
            return hi_s
        t = (u - lo_c) / (hi_c - lo_c)
        return math.exp(math.log(lo_s) + t * (math.log(hi_s) - math.log(lo_s)))

    def quantiles(self, u) -> np.ndarray:
        """:meth:`quantile` of every element of *u*, bit for bit.

        The knot search and the interpolation are array operations, each
        one IEEE-rounded exactly as the scalar path rounds it; the final
        ``exp`` stays ``math.exp`` per element, because ``np.exp`` can
        differ from it in the last bit and a size near a cell boundary
        would then round the other way.  *u* is taken in slices of
        :data:`_QUANTILE_SLICE`, so the temporaries (two Python floats
        per element among them) stay small however many draws there are.
        """
        u = np.asarray(u, dtype=np.float64)
        if u.size and not (u.min() >= 0.0 and u.max() <= 1.0):
            bad = u[~((u >= 0.0) & (u <= 1.0))][0]
            raise TrafficError(f"quantile argument must be in [0, 1], got {bad}")
        flat = u.reshape(-1)
        out = np.empty(flat.size)
        for start in range(0, flat.size, _QUANTILE_SLICE):
            stop = start + _QUANTILE_SLICE
            out[start:stop] = self._quantile_slice(flat[start:stop])
        return out.reshape(u.shape)

    def _quantile_slice(self, u: np.ndarray) -> np.ndarray:
        """:meth:`quantiles` of one checked 1-D slice."""
        cdfs, logs = self._cdf_arr, self._log_arr
        out = np.empty(u.size)
        low = u <= cdfs[0]
        high = ~low & (u >= cdfs[-1])
        mid = ~(low | high)
        out[high] = self._sizes[-1]
        out[low] = self._sizes[0]
        um = u[mid]
        idx = np.searchsorted(cdfs, um, side="left")
        lo_c, hi_c = cdfs[idx - 1], cdfs[idx]
        lo_l, hi_l = logs[idx - 1], logs[idx]
        t = (um - lo_c) / (hi_c - lo_c)
        out[mid] = list(map(math.exp, (lo_l + t * (hi_l - lo_l)).tolist()))
        return out

    def cdf(self, size: float) -> float:
        """CDF value at *size* (log-linear interpolation)."""
        sizes, cdfs = self._sizes, self._cdfs
        if size <= sizes[0]:
            return cdfs[0]
        if size >= sizes[-1]:
            return 1.0
        idx = bisect.bisect_right(sizes, size)
        lo_s, hi_s = sizes[idx - 1], sizes[idx]
        lo_c, hi_c = cdfs[idx - 1], cdfs[idx]
        t = (math.log(size) - math.log(lo_s)) / (math.log(hi_s) - math.log(lo_s))
        return lo_c + t * (hi_c - lo_c)

    def sample(self, rng: RngLike = None, count: int = 1) -> np.ndarray:
        """Draw *count* flow sizes (bytes) by inverse transform."""
        gen = ensure_rng(rng)
        return self.quantiles(gen.random(count))

    def mean_size(self, samples: int = 20001) -> float:
        """Numerical mean via quantile integration (deterministic)."""
        return float(np.mean(self.quantiles(np.linspace(0.0, 1.0, samples))))

    def short_flow_fraction(self, threshold_bytes: float) -> float:
        """Fraction of *flows* at or below the threshold (count-weighted).

        Table 1 assumes a 75 % short-flow share; for the web-search
        workload that corresponds to a threshold around 100 KB.
        """
        return self.cdf(threshold_bytes)

    @classmethod
    def fixed(cls, size_bytes: float, name: str = "fixed") -> "FlowSizeDistribution":
        """Degenerate distribution: every flow the same size."""
        if size_bytes <= 0:
            raise TrafficError("size must be positive")
        return cls([(size_bytes * (1 - 1e-9), 0.0), (size_bytes, 1.0)], name=name)

    def __repr__(self) -> str:
        return (
            f"FlowSizeDistribution(name={self.name!r}, "
            f"range=[{self.min_size:.0f}, {self.max_size:.0f}] bytes)"
        )


#: pFabric web-search workload (DCTCP cluster), re-encoded from the
#: published CDF.  Mean ~1.6 MB; >95 % of flows under 1 MB but the heavy
#: tail carries most bytes.
WEB_SEARCH = FlowSizeDistribution(
    [
        (1 * KB, 0.00),
        (6 * KB, 0.15),
        (13 * KB, 0.20),
        (19 * KB, 0.30),
        (33 * KB, 0.40),
        (53 * KB, 0.53),
        (133 * KB, 0.60),
        (667 * KB, 0.70),
        (1333 * KB, 0.80),
        (3333 * KB, 0.90),
        (6667 * KB, 0.97),
        (20000 * KB, 1.00),
    ],
    name="pfabric-web-search",
)

#: pFabric data-mining workload (VL2-style cluster): ~80 % of flows under
#: 10 KB, with a tail out to ~1 GB.
DATA_MINING = FlowSizeDistribution(
    [
        (1 * KB, 0.50),
        (2 * KB, 0.60),
        (3 * KB, 0.70),
        (7 * KB, 0.80),
        (267 * KB, 0.90),
        (2107 * KB, 0.95),
        (66667 * KB, 0.99),
        (666667 * KB, 1.00),
    ],
    name="pfabric-data-mining",
)
