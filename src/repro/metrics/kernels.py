"""NumPy reductions for the vec backend's streaming observers.

Each function is the whole-array counterpart of one scalar reduction the
dict/columns sample views perform, chosen so the reduced float (or count) is
bit-identical to the scalar loop:

* maxima/minima reduce the same set of floats, and IEEE-754 max/min are
  order-insensitive on the values the engines produce (no NaNs);
* ``a - min(e)`` equals ``max_i(a - e_i)`` because rounded subtraction is
  monotone in ``e``;
* comparisons against precomputed limits are the exact comparisons of the
  scalar code (no tolerance is introduced or dropped).

None of these kernels ever materializes a per-node dict -- observers on the
vec backend stay O(n) arrays end to end.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def global_skew(logical: np.ndarray) -> float:
    """``max - min`` of the logical clocks (0.0 for an empty column)."""
    if not len(logical):
        return 0.0
    return float(logical.max() - logical.min())


def max_pair_skew(logical: np.ndarray, iu: np.ndarray, iv: np.ndarray) -> float:
    """Largest ``|L_u - L_v|`` over an index-pair list (0.0 when empty)."""
    if not len(iu):
        return 0.0
    return float(np.abs(logical[iu] - logical[iv]).max())


def run_skews(
    logical: np.ndarray, iu: np.ndarray, iv: np.ndarray, starts: List[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-pair ``|L_u - L_v|`` and its maximum over each run of pairs
    beginning at ``starts`` (ascending, each run non-empty)."""
    skews = np.abs(logical.take(iu) - logical.take(iv))
    return skews, np.maximum.reduceat(skews, starts)


def max_estimate_lag(logical: np.ndarray, estimates: np.ndarray) -> float:
    """``max_u (max_v L_v - M_u)``; equals ``L_max - M_min`` exactly."""
    return float(logical.max() - estimates.min())


def mode_counts_update(modes: np.ndarray, counts) -> None:
    """Add one sample's per-mode-code tallies into ``counts`` (a list)."""
    tallies = np.bincount(modes, minlength=len(counts))
    for code in range(len(counts)):
        counts[code] += int(tallies[code])


def histogram_update(
    logical: np.ndarray,
    iu: np.ndarray,
    iv: np.ndarray,
    bin_edges: np.ndarray,
    counts: np.ndarray,
) -> None:
    """Bucket one sample's per-pair skews (``bisect_right`` semantics)."""
    buckets = np.searchsorted(bin_edges, np.abs(logical[iu] - logical[iv]), side="right")
    np.add.at(counts, (np.arange(len(iu)), buckets), 1)
