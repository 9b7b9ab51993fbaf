"""Tanimoto similarity, distance matrices, agglomerative clustering and
medoid-based diversity picking.

The similarity is the general vector form T(A, B) = A.B / (|A|^2 + |B|^2
- A.B); on binary vectors it reduces to the Jaccard index. One kernel,
``tanimoto_matrix``, computes it for every row pair of two matrices, one
block of ``_BLOCK`` rows at a time, straight into one float64 output (after
chemfp, Dalke 2019). On 0/1 uint8 rows a block's counts are a float32 GEMM,
exact because each is an integer below 2^24, so the float64 division sees
the same integers as an all-float64 evaluation: bit-identical results
without an n x nbits float64 copy. ``distance_matrix`` turns the output
into 1 - T in place. ``hier_cluster`` merges in that one matrix and frees
it before taking each cluster's medoid from a block of its members' own
fingerprints, whose integer counts give exactly the full matrix's entries.
One fingerprint is one cluster, its own medoid.

Clustering merges greedily under single/complete/average linkage, exactly
and deterministically: equal distances merge the smallest (i, j) cluster-id
pair first. The pair search is Müllner's nearest-neighbour list
(arXiv:1109.2378): each row caches its nearest active column to the right,
and a merge rescans only the rows whose neighbour it merged. That is O(n^2)
on typical inputs, O(n^3) at worst.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fingerprints import FingerprintVector

LINKAGES = ("average", "single", "complete")  # the first is the default


@dataclass(frozen=True)
class ClusterAssignment:
    labels: tuple[int, ...]
    representatives: tuple[int, ...]


_BLOCK = 128  # rows per block; a 2048-bit float32 block takes 1 MB


def tanimoto_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """General-vector Tanimoto of every row of ``a`` against every row of
    ``b`` (an A x B float64 array; bit rows as 0/1 uint8). A pair whose
    denominator is not positive (two all-zero rows) gives 1.0."""
    work = np.float32 if a.dtype == np.uint8 else np.float64
    out = np.empty((len(a), len(b)))
    for i in range(0, len(a), _BLOCK):
        fa = a[i : i + _BLOCK].astype(work, copy=False)
        na = (fa * fa).sum(axis=1).astype(np.float64)[:, None]
        for j in range(i if b is a else 0, len(b), _BLOCK):
            fb = b[j : j + _BLOCK].astype(work, copy=False)
            o = out[i : i + _BLOCK, j : j + _BLOCK]
            o[...] = fa @ fb.T
            denom = na + (fb * fb).sum(axis=1).astype(np.float64)[None, :] - o
            o[...] = np.where(denom > 0, o / np.where(denom == 0, 1, denom), 1.0)
            if b is a and j > i:  # a square computes j >= i and mirrors
                out[j : j + _BLOCK, i : i + _BLOCK] = o.T
    return out


def string_similarity(a: str, b: str) -> float:
    """Normalized longest-common-subsequence ratio 2*LCS/(|a|+|b|), with
    the bit-parallel LCS length of Hyyrö (2004): one bit per char of ``a``."""
    if not a or not b:
        raise ValueError("string similarity needs non-empty strings")
    masks: dict[str, int] = {}
    for pos, ch in enumerate(a):
        masks[ch] = masks.get(ch, 0) | (1 << pos)
    full = (1 << len(a)) - 1
    v = full
    for ch in b:
        u = v & masks.get(ch, 0)
        v = ((v + u) | (v - u)) & full
    return 2.0 * (len(a) - v.bit_count()) / (len(a) + len(b))


def distance_matrix(items: list[FingerprintVector]) -> np.ndarray:
    """Pairwise Tanimoto distances 1 - T as an n x n array, n >= 1."""
    if any(v.config != items[0].config for v in items[1:]):
        raise ValueError("all fingerprints must share one config")
    rows = np.stack([v.bits for v in items])
    dist = tanimoto_matrix(rows, rows)
    return np.subtract(1.0, dist, out=dist)


def hier_cluster(
    items: list[FingerprintVector], linkage: str = LINKAGES[0], k: int = 1
) -> ClusterAssignment:
    """Agglomerative clustering of fingerprints by Tanimoto distance down to
    k clusters. Cluster ids during merging are the smallest original member
    index; equal-distance merges pick the smallest (i, j) pair. Each
    representative is a medoid (least summed distance; lowest id on a tie).
    """
    n = len(items)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")
    if linkage not in LINKAGES:
        raise ValueError(f"linkage must be one of {LINKAGES}")
    owner = _merge(distance_matrix(items), linkage, k)  # the matrix dies here
    roots, labels = np.unique(owner, return_inverse=True)
    clusters = [np.flatnonzero(owner == c).tolist() for c in roots]
    return ClusterAssignment(
        labels=tuple(labels.tolist()),
        representatives=tuple(_medoid(items, members) for members in clusters),
    )


def _merge(work: np.ndarray, linkage: str, k: int) -> np.ndarray:
    """Merge down to k clusters in ``work`` (overwritten); return each item's cluster id."""
    n = len(work)
    np.fill_diagonal(work, np.inf)
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=float)
    owner = np.arange(n)  # each item's cluster id: its smallest member index
    # nn[r] is the first argmin of work[r, r+1:] over active columns and
    # best[r] its value; inactive rows and the last row keep best = inf.
    nn = np.full(n, n)
    best = np.full(n, np.inf)

    def scan(r: int) -> None:
        row = np.where(active[r + 1 :], work[r, r + 1 :], np.inf)
        c = int(np.argmin(row))
        nn[r], best[r] = r + 1 + c, row[c]

    for r in range(n - 1):
        scan(r)
    for _ in range(n - k):
        i = int(np.argmin(best))  # first occurrence = smallest (i, j)
        j = int(nn[i])
        if linkage == "single":
            merged = np.minimum(work[i], work[j])
        elif linkage == "complete":
            merged = np.maximum(work[i], work[j])
        else:
            merged = (sizes[i] * work[i] + sizes[j] * work[j]) / (sizes[i] + sizes[j])
        work[i], work[:, i] = merged, merged
        work[i, i] = np.inf
        active[j], best[j] = False, np.inf
        sizes[i] += sizes[j]
        owner[owner == j] = i

        stale = np.flatnonzero(active & ((nn == i) | (nn == j)))  # row i too
        # In rows r < i only column i changed: the cached neighbour moves to
        # i when i is now strictly closer, or as close and earlier.
        col, head = work[:i, i], best[:i]
        closer = active[:i] & ((col < head) | ((col == head) & (nn[:i] > i)))
        nn[:i][closer], head[closer] = i, col[closer]
        for r in stale:
            scan(int(r))

    return owner


def _medoid(items: list[FingerprintVector], members: list[int]) -> int:
    if len(members) == 1:
        return members[0]
    totals = distance_matrix([items[i] for i in members]).sum(axis=1)
    return members[int(np.argmin(totals))]  # ties -> lowest id
