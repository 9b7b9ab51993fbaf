"""Tanimoto similarity, distance matrices, agglomerative clustering and
medoid-based diversity picking.

The similarity is the general vector form T(A, B) = A.B / (|A|^2 + |B|^2
- A.B); on binary vectors it reduces to the Jaccard index. One kernel,
``_tanimoto_rows``, computes it for every row pair of two matrices; the
single-pair, square and cross-set paths all call it. ``distance_matrix``
returns the n x n array of distances 1 - T.

Clustering merges greedily under single/complete/average linkage, exactly
and deterministically: equal distances merge the smallest (i, j) cluster-id
pair first. The pair search is Müllner's nearest-neighbour list
(arXiv:1109.2378): each row caches its nearest active column to the right,
and a merge rescans only the rows whose neighbour it merged. That is O(n^2)
on typical inputs, O(n^3) at worst. A non-finite off-diagonal distance
raises ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fingerprints import ConfigMismatch, FingerprintVector

LINKAGES = ("single", "complete", "average")


class InvalidK(ValueError):
    """Requested cluster count outside [1, n]."""


@dataclass(frozen=True)
class ClusterAssignment:
    labels: tuple[int, ...]
    k: int
    linkage: str
    representatives: tuple[int, ...]

    def members(self, cluster: int) -> list[int]:
        return [i for i, lab in enumerate(self.labels) if lab == cluster]


def _tanimoto_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """General-vector Tanimoto of every row of ``a`` against every row of
    ``b`` (an A x B array); a pair of all-zero rows gives 1.0."""
    dots = a @ b.T
    denom = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - dots
    return np.where(denom > 0, dots / np.where(denom == 0, 1, denom), 1.0)


def tanimoto_values(a: np.ndarray, b: np.ndarray) -> float:
    """General-vector Tanimoto; both-zero inputs return 1.0 by convention."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ConfigMismatch("vectors have different lengths")
    return float(_tanimoto_rows(a[None, :], b[None, :])[0, 0])


def tanimoto(a: FingerprintVector, b: FingerprintVector) -> float:
    if a.config != b.config:
        raise ConfigMismatch(
            f"fingerprint configs differ: {a.config.tag()} vs {b.config.tag()}"
        )
    return tanimoto_values(a.bits, b.bits)


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
    """Pairwise Tanimoto distances 1 - T as an n x n array."""
    if len(items) < 2:
        raise ValueError("need at least 2 items")
    if any(v.config != items[0].config for v in items[1:]):
        raise ConfigMismatch("all fingerprints must share one config")
    rows = np.stack([v.bits for v in items]).astype(np.float64)
    return 1.0 - _tanimoto_rows(rows, rows)


def hier_cluster(dist: np.ndarray, linkage: str = "average", k: int = 1) -> ClusterAssignment:
    """Agglomerative clustering of a symmetric distance matrix down to k
    clusters. Cluster ids during merging are the smallest original member
    index; equal-distance merges pick the smallest (i, j) pair.
    """
    dist = np.asarray(dist, dtype=float)
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise ValueError("distance matrix must be square")
    if not 1 <= k <= n:
        raise InvalidK(f"k={k} outside [1, {n}]")
    if linkage not in LINKAGES:
        raise ValueError(f"linkage must be one of {LINKAGES}")

    work = np.array(dist)
    np.fill_diagonal(work, 0.0)
    if not np.isfinite(work).all():
        raise ValueError("distance matrix has non-finite off-diagonal entries")
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

    roots, labels = np.unique(owner, return_inverse=True)
    clusters = [np.flatnonzero(owner == c).tolist() for c in roots]
    return ClusterAssignment(
        labels=tuple(labels.tolist()),
        k=k,
        linkage=linkage,
        representatives=tuple(_medoids(clusters, dist)),
    )


def _medoids(clusters: list[list[int]], dist: np.ndarray) -> list[int]:
    out = []
    for member_list in clusters:
        sub = dist[np.ix_(member_list, member_list)]  # a copy
        np.fill_diagonal(sub, 0.0)  # as in merging, the diagonal is ignored
        totals = sub.sum(axis=1)
        out.append(member_list[int(np.argmin(totals))])  # ties -> lowest id
    return out


def medoid_representatives(assignment: ClusterAssignment, dist: np.ndarray) -> list[int]:
    """Per cluster, the member minimizing summed distance to co-members."""
    clusters = [assignment.members(c) for c in range(assignment.k)]
    return _medoids(clusters, np.asarray(dist, dtype=float))
