"""Tanimoto similarity, distance matrices, agglomerative clustering and
medoid-based diversity picking.

The similarity is the general vector form T(A, B) = A.B / (|A|^2 + |B|^2
- A.B); on binary vectors it reduces to the Jaccard index. One kernel,
``_tanimoto_rows``, computes it for every row pair of two matrices; the
single-pair, square and cross-set paths all call it. ``distance_matrix``
returns the n x n array of distances 1 - T. Clustering merges greedily
under single/complete/average linkage with ties broken toward the
smallest (i, j) cluster-id pair, so results are reproducible run to run.
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
    """Normalized longest-common-subsequence ratio 2*LCS/(|a|+|b|)."""
    if not a or not b:
        raise ValueError("string similarity needs non-empty strings")
    if a == b:
        return 1.0
    prev = [0] * (len(b) + 1)
    for ca in a:
        cur = [0]
        for j, cb in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if ca == cb else max(prev[j], cur[-1]))
        prev = cur
    return 2.0 * prev[-1] / (len(a) + len(b))


def _bit_matrix(items: list[FingerprintVector]) -> np.ndarray:
    cfg = items[0].config
    for v in items[1:]:
        if v.config != cfg:
            raise ConfigMismatch("all fingerprints must share one config")
    return np.stack([v.bits for v in items]).astype(np.float64)


def distance_matrix(items: list[FingerprintVector]) -> np.ndarray:
    """Pairwise Tanimoto distances 1 - T as an n x n array."""
    if len(items) < 2:
        raise ValueError("need at least 2 items")
    rows = _bit_matrix(items)
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

    work = dist.copy().astype(float)
    np.fill_diagonal(work, np.inf)
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=float)
    members: list[list[int]] = [[i] for i in range(n)]

    for _ in range(n - k):
        masked = np.where(active[:, None] & active[None, :], work, np.inf)
        masked[np.tril_indices(n)] = np.inf
        flat = int(np.argmin(masked))  # first occurrence = smallest (i, j)
        i, j = divmod(flat, n)
        if linkage == "single":
            merged = np.minimum(work[i], work[j])
        elif linkage == "complete":
            merged = np.maximum(work[i], work[j])
        else:
            merged = (sizes[i] * work[i] + sizes[j] * work[j]) / (sizes[i] + sizes[j])
        work[i], work[:, i] = merged, merged
        work[i, i] = np.inf
        active[j] = False
        sizes[i] += sizes[j]
        members[i].extend(members[j])

    clusters = sorted((min(m), m) for idx, m in enumerate(members) if active[idx])
    labels = [0] * n
    ordered_members: list[list[int]] = []
    for cluster_id, (_, member_list) in enumerate(clusters):
        ordered_members.append(sorted(member_list))
        for item in member_list:
            labels[item] = cluster_id
    representatives = _medoids(ordered_members, dist)
    return ClusterAssignment(
        labels=tuple(labels), k=k, linkage=linkage, representatives=tuple(representatives)
    )


def _medoids(clusters: list[list[int]], dist: np.ndarray) -> list[int]:
    out = []
    for member_list in clusters:
        sub = dist[np.ix_(member_list, member_list)]
        totals = sub.sum(axis=1)
        out.append(member_list[int(np.argmin(totals))])  # ties -> lowest id
    return out


def medoid_representatives(assignment: ClusterAssignment, dist: np.ndarray) -> list[int]:
    """Per cluster, the member minimizing summed distance to co-members."""
    clusters = [assignment.members(c) for c in range(assignment.k)]
    return _medoids(clusters, np.asarray(dist, dtype=float))
