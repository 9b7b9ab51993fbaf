"""Tanimoto similarity, condensed distances, agglomerative clustering and
medoid-based diversity picking.

The similarity is the general vector form T(A, B) = A.B / (|A|^2 + |B|^2
- A.B); on binary vectors it reduces to the Jaccard index. One kernel,
``tanimoto_matrix``, computes it for every row pair of two matrices, one
block of ``_BLOCK`` rows at a time, straight into one float64 output (after
chemfp, Dalke 2019). On 0/1 uint8 rows a block's counts are a float32 GEMM,
exact because each is an integer below 2^24, so the float64 division sees
the same integers as an all-float64 evaluation: bit-identical results
without an n x nbits float64 copy.

``hier_cluster`` holds its distances 1 - T as one condensed upper triangle,
n(n-1)/2 float64 in scipy's ``squareform`` order, filled one ``_BLOCK``-row
strip at a time from the same integers: a float32 GEMM over the columns set
in more than 1/``_DENSE`` of the rows, plus the pairs of rows listed under
each rarer column (a fingerprint sets a median of 26 of 2048 bits). It is
merged in place (Müllner's generic layout) and freed before each cluster's
medoid is taken from its members' own fingerprints, one ``_BLOCK``-row slab
of distances at a time: O(_BLOCK x m) memory for m members, and the same
totals as the full matrix's rows. One fingerprint is one cluster, its own
medoid.

Clustering merges greedily under single/complete/average linkage, exactly
and deterministically: equal distances merge the smallest (i, j) cluster-id
pair first. The pair search is Müllner's nearest-neighbour list
(arXiv:1109.2378): each row caches its nearest live column to the right,
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
_DENSE = 20  # a column set in more than 1/_DENSE of the rows is counted by GEMM


def tanimoto_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """General-vector Tanimoto of every row of ``a`` against every row of
    ``b`` (an A x B float64 array; bit rows as 0/1 uint8). A pair whose
    denominator is not positive (two all-zero rows) gives 1.0."""
    work = np.float32 if a.dtype == np.uint8 else np.float64
    na, nb = _squared_norms(a, work)[:, None], _squared_norms(b, work)[None, :]
    out = np.empty((len(a), len(b)))
    for i in range(0, len(a), _BLOCK):
        fa = a[i : i + _BLOCK].astype(work, copy=False)
        for j in range(0, len(b), _BLOCK):
            o = out[i : i + _BLOCK, j : j + _BLOCK]
            o[...] = fa @ b[j : j + _BLOCK].astype(work, copy=False).T
            denom = na[i : i + _BLOCK] + nb[:, j : j + _BLOCK] - o
            o[...] = np.where(denom > 0, o / np.where(denom == 0, 1, denom), 1.0)
    return out


def _squared_norms(x: np.ndarray, work: type) -> np.ndarray:
    """Each row's sum of squares, taken in ``work`` one block at a time."""
    out = np.empty(len(x))
    for i in range(0, len(x), _BLOCK):
        f = x[i : i + _BLOCK].astype(work, copy=False)
        out[i : i + _BLOCK] = (f * f).sum(axis=1)
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
    if any(v.config != items[0].config for v in items[1:]):
        raise ValueError("all fingerprints must share one config")
    owner = _merge(_condensed_distances(items), n, linkage, k)  # the array dies here
    roots, labels = np.unique(owner, return_inverse=True)
    clusters = [np.flatnonzero(owner == c).tolist() for c in roots]
    return ClusterAssignment(
        labels=tuple(labels.tolist()),
        representatives=tuple(_medoid(items, members) for members in clusters),
    )


def _condensed_distances(items: list[FingerprintVector]) -> np.ndarray:
    """Distances 1 - T(i, j) for i < j of 0/1 fingerprints as n(n-1)/2
    float64 in scipy's ``squareform`` order, one ``_BLOCK``-row strip at a
    time. All-zero rows share a column of their own: two of them count 1
    of 1 bits (T = 1.0), and one against any other row still counts 0."""
    n, nbits = len(items), len(items[0].bits)
    rows, cols = np.divmod(np.flatnonzero(  # the on-bits, by row
        np.concatenate([v.bits for v in items], dtype=bool, casting="unsafe")), nbits)
    norms = np.bincount(rows, minlength=n)
    dense = np.bincount(cols, minlength=nbits) * _DENSE > n
    d = dense[cols]
    gemm = np.zeros((n, np.count_nonzero(dense) + 1), dtype=np.float32)
    gemm[rows[d], (np.cumsum(dense) - 1)[cols[d]]] = 1
    gemm[norms == 0, -1] = 1  # the column of the all-zero rows
    norms = np.maximum(norms, 1).astype(np.float32)
    rows, cols = rows[~d], cols[~d]  # the rare on-bits
    by_column = np.argsort(cols, kind="stable")
    listed = rows[by_column]  # the rows of each rare column, ascending
    pos = np.argsort(by_column)  # each rare on-bit's place in ``listed``
    later = np.cumsum(np.bincount(cols, minlength=nbits))[cols] - pos - 1
    out = np.empty(n * (n - 1) // 2)
    scratch = np.empty(min(n, _BLOCK) * n, dtype=np.float32)
    at = 0
    for i in range(0, n, _BLOCK):
        b, w = min(_BLOCK, n - i), n - i
        strip = scratch[: b * w].reshape(b, w)  # rows i.., columns i..
        np.matmul(gemm[i : i + b], gemm[i:].T, out=strip)
        lo, hi = np.searchsorted(rows, (i, i + b))
        k = later[lo:hi]  # a rare on-bit pairs with the later rows of its column
        pair = np.repeat(pos[lo:hi] + 1 - (np.cumsum(k) - k), k)
        pair += np.arange(len(pair))
        pair = listed[pair]
        pair += np.repeat((rows[lo:hi] - i) * w - i, k)  # its place in the strip
        np.add.at(scratch, pair, np.float32(1))
        del pair  # before the strip's compacted copies are made
        upper = np.arange(w) > np.arange(b)[:, None]
        dist = out[at : at + b * w - b * (b + 1) // 2]
        dist[...] = strip[upper]  # the counts
        np.add(norms[i : i + b, None], norms[None, i:], out=strip)
        denom = strip[upper]
        denom -= dist
        np.divide(dist, denom, out=dist)
        np.subtract(1.0, dist, out=dist)
        at += len(dist)
    return out


def _merge(work: np.ndarray, n: int, linkage: str, k: int) -> np.ndarray:
    """Merge down to k clusters in the condensed distances ``work``
    (overwritten); return each item's cluster id."""
    ids = np.arange(n)
    # d(r, c) for r < c is work[base[r] + c]: row r's run to its right is
    # one contiguous slice, and column c above the diagonal a gather. A
    # merged-away cluster's row and column are set to inf.
    base = ids * (2 * n - ids - 3) // 2 - 1
    first = (base + ids + 1).tolist()
    sizes = np.ones(n, dtype=float)
    parent = list(range(n))  # j merged into i < j sets parent[j] = i
    # nn[r] is the first argmin of d(r, c > r) and best[r] its value; a
    # row with no live column to its right keeps best = inf.
    nn = np.full(n, n)
    best = np.full(n, np.inf)
    diagonal = np.full(1, np.inf)

    def run(r: int) -> np.ndarray:
        return work[first[r] : first[r] + n - 1 - r]

    def scan(r: int) -> None:
        row = run(r)
        c = int(row.argmin())
        nn[r], best[r] = r + 1 + c, row[c]

    for r in range(n - 1):
        scan(r)
    for _ in range(n - k):
        i = int(best.argmin())  # first occurrence = smallest (i, j)
        j = int(nn[i])
        above, column = base[:i] + i, base[:j] + j
        di = np.concatenate((work[above], diagonal, run(i)))  # full rows, by column
        dj = np.concatenate((work[column], diagonal, run(j)))
        if linkage == "single":
            merged = np.minimum(di, dj)
        elif linkage == "complete":
            merged = np.maximum(di, dj)
        else:
            merged = (sizes[i] * di + sizes[j] * dj) / (sizes[i] + sizes[j])
        work[above], run(i)[:] = merged[:i], merged[i + 1 :]
        work[column], run(j)[:], nn[j], best[j] = np.inf, np.inf, -1, np.inf  # never rescanned
        sizes[i] += sizes[j]
        parent[j] = i

        stale = ((nn == i) | (nn == j)).nonzero()[0]  # row i too
        # In rows r < i only d(r, i) changed: the cached neighbour moves to
        # i when i is now strictly closer, or as close and earlier.
        col, head = merged[:i], best[:i]
        closer = (col < head) | ((col == head) & (nn[:i] > i))
        nn[:i][closer], head[closer] = i, col[closer]
        for r in stale.tolist():
            scan(r)

    for x in range(n):  # parent[x] <= x, so parent[parent[x]] is a root
        parent[x] = parent[parent[x]]
    return np.array(parent)


def _medoid(items: list[FingerprintVector], members: list[int]) -> int:
    if len(members) == 1:
        return members[0]
    totals = _distance_totals(np.stack([items[i].bits for i in members]))
    return members[int(totals.argmin())]  # ties -> lowest id


def _distance_totals(rows: np.ndarray) -> np.ndarray:
    """Each row's summed Tanimoto distance to all rows, from one
    ``_BLOCK``-row slab of distances at a time; each row is summed whole."""
    totals = np.empty(len(rows))
    for s in range(0, len(rows), _BLOCK):
        slab = tanimoto_matrix(rows[s : s + _BLOCK], rows)
        totals[s : s + _BLOCK] = np.subtract(1.0, slab, out=slab).sum(axis=1)
    return totals
