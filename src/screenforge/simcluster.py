"""Tanimoto similarity, condensed distances, agglomerative clustering and
medoid-based diversity picking.

Every function takes lists of fingerprints of one config, and T(A, B) =
|A & B| / (|A| + |B| - |A & B|) of their on-bits. One kernel counts the
shared bits of each pair from both sides' on-bits, a ``_BLOCK``-row strip at
a time (after chemfp, Dalke 2019): a float32 GEMM over the bits set in more
than 1/``_DENSE`` of the fingerprints, plus one count per pair listed under
each rarer bit (a fingerprint sets a median of 26 of 2048 bits). Each T is
the float64 quotient of two exact integers below 2^24.

``hier_cluster`` merges in the distances 1 - T of the kernel's upper
triangle, n(n-1)/2 float64 in scipy's ``squareform`` order (Müllner's
generic layout), and then sums each medoid's distances from its members' own
fingerprints one strip at a time. One fingerprint is one cluster.

Clustering merges greedily under single/complete/average linkage, exactly
and deterministically: equal distances merge the smallest (i, j) cluster-id
pair first. The pair search is Müllner's nearest-neighbour list
(arXiv:1109.2378): each row caches its nearest live column to the right,
and a merge rescans only the rows whose neighbour it merged. That is O(n^2)
on typical inputs, O(n^3) at worst.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .fingerprints import FingerprintVector

LINKAGES = ("average", "single", "complete")  # the first is the default


@dataclass(frozen=True)
class ClusterAssignment:
    labels: tuple[int, ...]
    representatives: tuple[int, ...]


_BLOCK = 128  # rows per strip
_DENSE = 20  # a column set in more than 1/_DENSE of the rows is counted by GEMM


def tanimoto_matrix(a: list[FingerprintVector], b: list[FingerprintVector]) -> np.ndarray:
    """Tanimoto of every fingerprint of ``a`` against every fingerprint of
    ``b``, an A x B float64 array. Two empty fingerprints give 1.0."""
    out = np.empty((len(a), len(b)))
    for i, counts, denom in _shared_bits(a, b):
        np.divide(counts, denom, out=out[i : i + len(counts)], dtype=np.float64)
    return out


def _shared_bits(a: list[FingerprintVector], b: list[FingerprintVector],
                 upper: bool = False) -> Iterator[tuple]:
    """Yield (i, counts, denom) per ``_BLOCK``-row strip of the non-empty
    fingerprint lists ``a`` against ``b`` of one config: shared on-bits and
    |A| + |B| - count as float32, overwritten by the next strip. With ``upper``
    (``a`` is ``b``) strip columns start at i, complete right of the diagonal."""
    if len({v.config for v in [*a, *b]}) > 1:
        raise ValueError("all fingerprints must share one config")
    cols, nbits = np.concatenate([v.on_bits for v in b], dtype=np.intp), b[0].config.nbits
    dense = np.bincount(cols, minlength=nbits) * _DENSE > len(b)
    place = np.cumsum(dense) - 1  # a dense column's place in the GEMM input

    def split(fps: list[FingerprintVector], cols: np.ndarray) -> tuple:
        norms = np.array([len(v.on_bits) for v in fps])
        rows = np.repeat(np.arange(len(fps)), norms)  # each on-bit's row, as ``cols`` its column
        gemm = np.zeros((len(fps), np.count_nonzero(dense) + 1), dtype=np.float32)
        d = dense[cols]
        gemm[rows[d], place[cols[d]]] = 1
        gemm[norms == 0, -1] = 1  # empty rows share a column: T = 1 of 1 bits
        return gemm, np.maximum(norms, 1).astype(np.float32), rows[~d], cols[~d]

    gb, nb, rb, cb = split(b, cols)  # the GEMM input, |B| and the rare on-bits
    ga, na, ra, ca = (gb, nb, rb, cb) if a is b else split(
        a, np.concatenate([v.on_bits for v in a], dtype=np.intp))
    by_column = np.argsort(cb, kind="stable")
    listed = rb[by_column]  # b's rows under each rare column, ascending
    ends = np.cumsum(np.bincount(cb, minlength=nbits))
    # A rare on-bit of a pairs with listed[first : ends[its column]]: the
    # whole column, or in ``upper`` mode the rows after its own.
    first = np.argsort(by_column) + 1 if upper else np.concatenate(([0], ends))[ca]
    many = ends[ca] - first

    def strips() -> Iterator[tuple]:
        scratch, scratch_denom = np.empty((2, min(len(ga), _BLOCK) * len(gb)), np.float32)
        for i in range(0, len(ga), _BLOCK):
            h, j = min(_BLOCK, len(ga) - i), i if upper else 0
            w = len(gb) - j
            counts = scratch[: h * w].reshape(h, w)  # rows i.., columns j..
            np.matmul(ga[i : i + h], gb[j:].T, out=counts)
            lo, hi = np.searchsorted(ra, (i, i + h))
            k = many[lo:hi]
            pair = np.repeat(first[lo:hi] - (np.cumsum(k) - k), k)
            pair += np.arange(len(pair))
            pair = listed[pair]
            pair += np.repeat((ra[lo:hi] - i) * w - j, k)  # its place in the strip
            np.add.at(scratch, pair, np.float32(1))
            del pair
            denom = scratch_denom[: h * w].reshape(h, w)
            np.subtract(np.add(na[i : i + h, None], nb[None, j:], out=denom), counts, out=denom)
            yield i, counts, denom

    return strips()


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
    owner = _merge(_condensed_distances(items), n, linkage, k)  # the array dies here
    roots, labels = np.unique(owner, return_inverse=True)
    clusters = [np.flatnonzero(owner == c).tolist() for c in roots]
    return ClusterAssignment(
        labels=tuple(labels.tolist()),
        representatives=tuple(_medoid(items, members) for members in clusters),
    )


def _condensed_distances(items: list[FingerprintVector]) -> np.ndarray:
    """Distances 1 - T(i, j) for i < j of the fingerprints as n(n-1)/2
    float64 in scipy's ``squareform`` order, written row by row."""
    n, strips = len(items), _shared_bits(items, items, upper=True)
    out, at = np.empty(n * (n - 1) // 2), 0
    for i, counts, denom in strips:
        for r, (c, d) in enumerate(zip(counts, denom), start=1):  # row i + r - 1
            dist = out[at : at + n - i - r]
            np.divide(c[r:], d[r:], out=dist, dtype=np.float64)
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
    totals = _distance_totals([items[i] for i in members])
    return members[int(totals.argmin())]  # ties -> lowest id


def _distance_totals(fps: list[FingerprintVector]) -> np.ndarray:
    """Each fingerprint's summed Tanimoto distance to all of ``fps``, from
    one ``_BLOCK``-row slab of distances at a time; each row is summed whole."""
    totals = np.empty(len(fps))
    for i, counts, denom in _shared_bits(fps, fps):
        slab = np.divide(counts, denom, dtype=np.float64)
        totals[i : i + len(slab)] = np.subtract(1.0, slab, out=slab).sum(axis=1)
    return totals
