import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import tanimoto_pair
from oracles import (
    cluster_members,
    distance_matrix,
    distance_matrix_oracle,
    distance_totals_oracle,
    hier_cluster_oracle,
    medoid_representatives,
    nn_list_cluster_oracle,
    string_similarity_oracle,
    tanimoto_rows_oracle,
    tanimoto_set_oracle,
)
from screenforge.fingerprints import (
    FingerprintConfig,
    FingerprintVector,
    circular_fingerprint,
)
from screenforge.simcluster import (
    _BLOCK,
    _condensed_distances,
    _distance_totals,
    hier_cluster,
    string_similarity,
    tanimoto_matrix,
)


def _vec(bits, nbits=64, cfg=None):
    v = np.zeros(nbits, dtype=np.uint8)
    v[list(bits)] = 1
    return FingerprintVector(v, cfg or FingerprintConfig(nbits=nbits))


class TestTanimoto:
    def test_identical_nonzero_is_one(self):
        v = _vec({1, 5, 9})
        assert tanimoto_pair(v.bits, v.bits) == 1.0

    def test_disjoint_is_zero(self):
        assert tanimoto_pair(_vec({0, 1}).bits, _vec({2, 3}).bits) == 0.0

    def test_one_third_example(self):
        assert tanimoto_pair(np.array([1, 1, 0]), np.array([1, 0, 1])) == pytest.approx(1 / 3)

    def test_both_zero_convention(self):
        assert tanimoto_pair(_vec(set()).bits, _vec(set()).bits) == 1.0

    def test_symmetry(self, rng):
        for _ in range(100):
            a = _vec({i for i in range(64) if rng.random() < 0.3})
            b = _vec({i for i in range(64) if rng.random() < 0.3})
            assert tanimoto_pair(a.bits, b.bits) == tanimoto_pair(b.bits, a.bits)

    def test_matches_set_oracle_on_binary(self, rng):
        for _ in range(300):
            a = [rng.randint(0, 1) for _ in range(48)]
            b = [rng.randint(0, 1) for _ in range(48)]
            ours = tanimoto_pair(np.array(a), np.array(b))
            assert abs(ours - tanimoto_set_oracle(a, b)) < 1e-12

    def test_bit_vectors_of_any_dtype(self, rng):
        # A nonzero entry is a set bit, so every dtype gives the same float.
        for _ in range(100):
            pair = np.array([[rng.randint(0, 1) for _ in range(48)] for _ in range(2)])
            a, b = pair[:1], pair[1:]
            expected = tanimoto_rows_oracle(a.astype(float), b.astype(float))
            for dtype in (np.uint8, bool, np.int64, np.float64):
                ours = tanimoto_matrix(a.astype(dtype), b.astype(dtype))
                assert ours.dtype == np.float64 and np.array_equal(ours, expected)

    def test_jaccard_distance_triangle_inequality(self, rng):
        for _ in range(200):
            vs = [
                np.array([rng.randint(0, 1) for _ in range(24)])
                for _ in range(3)
            ]
            if not any(v.any() for v in vs):
                continue
            d = [
                1 - tanimoto_pair(vs[i], vs[j])
                for i, j in ((0, 1), (1, 2), (0, 2))
            ]
            assert d[2] <= d[0] + d[1] + 1e-12


class TestStringSimilarity:
    def test_identical(self):
        assert string_similarity("CCO", "CCO") == 1.0

    def test_disjoint(self):
        assert string_similarity("A", "B") == 0.0

    def test_lcs_example(self):
        assert string_similarity("CCO", "CCC") == pytest.approx(2 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            string_similarity("", "C")

    def test_matches_dp_oracle_on_corpus_pairs(self, corpus):
        smiles = [smi for _, smi, _ in corpus]
        for a, b in itertools.combinations(smiles, 2):
            assert string_similarity(a, b) == string_similarity_oracle(a, b)

    def test_matches_dp_oracle_on_random_strings(self, rng):
        alphabets = ("CNO()=[]@+-123c", "ab", "αβγ漢字é🙂C")
        for trial in range(300):
            alphabet = alphabets[trial % len(alphabets)]
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 90)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 90)))
            assert string_similarity(a, b) == string_similarity_oracle(a, b)

    @pytest.mark.parametrize(
        "a, b",
        [("C", "C"), ("C", "N"), ("C", "CCC"), ("NCN", "C"), ("é", "é"), ("漢", "字漢字")],
    )
    def test_single_character_and_equal_cases(self, a, b):
        assert string_similarity(a, b) == string_similarity_oracle(a, b)


class TestDistanceMatrix:
    def test_identical_items(self):
        d = distance_matrix([_vec({1, 2}), _vec({1, 2})])
        assert 1.0 - d[0, 1] == 1.0
        assert d[0, 1] == 0.0

    def test_shape_and_diagonal(self):
        items = [_vec({i}) for i in range(5)]
        sims = 1.0 - distance_matrix(items)
        assert sims.shape == (5, 5)
        assert np.all(np.diag(sims) == 1.0)
        assert np.max(np.abs(sims - sims.T)) < 1e-12
        assert np.all((sims >= 0) & (sims <= 1))

    def test_matches_per_pair_oracle(self, rng):
        items = [
            _vec({i for i in range(64) if rng.random() < 0.4}) for _ in range(3)
        ]
        sims = 1.0 - distance_matrix(items)
        for i, j in itertools.combinations(range(3), 2):
            assert sims[i, j] == pytest.approx(
                tanimoto_set_oracle(items[i].bits, items[j].bits), abs=1e-12
            )

    def test_config_mismatch(self):
        with pytest.raises(ValueError, match="all fingerprints must share one config"):
            distance_matrix([_vec({1}, nbits=64), _vec({1}, nbits=128)])

    def test_needs_one_item(self):
        assert distance_matrix([_vec({1})]).tolist() == [[0.0]]
        with pytest.raises(ValueError):
            distance_matrix([])


def two_blob_fixture():
    blob1 = [_vec(set(range(20)) | {30 + i}) for i in range(5)]
    blob2 = [_vec(set(range(40, 60)) | {i}) for i in range(5)]
    return blob1 + blob2


def _random_rows(gen, n, nbits, density):
    cfg = FingerprintConfig(nbits=nbits)
    bits = (gen.random((n, nbits)) < density).astype(np.uint8)
    return [FingerprintVector(row, cfg) for row in bits]


class TestHierCluster:
    def test_k_equals_n_singletons(self):
        a = hier_cluster(two_blob_fixture(), "average", 10)
        assert sorted(a.labels) == list(range(10))
        assert a.representatives == tuple(range(10))

    @pytest.mark.parametrize("linkage", ["single", "complete", "average"])
    def test_one_item_is_its_own_cluster_and_medoid(self, linkage):
        a = hier_cluster([_vec({1, 2})], linkage, 1)
        assert (a.labels, a.representatives) == ((0,), (0,))

    def test_k_one_single_cluster(self):
        a = hier_cluster(two_blob_fixture(), "average", 1)
        assert set(a.labels) == {0}

    @pytest.mark.parametrize("linkage", ["single", "complete", "average"])
    def test_two_blob_recovery(self, linkage):
        a = hier_cluster(two_blob_fixture(), linkage, 2)
        assert a.labels[:5] == (0,) * 5
        assert a.labels[5:] == (1,) * 5

    def test_invalid_k(self):
        fps = two_blob_fixture()
        with pytest.raises(ValueError, match=r"k=0 outside \[1, 10\]"):
            hier_cluster(fps, "average", 0)
        with pytest.raises(ValueError, match=r"k=11 outside \[1, 10\]"):
            hier_cluster(fps, "average", 11)

    @pytest.mark.parametrize("linkage", ["ward", "Average", ""])
    def test_unknown_linkage_rejected(self, linkage):
        # unchecked, the merge would treat any other name as average linkage
        with pytest.raises(ValueError, match="linkage must be one of"):
            hier_cluster(two_blob_fixture(), linkage, 2)

    def test_determinism(self):
        fps = two_blob_fixture()
        assert hier_cluster(fps, "average", 3) == hier_cluster(fps, "average", 3)

    def test_cluster_ids_dense_and_nonempty(self):
        fps = _random_rows(np.random.default_rng(17), 17, 64, 0.3)
        for k in (1, 4, len(fps)):
            a = hier_cluster(fps, "average", k)
            assert set(a.labels) == set(range(k))
            for c in range(k):
                assert cluster_members(a, c)
                assert a.representatives[c] in cluster_members(a, c)

    @pytest.mark.parametrize("linkage", ["single", "complete", "average"])
    def test_matches_scipy_partitions(self, linkage):
        scipy_cluster = pytest.importorskip("scipy.cluster.hierarchy")
        squareform = pytest.importorskip("scipy.spatial.distance").squareform
        gen = np.random.default_rng(12)
        checked = 0
        for trial in range(10):
            fps = _random_rows(gen, 12, 2048, gen.uniform(0.1, 0.6))
            k = int(gen.integers(2, 6))
            condensed = squareform(distance_matrix(fps))
            if len(np.unique(condensed)) < len(condensed):
                continue  # generic inputs only: scipy may cut a tie elsewhere
            ours = hier_cluster(fps, linkage, k)
            z = scipy_cluster.linkage(condensed, method=linkage)
            theirs = scipy_cluster.fcluster(z, t=k, criterion="maxclust")
            def partition(labels):
                groups = {}
                for idx, lab in enumerate(labels):
                    groups.setdefault(lab, set()).add(idx)
                return {frozenset(g) for g in groups.values()}
            assert partition(ours.labels) == partition(theirs)
            checked += 1
        assert checked >= 5

    def test_config_mismatch(self):
        with pytest.raises(ValueError, match="all fingerprints must share one config"):
            hier_cluster([_vec({1}, nbits=64), _vec({1}, nbits=128)])

    @pytest.mark.parametrize("k", [1, 34])
    def test_memory_stays_below_four_fifths_of_a_matrix(self, corpus, k):
        # One 2000 x 2000 float64 matrix is 32 MB; its condensed upper
        # triangle is half of that. The kernel's on-bits, GEMM input and two
        # float32 strips bring the peak to 0.64 of a matrix.
        # Merging in the square matrix reads 1.23, and summing a cluster's
        # rows from its whole m x m block instead of slabs adds one more
        # block at k=1.
        fps = _library(corpus, 2000, seed=2)
        tracemalloc.start()
        try:
            hier_cluster(fps, "average", k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.8 * 2000 * 2000 * 8


def _corpus_fps(corpus):
    return [circular_fingerprint(mol) for _, _, mol in corpus]


def _same_as_oracle(fps, linkage, k, dist=None):
    """``hier_cluster`` on fingerprints equals the full-scan oracle on their
    distance matrix."""
    dist = distance_matrix_oracle(fps) if dist is None else dist
    return hier_cluster(fps, linkage, k) == hier_cluster_oracle(dist, linkage, k)


class TestHierClusterMatchesOracle:
    """The nearest-neighbour-list search against the full per-merge scan."""

    def test_tie_heavy_64_bit_libraries(self):
        # A few bits of 64 make many equal distances; copied rows and
        # all-zero rows add runs of zero distances.
        gen = np.random.default_rng(20240810)
        for trial in range(120):
            n = int(gen.integers(2, 31))
            fps = _random_rows(gen, n, 64, gen.choice([0.03, 0.08, 0.2]))
            for _ in range(int(gen.integers(0, n // 2 + 1))):
                fps[gen.integers(n)] = fps[gen.integers(n)]
            if trial % 3 == 0:
                fps[gen.integers(n)] = _vec(set())
            for linkage in ("single", "complete", "average"):
                assert _same_as_oracle(fps, linkage, int(gen.integers(1, n + 1)))

    @pytest.mark.parametrize("linkage", ["single", "complete", "average"])
    def test_corpus_fingerprints_every_k(self, corpus, linkage):
        fps = _corpus_fps(corpus)
        d = distance_matrix(fps)
        for k in range(1, len(fps) + 1):
            assert _same_as_oracle(fps, linkage, k, d)

    def test_duplicated_rows_force_zero_distance_runs(self, corpus):
        gen = np.random.default_rng(7)
        base = np.stack([v.bits for v in _corpus_fps(corpus)])
        pairs = gen.integers(0, len(base), (300, 2))
        unions = base[pairs[:, 0]] | base[pairs[:, 1]]
        rows = np.concatenate([base, unions])
        rows = np.concatenate([rows, rows[gen.integers(0, len(rows), 400 - len(rows))]])
        cfg = FingerprintConfig()
        fps = [FingerprintVector(row, cfg) for row in rows[gen.permutation(400)]]
        d = distance_matrix(fps)
        assert np.count_nonzero(np.triu(d == 0.0, 1)) >= 45
        for linkage in ("single", "complete", "average"):
            assert _same_as_oracle(fps, linkage, 34, d)

    @pytest.mark.parametrize("linkage", ["single", "complete", "average"])
    def test_generated_libraries_up_to_2000(self, corpus, linkage):
        for n in (600, 2000):
            fps = _library(corpus, n, seed=n)
            d = distance_matrix_oracle(fps)
            for k in (1, 34):
                assert _same_as_oracle(fps, linkage, k, d)


def _library(corpus, n, nbits=2048, seed=0):
    """``n`` fingerprint rows grown from the corpus: corpus rows and unions
    of corpus pairs, with two all-zero rows and a run of duplicates."""
    gen = np.random.default_rng(seed)
    cfg = FingerprintConfig(nbits=nbits)
    base = np.stack([circular_fingerprint(mol, cfg).bits for _, _, mol in corpus])
    pairs = gen.integers(0, len(base), (max(n, len(base)), 2))
    rows = np.concatenate([base, base[pairs[:, 0]] | base[pairs[:, 1]]])[gen.permutation(n)]
    rows[gen.integers(0, n, 2)] = 0
    rows[gen.integers(0, n, n // 8)] = rows[0]
    return [FingerprintVector(row, cfg) for row in rows]


class TestBlockedKernelMatchesOracle:
    """The blocked float32-count kernel against the unblocked float64 one:
    every value is the same float, not just a close one."""

    def test_corpus_fingerprints(self, corpus):
        fps = [circular_fingerprint(mol) for _, _, mol in corpus]
        assert np.array_equal(distance_matrix(fps), distance_matrix_oracle(fps))

    @pytest.mark.parametrize("nbits", [64, 2048])
    @pytest.mark.parametrize("n", [2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    def test_sizes_straddling_block_edges(self, corpus, n, nbits):
        fps = _library(corpus, n, nbits, seed=n)
        d = distance_matrix(fps)
        assert np.array_equal(d, distance_matrix_oracle(fps))
        assert np.array_equal(d, d.T)

    def test_all_zero_and_duplicated_rows(self, corpus):
        fps = _library(corpus, 40, seed=3)
        fps[5] = fps[9] = FingerprintVector(np.zeros(2048, dtype=np.uint8), fps[0].config)
        d = distance_matrix(fps)
        assert d[5, 9] == 0.0 and d[5, 5] == 0.0 and d[5, 0] == 1.0
        assert np.array_equal(d, distance_matrix_oracle(fps))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 300), (300, 1), (7, _BLOCK - 1),
                                       (_BLOCK + 1, 2 * _BLOCK + 3)])
    def test_cross_set_shapes(self, corpus, shape):
        fps = _library(corpus, sum(shape), seed=sum(shape))
        rows = np.stack([v.bits for v in fps])
        a, b = rows[: shape[0]], rows[shape[0] :]
        sims = tanimoto_matrix(a, b)
        assert sims.shape == shape
        assert np.array_equal(sims, tanimoto_rows_oracle(a.astype(float), b.astype(float)))

    def test_bit_rows_of_any_dtype(self, corpus):
        # All-zero and copied rows, strips straddling _BLOCK, mixed dtypes.
        rows = np.stack([v.bits for v in _library(corpus, 2 * _BLOCK + 3, seed=7)])
        a, b = rows[: _BLOCK + 1], rows[_BLOCK + 1 :]
        expected = tanimoto_rows_oracle(a.astype(float), b.astype(float))
        dtypes = (np.uint8, bool, np.int64, np.float64)
        for da, db in [(d, d) for d in dtypes] + [(np.uint8, bool), (np.float64, np.int64)]:
            assert np.array_equal(tanimoto_matrix(a.astype(da), b.astype(db)), expected)

    def test_rows_of_different_lengths_rejected(self):
        with pytest.raises(ValueError, match="rows of different lengths"):
            tanimoto_matrix(np.ones((2, 3), np.uint8), np.ones((2, 4), np.uint8))

    @pytest.mark.parametrize("linkage", ["single", "complete", "average"])
    def test_clustering_is_unchanged(self, corpus, linkage):
        fps = _library(corpus, 2 * _BLOCK + 3, seed=1)
        d = distance_matrix_oracle(fps)
        for k in (1, 16, 34, 2 * _BLOCK + 3):
            assert _same_as_oracle(fps, linkage, k, d)

    @pytest.mark.parametrize("n", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    def test_condensed_distances_are_the_upper_triangle(self, corpus, n):
        fps = _library(corpus, n, seed=n)
        upper = distance_matrix_oracle(fps)[np.triu_indices(n, 1)]  # squareform order
        assert np.array_equal(_condensed_distances(fps), upper)

    def test_distance_matrix_memory_stays_near_one_output(self, corpus):
        # The output is 2.9 MB; one 600 x 2048 float64 copy of the rows is 9.8.
        fps = _library(corpus, 600, seed=2)
        tracemalloc.start()
        try:
            distance_matrix(fps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6


class TestMedoids:
    """Representatives taken from member fingerprints against the medoids
    read from the full distance matrix."""

    @staticmethod
    def _check(fps, k, expected):
        a = hier_cluster(fps, "average", k)
        assert list(a.representatives) == expected
        assert medoid_representatives(a, distance_matrix(fps)) == expected

    def test_singleton(self):
        self._check([_vec({0, 1}), _vec({2, 3})], 2, [0, 1])

    @pytest.mark.parametrize("m", [2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3, 600])
    def test_slab_totals_equal_full_matrix_rows(self, corpus, m):
        # Bit for bit, also when the last slab is short.
        fps = _library(corpus, 700, seed=m)
        members = sorted(np.random.default_rng(m).choice(700, m, replace=False).tolist())
        totals = _distance_totals(np.stack([fps[i].bits for i in members]))
        assert np.array_equal(totals, distance_totals_oracle(members, distance_matrix_oracle(fps)))

    def test_central_point(self):
        # 0 and 2 share no bit; 1 shares half of its bits with each.
        self._check([_vec(range(0, 10)), _vec(range(5, 15)), _vec(range(10, 20))], 1, [1])

    def test_symmetric_pair_picks_lower_id(self):
        self._check([_vec({0, 1}), _vec({1, 2})], 1, [0])

    def test_funnel_contract(self):
        # k clusters then one representative each yields exactly k items
        fps = two_blob_fixture()
        for k in (1, 2, 5, 10):
            a = hier_cluster(fps, "average", k)
            assert len(set(a.representatives)) == k
            assert list(a.representatives) == medoid_representatives(a, distance_matrix(fps))


@st.composite
def bit_libraries(draw):
    """0/1 uint8 rows, n <= 80, at 64 or 2048 bits: random rows at a drawn
    density, then some all-zero rows, or one column set in every row, and
    copied rows."""
    nbits = draw(st.sampled_from([64, 2048]))
    n = draw(st.integers(1, 80))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = (gen.random((n, nbits)) < draw(st.sampled_from([0.003, 0.01, 0.05, 0.3]))).astype(
        np.uint8)
    if draw(st.booleans()):
        rows[:, draw(st.integers(0, nbits - 1))] = 1
    else:
        rows[draw(st.lists(st.integers(0, n - 1), max_size=4))] = 0
    for dst, src in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=n // 2)):
        rows[dst] = rows[src]
    return rows


def _fingerprints(rows):
    cfg = FingerprintConfig(nbits=rows.shape[1])
    return [FingerprintVector(row, cfg) for row in rows]


class TestKernelAndMergeProperties:
    """The kernel in its cross-set, full and upper modes, the medoid totals
    and the merge that retires clusters with inf, against the unblocked
    oracles and the code they replaced."""

    @given(bit_libraries())
    @settings(max_examples=150, deadline=None)
    def test_condensed_distances_equal_the_oracle_triangle(self, rows):
        fps = _fingerprints(rows)
        upper = distance_matrix_oracle(fps)[np.triu_indices(len(rows), 1)]
        assert np.array_equal(_condensed_distances(fps), upper)

    @given(bit_libraries(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_tanimoto_matrix_equals_the_oracle(self, rows, data):
        split = data.draw(st.integers(1, len(rows)))
        a, b = rows[:split], rows[split - 1 :]
        assert np.array_equal(tanimoto_matrix(a, b),
                              tanimoto_rows_oracle(a.astype(float), b.astype(float)))

    @given(bit_libraries())
    @settings(max_examples=150, deadline=None)
    def test_full_and_upper_kernel_modes_agree(self, rows):
        n = len(rows)
        square = np.zeros((n, n))
        square[np.triu_indices(n, 1)] = _condensed_distances(_fingerprints(rows))
        square += square.T
        assert np.array_equal(1.0 - tanimoto_matrix(rows, rows), square)

    @given(bit_libraries())
    @settings(max_examples=150, deadline=None)
    def test_distance_totals_equal_the_oracle(self, rows):
        dist = distance_matrix_oracle(_fingerprints(rows))
        assert np.array_equal(_distance_totals(rows),
                              distance_totals_oracle(list(range(len(rows))), dist))

    @given(bit_libraries())
    @settings(max_examples=40, deadline=None)
    def test_clustering_equals_both_oracles(self, rows):
        fps = _fingerprints(rows)
        n = len(fps)
        dist = distance_matrix_oracle(fps)
        for linkage in ("single", "complete", "average"):
            for k in sorted({1, max(1, n // 2), n}):
                ours = hier_cluster(fps, linkage, k)
                assert ours == hier_cluster_oracle(dist, linkage, k)
                assert ours == nn_list_cluster_oracle(fps, linkage, k)
