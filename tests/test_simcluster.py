import itertools
import tracemalloc

import numpy as np
import pytest

from helpers import medoid_representatives
from oracles import (
    distance_matrix_oracle,
    hier_cluster_oracle,
    string_similarity_oracle,
    tanimoto_formula_oracle,
    tanimoto_rows_oracle,
    tanimoto_set_oracle,
    tanimoto_values_oracle,
)
from screenforge.fingerprints import (
    ConfigMismatch,
    FingerprintConfig,
    FingerprintVector,
    circular_fingerprint,
)
from screenforge.simcluster import (
    _BLOCK,
    InvalidK,
    distance_matrix,
    hier_cluster,
    string_similarity,
    tanimoto_matrix,
    tanimoto_values,
)


def _vec(bits, nbits=64, cfg=None):
    v = np.zeros(nbits, dtype=np.uint8)
    v[list(bits)] = 1
    return FingerprintVector(v, cfg or FingerprintConfig(nbits=nbits))


class TestTanimoto:
    def test_identical_nonzero_is_one(self):
        v = _vec({1, 5, 9})
        assert tanimoto_values(v.bits, v.bits) == 1.0

    def test_disjoint_is_zero(self):
        assert tanimoto_values(_vec({0, 1}).bits, _vec({2, 3}).bits) == 0.0

    def test_one_third_example(self):
        assert tanimoto_values(np.array([1, 1, 0]), np.array([1, 0, 1])) == pytest.approx(1 / 3)

    def test_both_zero_convention(self):
        assert tanimoto_values(_vec(set()).bits, _vec(set()).bits) == 1.0

    def test_symmetry(self, rng):
        for _ in range(100):
            a = _vec({i for i in range(64) if rng.random() < 0.3})
            b = _vec({i for i in range(64) if rng.random() < 0.3})
            assert tanimoto_values(a.bits, b.bits) == tanimoto_values(b.bits, a.bits)

    def test_matches_set_oracle_on_binary(self, rng):
        for _ in range(300):
            a = [rng.randint(0, 1) for _ in range(48)]
            b = [rng.randint(0, 1) for _ in range(48)]
            ours = tanimoto_values(np.array(a), np.array(b))
            assert abs(ours - tanimoto_set_oracle(a, b)) < 1e-12

    def test_continuous_vectors_follow_formula(self, rng):
        for _ in range(100):
            a = np.array([rng.uniform(0, 2) for _ in range(10)])
            b = np.array([rng.uniform(0, 2) for _ in range(10)])
            assert tanimoto_values(a, b) == pytest.approx(tanimoto_formula_oracle(a, b), abs=1e-12)

    def test_jaccard_distance_triangle_inequality(self, rng):
        for _ in range(200):
            vs = [
                np.array([rng.randint(0, 1) for _ in range(24)])
                for _ in range(3)
            ]
            if not any(v.any() for v in vs):
                continue
            d = [
                1 - tanimoto_values(vs[i], vs[j])
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
        with pytest.raises(ConfigMismatch):
            distance_matrix([_vec({1}, nbits=64), _vec({1}, nbits=128)])

    def test_needs_two_items(self):
        with pytest.raises(ValueError):
            distance_matrix([_vec({1})])


def two_blob_fixture():
    blob1 = [_vec(set(range(20)) | {30 + i}) for i in range(5)]
    blob2 = [_vec(set(range(40, 60)) | {i}) for i in range(5)]
    return distance_matrix(blob1 + blob2)


class TestHierCluster:
    def test_k_equals_n_singletons(self):
        d = two_blob_fixture()
        a = hier_cluster(d, "average", 10)
        assert sorted(a.labels) == list(range(10))
        assert a.representatives == tuple(range(10))

    def test_k_one_single_cluster(self):
        d = two_blob_fixture()
        a = hier_cluster(d, "average", 1)
        assert set(a.labels) == {0}

    @pytest.mark.parametrize("linkage", ["single", "complete", "average"])
    def test_two_blob_recovery(self, linkage):
        d = two_blob_fixture()
        a = hier_cluster(d, linkage, 2)
        assert a.labels[:5] == (0,) * 5
        assert a.labels[5:] == (1,) * 5

    def test_invalid_k(self):
        d = two_blob_fixture()
        with pytest.raises(InvalidK):
            hier_cluster(d, "average", 0)
        with pytest.raises(InvalidK):
            hier_cluster(d, "average", 11)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_distances_rejected(self, bad):
        all_bad = np.full((3, 3), bad)
        np.fill_diagonal(all_bad, 0.0)
        one_lower = np.array([[0.0, 0.5, 0.2], [0.5, 0.0, 0.7], [0.2, bad, 0.0]])
        for d in (all_bad, one_lower):
            for linkage in ("single", "complete", "average"):
                with pytest.raises(ValueError, match="non-finite"):
                    hier_cluster(d, linkage, 1)

    def test_non_finite_diagonal_is_ignored_by_merging(self):
        d = np.array([[np.inf, 0.4], [0.4, np.inf]])
        assert hier_cluster(d, "average", 1).labels == (0, 0)

    def test_determinism(self):
        d = two_blob_fixture()
        a = hier_cluster(d, "average", 3)
        b = hier_cluster(d, "average", 3)
        assert a == b

    def test_cluster_ids_dense_and_nonempty(self, rng):
        n = 17
        sym = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                sym[i, j] = sym[j, i] = rng.random()
        for k in (1, 4, n):
            a = hier_cluster(sym, "average", k)
            assert set(a.labels) == set(range(k))
            for c in range(k):
                assert a.members(c)
                assert a.representatives[c] in a.members(c)

    @pytest.mark.parametrize("linkage", ["single", "complete", "average"])
    def test_matches_scipy_partitions(self, linkage, rng):
        scipy_cluster = pytest.importorskip("scipy.cluster.hierarchy")
        squareform = pytest.importorskip("scipy.spatial.distance").squareform
        for trial in range(5):
            n = 12
            d = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    d[i, j] = d[j, i] = rng.uniform(0.01, 1.0)  # generic: no ties
            k = rng.randint(2, 6)
            ours = hier_cluster(d, linkage, k)
            z = scipy_cluster.linkage(squareform(d), method=linkage)
            theirs = scipy_cluster.fcluster(z, t=k, criterion="maxclust")
            def partition(labels):
                groups = {}
                for idx, lab in enumerate(labels):
                    groups.setdefault(lab, set()).add(idx)
                return {frozenset(g) for g in groups.values()}
            assert partition(ours.labels) == partition(theirs)


def _corpus_bits(corpus):
    cfg = FingerprintConfig()
    return np.stack([circular_fingerprint(mol, cfg).bits for _, _, mol in corpus])


def _tanimoto_distances(bits):
    cfg = FingerprintConfig(nbits=bits.shape[1])
    return distance_matrix([FingerprintVector(row, cfg) for row in bits])


class TestHierClusterMatchesOracle:
    """The nearest-neighbour-list search against the full per-merge scan."""

    def test_tie_heavy_integer_matrices(self):
        gen = np.random.default_rng(20240810)
        for trial in range(120):
            n = int(gen.integers(2, 31))
            d = gen.integers(0, 4, (n, n)).astype(float)
            if trial % 2 == 0:
                d = np.triu(d, 1) + np.triu(d, 1).T
            for linkage in ("single", "complete", "average"):
                k = int(gen.integers(1, n + 1))
                assert hier_cluster(d, linkage, k) == hier_cluster_oracle(d, linkage, k)

    @pytest.mark.parametrize("linkage", ["single", "complete", "average"])
    def test_corpus_fingerprints_every_k(self, corpus, linkage):
        d = _tanimoto_distances(_corpus_bits(corpus))
        for k in range(1, d.shape[0] + 1):
            assert hier_cluster(d, linkage, k) == hier_cluster_oracle(d, linkage, k)

    def test_duplicated_rows_force_zero_distance_runs(self, corpus):
        gen = np.random.default_rng(7)
        base = _corpus_bits(corpus)
        pairs = gen.integers(0, len(base), (300, 2))
        unions = base[pairs[:, 0]] | base[pairs[:, 1]]
        rows = np.concatenate([base, unions])
        rows = np.concatenate([rows, rows[gen.integers(0, len(rows), 400 - len(rows))]])
        d = _tanimoto_distances(rows[gen.permutation(400)])
        assert np.count_nonzero(np.triu(d == 0.0, 1)) >= 45
        for linkage in ("single", "complete", "average"):
            assert hier_cluster(d, linkage, 34) == hier_cluster_oracle(d, linkage, 34)


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

    def test_continuous_vectors(self):
        gen = np.random.default_rng(11)
        for length in (1, 3, 10, 300):
            for _ in range(50):
                a, b = gen.uniform(-1, 2, length), gen.uniform(0, 2, length)
                if gen.random() < 0.2:
                    a[:] = 0
                assert tanimoto_values(a, b) == tanimoto_values_oracle(a, b)
                assert tanimoto_values(a, a) == tanimoto_values_oracle(a, a)
        zero = np.zeros(4)
        assert tanimoto_values(zero, zero) == tanimoto_values_oracle(zero, zero) == 1.0
        # A NaN denominator is not positive either, so it gives 1.0 as before.
        for odd in ([np.nan, 1.0], [np.inf, 0.0]):
            with np.errstate(invalid="ignore"):
                assert tanimoto_values(odd, [1.0, 1.0]) == tanimoto_values_oracle(odd, [1.0, 1.0])

    @pytest.mark.parametrize("linkage", ["single", "complete", "average"])
    def test_clustering_is_unchanged(self, corpus, linkage):
        fps = _library(corpus, 2 * _BLOCK + 3, seed=1)
        for k in (1, 16, 34, 2 * _BLOCK + 3):
            ours = hier_cluster(distance_matrix(fps), linkage, k)
            assert ours == hier_cluster(distance_matrix_oracle(fps), linkage, k)

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
    def test_singleton(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        a = hier_cluster(d, "average", 2)
        assert medoid_representatives(a, d) == [0, 1]

    def test_central_point(self):
        # 0 and 2 far apart, 1 central
        d = np.array(
            [
                [0.0, 0.3, 0.9],
                [0.3, 0.0, 0.3],
                [0.9, 0.3, 0.0],
            ]
        )
        a = hier_cluster(d, "average", 1)
        assert medoid_representatives(a, d) == [1]

    def test_symmetric_pair_picks_lower_id(self):
        d = np.array([[0.0, 0.4], [0.4, 0.0]])
        a = hier_cluster(d, "average", 1)
        assert medoid_representatives(a, d) == [0]

    @pytest.mark.parametrize("member, bad", [(1, np.nan), (2, np.inf), (2, 5.0)])
    def test_diagonal_is_ignored(self, member, bad):
        # Off the diagonal the totals are 1.0, 1.0 and 0.2, so member 2 is
        # the medoid whatever the diagonal holds.
        d = np.array([[0.0, 0.9, 0.1], [0.9, 0.0, 0.1], [0.1, 0.1, 0.0]])
        d[member, member] = bad
        a = hier_cluster(d, "average", 1)
        assert a.representatives == (2,)
        assert medoid_representatives(a, d) == [2]

    def test_funnel_contract(self):
        # k clusters then one representative each yields exactly k items
        d = two_blob_fixture()
        for k in (1, 2, 5, 10):
            a = hier_cluster(d, "average", k)
            reps = medoid_representatives(a, d)
            assert len(reps) == k
            assert len(set(reps)) == k
