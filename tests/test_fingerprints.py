import sys
from pathlib import Path

import numpy as np
import pytest

from screenforge import fingerprints
from screenforge.chem_graph import AROMATIC, Atom, Bond, Molecule, parse_smiles
from screenforge.fingerprints import (
    FingerprintConfig,
    FingerprintVector,
    circular_fingerprint,
    to_hex,
)
from screenforge.simcluster import hier_cluster

from helpers import popcount, renumbered, same_vector
from oracles import circular_fingerprint_oracle, from_hex_oracle

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from gen import Generator  # noqa: E402


class TestConfig:
    def test_defaults(self):
        cfg = FingerprintConfig()
        assert (cfg.radius, cfg.nbits, cfg.hash_seed) == (2, 2048, 0)

    @pytest.mark.parametrize("nbits", [32, 63, 100, 3000])
    def test_nbits_must_be_power_of_two_and_large_enough(self, nbits):
        with pytest.raises(ValueError):
            FingerprintConfig(nbits=nbits)

    def test_radius_bounds(self):
        with pytest.raises(ValueError):
            FingerprintConfig(radius=7)
        with pytest.raises(ValueError):
            FingerprintConfig(radius=-1)


class TestCircularFingerprint:
    def test_methane_radius_zero_single_bit(self):
        fp = circular_fingerprint(parse_smiles("C"), FingerprintConfig(radius=0))
        assert popcount(fp) == 1

    def test_same_molecule_different_spellings(self):
        cfg = FingerprintConfig()
        a = circular_fingerprint(parse_smiles("OCC"), cfg)
        b = circular_fingerprint(parse_smiles("CCO"), cfg)
        assert same_vector(a, b)

    def test_benzene_radius_one_at_most_two_bits(self):
        fp = circular_fingerprint(parse_smiles("c1ccccc1"), FingerprintConfig(radius=1))
        assert popcount(fp) <= 2

    def test_isomorphism_invariance(self, corpus, rng):
        cfg = FingerprintConfig(nbits=512)
        for name, _, mol in corpus:
            reference = circular_fingerprint(mol, cfg)
            order = list(range(len(mol.atoms)))
            for _ in range(5):
                rng.shuffle(order)
                shuffled = circular_fingerprint(renumbered(mol, order), cfg)
                assert same_vector(shuffled, reference), name

    def test_largest_fragment_used(self):
        cfg = FingerprintConfig()
        assert same_vector(circular_fingerprint(parse_smiles("CCO.[Na+]"), cfg),
                           circular_fingerprint(parse_smiles("CCO"), cfg))

    def test_seed_changes_bits(self):
        mol = parse_smiles("CC(=O)Oc1ccccc1C(=O)O")
        a = circular_fingerprint(mol, FingerprintConfig(hash_seed=0))
        b = circular_fingerprint(mol, FingerprintConfig(hash_seed=1))
        assert not np.array_equal(a.bits, b.bits)

    def test_stable_across_runs(self):
        # frozen at development time; a change means the hash is unstable
        fp = circular_fingerprint(parse_smiles("CCO"), FingerprintConfig(nbits=64, radius=1))
        assert to_hex(fp) == "r1b64s0:8000000300080020"


class TestPopcountAndSerialization:
    def test_popcount_zero_and_ones(self):
        cfg = FingerprintConfig(nbits=64)
        assert popcount(FingerprintVector(np.zeros(64, dtype=np.uint8), cfg)) == 0
        assert popcount(FingerprintVector(np.ones(64, dtype=np.uint8), cfg)) == 64

    def test_hex_round_trip(self, corpus):
        cfg = FingerprintConfig(nbits=128, radius=2, hash_seed=5)
        for name, _, mol in corpus[:10]:
            fp = circular_fingerprint(mol, cfg)
            assert same_vector(from_hex_oracle(to_hex(fp)), fp), name

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FingerprintVector(np.zeros(32, dtype=np.uint8), FingerprintConfig(nbits=64))


class TestConfigMismatch:
    def test_comparison_between_configs_raises(self):
        a = circular_fingerprint(parse_smiles("CCO"), FingerprintConfig(nbits=64))
        b = circular_fingerprint(parse_smiles("CCO"), FingerprintConfig(nbits=128))
        with pytest.raises(ValueError, match="all fingerprints must share one config"):
            hier_cluster([a, b])


def _ring(aromatic, charge=0):
    """Benzene built from parts, with the given aromatic and charge values."""
    atoms = [Atom("C", formal_charge=charge, aromatic=aromatic) for _ in range(6)]
    return Molecule(atoms, [Bond(i, (i + 1) % 6, AROMATIC) for i in range(6)])


SALTS = [
    "CCO.[Na+]",
    "[Na+].[Cl-]",
    "CC(=O)[O-].[NH4+]",
    "c1ccccc1.CCO.O",
    "OCC(O)CO.OCC(O)CO",
    "[O-]C(=O)c1ccccc1.[K+].O.O",
]
GRID = [
    FingerprintConfig(radius=r, nbits=nbits, hash_seed=seed)
    for r in range(7)
    for nbits in (64, 2048)
    for seed in (0, 7, -1, 2**64 + 5)
]


@pytest.fixture(scope="module")
def generated():
    return [parse_smiles(s) for g in range(3) for s in Generator(g).grow(1500)]


class TestEnvironmentMemo:
    """The memoized fingerprint against the seed's, per environment hash."""

    @pytest.fixture(params=["cold", "warm", "capped"])
    def mode(self, request, monkeypatch):
        fingerprints._ENV_IDS.clear()
        if request.param == "capped":
            monkeypatch.setattr(fingerprints, "_ENV_CAP", 8)
        yield request.param
        fingerprints._ENV_IDS.clear()

    @staticmethod
    def assert_exact(mols, cfg, mode):
        expected = [circular_fingerprint_oracle(m, cfg).bits for m in mols]
        rounds = 2 if mode == "warm" else 1
        for _ in range(rounds):
            for mol, bits in zip(mols, expected):
                got = fingerprints._circular_fingerprint(mol, cfg)
                assert np.array_equal(got.bits, bits)
                if mode == "cold":
                    fingerprints._ENV_IDS.clear()
        if mode == "capped":
            assert len(fingerprints._ENV_IDS) <= 8

    def test_corpus_and_generated(self, corpus, generated, mode):
        mols = [m for _, _, m in corpus] + generated
        self.assert_exact(mols, FingerprintConfig(), mode)

    @pytest.mark.parametrize("cfg", GRID, ids=FingerprintConfig.tag)
    def test_radius_nbits_seed_grid(self, corpus, cfg, mode):
        self.assert_exact([m for _, _, m in corpus] + [parse_smiles(s) for s in SALTS], cfg, mode)

    def test_aromatic_one_is_not_true(self, mode):
        # Atom(aromatic=1) equals Atom(aromatic=True), but its repr, and so
        # its hash, differs; likewise formal_charge=True against 1.
        mols = [_ring(True), _ring(1), _ring(True, charge=1), _ring(1, charge=True)]
        for cfg in (FingerprintConfig(radius=0), FingerprintConfig()):
            self.assert_exact(mols, cfg, mode)
        assert not np.array_equal(
            circular_fingerprint_oracle(mols[0], FingerprintConfig(radius=0)).bits,
            circular_fingerprint_oracle(mols[1], FingerprintConfig(radius=0)).bits,
        )

    def test_memo_stays_small(self, generated):
        # Keys, ids and table as sys.getsizeof counts them (about 0.78 MB
        # here). Growth under tracemalloc reads more, as it also counts
        # transient tuples parked in CPython's tuple free lists.
        fingerprints._ENV_IDS.clear()
        try:
            for mol in generated[:1500]:
                fingerprints._circular_fingerprint(mol, FingerprintConfig())
            memo = fingerprints._ENV_IDS
            held = sys.getsizeof(memo) + sum(map(sys.getsizeof, [*memo, *memo.values()]))
        finally:
            fingerprints._ENV_IDS.clear()
        assert held < 1 << 20
