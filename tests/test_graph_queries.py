"""Ring bonds and pharmacophore feature distances against the algorithms
they replaced, kept in ``oracles.py``: the union of fundamental-cycle
edges, Tarjan's bridges, and the minima of the all-pairs path table."""

import itertools
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    _all_pairs_path_lengths,
    _cycle_basis,
    anchor_distance_oracle,
    ring_bonds_oracle,
)
from test_adversarial_smiles import CAGES, ladder, ladder_smiles, long_chains, ring_digit_heavy
from test_canonical_random import random_molecule
from screenforge.chem_graph import SmilesError, _ring_bonds, parse_smiles
from screenforge.pharmacophore import (
    _feature_distances,
    detect_features,
    generate_hypotheses,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from gen import Generator  # noqa: E402

LONG = ["C" * 300, "C1" + "C" * 200 + "C1", "OC" * 150, "c1ccccc1" + "CC(O)" * 60 + "N"]
LONG_IDS = ["chain-300", "ring-202", "ether-chain-300", "polyol-chain-187"]


def basis_edges(mol):
    return {
        (min(u, v), max(u, v))
        for ring in _cycle_basis(mol)
        for u, v in zip(ring, ring[1:] + ring[:1])
    }


def assert_ring_bonds_match(mol):
    got = _ring_bonds(mol)
    assert isinstance(got, frozenset)
    assert got == basis_edges(mol) == ring_bonds_oracle(mol)


def typed(value):
    return type(value), value


def assert_feature_distances_match(mol):
    """_feature_distances equals the oracle table's anchor minima, int for a
    path and math.inf for none."""
    feats = detect_features(mol)
    table = _all_pairs_path_lengths(mol)
    expected = [[typed(anchor_distance_oracle(table, a, b)) for b in feats] for a in feats]
    got = _feature_distances(mol)
    assert isinstance(got, tuple) and all(isinstance(row, tuple) for row in got)
    assert [[typed(d) for d in row] for row in got] == expected


@pytest.fixture(scope="module")
def generated():
    g = Generator(0)
    return [parse_smiles(s) for s in g.grow(1500)], [parse_smiles(s) for s in g.polyol_slice(40)]


class TestRingBonds:
    def test_generated_library_and_polyols(self, generated):
        library, polyols = generated
        for mol in library + polyols:
            assert_ring_bonds_match(mol)

    @pytest.mark.parametrize("smiles", CAGES + LONG, ids=CAGES + LONG_IDS)
    def test_cages_long_chains_and_large_rings(self, smiles):
        assert_ring_bonds_match(parse_smiles(smiles))

    @pytest.mark.parametrize("rungs", [1, 2, 3, 30, 120])
    def test_ladders(self, rungs):
        assert_ring_bonds_match(ladder(rungs))
        if rungs >= 2:
            assert_ring_bonds_match(parse_smiles(ladder_smiles(rungs)))

    @given(st.one_of(long_chains(), ring_digit_heavy()))
    @settings(max_examples=200, deadline=None)
    def test_adversarial_smiles(self, text):
        try:
            mol = parse_smiles(text)
        except SmilesError:
            return  # a row error; the parser tests cover it
        assert_ring_bonds_match(mol)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_random_graphs(self, rng):
        assert_ring_bonds_match(random_molecule(rng))


class TestFeatureDistances:
    def test_corpus(self, corpus):
        for _, smiles, _ in corpus:
            assert_feature_distances_match(parse_smiles(smiles))

    def test_polyols_and_glycosides(self, generated):
        _, polyols = generated
        for mol in polyols:
            assert_feature_distances_match(mol)

    def test_generated_library(self, generated):
        library, _ = generated
        for mol in library[::5]:
            assert_feature_distances_match(mol)

    @pytest.mark.parametrize("smiles", LONG, ids=LONG_IDS)
    def test_long_chains_and_large_rings(self, smiles):
        assert_feature_distances_match(parse_smiles(smiles))

    def test_salt_with_disconnected_features(self):
        mol = parse_smiles("[Na+].[O-]C(=O)CCCN.OCCO")
        assert_feature_distances_match(mol)
        dist = _feature_distances(mol)
        assert any(math.isinf(d) for row in dist for d in row)
        assert all(type(d) is int for row in dist for d in row if not math.isinf(d))

    def test_hypothesis_constraints_read_the_seed_table(self, generated):
        _, polyols = generated
        training = [(mol, 9.0 - i) for i, mol in enumerate(polyols[:6])]
        feats = detect_features(polyols[0])
        table = _all_pairs_path_lengths(polyols[0])
        combos = [
            combo
            for size in range(3, min(5, len(feats)) + 1)
            for combo in itertools.combinations(range(len(feats)), size)
        ]
        hypotheses = generate_hypotheses(training)
        assert len(hypotheses) == 255
        for h in hypotheses:
            combo = combos[h.enumeration_index]
            assert [kind for kind, _w in h.features] == [feats[f].kind for f in combo]
            assert {pair: typed(d) for pair, (d, _tol) in h.pair_constraints.items()} == {
                (i, j): typed(anchor_distance_oracle(table, feats[combo[i]], feats[combo[j]]))
                for i, j in itertools.combinations(range(len(combo)), 2)
            }
