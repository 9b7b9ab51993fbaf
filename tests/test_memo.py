"""The per-molecule memo: one computation per molecule and key, values
that equal a fresh computation, read-only shared values and lazy ring
data."""

import dataclasses

import numpy as np
import pytest

from helpers import feature_row, same_vector
from oracles import _cycle_basis, fit_value_oracle, ring_bonds_oracle
from screenforge import chem_graph, descriptors, fingerprints, pharmacophore
from screenforge.chem_graph import largest_fragment, molecular_formula, parse_smiles
from screenforge.descriptors import compute_descriptors
from screenforge.fingerprints import FingerprintConfig, circular_fingerprint
from screenforge.pdenet import FeatureSpec
from screenforge.pharmacophore import (
    detect_features,
    fit_value,
    generate_hypotheses,
    score_costs,
)
from test_screenctl import constant_model, run_screen, thirty_compound_records

SMALL = FingerprintConfig(nbits=64, radius=1)


def counting(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper that records each molecule it
    computes for; the list keeps them alive, so their ids stay distinct."""
    seen = []
    compute = getattr(module, name)

    def wrapper(mol, *args):
        seen.append(mol)
        return compute(mol, *args)

    monkeypatch.setattr(module, name, wrapper)
    return seen


class TestConfigKeys:
    @pytest.mark.parametrize("smiles", ["Oc1ccc(CCN)cc1", "[Na+].OC(=O)c1ccccc1"])
    def test_each_config_returns_its_fresh_vector(self, smiles):
        mol = parse_smiles(smiles)
        default = circular_fingerprint(mol)
        small = circular_fingerprint(mol, SMALL)
        assert same_vector(default, circular_fingerprint(parse_smiles(smiles)))
        assert same_vector(small, circular_fingerprint(parse_smiles(smiles), SMALL))
        assert len(small.bits) == 64 and small.config == SMALL
        assert circular_fingerprint(mol) is default
        assert circular_fingerprint(mol, SMALL) is small


class TestComputedOnce:
    def test_two_model_screen_fingerprints_and_describes_each_compound_once(
        self, monkeypatch
    ):
        fps = counting(monkeypatch, fingerprints, "_circular_fingerprint")
        descs = counting(monkeypatch, descriptors, "_compute_descriptors")
        records = thirty_compound_records()
        models = {"PDE4": constant_model(6.0, "PDE4"), "PDE7": constant_model(6.5, "PDE7")}
        report = run_screen(records, models, clusters=5, picks=3, seed=1)
        assert len(report.rows) == len(records)  # every compound is clustered
        for seen in (fps, descs):
            assert len(seen) == len(records)
            assert len({id(mol) for mol in seen}) == len(records)

    def test_salt_builds_its_largest_fragment_once(self, monkeypatch):
        mol = parse_smiles("[Na+].[Cl-].OC(=O)c1ccccc1.O")
        splits = counting(monkeypatch, chem_graph, "_largest_fragment")
        builds = counting(monkeypatch, chem_graph.Molecule, "__post_init__")
        circular_fingerprint(mol)
        compute_descriptors(mol)
        frag = largest_fragment(mol)
        assert splits == [mol]
        assert builds == [frag] and builds[0] is frag  # the winning fragment only
        assert molecular_formula(frag) == "C7H6O2"

    def test_score_costs_detects_features_once_per_molecule(self, monkeypatch):
        feats = counting(monkeypatch, pharmacophore, "_detect_features")
        tables = counting(monkeypatch, pharmacophore, "_feature_distances")
        training = [
            (parse_smiles(s), p)
            for s, p in [
                ("OCC(O)C(O)C(O)CO", 9.0),
                ("OCC(O)C(O)CO", 8.0),
                ("Oc1ccc(O)cc1", 7.0),
                ("OCCO", 6.0),
                ("CCO", 5.0),
                ("CCC", 4.5),
            ]
        ]
        candidates = generate_hypotheses(training)
        assert len(candidates) > 50
        for h in candidates:
            score_costs(h, training)
        for seen in (feats, tables):
            assert len({id(mol) for mol in seen}) == len(seen) <= len(training)
        assert len(feats) == len(training)

    def test_score_costs_builds_each_pair_table_once(self, monkeypatch):
        builds = []
        compute = pharmacophore._pair_table

        def wrapper(mol, *key):
            builds.append((id(mol), key))
            return compute(mol, *key)

        monkeypatch.setattr(pharmacophore, "_pair_table", wrapper)
        training = [
            (parse_smiles(s), p)
            for s, p in [("OCC(O)C(O)CO", 8.0), ("Oc1ccc(O)cc1", 7.0), ("OCCO", 6.0),
                         ("CCO", 5.0), ("OCC(O)CO", 4.5)]
        ]
        candidates = generate_hypotheses(training)
        for h in candidates:
            score_costs(h, training)
        pairs = sum(len(h.pair_constraints) for h in candidates) * len(training)
        assert builds and len(set(builds)) == len(builds) < pairs / 10


class TestWarmEqualsFresh:
    def test_featurize_molecule(self, corpus):
        for spec in (FeatureSpec(), FeatureSpec(fingerprint=SMALL)):
            for name, smiles, mol in corpus:
                warm = feature_row(mol, spec)
                assert np.array_equal(feature_row(mol, spec), warm), name
                assert np.array_equal(feature_row(parse_smiles(smiles), spec), warm), name

    def test_fit_value(self, corpus):
        training = [(parse_smiles("Oc1ccc(CCN)cc1C(=O)O"), 9.0)] + [
            (parse_smiles(s), 5.0) for s in ("CCO", "CCC", "CCN")
        ]
        hypotheses = generate_hypotheses(training)[::7]
        checked = 0
        for name, smiles, mol in corpus:
            fresh = parse_smiles(smiles)
            small = len(detect_features(fresh)) <= 8
            for h in hypotheses:
                warm = fit_value(h, mol)
                assert fit_value(h, mol) == warm, name
                assert fit_value(h, fresh) == warm, name
                if small:
                    assert fit_value_oracle(h, fresh) == pytest.approx(warm, abs=1e-12)
            checked += small
        assert checked >= 20


class TestReadOnly:
    def test_cached_bits_reject_in_place_writes(self):
        fp = circular_fingerprint(parse_smiles("CCO"))
        with pytest.raises(ValueError):
            fp.bits[0] = 1
        with pytest.raises(ValueError):
            fp.bits |= 1

    def test_features_and_descriptors_are_immutable(self):
        mol = parse_smiles("OCCN")
        assert isinstance(detect_features(mol), tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            compute_descriptors(mol).mw = 1.0


class TestLazyRingBonds:
    def test_parse_computes_no_ring_data(self, monkeypatch):
        bases = counting(monkeypatch, chem_graph, "_ring_bonds")
        mol = parse_smiles("c1ccccc1CC1CC1")
        assert bases == []
        compute_descriptors(mol)  # rotatable_bonds reads ring_bonds
        assert mol.ring_bonds == {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5),
                                  (7, 8), (8, 9), (7, 9)}
        assert bases == [mol]

    def test_equals_union_of_basis_cycle_edges_and_non_bridges(self, corpus):
        for name, smiles, _ in corpus:
            mol = parse_smiles(smiles)
            edges = {
                (min(u, v), max(u, v))
                for ring in _cycle_basis(mol)
                for u, v in zip(ring, ring[1:] + ring[:1])
            }
            assert mol.ring_bonds == edges == ring_bonds_oracle(mol), name
