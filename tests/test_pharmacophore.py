import math

import pytest

from oracles import fit_value_oracle, least_squares_oracle
from screenforge import pharmacophore
from screenforge.chem_graph import parse_smiles, renumbered
from screenforge.pharmacophore import (
    COMPLEXITY_LAMBDA,
    DEFAULT_MAX_CANDIDATES,
    GEN_PARAMS,
    Hypothesis,
    HypothesisCosts,
    InsufficientTraining,
    class_summary,
    detect_features,
    feature_distance,
    fit_value,
    generate_hypotheses,
    load_hypothesis,
    save_hypothesis,
    score_costs,
    screen_by_fit,
    select_best,
)

SEED_5FEATURE = "OCCCC(N)=O"  # HBD x2 (O-H, N-H), HBA x2 (both O), hydrophobe


def feature_kinds(smiles):
    return [f.kind for f in detect_features(parse_smiles(smiles))]


class TestDetectFeatures:
    def test_benzene(self):
        kinds = feature_kinds("c1ccccc1")
        assert kinds == ["AromaticRing"]

    def test_phenol(self):
        kinds = feature_kinds("Oc1ccccc1")
        assert sorted(kinds) == ["AromaticRing", "HBA", "HBD"]

    def test_propane(self):
        assert feature_kinds("CCC") == ["Hydrophobe"]

    def test_carboxylate_is_negative_ionizable(self):
        assert "NegIonizable" in feature_kinds("CC(=O)[O-]")
        assert "NegIonizable" in feature_kinds("CC(=O)O")  # neutral acid group rule

    def test_aliphatic_amine_is_positive_ionizable(self):
        assert "PosIonizable" in feature_kinds("NCC")
        assert "PosIonizable" not in feature_kinds("Nc1ccccc1")  # aniline excluded
        assert "PosIonizable" not in feature_kinds("CC(N)=O")    # amide excluded

    def test_fused_aromatics_are_one_ring_system(self):
        assert feature_kinds("c1ccc2ccccc2c1") == ["AromaticRing"]

    def test_anchors_valid(self, corpus):
        for name, _, mol in corpus:
            for f in detect_features(mol):
                assert all(0 <= i < len(mol.atoms) for i in f.anchor), name


class TestGenerateHypotheses:
    def training(self):
        return [
            (parse_smiles("Oc1ccccc1"), 9.0),  # seed: exactly 3 features
            (parse_smiles("CCO"), 6.0),
            (parse_smiles("CCC"), 5.0),
            (parse_smiles("CCN"), 4.5),
        ]

    def test_three_feature_seed_gives_single_candidate(self):
        candidates = generate_hypotheses(self.training())
        assert len(candidates) == 1
        assert len(candidates[0].features) == 3

    def test_five_feature_seed_gives_sixteen(self):
        training = [
            (parse_smiles(SEED_5FEATURE), 9.0),
            (parse_smiles("CCO"), 6.0),
            (parse_smiles("CCC"), 5.0),
            (parse_smiles("CCN"), 4.5),
        ]
        assert len(detect_features(parse_smiles(SEED_5FEATURE))) == 5
        candidates = generate_hypotheses(training)
        assert len(candidates) == 16  # C(5,3) + C(5,4) + C(5,5)

    def test_cap_returns_prefix_of_enumeration(self):
        training = [
            (parse_smiles(SEED_5FEATURE), 9.0),
            (parse_smiles("CCO"), 6.0),
            (parse_smiles("CCC"), 5.0),
            (parse_smiles("CCN"), 4.5),
        ]
        capped = generate_hypotheses(training, max_candidates=10)
        full = generate_hypotheses(training)
        assert len(capped) == 10
        assert [c.features for c in capped] == [c.features for c in full[:10]]
        sizes = [len(c.features) for c in capped]
        assert sizes == sorted(sizes)  # size-ascending enumeration order

    def test_insufficient_training(self):
        with pytest.raises(InsufficientTraining):
            generate_hypotheses(self.training()[:3])

    def test_gen_params_recorded_verbatim(self):
        h = generate_hypotheses(self.training())[0]
        assert h.gen_params == GEN_PARAMS
        assert h.gen_params["energy_threshold_kcal_per_mol"] == 10.0
        assert h.gen_params["max_conformations"] == 255

    def test_default_cap_is_255(self):
        assert DEFAULT_MAX_CANDIDATES == 255


def manual_hypothesis():
    """HBD/HBA/Hydrophobe with constraints satisfied exactly by NCCC."""
    return Hypothesis(
        features=[("HBD", 1.0), ("HBA", 1.0), ("Hydrophobe", 1.0)],
        pair_constraints={(0, 1): (0.0, 1), (0, 2): (1.0, 1), (1, 2): (1.0, 1)},
    )


class TestFitValue:
    def test_seed_molecule_scores_sum_of_weights(self):
        training = [
            (parse_smiles("Oc1ccccc1"), 9.0),
            (parse_smiles("CCO"), 6.0),
            (parse_smiles("CCC"), 5.0),
            (parse_smiles("CCN"), 4.5),
        ]
        h = generate_hypotheses(training)[0]
        assert fit_value(h, training[0][0]) == pytest.approx(3.0)

    def test_missing_kind_scores_zero(self):
        h = manual_hypothesis()
        assert fit_value(h, parse_smiles("CCCC")) == 0.0  # no HBD/HBA

    def test_pair_off_by_tolerance_plus_one_drops_its_term(self):
        # on NCCC the unique mapping has distances 0, 1, 1; shift the first
        # constraint so its deviation is exactly tol+1
        h = Hypothesis(
            features=[("HBD", 1.0), ("HBA", 1.0), ("Hydrophobe", 1.0)],
            pair_constraints={(0, 1): (2.0, 1), (0, 2): (1.0, 1), (1, 2): (1.0, 1)},
        )
        fit = fit_value(h, parse_smiles("NCCC"))
        assert fit == pytest.approx(3.0 - 1.0)  # sum(weights) - w_pair

    def test_exact_match_on_manual_hypothesis(self):
        assert fit_value(manual_hypothesis(), parse_smiles("NCCC")) == pytest.approx(3.0)

    def test_invariant_under_renumbering(self, rng):
        h = manual_hypothesis()
        mol = parse_smiles("NCCCCO")
        reference = fit_value(h, mol)
        for _ in range(10):
            order = list(range(len(mol.atoms)))
            rng.shuffle(order)
            assert fit_value(h, renumbered(mol, order)) == pytest.approx(reference)

    def test_matches_brute_force_oracle(self, corpus):
        h = manual_hypothesis()
        four = Hypothesis(
            features=[("HBD", 1.0), ("HBA", 1.0), ("HBA", 0.5), ("AromaticRing", 2.0)],
            pair_constraints={
                (0, 1): (0.0, 1), (0, 2): (3.0, 1), (0, 3): (1.0, 2),
                (1, 2): (3.0, 1), (1, 3): (1.0, 2), (2, 3): (2.0, 1),
            },
        )
        checked = 0
        for name, _, mol in corpus:
            feats = detect_features(mol)
            if len(feats) > 8:
                continue
            for hypothesis in (h, four):
                assert fit_value(hypothesis, mol) == pytest.approx(
                    fit_value_oracle(hypothesis, mol), abs=1e-12
                ), name
            checked += 1
        assert checked >= 20

    def test_weighted_self_match(self):
        mol = parse_smiles("NCCC")
        table_weights = [2.0, 0.5, 1.5]
        h = Hypothesis(
            features=[("HBD", table_weights[0]), ("HBA", table_weights[1]),
                      ("Hydrophobe", table_weights[2])],
            pair_constraints={(0, 1): (0.0, 1), (0, 2): (1.0, 1), (1, 2): (1.0, 1)},
        )
        assert fit_value(h, mol) == pytest.approx(sum(table_weights))


class TestScoreCosts:
    def training(self):
        return [
            (parse_smiles("Oc1ccccc1"), 9.0),
            (parse_smiles("Oc1ccc(O)cc1"), 8.0),
            (parse_smiles("CCO"), 6.0),
            (parse_smiles("CCC"), 5.0),
        ]

    def test_costs_match_independent_least_squares(self):
        training = self.training()
        h = generate_hypotheses(training)[0]
        costs = score_costs(h, training)
        fits = [fit_value_oracle(h, mol) for mol, _ in training]
        ys = [p for _, p in training]
        slope, intercept = least_squares_oracle(fits, ys)
        expected_total = sum(
            (slope * f + intercept - y) ** 2 for f, y in zip(fits, ys)
        ) + COMPLEXITY_LAMBDA * len(h.features)
        mean_y = sum(ys) / len(ys)
        expected_null = sum((mean_y - y) ** 2 for y in ys)
        assert costs.total_cost == pytest.approx(expected_total, abs=1e-12)
        assert costs.null_cost == pytest.approx(expected_null, abs=1e-12)
        assert costs.delta == pytest.approx(expected_null - expected_total, abs=1e-12)

    def test_perfect_rank_order_costs_lambda_only(self):
        # engineered fits: hypothesis matched by molecules in a strict line
        h = manual_hypothesis()
        training = [
            (parse_smiles("NCCC"), 7.0),   # fit 3 (exact)
            (parse_smiles("CCCC"), 4.0),   # fit 0 (no HBD/HBA)
        ] * 2
        costs = score_costs(h, training)
        assert costs.total_cost == pytest.approx(COMPLEXITY_LAMBDA * 3, abs=1e-9)

    def test_degenerate_regression_total_at_least_null(self):
        h = manual_hypothesis()
        training = [
            (parse_smiles("CCCC"), 5.0),
            (parse_smiles("CCCCC"), 6.0),
            (parse_smiles("CCCCCC"), 7.0),
            (parse_smiles("CCCCCCC"), 8.0),
        ]  # every fit is 0: constant
        costs = score_costs(h, training)
        assert costs.total_cost >= costs.null_cost
        assert h.fit_regression[0] == 0.0  # slope collapses

    def test_delta_is_derived_not_stored(self):
        c = HypothesisCosts(null_cost=5.0, total_cost=1.5)
        assert c.delta == 3.5


class TestSelectBest:
    def make(self, delta, size, index):
        h = Hypothesis(
            features=[("HBD", 1.0)] * size,
            pair_constraints={},
            enumeration_index=index,
        )
        h.costs = HypothesisCosts(null_cost=delta, total_cost=0.0)
        return h

    def test_single_candidate(self):
        h = self.make(1.0, 3, 0)
        assert select_best([h]) is h

    def test_highest_delta_wins(self):
        a, b = self.make(3.0, 3, 0), self.make(1.0, 3, 1)
        assert select_best([b, a]) is a

    def test_tie_prefers_fewer_features(self):
        a, b = self.make(2.0, 4, 0), self.make(2.0, 3, 1)
        assert select_best([a, b]) is b

    def test_tie_then_lower_enumeration_index(self):
        a, b = self.make(2.0, 3, 5), self.make(2.0, 3, 2)
        assert select_best([a, b]) is b

    def test_never_smaller_than_any_candidate(self, rng):
        candidates = [
            self.make(rng.uniform(0, 5), rng.randint(3, 6), i) for i in range(20)
        ]
        best = select_best(candidates)
        assert all(best.costs.delta >= c.costs.delta for c in candidates)


class TestScreenByFit:
    def hypothesis_and_library(self):
        training = [
            (parse_smiles("Oc1ccccc1"), 9.0),
            (parse_smiles("CCO"), 6.0),
            (parse_smiles("CCC"), 5.0),
            (parse_smiles("CCN"), 4.5),
        ]
        candidates = generate_hypotheses(training)
        for c in candidates:
            score_costs(c, training)
        return select_best(candidates)

    def test_empty_library(self):
        assert screen_by_fit(self.hypothesis_and_library(), []) == []

    def test_value_errors_skipped_other_errors_propagate(self, monkeypatch):
        h = self.hypothesis_and_library()
        library = [("a", None, parse_smiles("Oc1ccccc1"), None)]

        def fails_with(exc):
            def fit(hypothesis, mol):
                raise exc
            return fit

        monkeypatch.setattr(pharmacophore, "fit_value", fails_with(ValueError("bad row")))
        assert screen_by_fit(h, library) == []
        monkeypatch.setattr(pharmacophore, "fit_value", fails_with(RuntimeError("bug")))
        with pytest.raises(RuntimeError):
            screen_by_fit(h, library)

    def test_seed_molecule_ranks_first(self, corpus):
        h = self.hypothesis_and_library()
        library = [("seed", "phenol", parse_smiles("Oc1ccccc1"), None)]
        library += [
            (f"c{i}", name, mol, None) for i, (name, _, mol) in enumerate(corpus)
        ]
        rows = screen_by_fit(h, library)
        assert rows[0].fit == max(r.fit for r in rows)
        assert rows[0].fit == pytest.approx(3.0)
        seed_fit = next(r.fit for r in rows if r.id == "seed")
        assert all(seed_fit >= r.fit for r in rows)  # seed dominance

    def test_rows_sorted_by_fit_then_id(self):
        h = self.hypothesis_and_library()
        library = [
            ("b", None, parse_smiles("Oc1ccccc1"), None),
            ("a", None, parse_smiles("Oc1ccccc1"), None),
            ("z", None, parse_smiles("CCC"), None),
        ]
        rows = screen_by_fit(h, library)
        assert [r.id for r in rows] == ["a", "b", "z"]

    def test_class_summary_schema(self):
        h = self.hypothesis_and_library()
        labels = ["Terpenes", "Phenylpropanoids", "Alkaloids", "Flavonoids", "Quinones", "Other"]
        library = []
        for i, label in enumerate(labels):
            library.append((f"x{i}", f"rep-{label}", parse_smiles("Oc1ccccc1"), label))
            library.append((f"y{i}", None, parse_smiles("CCO"), label))
        rows = screen_by_fit(h, library)
        summary = class_summary(rows)
        assert len(summary) == 6
        assert [s.classify for s in summary] == list("ABCDEF")
        for s in summary:
            assert s.quantity == 2
            assert math.isfinite(s.degree_of_fit)
            assert s.representative.startswith("rep-")

    def test_predicted_pic50_via_regression(self):
        h = self.hypothesis_and_library()
        rows = screen_by_fit(h, [("m", None, parse_smiles("Oc1ccccc1"), None)])
        slope, intercept = h.fit_regression
        assert rows[0].predicted_pic50 == pytest.approx(slope * rows[0].fit + intercept)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        training = [
            (parse_smiles("Oc1ccccc1"), 9.0),
            (parse_smiles("CCO"), 6.0),
            (parse_smiles("CCC"), 5.0),
            (parse_smiles("CCN"), 4.5),
        ]
        h = generate_hypotheses(training, seed_smiles="Oc1ccccc1")[0]
        score_costs(h, training)
        path = tmp_path / "h.json"
        save_hypothesis(h, str(path))
        loaded = load_hypothesis(str(path))
        assert loaded.features == h.features
        assert loaded.pair_constraints == h.pair_constraints
        assert loaded.fit_regression == pytest.approx(h.fit_regression)
        assert loaded.costs.delta == pytest.approx(h.costs.delta)
        assert loaded.gen_params == GEN_PARAMS
        assert loaded.seed_smiles == "Oc1ccccc1"
        mol = parse_smiles("Oc1ccc(O)cc1")
        assert fit_value(loaded, mol) == pytest.approx(fit_value(h, mol))

    def test_feature_count_validated(self):
        with pytest.raises(ValueError):
            Hypothesis(features=[("HBD", 1.0)], pair_constraints={})
        with pytest.raises(ValueError):
            Hypothesis(features=[("HBD", 1.0)] * 7, pair_constraints={})


class TestFeatureDistance:
    def test_bond_path_metric(self):
        mol = parse_smiles("NCCC")
        feats = detect_features(mol)
        hbd = next(f for f in feats if f.kind == "HBD")
        hyd = next(f for f in feats if f.kind == "Hydrophobe")
        assert feature_distance(mol, hbd, hyd) == 1.0

    def test_disconnected_fragments_are_infinite(self):
        mol = parse_smiles("N.CCC")
        feats = detect_features(mol)
        hbd = next(f for f in feats if f.kind == "HBD")
        hyd = next(f for f in feats if f.kind == "Hydrophobe")
        assert math.isinf(feature_distance(mol, hbd, hyd))
