import json
import math
import random
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import Generator, donor_labels
from helpers import renumbered
from oracles import (
    fit_value_oracle,
    fit_value_product_oracle,
    least_squares_oracle,
    score_candidates_oracle,
)
from screenforge import pharmacophore
from screenforge.chem_graph import parse_smiles
from screenforge.descriptors import compute_descriptors
from screenforge.pharmacophore import (
    COMPLEXITY_LAMBDA,
    DEFAULT_MAX_CANDIDATES,
    GEN_PARAMS,
    MAX_FEATURES,
    MIN_FEATURES,
    Hypothesis,
    HypothesisCosts,
    _feature_distances,
    class_summary,
    detect_features,
    fit_value,
    generate_hypotheses,
    load_hypothesis,
    save_hypothesis,
    score_candidates,
    score_costs,
    screen_by_fit,
    select_best,
)
from screenforge.screenctl import ingest

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
        with pytest.raises(
            ValueError, match="need at least 4 training records with pIC50, got 3"
        ):
            generate_hypotheses(self.training()[:3])

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_rejected(self, cap):
        with pytest.raises(ValueError, match=f"max_candidates {cap} must be at least 1"):
            generate_hypotheses(self.training(), max_candidates=cap)

    def test_gen_params_recorded_verbatim(self, tmp_path):
        path = tmp_path / "h.json"
        save_hypothesis(generate_hypotheses(self.training())[0], str(path))
        gen_params = json.loads(path.read_text())["gen_params"]
        assert gen_params == GEN_PARAMS
        assert gen_params["energy_threshold_kcal_per_mol"] == 10.0
        assert gen_params["max_conformations"] == 255

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


def learn_training(seed, polyols, few_donors):
    """A training set built as the learn benchmark builds its pharm set:
    polyols and glycosides, then compounds with at most three donors, with
    labels that rise with donor count, so a polyol seeds the hypotheses."""
    g = Generator(seed)
    smiles = g.polyol_slice(polyols)
    grown = []
    while len(grown) < few_donors:
        grown += [s for s in g.grow(few_donors - len(grown))
                  if compute_descriptors(parse_smiles(s)).hbd <= 3]
    smiles += grown
    labels = donor_labels(smiles, random.Random(seed))
    return [(parse_smiles(s), p) for s, p in zip(smiles, labels)]


def xoi_training():
    records, _ = ingest(str(resources.files("screenforge") / "data/xoi_ic50.csv"))
    return [(parse_smiles(r.canonical_smiles), r.pic50) for r in records if r.pic50 is not None]


def candidate_key(h):
    return tuple(h.features), tuple(h.pair_constraints.items())


def score_bits(h):
    """The regression and costs as exact text (repr round-trips a float)."""
    return repr((h.fit_regression, h.costs))


class TestScoreCandidates:
    @pytest.mark.parametrize("build, total, distinct", [
        (lambda: learn_training(0, 12, 16), 255, 115),
        (lambda: learn_training(1, 4, 8), 255, 188),
        (lambda: learn_training(3, 2, 6), 255, 204),
        (xoi_training, 1, 1),
    ], ids=["learn-seed0", "glycoside-seed1", "glycoside-seed3", "xoi"])
    def test_matches_scoring_every_candidate(self, tmp_path, build, total, distinct):
        training = build()
        candidates = generate_hypotheses(training)
        reference = generate_hypotheses(training)
        assert len(candidates) == total
        assert len({candidate_key(h) for h in candidates}) == distinct
        score_candidates(candidates, training)
        score_candidates_oracle(reference, training)
        assert [score_bits(h) for h in candidates] == [score_bits(h) for h in reference]
        best, best_reference = select_best(candidates), select_best(reference)
        assert best.enumeration_index == best_reference.enumeration_index
        save_hypothesis(best, str(tmp_path / "a.json"))
        save_hypothesis(best_reference, str(tmp_path / "b.json"))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_reordered_constraints_are_scored_apart(self, monkeypatch):
        seed = parse_smiles(GLYCEROL_GLUCOSIDE)
        training = [(seed, 8.0)] + [(parse_smiles(s), p) for s, p in
                                    zip(SAME_KIND_HEAVY[:3], (7.0, 6.0, 5.0))]
        h = seed_hypothesis(GLYCEROL_GLUCOSIDE, kind_indices(GLYCEROL_GLUCOSIDE, "HBD")[:4])
        copy = Hypothesis(list(h.features), dict(h.pair_constraints))
        reordered = Hypothesis(list(h.features), dict(reversed(h.pair_constraints.items())))
        scored = []
        monkeypatch.setattr(pharmacophore, "score_costs",
                            lambda c, t: scored.append(c) or score_costs(c, t))
        score_candidates([h, copy, reordered], training)
        assert len(scored) == 2 and scored[0] is h and scored[1] is reordered
        assert copy.costs is h.costs and copy.fit_regression is h.fit_regression


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
        h = generate_hypotheses(training)[0]
        score_costs(h, training)
        path = tmp_path / "h.json"
        save_hypothesis(h, str(path))
        loaded = load_hypothesis(str(path))
        assert loaded.features == h.features
        assert loaded.pair_constraints == h.pair_constraints
        assert loaded.fit_regression == pytest.approx(h.fit_regression)
        assert loaded.costs.delta == pytest.approx(h.costs.delta)
        assert loaded.seed_smiles == "c1ccc(cc1)O"  # the most active, canonical
        mol = parse_smiles("Oc1ccc(O)cc1")
        assert fit_value(loaded, mol) == pytest.approx(fit_value(h, mol))

    def test_feature_count_validated(self):
        with pytest.raises(ValueError):
            Hypothesis(features=[("HBD", 1.0)], pair_constraints={})
        with pytest.raises(ValueError):
            Hypothesis(features=[("HBD", 1.0)] * 7, pair_constraints={})

    def test_pair_joining_a_feature_to_itself_rejected(self):
        with pytest.raises(ValueError, match="joins a feature to itself"):
            Hypothesis(features=[("HBD", 1.0)] * 3, pair_constraints={(1, 1): (0.0, 1)})


class TestFeatureDistance:
    def test_bond_path_metric(self):
        mol = parse_smiles("NCCC")
        feats = detect_features(mol)
        hbd = next(i for i, f in enumerate(feats) if f.kind == "HBD")
        hyd = next(i for i, f in enumerate(feats) if f.kind == "Hydrophobe")
        assert _feature_distances(mol)[hbd][hyd] == 1.0

    def test_disconnected_fragments_are_infinite(self):
        mol = parse_smiles("N.CCC")
        feats = detect_features(mol)
        hbd = next(i for i, f in enumerate(feats) if f.kind == "HBD")
        hyd = next(i for i, f in enumerate(feats) if f.kind == "Hydrophobe")
        assert math.isinf(_feature_distances(mol)[hbd][hyd])


def seed_hypothesis(seed_smiles, picks, weights=None, tolerance=1):
    """A hypothesis on the given features of a seed molecule, with that
    molecule's distances as constraints, as generate_hypotheses builds it."""
    seed = parse_smiles(seed_smiles)
    feats, dist = detect_features(seed), _feature_distances(seed)
    weights = weights or [1.0] * len(picks)
    return Hypothesis(
        features=[(feats[p].kind, w) for p, w in zip(picks, weights)],
        pair_constraints={
            (i, j): (dist[picks[i]][picks[j]], tolerance)
            for i in range(len(picks))
            for j in range(i + 1, len(picks))
        },
    )


def kind_indices(smiles, kind):
    return [i for i, f in enumerate(detect_features(parse_smiles(smiles))) if f.kind == kind]


# Polyols and glycosides with 10-16 features of one kind: a donor and an
# acceptor per hydroxyl, an acceptor per ring or ether oxygen.
SAME_KIND_HEAVY = [
    "OCC(O)C(O)C(O)C(O)C(O)C(O)C(O)C(O)CO",
    "OCC1OC(OCC2OC(O)C(O)C(O)C2O)C(O)C(O)C1O",
    "OCC1OC(OCC(O)C(O)C(O)C(O)CO)C(O)C(O)C1O",
    "OCC1OC(Oc2ccccc2)C(O)C(OC2OC(CO)C(O)C(O)C2O)C1O",
    "OCC1OC(OC2C(O)C(O)C(O)OC2CO)C(O)C(O)C1OC1OC(CO)C(O)C(O)C1O",
]
GLYCEROL_GLUCOSIDE = "OCC1OC(OCC(O)CO)C(O)C(O)C1O"


def chain_polyol(hydroxyls):
    return "OC" + "C(O)" * (hydroxyls - 2) + "CO"


class TestBranchAndBoundExactness:
    def test_same_kind_heavy_molecules_match_product_search(self):
        hbd = kind_indices(GLYCEROL_GLUCOSIDE, "HBD")
        hba = kind_indices(GLYCEROL_GLUCOSIDE, "HBA")
        hyd = kind_indices(GLYCEROL_GLUCOSIDE, "Hydrophobe")
        hypotheses = [
            seed_hypothesis(GLYCEROL_GLUCOSIDE, hbd[:3] + hyd[:1]),
            seed_hypothesis(GLYCEROL_GLUCOSIDE, hbd[1:3] + hba[-2:], tolerance=0),
            seed_hypothesis(GLYCEROL_GLUCOSIDE, [hba[0], hba[3], hba[5], hbd[4]],
                            weights=[1.5, 0.25, 2.0, 0.75]),
        ]
        for smiles in SAME_KIND_HEAVY:
            mol = parse_smiles(smiles)
            counts = [len(kind_indices(smiles, k)) for k in ("HBD", "HBA")]
            assert 10 <= max(counts) <= 20
            for h in hypotheses:
                assert fit_value(h, mol) == fit_value_product_oracle(h, mol), smiles

    def test_five_donor_hypothesis_on_twelve_hydroxyl_chain(self):
        seed = chain_polyol(6)
        h = seed_hypothesis(seed, kind_indices(seed, "HBD")[:5])
        mol = parse_smiles(chain_polyol(12))
        assert len(kind_indices(chain_polyol(12), "HBD")) == 12
        fit = fit_value(h, mol)
        assert fit == fit_value_product_oracle(h, mol)
        assert fit == 5.0  # the seed's five donors recur along the chain

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_hypotheses_on_corpus_match_oracle(self, small_corpus, data):
        name, mol = data.draw(st.sampled_from(small_corpus))
        # slots take the kinds of distinct features while there are enough
        kinds = [f.kind for f in data.draw(st.permutations(detect_features(mol)))]
        n = data.draw(st.integers(MIN_FEATURES, MAX_FEATURES))
        kinds += [data.draw(st.sampled_from(kinds)) for _ in range(n - len(kinds))]
        features = [
            (kind, data.draw(st.floats(0.01, 10.0, allow_nan=False))) for kind in kinds[:n]
        ]
        constraints = {}
        for i in range(n):
            for j in range(i + 1, n):
                if not data.draw(st.booleans(), label="keep pair") and constraints:
                    continue
                key = (j, i) if data.draw(st.booleans(), label="flip") else (i, j)
                distance = data.draw(st.one_of(
                    st.integers(0, 10).map(float), st.just(math.inf),
                    st.floats(0.0, 10.0, allow_nan=False),
                ))
                tolerance = data.draw(st.one_of(
                    st.just(0), st.integers(0, 3), st.floats(0.0, 4.0, allow_nan=False),
                ))
                constraints[key] = (distance, tolerance)
        h = Hypothesis(features=features, pair_constraints=constraints)
        assert fit_value(h, mol) == fit_value_oracle(h, mol), name


    # Twin slots: the same kind and weight, and the same constraints to every
    # other slot. Mirror-image mappings then add equal terms in another
    # order, their sums can differ in the last bit, and the fit is the larger.
    @pytest.mark.parametrize("smiles, features, constraints", [
        ("Oc1ccc(O)cc1CCO",
         [("HBA", 0.1829515912230873), ("HBA", 0.1829515912230873),
          ("HBA", 2.1035667643576463), ("HBD", 0.5275017095450029)],
         {(0, 1): (5.0, 2), (0, 2): (6.0, 1 / 3), (0, 3): (6.0, 1 / 3),
          (1, 2): (6.0, 1 / 3), (1, 3): (6.0, 1 / 3), (2, 3): (2.0, 2)}),
        ("OCC(O)C(O)C(O)CO",
         [("HBA", 1.7481122674286405), ("HBA", 1.7481122674286405),
          ("Hydrophobe", 1.7035721229837937), ("HBA", 0.9049289098889239),
          ("HBD", 0.2203969791797042)],
         {(0, 1): (5.0, 2), (0, 2): (2.0, 0.5), (0, 3): (6.0, 0.5), (0, 4): (4.0, 1 / 3),
          (1, 2): (2.0, 0.5), (1, 3): (6.0, 0.5), (1, 4): (4.0, 1 / 3),
          (2, 3): (5.0, 1), (2, 4): (2.0, 0), (3, 4): (3.0, 3)}),
    ])
    def test_twin_slots_take_the_larger_rounding(self, smiles, features, constraints):
        h = Hypothesis(features=features, pair_constraints=constraints)
        mol = parse_smiles(smiles)
        assert fit_value(h, mol) == fit_value_product_oracle(h, mol)


@pytest.fixture(scope="module")
def small_corpus(corpus):
    """Corpus molecules with 1 to 8 features, where the all-permutations
    oracle stays fast."""
    return [(name, mol) for name, _, mol in corpus if 0 < len(detect_features(mol)) <= 8]


class TestFitEdgeCases:
    def test_salt_infinite_constraints(self):
        mol = parse_smiles("OCCC.NCCC")  # two fragments, a hydrophobe each
        both = Hypothesis(
            features=[("HBD", 1.0), ("Hydrophobe", 1.0), ("Hydrophobe", 1.0)],
            pair_constraints={(0, 1): (1.0, 0), (0, 2): (math.inf, 0), (1, 2): (math.inf, 0)},
        )
        # the donor next to one hydrophobe, the other in the other fragment:
        # both infinite pairs score as matches
        assert fit_value(both, mol) == 3.0
        one = Hypothesis(
            features=both.features,
            pair_constraints={(0, 1): (math.inf, 0), (0, 2): (math.inf, 0), (1, 2): (math.inf, 0)},
        )
        # no donor is cut off from both hydrophobes, so one pair has a finite
        # distance against an infinite constraint and drops out
        assert fit_value(one, mol) == 2.0
        for h in (both, one):
            assert fit_value(h, mol) == fit_value_product_oracle(h, mol)
            assert fit_value(h, mol) == fit_value_oracle(h, mol)

    def test_loaded_hypothesis_with_unequal_weights(self, tmp_path):
        weights = [2.0, 0.5, 1.5, 0.75]
        picks = kind_indices(GLYCEROL_GLUCOSIDE, "HBD")[:2] + kind_indices(
            GLYCEROL_GLUCOSIDE, "HBA")[:2]
        path = tmp_path / "h.json"
        save_hypothesis(seed_hypothesis(GLYCEROL_GLUCOSIDE, picks, weights), str(path))
        h = load_hypothesis(str(path))
        assert [w for _, w in h.features] == weights
        assert fit_value(h, parse_smiles(GLYCEROL_GLUCOSIDE)) == sum(weights)
        for smiles in SAME_KIND_HEAVY[:3] + ["OCC(O)CO", "OCCO"]:
            mol = parse_smiles(smiles)
            assert fit_value(h, mol) == fit_value_product_oracle(h, mol), smiles

    def test_kind_with_too_few_features_scores_zero(self):
        h = Hypothesis(
            features=[("HBD", 1.0), ("HBD", 1.0), ("AromaticRing", 1.0)],
            pair_constraints={(0, 1): (3.0, 1), (0, 2): (1.0, 1), (1, 2): (4.0, 1)},
        )
        for smiles in ("Oc1ccccc1", "OCCCO", "OCC(O)CO"):  # one donor, or no ring
            fit = fit_value(h, parse_smiles(smiles))
            assert fit == 0.0 and type(fit) is float, smiles

    @pytest.mark.parametrize("weights", [
        [1.0, 1.0, 1.0], [2.0, 0.5, 1.5], [1.0] * 5, [1.0, 2.0, 0.5, 1.5, 3.0],
    ])
    def test_seed_self_match_scores_sum_of_weights(self, weights):
        picks = (kind_indices(GLYCEROL_GLUCOSIDE, "HBD")[:3]
                 + kind_indices(GLYCEROL_GLUCOSIDE, "HBA")[4:6])[:len(weights)]
        h = seed_hypothesis(GLYCEROL_GLUCOSIDE, picks, weights)
        assert fit_value(h, parse_smiles(GLYCEROL_GLUCOSIDE)) == sum(weights)
