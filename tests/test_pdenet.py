import json
import math

import numpy as np
import pytest

from oracles import mlp_forward_oracle
from screenforge import pdenet
from screenforge.chem_graph import parse_smiles
from screenforge.pdenet import (
    ACTIVE_LABEL_PIC50,
    DatasetRecord,
    FeatureSpec,
    FeaturizationFailure,
    LengthMismatch,
    MlpModel,
    NonPositiveIC50,
    NormStats,
    ShapeMismatch,
    TooFewRecords,
    TrainConfig,
    adam_step,
    backprop,
    evaluate,
    featurize_molecule,
    featurize_records,
    fit_norm_stats,
    forward,
    ic50_to_pic50,
    init_model,
    load_model,
    mse_loss,
    predict_and_gate,
    save_model,
    split_dataset,
    train,
)


class TestPic50:
    def test_one_nanomolar(self):
        assert ic50_to_pic50(1.0) == 9.0

    def test_table_value(self):
        assert ic50_to_pic50(0.59) == pytest.approx(9.229, abs=1e-3)

    def test_micromolar(self):
        assert ic50_to_pic50(1000.0) == 6.0

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveIC50):
            ic50_to_pic50(0.0)
        with pytest.raises(NonPositiveIC50):
            ic50_to_pic50(-3.0)


class TestDatasetRecord:
    def test_pic50_derived_from_ic50(self):
        r = DatasetRecord(id="1", smiles="C", canonical_smiles="C", ic50_nm=1.0)
        assert r.pic50 == 9.0
        assert r.active is True  # 9.0 >= labeling constant

    def test_consistency_checked(self):
        with pytest.raises(ValueError):
            DatasetRecord(id="1", smiles="C", canonical_smiles="C", ic50_nm=1.0, pic50=5.0)

    def test_label_threshold_distinct_from_gate(self):
        assert ACTIVE_LABEL_PIC50 == 6.0
        r = DatasetRecord(id="1", smiles="C", canonical_smiles="C", pic50=5.9)
        assert r.active is False


class TestSplit:
    def test_100_gives_78_12_10(self):
        parts = split_dataset(list(range(100)), TrainConfig(seed=1))
        assert [len(p) for p in parts] == [78, 12, 10]

    def test_1261_gives_983_151_127(self):
        parts = split_dataset(list(range(1261)), TrainConfig(seed=1))
        assert [len(p) for p in parts] == [983, 151, 127]

    def test_partitions_disjoint_exhaustive(self, rng):
        for _ in range(20):
            n = rng.randint(10, 400)
            items = list(range(n))
            tr, te, ho = split_dataset(items, TrainConfig(seed=rng.randint(0, 99)))
            assert sorted(tr + te + ho) == items

    def test_deterministic_per_seed(self):
        a = split_dataset(list(range(50)), TrainConfig(seed=4))
        b = split_dataset(list(range(50)), TrainConfig(seed=4))
        assert a == b
        c = split_dataset(list(range(50)), TrainConfig(seed=5))
        assert a != c

    def test_too_few_records(self):
        with pytest.raises(TooFewRecords):
            split_dataset(list(range(9)), TrainConfig())


class TestInitModel:
    def test_deterministic(self):
        a = init_model([4, 3, 1], seed=3)
        b = init_model([4, 3, 1], seed=3)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_shapes(self):
        m = init_model([4, 3, 1])
        assert m.weights[0].shape == (3, 4)
        assert m.weights[1].shape == (1, 3)

    def test_biases_zero(self):
        m = init_model([4, 3, 1])
        assert all(not b.any() for b in m.biases)

    def test_scale_bounded_by_fan_in(self):
        m = init_model([100, 10, 1], seed=0)
        assert np.max(np.abs(m.weights[0])) <= 1 / math.sqrt(100)


class TestForward:
    def test_zero_weights_give_bias(self):
        m = init_model([3, 2, 1], seed=0)
        for w in m.weights:
            w[:] = 0.0
        m.biases[-1][:] = 4.25
        assert forward(m, np.zeros(3)) == 4.25

    def test_identity_like_relu_passthrough(self):
        m = MlpModel(
            layer_sizes=[1, 1, 1],
            weights=[np.array([[1.0]]), np.array([[1.0]])],
            biases=[np.zeros(1), np.zeros(1)],
            activation="relu",
        )
        assert forward(m, np.array([2.5])) == 2.5

    def test_matches_independent_oracle(self, rng):
        for activation in ("relu", "tanh"):
            m = init_model([5, 4, 3, 1], activation, seed=rng.randint(0, 999))
            x = [rng.uniform(-2, 2) for _ in range(5)]
            ours = forward(m, np.array(x))
            oracle = mlp_forward_oracle(
                [w.tolist() for w in m.weights],
                [b.tolist() for b in m.biases],
                activation,
                x,
            )
            assert ours == pytest.approx(oracle, abs=1e-10)

    def test_shape_mismatch(self):
        m = init_model([3, 2, 1])
        with pytest.raises(ShapeMismatch):
            forward(m, np.zeros(4))


class TestMseLoss:
    def test_zero_when_equal(self):
        assert mse_loss([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_case(self):
        assert mse_loss([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_hand_value(self):
        assert mse_loss([1.0, 2.0, 3.0], [0.0, 0.0, 0.0]) == pytest.approx(14 / 3)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mse_loss([1.0], [1.0, 2.0])
        with pytest.raises(LengthMismatch):
            mse_loss([], [])


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        m = init_model([3, 2, 1], seed=0)
        before = [p.copy() for p in m.parameter_list()]
        adam_step(m, [np.zeros_like(p) for p in m.parameter_list()], lr=0.5)
        after = m.parameter_list()
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        assert all(not s.any() for s in m.adam_state.m)
        assert all(not s.any() for s in m.adam_state.v)
        assert m.adam_state.t == 1

    @pytest.mark.parametrize("g", [3.0, -0.25])
    def test_first_step_is_signed_learning_rate(self, g):
        m = init_model([2, 1], seed=0)
        before = [p.copy() for p in m.parameter_list()]
        adam_step(m, [np.full_like(p, g) for p in m.parameter_list()], lr=0.01)
        for b, a in zip(before, m.parameter_list()):
            update = a - b
            assert np.allclose(update, -0.01 * np.sign(g), rtol=1e-6)

    def test_identical_trajectories(self):
        ms = [init_model([3, 2, 1], seed=9) for _ in range(2)]
        rng = np.random.default_rng(0)
        grads = [rng.normal(size=p.shape) for p in ms[0].parameter_list()]
        for m in ms:
            adam_step(m, [g.copy() for g in grads], lr=0.01)
            adam_step(m, [g.copy() for g in grads], lr=0.01)
        for pa, pb in zip(ms[0].parameter_list(), ms[1].parameter_list()):
            assert np.array_equal(pa, pb)

    def test_shape_mismatch(self):
        m = init_model([3, 2, 1])
        with pytest.raises(ShapeMismatch):
            adam_step(m, [np.zeros(99) for _ in m.parameter_list()], lr=0.1)


def numeric_gradient(model, X, y, eps=1e-5):
    grads = []
    for p in model.parameter_list():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            up = mse_loss(forward(model, X), y)
            p[idx] = orig - eps
            down = mse_loss(forward(model, X), y)
            p[idx] = orig
            g[idx] = (up - down) / (2 * eps)
        grads.append(g)
    return grads


class TestGradients:
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_backprop_matches_central_differences(self, activation):
        model = init_model([10, 8, 4, 1], activation, seed=42)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(6, 10))
        y = rng.normal(size=6)
        analytic, _ = backprop(model, X, y)
        numeric = numeric_gradient(model, X, y)
        worst = 0.0
        for a, n in zip(analytic, numeric):
            rel = np.abs(a - n) / np.maximum.reduce([np.abs(a), np.abs(n), np.full_like(a, 1e-8)])
            worst = max(worst, float(rel.max()))
        assert worst < 1e-5


class TestTrain:
    def overfit_fixture(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, size=(20, 3))
        y = 2 * X[:, 0] - 3 * X[:, 1] + 0.5 * X[:, 2] + 0.25
        return X, y

    def test_overfits_synthetic_linear_data(self):
        X, y = self.overfit_fixture()
        cfg = TrainConfig(learning_rate=0.02, batch_size=32, epochs=2000,
                          hidden_layers=(32,), activation="relu", seed=5)
        model = init_model([3, 32, 1], "relu", seed=5)
        model, curve = train(model, (X, y), None, cfg)
        assert curve.train_mse[-1] < 1e-4
        assert curve.train_mse[-1] < curve.train_mse[0]

    def test_zero_epochs_is_identity(self):
        X, y = self.overfit_fixture()
        model = init_model([3, 8, 1], seed=2)
        before = [p.copy() for p in model.parameter_list()]
        model, curve = train(model, (X, y), None, TrainConfig(epochs=0, seed=2))
        assert curve.train_mse == [] and curve.val_mse == []
        assert all(np.array_equal(a, b) for a, b in zip(before, model.parameter_list()))

    def test_loss_curve_lengths_and_validation(self):
        X, y = self.overfit_fixture()
        model = init_model([3, 8, 1], seed=2)
        cfg = TrainConfig(epochs=5, seed=2)
        model, curve = train(model, (X, y), (X[:4], y[:4]), cfg)
        assert len(curve.train_mse) == 5 and len(curve.val_mse) == 5
        assert all(v >= 0 for v in curve.train_mse)

    def test_bit_identical_curves_for_fixed_seed(self):
        X, y = self.overfit_fixture()
        curves = []
        for _ in range(2):
            model = init_model([3, 8, 1], seed=6)
            _, curve = train(model, (X, y), None,
                             TrainConfig(epochs=20, batch_size=4, seed=6))
            curves.append(curve)
        assert curves[0].train_mse == curves[1].train_mse

    def test_dropout_training_is_deterministic_and_finite(self):
        X, y = self.overfit_fixture()
        finals = []
        for _ in range(2):
            model = init_model([3, 16, 1], seed=8)
            _, curve = train(
                model, (X, y), None,
                TrainConfig(epochs=30, batch_size=8, dropout_rate=0.25, seed=8),
            )
            finals.append(curve.train_mse[-1])
        assert finals[0] == finals[1]
        assert math.isfinite(finals[0])


class TestNormalization:
    def test_mean_zero_std_one_on_retained(self, rng):
        X = np.array([[rng.uniform(-5, 5) for _ in range(6)] for _ in range(40)])
        X[:, 2] = 7.0  # constant column must be dropped
        stats = fit_norm_stats(X)
        assert 2 not in stats.kept.tolist()
        Z = stats.apply(X)
        assert np.max(np.abs(Z.mean(axis=0))) < 1e-9
        assert np.max(np.abs(Z.std(axis=0) - 1)) < 1e-9

    def test_all_constant_rejected(self):
        with pytest.raises(ValueError):
            fit_norm_stats(np.ones((5, 3)))


def gate_model(nbits=2048):
    """Single linear unit reading the heavy-atom-count feature so C, CC and
    CCC predict exactly 5.69, 5.70 and 5.71."""
    spec = FeatureSpec()
    heavy_idx = nbits + list(spec.descriptors).index("heavy_atoms")
    model = MlpModel(
        layer_sizes=[1, 1],
        weights=[np.array([[1.0]])],
        biases=[np.zeros(1)],
        activation="relu",
        target="custom",
        feature_spec=spec,
        norm_stats=NormStats(
            mean=np.array([-568.0]), std=np.array([100.0]), kept=np.array([heavy_idx])
        ),
    )
    return model


class TestGate:
    def test_strict_threshold_semantics(self):
        model = gate_model()
        records = [
            DatasetRecord(id=f"{i}", smiles=s, canonical_smiles=s)
            for i, s in enumerate(["C", "CC", "CCC"])
        ]
        predictions = predict_and_gate(model, records, threshold=5.7)
        values = sorted(p.pic50 for p in predictions)
        assert values == [5.69, 5.70, 5.71]
        actives = [p for p in predictions if p.active]
        assert len(actives) == 1
        assert actives[0].pic50 == 5.71

    def test_empty_input(self):
        assert predict_and_gate(gate_model(), []) == []

    def test_sorted_descending_then_id(self):
        model = gate_model()
        records = [
            DatasetRecord(id=s, smiles=s, canonical_smiles=s)
            for s in ["CCC", "C", "CC"]
        ]
        out = predict_and_gate(model, records)
        assert [p.id for p in out] == ["CCC", "CC", "C"]

    def test_gate_monotonicity(self):
        model = gate_model()
        records = [
            DatasetRecord(id=f"{n}", smiles="C" * n, canonical_smiles="C" * n)
            for n in range(1, 8)
        ]
        previous = None
        for threshold in (5.68, 5.70, 5.72, 5.74):
            active = {p.id for p in predict_and_gate(model, records, threshold) if p.active}
            if previous is not None:
                assert active <= previous
            previous = active

    def test_failures_skipped_and_logged(self, caplog):
        model = gate_model()
        records = [
            DatasetRecord(id="ok", smiles="CC", canonical_smiles="CC"),
            DatasetRecord(id="broken", smiles="C", canonical_smiles="C1CC"),
        ]
        with caplog.at_level("WARNING"):
            out = predict_and_gate(model, records)
        assert [p.id for p in out] == ["ok"]
        assert any("broken" in r.message for r in caplog.records)

    def test_unexpected_errors_propagate(self, monkeypatch):
        def boom(mol, spec):
            raise RuntimeError("bug")

        monkeypatch.setattr(pdenet, "featurize_molecule", boom)
        records = [DatasetRecord(id="ok", smiles="CC", canonical_smiles="CC")]
        with pytest.raises(RuntimeError):
            predict_and_gate(gate_model(), records)


class TestEvaluate:
    def test_perfect_predictor(self):
        m = MlpModel([1, 1], [np.array([[1.0]])], [np.zeros(1)], activation="relu")
        X = np.array([[1.0], [2.0], [4.0]])
        y = np.array([1.0, 2.0, 4.0])
        result = evaluate(m, X, y)
        assert result.mse == 0.0 and result.r2 == 1.0

    def test_mean_predictor_r2_zero(self):
        m = MlpModel([1, 1], [np.array([[0.0]])], [np.array([2.0])], activation="relu")
        X = np.array([[9.0], [9.0], [9.0], [9.0]])
        y = np.array([1.0, 2.0, 2.0, 3.0])
        assert evaluate(m, X, y).r2 == pytest.approx(0.0)

    def test_confusion_matches_hand_count(self):
        m = MlpModel([1, 1], [np.array([[1.0]])], [np.zeros(1)], activation="relu")
        X = np.array([[6.0], [5.0], [6.5], [5.5]])
        y = np.array([5.0, 6.0, 6.5, 5.5])
        c = evaluate(m, X, y, threshold=5.7).confusion
        # predictions 6.0 5.0 6.5 5.5 vs actual 5.0 6.0 6.5 5.5 at > 5.7
        assert c == {"tp": 1, "fp": 1, "fn": 1, "tn": 1}


class TestPersistence:
    def test_round_trip_preserves_predictions(self, tmp_path):
        model = init_model([5, 4, 1], "tanh", seed=12, target="PDE4")
        model.feature_spec = FeatureSpec()
        model.norm_stats = NormStats(
            mean=np.zeros(5), std=np.ones(5), kept=np.arange(5)
        )
        model.train_meta = {"seed": 12, "epochs": 0, "lr": 1e-3, "batch_size": 32}
        path = tmp_path / "m.json"
        save_model(model, str(path))
        loaded = load_model(str(path))
        x = np.linspace(-1, 1, 5)
        assert forward(loaded, x) == pytest.approx(forward(model, x), abs=1e-12)
        assert loaded.target == "PDE4"
        assert loaded.train_meta["seed"] == 12

    def test_version_validated(self, tmp_path):
        model = init_model([2, 1], seed=0)
        path = tmp_path / "m.json"
        save_model(model, str(path))
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_model(str(path))

    def test_shapes_validated(self, tmp_path):
        model = init_model([3, 2, 1], seed=0)
        path = tmp_path / "m.json"
        save_model(model, str(path))
        doc = json.loads(path.read_text())
        doc["weights"][0] = [[1.0, 2.0]]  # wrong fan-in
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_model(str(path))


class TestFeaturize:
    def test_row_errors_become_featurization_failures(self):
        records = [DatasetRecord(id="broken", smiles="C", canonical_smiles="C1CC")]
        with pytest.raises(FeaturizationFailure, match="broken"):
            featurize_records(records, FeatureSpec())

    def test_unexpected_errors_propagate(self, monkeypatch):
        def boom(mol, spec):
            raise RuntimeError("bug")

        monkeypatch.setattr(pdenet, "featurize_molecule", boom)
        records = [DatasetRecord(id="ok", smiles="CC", canonical_smiles="CC")]
        with pytest.raises(RuntimeError):
            featurize_records(records, FeatureSpec())

    def test_width_and_descriptor_tail(self):
        spec = FeatureSpec()
        x = featurize_molecule(parse_smiles("CCO"), spec)
        assert len(x) == spec.width() == 2048 + 7
        assert x[-1] == 3  # heavy atoms is the last configured descriptor
