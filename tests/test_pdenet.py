import io
import json
import math
import random
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gen import Generator, descriptor_labels
from helpers import feature_row
from oracles import (
    act_grad_oracle,
    adam_step_oracle,
    backprop_oracle,
    featurize_records_oracle,
    forward_pass_oracle,
    mlp_forward_oracle,
    norm_apply_oracle,
    predict_pic50_oracle,
    train_oracle,
)
from screenforge import fingerprints, pdenet
from screenforge.chem_graph import parse_smiles
from screenforge.pdenet import (
    PREDICT_BLOCK,
    DatasetRecord,
    FeatureSpec,
    MlpModel,
    NormStats,
    TrainConfig,
    adam_step,
    backprop,
    evaluate,
    featurize_records,
    fit_norm_stats,
    forward,
    ic50_to_pic50,
    init_model,
    load_model,
    mse_loss,
    predict_and_gate,
    predict_rows,
    save_model,
    split_dataset,
    train,
    train_pipeline,
)


def records_of(smiles: list[str], labels=None) -> list[DatasetRecord]:
    labels = labels or [None] * len(smiles)
    return [DatasetRecord(id=str(i), smiles=s, canonical_smiles=s, pic50=y)
            for i, (s, y) in enumerate(zip(smiles, labels))]


def featurized(model: MlpModel) -> MlpModel:
    """``model`` with the default feature spec and identity norm stats over
    its first ``layer_sizes[0]`` features, as ``save_model`` requires."""
    width = model.layer_sizes[0]
    model.feature_spec = FeatureSpec()
    model.norm_stats = NormStats(mean=np.zeros(width), std=np.ones(width), kept=np.arange(width))
    return model


@pytest.fixture(scope="module")
def feature_records(corpus):
    """Records of the bundled corpus and of generated compounds."""
    return {"corpus": records_of([smi for _, smi, _ in corpus]),
            "generator": records_of(Generator(4).grow(150))}


class TestPic50:
    def test_one_nanomolar(self):
        assert ic50_to_pic50(1.0) == 9.0

    def test_table_value(self):
        assert ic50_to_pic50(0.59) == pytest.approx(9.229, abs=1e-3)

    def test_micromolar(self):
        assert ic50_to_pic50(1000.0) == 6.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="IC50 must be positive, got 0.0"):
            ic50_to_pic50(0.0)
        with pytest.raises(ValueError, match="IC50 must be positive, got -3.0"):
            ic50_to_pic50(-3.0)


class TestDatasetRecord:
    def test_pic50_derived_from_ic50(self):
        r = DatasetRecord(id="1", smiles="C", canonical_smiles="C", ic50_nm=1.0)
        assert r.pic50 == 9.0

    def test_consistency_checked(self):
        with pytest.raises(ValueError):
            DatasetRecord(id="1", smiles="C", canonical_smiles="C", ic50_nm=1.0, pic50=5.0)


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
        with pytest.raises(ValueError, match="need at least 10 records, got 9"):
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

    def test_layer_sizes_are_read_from_the_weights(self):
        m = init_model([4, 3, 1])
        assert m.layer_sizes == [4, 3, 1]
        with pytest.raises(AttributeError):
            m.layer_sizes = [4, 2, 1]
        m.weights = [np.zeros((5, 4)), np.zeros((1, 5))]
        assert m.layer_sizes == [4, 5, 1]

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
        assert forward(m, np.zeros(3)[None])[0] == 4.25

    def test_identity_like_relu_passthrough(self):
        m = MlpModel(
            weights=[np.array([[1.0]]), np.array([[1.0]])],
            biases=[np.zeros(1), np.zeros(1)],
            activation="relu",
        )
        assert forward(m, np.array([2.5])[None])[0] == 2.5

    def test_matches_independent_oracle(self, rng):
        for activation in ("relu", "tanh"):
            m = init_model([5, 4, 3, 1], activation, seed=rng.randint(0, 999))
            x = [rng.uniform(-2, 2) for _ in range(5)]
            ours = forward(m, np.array(x)[None])[0]
            oracle = mlp_forward_oracle(
                [w.tolist() for w in m.weights],
                [b.tolist() for b in m.biases],
                activation,
                x,
            )
            assert ours == pytest.approx(oracle, abs=1e-10)

    def test_equals_independent_oracle_bit_for_bit(self):
        # Weights, biases and inputs in eighths below 2 keep every sum exact,
        # so the plain-python oracle's order of addition does not matter.
        gen = np.random.default_rng(5)
        for sizes in ([5, 4, 3, 1], [16, 8, 1], [3, 1]):
            weights = [gen.integers(-15, 16, (o, i)) / 8 for i, o in zip(sizes, sizes[1:])]
            biases = [gen.integers(-15, 16, o) / 8 for o in sizes[1:]]
            m = MlpModel(weights=weights, biases=biases, activation="relu")
            X = gen.integers(-15, 16, (20, sizes[0])) / 8
            expected = [mlp_forward_oracle([w.tolist() for w in weights],
                                           [b.tolist() for b in biases], "relu", row)
                        for row in X.tolist()]
            assert forward(m, X).tolist() == expected
            assert [forward(m, row[None])[0] for row in X] == expected

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_equals_the_training_pass_bit_for_bit(self, activation):
        m = init_model([40, 256, 64, 1], activation, seed=3)
        X = np.random.default_rng(3).normal(size=(300, 40))
        assert np.array_equal(forward(m, X), forward_pass_oracle(m, X)[0])

    def test_memory_holds_one_hidden_layer(self):
        # 2000 rows into a 256,64 net: the first hidden layer is one 2000 x
        # 256 float64 array (4.1 MB). Keeping every layer's pre-activation
        # and activation, as training's pass does, peaks at 2.5 of it.
        m = init_model([64, 256, 64, 1], "relu", seed=1)
        X = np.random.default_rng(1).normal(size=(2000, 64))
        tracemalloc.start()
        try:
            forward(m, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2000 * 256 * 8

    def test_shape_mismatch(self):
        m = init_model([3, 2, 1])
        with pytest.raises(ValueError, match=r"input shape \(1, 4\) != \(rows, 3\)"):
            forward(m, np.zeros((1, 4)))

    def test_one_row_must_be_a_batch(self):
        m = init_model([3, 2, 1])
        with pytest.raises(ValueError, match=r"input shape \(3,\) != \(rows, 3\)"):
            forward(m, np.zeros(3))


class TestMseLoss:
    def test_zero_when_equal(self):
        assert mse_loss([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_case(self):
        assert mse_loss([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_hand_value(self):
        assert mse_loss([1.0, 2.0, 3.0], [0.0, 0.0, 0.0]) == pytest.approx(14 / 3)

    def test_length_mismatch(self):
        message = "predictions and targets must have equal nonzero length"
        with pytest.raises(ValueError, match=message):
            mse_loss([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match=message):
            mse_loss([], [])


def flat(arrays) -> np.ndarray:
    """The arrays' elements end to end in one new float64 array."""
    return np.concatenate([a.reshape(-1) for a in arrays])


def adam_buffers(model: MlpModel):
    """Flat parameters of ``model``, gradient space and zero moments."""
    p = flat(model.parameter_list())
    return p, np.empty_like(p), np.zeros_like(p), np.zeros_like(p)


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        p, g, m, v = adam_buffers(init_model([3, 2, 1], seed=0))
        before, g[:] = p.copy(), 0.0
        adam_step(p, g, m, v, 1, lr=0.5)
        assert np.array_equal(p, before)
        assert not m.any() and not v.any()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_in_place_step_matches_seed_oracle(self, seed, tmp_path):
        # The 300 x 120 first layer spans two Adam chunks, the second partial.
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(50, 300))
        y = X[:, :12] @ np.linspace(-1.0, 1.0, 12) + rng.normal(size=50)
        cfg = TrainConfig(
            learning_rate=3e-3, batch_size=8, epochs=8, hidden_layers=(120, 8), seed=seed,
        )
        new, old = init_model([300, 120, 8, 1], seed=seed), init_model([300, 120, 8, 1], seed=seed)
        losses = train(new, (X, y), cfg)
        old_losses, state = train_oracle(old, X, y, cfg)
        assert state.t == 8 * 7
        assert losses == old_losses
        for a, b in zip(new.parameter_list(), old.parameter_list()):
            assert np.array_equal(a, b)
        runs = []
        for model in (new, old):
            save_model(featurized(model), str(tmp_path / "model.json"))
            runs.append((tmp_path / "model.json").read_bytes())
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("g", [3.0, -0.25])
    def test_first_step_is_signed_learning_rate(self, g):
        p, grads, m, v = adam_buffers(init_model([2, 1], seed=0))
        before, grads[:] = p.copy(), g
        adam_step(p, grads, m, v, 1, lr=0.01)
        assert np.allclose(p - before, -0.01 * np.sign(g), rtol=1e-6)

    def test_identical_trajectories(self):
        runs = [adam_buffers(init_model([3, 2, 1], seed=9)) for _ in range(2)]
        grads = np.random.default_rng(0).normal(size=runs[0][0].size)
        for p, g, m, v in runs:
            for t in (1, 2):
                g[:] = grads
                adam_step(p, g, m, v, t, lr=0.01)
        assert np.array_equal(runs[0][0], runs[1][0])

    @pytest.mark.parametrize(
        "chunk, sizes",
        [(1, [9, 6, 1]), (7, [40, 30, 1]), (4096, [1200, 300, 1]),
         (pdenet.ADAM_CHUNK, [1200, 300, 1])],
    )
    def test_chunked_steps_match_seed_oracle(self, chunk, sizes, monkeypatch):
        # Every step spans several chunks and, past chunk 1, ends in a partial one.
        old = init_model(sizes, seed=4).parameter_list()
        p, g, m, v = adam_buffers(init_model(sizes, seed=4))
        assert p.size > chunk and (chunk == 1 or p.size % chunk)
        monkeypatch.setattr(pdenet, "ADAM_CHUNK", chunk)
        rng, state = np.random.default_rng(chunk), None
        for t in range(1, 5):
            grads = [rng.normal(size=x.shape) for x in old]
            g[:] = flat(grads)
            adam_step(p, g, m, v, t, lr=0.01)
            state = adam_step_oracle(old, grads, 0.01, state)
        assert state.t == 4
        for a, b in ((p, old), (m, state.m), (v, state.v)):
            assert np.array_equal(a, flat(b))

    @pytest.mark.parametrize("parts", [1, 2])
    @pytest.mark.parametrize(
        "chunk, sizes",
        [(pdenet.ADAM_CHUNK, [pdenet.ADAM_CHUNK // 32 * full + 100, 32, 1])
         for full in (0, 1, 3, 4, 5, 10)] + [(1, [9, 6, 1]), (7, [40, 30, 1])],
    )
    def test_shared_steps_match_seed_oracle(self, chunk, sizes, parts, monkeypatch):
        # At ADAM_CHUNK the parameters hold 0 to 10 full chunks and a partial
        # one. Given a worker (two parts), it takes every other chunk of a
        # step that holds at least four full ones; without one, or with
        # fewer chunks, the caller does all.
        monkeypatch.setattr(pdenet, "ADAM_CHUNK", chunk)
        calls, update = [], pdenet._adam_update

        def recorded_update(p, g, m, v, starts, *args):
            calls.append((threading.get_ident(), len(starts)))
            update(p, g, m, v, starts, *args)

        monkeypatch.setattr(pdenet, "_adam_update", recorded_update)
        old = init_model(sizes, seed=4).parameter_list()
        p, g, m, v = adam_buffers(init_model(sizes, seed=4))
        rng, state = np.random.default_rng(sizes[0]), None
        with ThreadPoolExecutor(max_workers=1) as executor:
            for t in range(1, 4):
                grads = [rng.normal(size=x.shape) for x in old]
                g[:] = flat(grads)
                adam_step(p, g, m, v, t, lr=0.01, worker=executor if parts == 2 else None)
                state = adam_step_oracle(old, grads, 0.01, state)
        assert state.t == 3
        for a, b in ((p, old), (m, state.m), (v, state.v)):
            assert np.array_equal(a, flat(b))
        chunks = -(-p.size // chunk)
        worker = [n for ident, n in calls if ident != threading.get_ident()]
        assert worker == ([chunks // 2] * 3 if parts == 2 and p.size >= 4 * chunk else [])

    @pytest.mark.parametrize("parts", [1, 2])
    def test_worker_thread_lives_only_as_long_as_train(self, parts, monkeypatch):
        # The first layer holds four full chunks, so with two parts the worker
        # shares every step; with one, train starts no thread at all.
        monkeypatch.setattr(pdenet, "ADAM_PARTS", parts)
        runners, update = set(), pdenet._adam_update

        def recorded_update(*args):
            runners.add(threading.current_thread().name)
            update(*args)

        started, start = [], threading.Thread.start

        def recorded_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(pdenet, "_adam_update", recorded_update)
        monkeypatch.setattr(threading.Thread, "start", recorded_start)
        sizes = [pdenet.ADAM_CHUNK // 32 * 4 + 100, 32, 1]
        rng = np.random.default_rng(0)
        X, y = rng.normal(size=(16, sizes[0])), rng.normal(size=16)
        train(init_model(sizes, seed=0), (X, y), TrainConfig(epochs=2, batch_size=8))
        caller = threading.current_thread().name
        assert not [t.name for t in threading.enumerate() if t.name.startswith("adam")]
        assert [name for name in started if name.startswith("adam")] == (
            ["adam_0"] if parts == 2 else [])
        assert runners == ({caller, "adam_0"} if parts == 2 else {caller})

    def test_train_step_memory_is_bounded(self):
        # One step of a 1112-256-64-1 net held about 5 MB of temporaries
        # when gradients and Adam scratch were parameter-sized.
        model = init_model([1112, 256, 64, 1], seed=0)
        rng = np.random.default_rng(0)
        X, y = rng.normal(size=(32, 1112)), rng.normal(size=32)
        p, g, m, v = adam_buffers(model)
        params = pdenet._views(p, model.parameter_list())
        model.weights, model.biases = params[::2], params[1::2]
        grads = pdenet._views(g, params)
        backprop(model, X, y, out=grads)  # warm-up
        adam_step(p, g, m, v, 1, lr=1e-3)
        tracemalloc.start()
        try:
            for t in range(2, 7):
                backprop(model, X, y, out=grads)
                adam_step(p, g, m, v, t, lr=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


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

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("rows", [32, 11])  # a full and a final partial batch
    def test_backprop_matches_seed_oracle_bitwise(self, activation, rows):
        # The second input, its weights and its biases are integers, so some
        # hidden pre-activations are exactly zero: there backprop reads the
        # derivative from the activation (a > 0), the seed from z (z > 0).
        model = init_model([40, 24, 8, 1], activation, seed=3)
        rng = np.random.default_rng(rows)
        X, y = rng.normal(size=(rows, 40)), rng.normal(size=rows)
        integral = init_model([40, 24, 8, 1], activation, seed=3)
        for p in integral.parameter_list():
            p[...] = rng.integers(-2, 3, p.shape)
        X_integral = rng.integers(-2, 3, (rows, 40)).astype(float)
        for model, X in ((model, X), (integral, X_integral)):
            expected, expected_loss = backprop_oracle(model, X, y)
            fresh, fresh_loss = backprop(model, X, y)
            out = [np.full_like(p, np.nan) for p in model.parameter_list()]
            written, written_loss = backprop(model, X, y, out=out)
            assert written is out
            assert fresh_loss == written_loss == expected_loss
            for e, f, w in zip(expected, fresh, written):
                assert np.array_equal(e, f) and np.array_equal(e, w)
        _, zs, activations = forward_pass_oracle(integral, X_integral)
        assert (zs[0] == 0).any()
        for z, a in zip(zs[:-1], activations[1:-1]):
            ours = pdenet._act_grad(a, activation)
            assert ours.tobytes() == act_grad_oracle(z, activation).tobytes()

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_derivative_from_activation_matches_seed_at_edge_values(self, activation):
        # No GEMM plus bias gave a -0.0 pre-activation, so the signed zeros
        # are written out, with subnormals and non-finite values.
        z = np.array([-0.0, 0.0, -5e-324, 5e-324, -1.5, 0.25, 30.0, -np.inf, np.inf, np.nan])
        a = z.copy()
        pdenet._act(a, activation, out=a)  # in place, as a layer is activated
        ours = pdenet._act_grad(a, activation)
        assert ours.tobytes() == act_grad_oracle(z, activation).tobytes()


class TestTrain:
    def overfit_fixture(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, size=(20, 3))
        y = 2 * X[:, 0] - 3 * X[:, 1] + 0.5 * X[:, 2] + 0.25
        return X, y

    def test_overfits_synthetic_linear_data(self):
        X, y = self.overfit_fixture()
        cfg = TrainConfig(learning_rate=0.02, batch_size=32, epochs=2000,
                          hidden_layers=(32,), seed=5)
        model = init_model([3, 32, 1], "relu", seed=5)
        losses = train(model, (X, y), cfg)
        assert losses[-1] < 1e-4
        assert losses[-1] < losses[0]

    @pytest.mark.parametrize("lr", [0.0, -1e-3, math.nan, math.inf])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="must be finite and positive"):
            TrainConfig(learning_rate=lr)

    def test_zero_epochs_is_identity(self):
        X, y = self.overfit_fixture()
        model = init_model([3, 8, 1], seed=2)
        before = [p.copy() for p in model.parameter_list()]
        assert train(model, (X, y), TrainConfig(epochs=0, seed=2)) == []
        assert all(np.array_equal(a, b) for a, b in zip(before, model.parameter_list()))

    def test_one_loss_per_epoch(self):
        X, y = self.overfit_fixture()
        model = init_model([3, 8, 1], seed=2)
        losses = train(model, (X, y), TrainConfig(epochs=5, seed=2))
        assert len(losses) == 5
        assert all(v >= 0 for v in losses)

    def test_diverging_run_stops_at_first_non_finite_epoch(self, monkeypatch):
        X, y = self.overfit_fixture()
        model = init_model([3, 8, 1], seed=2)
        steps, step = [], pdenet.adam_step
        monkeypatch.setattr(pdenet, "adam_step", lambda p, g, m, v, t, *args: (
            steps.append(t), step(p, g, m, v, t, *args)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning escapes
            with pytest.raises(ValueError, match="^training diverged at epoch 1$"):
                train(model, (X, y), TrainConfig(learning_rate=1e300, epochs=10,
                                                 batch_size=8, seed=2))
        assert steps == [1, 2, 3]  # the three batches of epoch 1, no more

    def test_parameters_are_views_of_one_buffer(self):
        X, y = self.overfit_fixture()
        model = init_model([3, 8, 4, 1], seed=2)
        before = model.parameter_list()
        train(model, (X, y), TrainConfig(epochs=2, batch_size=8, seed=2))
        buffer = model.weights[0].base
        assert buffer.ndim == 1 and buffer.flags.c_contiguous
        assert buffer.size == sum(p.size for p in model.parameter_list())
        for p, old in zip(model.parameter_list(), before):
            assert p.base is buffer and np.shares_memory(p, buffer)
            assert p.shape == old.shape and not np.shares_memory(p, old)
        assert model.layer_sizes == [3, 8, 4, 1]

    def test_second_call_starts_from_zero_moments(self, tmp_path):
        # A second train on the same model writes the bytes of a fresh model
        # built from the first call's weights: no state carries over.
        X, y = self.overfit_fixture()
        cfg = TrainConfig(learning_rate=0.01, epochs=3, batch_size=8, seed=4)
        model = init_model([3, 8, 4, 1], "tanh", seed=4)
        train(model, (X, y), cfg)
        fresh = MlpModel([w.copy() for w in model.weights], [b.copy() for b in model.biases],
                         "tanh")
        curves = [train(m, (X, y), cfg) for m in (model, fresh)]
        assert curves[0] == curves[1]
        files = []
        for n, m in enumerate((model, fresh)):
            save_model(featurized(m), str(tmp_path / f"{n}.json"))
            files.append((tmp_path / f"{n}.json").read_bytes())
        assert files[0] == files[1]

    def test_fortran_ordered_weights_train_like_c_ordered(self):
        X, y = self.overfit_fixture()
        cfg = TrainConfig(epochs=3, batch_size=8, seed=2)
        models = [init_model([3, 8, 1], seed=2) for _ in range(2)]
        models[1].weights = [np.asfortranarray(w) for w in models[1].weights]
        curves = [train(m, (X, y), cfg) for m in models]
        assert curves[0] == curves[1]
        for a, b in zip(models[0].parameter_list(), models[1].parameter_list()):
            assert b.flags.c_contiguous and np.array_equal(a, b)

    def test_bit_identical_curves_for_fixed_seed(self):
        X, y = self.overfit_fixture()
        curves = []
        for _ in range(2):
            model = init_model([3, 8, 1], seed=6)
            curves.append(train(model, (X, y), TrainConfig(epochs=20, batch_size=4, seed=6)))
        assert curves[0] == curves[1]


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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.bool_])
    @pytest.mark.parametrize("source", ["corpus", "generator"])
    def test_apply_equals_out_of_place_oracle_and_leaves_its_input(
            self, feature_records, source, dtype):
        X, _ = featurize_records(feature_records[source], FeatureSpec())
        stats = fit_norm_stats(X)
        X = X.astype(dtype)
        before = X.copy()
        Z = stats.apply(X)
        expected = norm_apply_oracle(stats, X)
        assert Z.dtype == expected.dtype == np.float64
        assert np.array_equal(Z, expected)
        assert X.dtype == before.dtype and np.array_equal(X, before)


def gate_model(nbits=2048):
    """Single linear unit reading the heavy-atom-count feature so C, CC and
    CCC predict exactly 5.69, 5.70 and 5.71."""
    spec = FeatureSpec()
    heavy_idx = nbits + list(spec.descriptors).index("heavy_atoms")
    model = MlpModel(
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


def scoring_model(records, hidden, activation, seed) -> MlpModel:
    """A model over the default features of ``records``: norm stats fitted
    to them, scaled-uniform weights and normal biases."""
    X, _ = featurize_records(records, FeatureSpec())
    stats = fit_norm_stats(X)
    model = init_model([int(stats.kept.size), *hidden, 1], activation, seed)
    gen = np.random.default_rng(seed)
    model.biases = [gen.normal(size=b.shape) for b in model.biases]
    model.feature_spec, model.norm_stats = FeatureSpec(), stats
    return model


class TestPredictRows:
    BLOCKS = (1, PREDICT_BLOCK - 1, PREDICT_BLOCK, PREDICT_BLOCK + 1)

    @pytest.mark.parametrize("hidden", [(64, 16), (256, 64)], ids=["64,16", "256,64"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("source", ["corpus", "generator"])
    def test_equals_single_row_oracle_bit_for_bit(self, feature_records, source, activation,
                                                   hidden):
        records = feature_records[source]
        model = scoring_model(records, hidden, activation, seed=len(hidden) + len(activation))
        X, _ = featurize_records(records, FeatureSpec())
        expected = [predict_pic50_oracle(model, parse_smiles(r.canonical_smiles))
                    for r in records]
        # Repeated rows, so every block size fills more than one block.
        reps = -(-2 * max(self.BLOCKS) // len(records))
        X, expected = np.tile(X, (reps, 1)), expected * reps
        for block in self.BLOCKS:
            got = [v for lo in range(0, len(X), block)
                   for v in predict_rows(model, X[lo:lo + block])]
            assert got == expected, block
        # One float64 into its buffer, for the raw rows and the normalized ones.
        shifted = np.empty(X.size + 1)[1:].reshape(X.shape)
        shifted[:] = X
        assert predict_rows(model, shifted).tolist() == expected
        Z = model.norm_stats.apply(X)
        shifted = np.empty(Z.size + 1)[1:].reshape(Z.shape)
        shifted[:] = Z
        assert forward(model, shifted, rowwise=True).tolist() == expected

    def test_row_value_independent_of_its_block(self, feature_records):
        records = feature_records["generator"]
        model = scoring_model(records, (256, 64), "relu", seed=11)
        X, _ = featurize_records(records, FeatureSpec())
        alone = [predict_rows(model, X[n:n + 1])[0] for n in range(len(X))]
        gen = np.random.default_rng(11)
        for size in (2, 7, PREDICT_BLOCK, len(X)):
            rows = gen.choice(len(X), size, replace=False)
            assert predict_rows(model, X[rows]).tolist() == [alone[n] for n in rows], size

    def test_gate_equals_single_row_oracle(self, feature_records):
        records = feature_records["generator"]
        model = scoring_model(records, (64, 16), "tanh", seed=4)
        expected = {r.id: predict_pic50_oracle(model, parse_smiles(r.canonical_smiles))
                    for r in records}
        assert {p.id: p.pic50 for p in predict_and_gate(model, records)} == expected


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
        def boom(mol, spec, out):
            raise RuntimeError("bug")

        monkeypatch.setattr(pdenet, "featurize_molecule", boom)
        records = [DatasetRecord(id="ok", smiles="CC", canonical_smiles="CC")]
        with pytest.raises(RuntimeError):
            predict_and_gate(gate_model(), records)


class TestEvaluate:
    def test_perfect_predictor(self):
        m = MlpModel([np.array([[1.0]])], [np.zeros(1)], activation="relu")
        X = np.array([[1.0], [2.0], [4.0]])
        y = np.array([1.0, 2.0, 4.0])
        result = evaluate(m, X, y)
        assert result.mse == 0.0 and result.r2 == 1.0

    def test_mean_predictor_r2_zero(self):
        m = MlpModel([np.array([[0.0]])], [np.array([2.0])], activation="relu")
        X = np.array([[9.0], [9.0], [9.0], [9.0]])
        y = np.array([1.0, 2.0, 2.0, 3.0])
        assert evaluate(m, X, y).r2 == pytest.approx(0.0)



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
        assert forward(loaded, x[None])[0] == pytest.approx(forward(model, x[None])[0], abs=1e-12)
        assert loaded.target == "PDE4"
        assert loaded.train_meta["seed"] == 12

    def test_trained_model_bytes_equal_json_dump(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 6))
        y = X @ np.linspace(-1.0, 1.0, 6) + 6.0
        stats = fit_norm_stats(X)
        model = init_model([6, 5, 1], "tanh", seed=5, target="PDE7")
        train(model, (stats.apply(X), y), TrainConfig(epochs=5, batch_size=8, seed=5))
        model.feature_spec = FeatureSpec()
        model.norm_stats = stats
        model.train_meta = {"seed": 5, "epochs": 5, "lr": 1e-3, "batch_size": 8}
        path = tmp_path / "m.json"
        save_model(model, str(path))
        written = path.read_text()
        doc = json.loads(written)  # floats round-trip exactly
        expected = io.StringIO()
        json.dump(doc, expected)
        assert written == expected.getvalue()
        assert doc["weights"][0][0][0] == float(model.weights[0][0][0])

    def test_three_layer_tanh_model_bytes_equal_json_dump(self, tmp_path):
        model = init_model([7, 5, 3, 1], "tanh", seed=8, target="PDE4")
        model.feature_spec = FeatureSpec()
        model.norm_stats = NormStats(mean=np.zeros(7), std=np.ones(7), kept=np.arange(7))
        assert model.train_meta == {}
        path = tmp_path / "m.json"
        save_model(model, str(path))
        written = path.read_text()
        doc = json.loads(written)
        expected = io.StringIO()
        json.dump(doc, expected)
        assert written == expected.getvalue()
        assert [np.array(w).shape for w in doc["weights"]] == [(5, 7), (3, 5), (1, 3)]
        assert doc["weights"] == [w.tolist() for w in model.weights]
        assert doc["activation"] == "tanh" and doc["train_meta"] == {}

    def test_version_validated(self, tmp_path):
        model = featurized(init_model([2, 1], seed=0))
        path = tmp_path / "m.json"
        save_model(model, str(path))
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_model(str(path))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_model_not_saved(self, bad, tmp_path):
        model = featurized(init_model([3, 2, 1], seed=0))
        model.biases[1][0] = bad
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match="non-finite weight or bias in layer 1"):
            save_model(model, str(path))
        assert not path.exists()

    @pytest.mark.parametrize("missing", ["feature_spec", "norm_stats"])
    def test_unfeaturized_model_not_saved(self, missing, tmp_path):
        model = featurized(init_model([3, 2, 1], seed=0))
        setattr(model, missing, None)
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match="model lacks featurization config or norm stats"):
            save_model(model, str(path))
        assert not path.exists()

    def test_shapes_validated(self, tmp_path):
        model = featurized(init_model([3, 2, 1], seed=0))
        path = tmp_path / "m.json"
        save_model(model, str(path))
        doc = json.loads(path.read_text())
        doc["weights"][0] = [[1.0, 2.0]]  # wrong fan-in
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_model(str(path))


class TestFeaturize:
    def test_rows_that_fail_to_parse_are_skipped_with_their_labels(self, caplog):
        records = records_of(["CCO", "C1CC", "CCN"], [5.0, 6.0, 7.0])
        with caplog.at_level("WARNING"):
            X, y = featurize_records(records, FeatureSpec())
        good, _ = featurize_records([records[0], records[2]], FeatureSpec())
        assert np.array_equal(X, good) and y.tolist() == [5.0, 7.0]
        assert [r.getMessage() for r in caplog.records] == [
            "skipping 1: unmatched ring closure digit(s): [1]"]
        with pytest.raises(ValueError, match="^no records to featurize$"):
            featurize_records([records[1]], FeatureSpec())

    def test_unlabeled_rows_have_nan_labels(self):
        _, y = featurize_records(records_of(["CCO", "CCN"], [None, 4.0]), FeatureSpec())
        assert np.isnan(y[0]) and y[1] == 4.0

    def test_unexpected_errors_propagate(self, monkeypatch):
        def boom(mol, spec, out):
            raise RuntimeError("bug")

        monkeypatch.setattr(pdenet, "featurize_molecule", boom)
        records = [DatasetRecord(id="ok", smiles="CC", canonical_smiles="CC")]
        with pytest.raises(RuntimeError):
            featurize_records(records, FeatureSpec())

    @pytest.mark.parametrize("source", ["corpus", "generator"])
    def test_matrix_equals_stacked_rows_oracle(self, feature_records, source):
        X, _ = featurize_records(feature_records[source], FeatureSpec())
        expected = featurize_records_oracle(feature_records[source], FeatureSpec())
        assert X.dtype == expected.dtype == np.float64
        assert np.array_equal(X, expected)

    def test_no_records_raise(self):
        for featurize in (featurize_records, featurize_records_oracle):
            with pytest.raises(ValueError):
                featurize([], FeatureSpec())

    def test_width_and_descriptor_tail(self):
        spec = FeatureSpec()
        x = feature_row(parse_smiles("CCO"), spec)
        assert len(x) == spec.width() == 2048 + 7
        assert x[-1] == 3  # heavy atoms is the last configured descriptor


class TestTrainPipeline:
    def test_peak_memory_in_units_of_its_arrays(self):
        # Training must hold the weights, their gradients and two Adam moments
        # (four times the parameter bytes) and the normalized training matrix;
        # the epoch-loss forward pass and Adam's scratch add the rest. The
        # peak reads 1.17 times those arrays, and 1.50 when the raw feature
        # matrix stays alive through training. The memo of environment ids is
        # filled first, so its growth is not counted.
        smiles = Generator(7).grow(300)
        records = records_of(smiles, descriptor_labels(smiles, random.Random(7), 6.0))
        fingerprints._ENV_IDS.clear()
        featurize_records(records, FeatureSpec())
        tracemalloc.start()
        try:
            model, _, _ = train_pipeline(records, TrainConfig(epochs=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        param_bytes = sum(p.nbytes for p in model.parameter_list())
        normalized_bytes = model.train_meta["n_train"] * model.layer_sizes[0] * 8
        assert peak < 1.3 * (4 * param_bytes + normalized_bytes)
