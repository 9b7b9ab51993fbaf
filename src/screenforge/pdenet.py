"""Feed-forward pIC50 regressor: featurization, backprop, the adaptive
moment optimizer, mini-batch training, dataset splitting, and the strict
activity gate.

Everything is double precision and fully seeded; the same seed gives a
bit-identical loss curve on one platform. Models persist as versioned
JSON documents carrying the featurization config and normalization stats
so prediction never depends on external state.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .chem_graph import Molecule, parse_smiles
from .descriptors import compute_descriptors
from .fingerprints import FingerprintConfig, circular_fingerprint

log = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1
DEFAULT_GATE_THRESHOLD = 5.7
# Label derivation for sources without an explicit active column; distinct
# from the screening gate and configurable.
ACTIVE_LABEL_PIC50 = 6.0
DESCRIPTOR_FEATURES = ("mw", "tpsa", "wlogp", "hbd", "hba", "rotatable_bonds", "heavy_atoms")


class NonPositiveIC50(ValueError):
    pass


class TooFewRecords(ValueError):
    pass


class ShapeMismatch(ValueError):
    pass


class LengthMismatch(ValueError):
    pass


class FeaturizationFailure(ValueError):
    pass


def ic50_to_pic50(ic50_nm: float) -> float:
    """pIC50 = 9 - log10(IC50 in nanomolar)."""
    if not ic50_nm > 0:
        raise NonPositiveIC50(f"IC50 must be positive, got {ic50_nm}")
    return 9.0 - math.log10(ic50_nm)


@dataclass
class DatasetRecord:
    id: str
    smiles: str
    canonical_smiles: str
    name: str | None = None
    ic50_nm: float | None = None
    pic50: float | None = None
    target: str | None = None
    active: bool | None = None
    class_label: str | None = None

    def __post_init__(self):
        if self.ic50_nm is not None:
            derived = ic50_to_pic50(self.ic50_nm)
            if self.pic50 is None:
                self.pic50 = derived
            elif abs(self.pic50 - derived) > 1e-6:
                raise ValueError(
                    f"record {self.id}: pic50 {self.pic50} inconsistent with "
                    f"ic50_nm {self.ic50_nm} (expected {derived:.6f})"
                )
        if self.active is None and self.pic50 is not None:
            self.active = self.pic50 >= ACTIVE_LABEL_PIC50


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 200
    hidden_layers: tuple[int, ...] = (256, 64)
    activation: str = "relu"
    dropout_rate: float = 0.0
    seed: int = 0
    train_frac: float = 0.78
    test_frac: float = 0.12

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("bad optimizer settings")
        if any(w < 1 for w in self.hidden_layers):
            raise ValueError("hidden widths must be >= 1")
        if self.activation not in ("relu", "tanh"):
            raise ValueError("activation must be relu or tanh")
        if not 0 <= self.dropout_rate < 1:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.train_frac + self.test_frac > 1 + 1e-12:
            raise ValueError("train_frac + test_frac must not exceed 1")


@dataclass(frozen=True)
class FeatureSpec:
    fingerprint: FingerprintConfig = FingerprintConfig()
    descriptors: tuple[str, ...] = DESCRIPTOR_FEATURES

    def width(self) -> int:
        return self.fingerprint.nbits + len(self.descriptors)


@dataclass(frozen=True)
class NormStats:
    mean: np.ndarray
    std: np.ndarray
    kept: np.ndarray  # indices of retained (non-constant) raw features

    def apply(self, X: np.ndarray) -> np.ndarray:
        return (X[:, self.kept] - self.mean) / self.std


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0


@dataclass
class LossCurve:
    train_mse: list[float] = field(default_factory=list)
    val_mse: list[float] = field(default_factory=list)


@dataclass
class MlpModel:
    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "relu"
    target: str = "custom"
    feature_spec: FeatureSpec | None = None
    norm_stats: NormStats | None = None
    adam_state: AdamState | None = None
    train_meta: dict = field(default_factory=dict)

    def parameter_list(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out


def init_model(
    layer_sizes: list[int], activation: str = "relu", seed: int = 0, target: str = "custom"
) -> MlpModel:
    """Scaled-uniform weight init (half-width 1/sqrt(fan_in)) and zero
    biases; byte-identical for a fixed seed. The optimizer state is left
    unset: ``adam_step`` zero-initializes it on the first step."""
    if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
        raise ValueError("layer_sizes needs at least input and output sizes >= 1")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        scale = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-scale, scale, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(
        layer_sizes=list(layer_sizes),
        weights=weights,
        biases=biases,
        activation=activation,
        target=target,
    )


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    return np.maximum(z, 0.0) if kind == "relu" else np.tanh(z)


def _act_grad(z: np.ndarray, kind: str) -> np.ndarray:
    return (z > 0).astype(float) if kind == "relu" else 1.0 - np.tanh(z) ** 2


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Affine-activation chain with a linear head. ``x`` is one normalized
    feature vector or a batch (rows); returns scalar predictions."""
    X = np.atleast_2d(np.asarray(x, dtype=float))
    if X.shape[1] != model.layer_sizes[0]:
        raise ShapeMismatch(
            f"input width {X.shape[1]} != model input {model.layer_sizes[0]}"
        )
    out = _forward_pass(model, X)[0]
    return float(out[0]) if np.ndim(x) == 1 else out


def mse_loss(predictions, targets) -> float:
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape or p.size == 0:
        raise LengthMismatch("predictions and targets must have equal nonzero length")
    return float(np.mean((p - t) ** 2))


def _forward_pass(model, X, dropout_rate=0.0, rng=None):
    """Returns (prediction, per-layer z, per-layer activations, masks)."""
    a = X
    activations = [a]
    zs = []
    masks = []
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w.T + b
        zs.append(z)
        if i == last:
            a = z
        else:
            a = _act(z, model.activation)
            if dropout_rate > 0.0 and rng is not None:
                mask = (rng.random(a.shape) >= dropout_rate) / (1.0 - dropout_rate)
                a = a * mask
                masks.append(mask)
            else:
                masks.append(None)
        activations.append(a)
    return a[:, 0], zs, activations, masks


def backprop(model: MlpModel, X: np.ndarray, y: np.ndarray,
             dropout_rate: float = 0.0, rng=None) -> tuple[list[np.ndarray], float]:
    """Gradients of the batch MSE with respect to every weight and bias,
    ordered like ``model.parameter_list()``; also returns the batch loss."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1)
    if X.shape[0] != y.shape[0]:
        raise LengthMismatch("X rows and y length differ")
    pred, zs, activations, masks = _forward_pass(model, X, dropout_rate, rng)
    batch = X.shape[0]
    loss = float(np.mean((pred - y) ** 2))
    delta = (2.0 * (pred - y) / batch)[:, None]
    grads: list[np.ndarray] = []
    for layer in range(len(model.weights) - 1, -1, -1):
        a_prev = activations[layer]
        grads.append(delta.sum(axis=0))        # bias
        grads.append(delta.T @ a_prev)         # weight
        if layer > 0:
            delta = delta @ model.weights[layer]
            if masks[layer - 1] is not None:
                delta = delta * masks[layer - 1]
            delta = delta * _act_grad(zs[layer - 1], model.activation)
    grads.reverse()
    return grads, loss


def adam_step(
    model: MlpModel,
    gradients: list[np.ndarray],
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> MlpModel:
    """Bias-corrected first/second-moment update, in place; returns model."""
    params = model.parameter_list()
    state = model.adam_state
    if state is None:
        state = AdamState(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )
        model.adam_state = state
    if len(gradients) != len(params):
        raise ShapeMismatch("gradient count != parameter count")
    for g, p in zip(gradients, params):
        if g.shape != p.shape:
            raise ShapeMismatch(f"gradient shape {g.shape} != parameter {p.shape}")
    state.t += 1
    t = state.t
    for i, (g, p) in enumerate(zip(gradients, params)):
        state.m[i] = beta1 * state.m[i] + (1 - beta1) * g
        state.v[i] = beta2 * state.v[i] + (1 - beta2) * g * g
        m_hat = state.m[i] / (1 - beta1**t)
        v_hat = state.v[i] / (1 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return model


def train(
    model: MlpModel,
    train_data: tuple[np.ndarray, np.ndarray],
    val_data: tuple[np.ndarray, np.ndarray] | None,
    cfg: TrainConfig,
) -> tuple[MlpModel, LossCurve]:
    """Mini-batch training: per-epoch seeded shuffle, backprop, one
    optimizer step per batch; records full-pass train/validation MSE per
    epoch with dropout off."""
    X, y = np.asarray(train_data[0], dtype=float), np.asarray(train_data[1], dtype=float)
    if X.size == 0:
        raise ValueError("empty training set")
    curve = LossCurve()
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(y), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            grads, _ = backprop(model, X[batch], y[batch], cfg.dropout_rate, rng)
            adam_step(model, grads, cfg.learning_rate)
        curve.train_mse.append(mse_loss(forward(model, X), y))
        if val_data is not None and len(val_data[1]):
            curve.val_mse.append(
                mse_loss(forward(model, np.asarray(val_data[0], dtype=float)),
                         np.asarray(val_data[1], dtype=float))
            )
        else:
            curve.val_mse.append(float("nan"))
    return model, curve


def split_dataset(records: list, cfg: TrainConfig) -> tuple[list, list, list]:
    """Seeded shuffle, then floor(train_frac*n) / floor(test_frac*n) /
    remainder. The 1e-9 nudge keeps two-decimal fractions exact against
    float rounding."""
    n = len(records)
    if n < 10:
        raise TooFewRecords(f"need at least 10 records, got {n}")
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(n)
    n_train = int(math.floor(cfg.train_frac * n + 1e-9))
    n_test = int(math.floor(cfg.test_frac * n + 1e-9))
    shuffled = [records[i] for i in order]
    return (
        shuffled[:n_train],
        shuffled[n_train:n_train + n_test],
        shuffled[n_train + n_test:],
    )


# ---------------------------------------------------------------------------
# Featurization and normalization
# ---------------------------------------------------------------------------

def featurize_molecule(mol: Molecule, spec: FeatureSpec) -> np.ndarray:
    fp = circular_fingerprint(mol, spec.fingerprint)
    desc = compute_descriptors(mol)
    tail = [float(getattr(desc, name)) for name in spec.descriptors]
    return np.concatenate([fp.bits.astype(float), np.asarray(tail)])


def featurize_records(records: list[DatasetRecord], spec: FeatureSpec) -> np.ndarray:
    rows = []
    for record in records:
        try:
            rows.append(featurize_molecule(parse_smiles(record.canonical_smiles), spec))
        except ValueError as exc:
            raise FeaturizationFailure(f"record {record.id}: {exc}") from exc
    return np.stack(rows)


def fit_norm_stats(X: np.ndarray) -> NormStats:
    """Per-feature mean/std over the training matrix; zero-variance
    features are dropped and their indices recorded implicitly by `kept`."""
    X = np.asarray(X, dtype=float)
    std = X.std(axis=0)
    kept = np.flatnonzero(std > 0)
    if kept.size == 0:
        raise ValueError("every feature is constant; nothing to train on")
    return NormStats(mean=X[:, kept].mean(axis=0), std=std[kept], kept=kept)


def predict_pic50(model: MlpModel, mol: Molecule) -> float:
    if model.feature_spec is None or model.norm_stats is None:
        raise ValueError("model lacks featurization config or norm stats")
    raw = featurize_molecule(mol, model.feature_spec)[None, :]
    return float(forward(model, model.norm_stats.apply(raw))[0])


@dataclass(frozen=True)
class GatedPrediction:
    id: str
    name: str | None
    pic50: float
    active: bool


def predict_and_gate(
    model: MlpModel,
    records: list[DatasetRecord],
    threshold: float = DEFAULT_GATE_THRESHOLD,
) -> list[GatedPrediction]:
    """Featurize, predict, and gate (strictly greater than the threshold);
    ranked by descending pIC50, ties by id. Failing molecules are skipped
    and logged."""
    out = []
    for record in records:
        try:
            mol = parse_smiles(record.canonical_smiles)
            pic50 = predict_pic50(model, mol)
        except ValueError as exc:
            log.warning("skipping %s: featurization failed (%s)", record.id, exc)
            continue
        out.append(GatedPrediction(record.id, record.name, pic50, pic50 > threshold))
    out.sort(key=lambda p: (-p.pic50, p.id))
    return out


@dataclass(frozen=True)
class EvalResult:
    mse: float
    r2: float
    confusion: dict[str, int]  # tp/fp/fn/tn at the activity gate


def evaluate(
    model: MlpModel,
    X: np.ndarray,
    y: np.ndarray,
    threshold: float = DEFAULT_GATE_THRESHOLD,
) -> EvalResult:
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise LengthMismatch("empty test set")
    pred = np.atleast_1d(forward(model, np.asarray(X, dtype=float)))
    mse = mse_loss(pred, y)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum((y - pred) ** 2))
    if ss_tot == 0:
        r2 = 1.0 if ss_res == 0 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    pa, aa = pred > threshold, y > threshold
    confusion = {
        "tp": int(np.sum(pa & aa)),
        "fp": int(np.sum(pa & ~aa)),
        "fn": int(np.sum(~pa & aa)),
        "tn": int(np.sum(~pa & ~aa)),
    }
    return EvalResult(mse=mse, r2=r2, confusion=confusion)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_model(model: MlpModel, path: str) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "target": model.target,
        "layer_sizes": model.layer_sizes,
        "activation": model.activation,
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "feature_config": None
        if model.feature_spec is None
        else {
            "radius": model.feature_spec.fingerprint.radius,
            "nbits": model.feature_spec.fingerprint.nbits,
            "hash_seed": model.feature_spec.fingerprint.hash_seed,
            "descriptors": list(model.feature_spec.descriptors),
        },
        "norm_stats": None
        if model.norm_stats is None
        else {
            "mean": model.norm_stats.mean.tolist(),
            "std": model.norm_stats.std.tolist(),
            "kept": model.norm_stats.kept.tolist(),
        },
        "train_meta": model.train_meta,
    }
    with open(path, "w") as handle:
        json.dump(doc, handle)


def load_model(path: str) -> MlpModel:
    with open(path) as handle:
        doc = json.load(handle)
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version {doc.get('format_version')}")
    sizes = list(doc["layer_sizes"])
    weights = [np.asarray(w, dtype=float) for w in doc["weights"]]
    biases = [np.asarray(b, dtype=float) for b in doc["biases"]]
    if len(weights) != len(sizes) - 1 or len(biases) != len(sizes) - 1:
        raise ValueError("layer count mismatch in model file")
    for idx, (w, b) in enumerate(zip(weights, biases)):
        if w.shape != (sizes[idx + 1], sizes[idx]) or b.shape != (sizes[idx + 1],):
            raise ValueError(f"bad shape for layer {idx}: {w.shape}/{b.shape}")
    spec = None
    if doc.get("feature_config"):
        fc = doc["feature_config"]
        spec = FeatureSpec(
            fingerprint=FingerprintConfig(
                radius=fc["radius"], nbits=fc["nbits"], hash_seed=fc["hash_seed"]
            ),
            descriptors=tuple(fc["descriptors"]),
        )
    stats = None
    if doc.get("norm_stats"):
        ns = doc["norm_stats"]
        stats = NormStats(
            mean=np.asarray(ns["mean"], dtype=float),
            std=np.asarray(ns["std"], dtype=float),
            kept=np.asarray(ns["kept"], dtype=int),
        )
        if stats.kept.size != sizes[0]:
            raise ValueError("normalization width != model input width")
    return MlpModel(
        layer_sizes=sizes,
        weights=weights,
        biases=biases,
        activation=doc["activation"],
        target=doc["target"],
        feature_spec=spec,
        norm_stats=stats,
        train_meta=doc.get("train_meta", {}),
    )


def train_pipeline(
    records: list[DatasetRecord],
    cfg: TrainConfig,
    spec: FeatureSpec | None = None,
    target: str = "custom",
) -> tuple[MlpModel, LossCurve, EvalResult]:
    """Records-to-model orchestration: split, featurize, normalize, train,
    and evaluate on the held-out test partition."""
    labeled = [r for r in records if r.pic50 is not None]
    train_recs, test_recs, holdout_recs = split_dataset(labeled, cfg)
    spec = spec or FeatureSpec()
    X_train = featurize_records(train_recs, spec)
    stats = fit_norm_stats(X_train)
    Xn_train = stats.apply(X_train)
    y_train = np.array([r.pic50 for r in train_recs])
    val: tuple[np.ndarray, np.ndarray] | None = None
    if holdout_recs:
        val = (
            stats.apply(featurize_records(holdout_recs, spec)),
            np.array([r.pic50 for r in holdout_recs]),
        )
    sizes = [int(stats.kept.size), *cfg.hidden_layers, 1]
    model = init_model(sizes, cfg.activation, cfg.seed, target)
    model.feature_spec = spec
    model.norm_stats = stats
    model.train_meta = {
        "seed": cfg.seed,
        "epochs": cfg.epochs,
        "lr": cfg.learning_rate,
        "batch_size": cfg.batch_size,
        "n_train": len(train_recs),
        "n_test": len(test_recs),
        "n_holdout": len(holdout_recs),
    }
    model, curve = train(model, (Xn_train, y_train), val, cfg)
    X_test = stats.apply(featurize_records(test_recs, spec))
    y_test = np.array([r.pic50 for r in test_recs])
    result = evaluate(model, X_test, y_test)
    return model, curve, result
