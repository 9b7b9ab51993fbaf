"""Feed-forward pIC50 regressor: featurization, backprop, the adaptive
moment optimizer, mini-batch training, dataset splitting, and the strict
activity gate.

Everything is double precision and fully seeded; the same seed gives a
bit-identical loss curve on one platform. Models persist as versioned
JSON documents carrying the featurization config and normalization stats
so prediction never depends on external state.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import accumulate, islice

import numpy as np

from .chem_graph import Molecule, SmilesError, parse_smiles
from .descriptors import compute_descriptors
from .fields import json_document
from .fingerprints import FingerprintConfig, circular_fingerprint

log = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1
DEFAULT_GATE_THRESHOLD = 5.7
# Fixed training constants: the Adam moment decays and denominator guard,
# the train/test fractions of the split (the rest is a holdout, counted
# but not scored) and the hidden-layer activation of newly trained models.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Adam updates the flat parameters this many elements at a time, each thread
# into two scratch rows of 224 KiB of float64 (896 KiB for both threads), so
# its scratch does not grow with the layer width.
ADAM_CHUNK = 28672
# Threads that share an Adam step: the caller and, when the process may run on
# a second CPU, one worker that ``train`` starts for its run and joins at its
# end; numpy releases the GIL inside each ufunc, so both run at once. A step of
# fewer than four full chunks stays on the caller: sharing the two of a
# 1000-64-16-1 net saved nothing measurable on 2 cores.
ADAM_PARTS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)
# Prediction featurizes and scores this many compounds at a time; each row
# is its own GEMV, so a compound's pIC50 does not depend on its block.
PREDICT_BLOCK = 64
TRAIN_FRAC, TEST_FRAC = 0.78, 0.12
TRAIN_ACTIVATION = "relu"
DESCRIPTOR_FEATURES = ("mw", "tpsa", "wlogp", "hbd", "hba", "rotatable_bonds", "heavy_atoms")


def ic50_to_pic50(ic50_nm: float) -> float:
    """pIC50 = 9 - log10(IC50 in nanomolar)."""
    if not ic50_nm > 0:
        raise ValueError(f"IC50 must be positive, got {ic50_nm}")
    return 9.0 - math.log10(ic50_nm)


@dataclass
class DatasetRecord:
    id: str
    smiles: str
    canonical_smiles: str
    name: str | None = None
    ic50_nm: float | None = None
    pic50: float | None = None
    class_label: str | None = None

    def __post_init__(self):
        for name in ("ic50_nm", "pic50"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"record {self.id}: {name} {value} is not finite")
        if self.ic50_nm is not None:
            derived = ic50_to_pic50(self.ic50_nm)
            if self.pic50 is None:
                self.pic50 = derived
            elif abs(self.pic50 - derived) > 1e-6:
                raise ValueError(
                    f"record {self.id}: pic50 {self.pic50} inconsistent with "
                    f"ic50_nm {self.ic50_nm} (expected {derived:.6f})"
                )


def molecules(records: list[DatasetRecord]):
    """``(record, molecule)`` for each record, its canonical SMILES parsed
    when the consumer asks for it, so a molecule lives only as long as the
    consumer keeps it. A record whose molecule cannot be rebuilt is logged
    as ``skipping <id>: <reason>`` and skipped: no row aborts a batch."""
    for record in records:
        try:
            mol = parse_smiles(record.canonical_smiles)
        except SmilesError as exc:
            log.warning("skipping %s: %s", record.id, exc)
            continue
        yield record, mol


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 200
    hidden_layers: tuple[int, ...] = (256, 64)
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate {self.learning_rate} must be finite and positive")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("bad optimizer settings")
        if any(w < 1 for w in self.hidden_layers):
            raise ValueError("hidden widths must be >= 1")


@dataclass(frozen=True)
class FeatureSpec:
    fingerprint: FingerprintConfig = FingerprintConfig()
    descriptors: tuple[str, ...] = DESCRIPTOR_FEATURES

    def __post_init__(self):
        if not all(d in DESCRIPTOR_FEATURES for d in self.descriptors):
            raise ValueError(f"descriptors {self.descriptors!r} outside {DESCRIPTOR_FEATURES}")

    def width(self) -> int:
        return self.fingerprint.nbits + len(self.descriptors)


@dataclass(frozen=True)
class NormStats:
    mean: np.ndarray
    std: np.ndarray
    kept: np.ndarray  # indices of retained (non-constant) raw features

    def apply(self, X: np.ndarray) -> np.ndarray:
        """``(X[:, kept] - mean) / std`` as a new float64 matrix: one gathered
        copy, normalized in place. ``X`` itself is never written."""
        out = X[:, self.kept].astype(float, copy=False)
        out -= self.mean
        out /= self.std
        return out


@dataclass
class MlpModel:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "relu"
    target: str = "custom"
    feature_spec: FeatureSpec | None = None
    norm_stats: NormStats | None = None
    train_meta: dict = field(default_factory=dict)

    @property
    def layer_sizes(self) -> list[int]:
        """The input width, then each layer's output width, read from the weights."""
        return [self.weights[0].shape[1], *(w.shape[0] for w in self.weights)]

    def parameter_list(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out


def init_model(
    layer_sizes: list[int], activation: str = "relu", seed: int = 0, target: str = "custom"
) -> MlpModel:
    """Scaled-uniform weight init (half-width 1/sqrt(fan_in)) and zero
    biases; byte-identical for a fixed seed."""
    if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
        raise ValueError("layer_sizes needs at least input and output sizes >= 1")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        scale = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-scale, scale, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights=weights, biases=biases, activation=activation, target=target)


def _act(z: np.ndarray, kind: str, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(z, 0.0, out=out) if kind == "relu" else np.tanh(z, out=out)


def _act_grad(a: np.ndarray, kind: str) -> np.ndarray:
    """The activation's derivative, read from its output ``a``: the same
    bits as from the pre-activation (``a > 0`` exactly where ``z > 0``)."""
    return (a > 0).astype(float) if kind == "relu" else 1.0 - a**2


def _layers(model: MlpModel, X: np.ndarray, rowwise: bool = False):
    """Each layer's output for the rows of ``X`` in turn, the linear head's
    last: ``a @ w.T + b``, activated in place. A layer is one GEMM, or
    ``rowwise`` one GEMV per row, which gives a row the same bits whatever
    shares its batch."""
    a, last = X, len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = np.matmul(a[:, None, :], w.T)[:, 0] if rowwise else a @ w.T
        a += b  # without a second temporary
        yield a if i == last else _act(a, model.activation, out=a)


def forward(model: MlpModel, X: np.ndarray, rowwise: bool = False) -> np.ndarray:
    """Affine-activation chain with a linear head: one prediction per row of
    a batch of normalized features, computed by ``_layers``."""
    X = np.asarray(X, dtype=float)
    width = model.weights[0].shape[1]
    if X.ndim != 2 or X.shape[1] != width:
        raise ValueError(f"input shape {X.shape} != (rows, {width})")
    for a in _layers(model, X, rowwise):
        pass
    return a[:, 0]


def mse_loss(predictions, targets) -> float:
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape or p.size == 0:
        raise ValueError("predictions and targets must have equal nonzero length")
    return float(np.mean((p - t) ** 2))


def backprop(model: MlpModel, X: np.ndarray, y: np.ndarray,
             out: list[np.ndarray] | None = None) -> tuple[list[np.ndarray], float]:
    """Gradients of the batch MSE with respect to every weight and bias,
    ordered like ``model.parameter_list()``; also returns the batch loss.
    Given ``out``, arrays shaped like those parameters, the gradients are
    written into it and it is returned."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1)
    if X.shape[0] != y.shape[0]:
        raise ValueError("X rows and y length differ")
    activations = [X, *_layers(model, X)]
    pred, batch = activations[-1][:, 0], X.shape[0]
    loss = float(np.mean((pred - y) ** 2))
    delta = (2.0 * (pred - y) / batch)[:, None]
    grads = [np.empty_like(p) for p in model.parameter_list()] if out is None else out
    for layer in range(len(model.weights) - 1, -1, -1):
        np.sum(delta, axis=0, out=grads[2 * layer + 1])
        np.matmul(delta.T, activations[layer], out=grads[2 * layer])
        if layer > 0:
            delta = delta @ model.weights[layer]
            delta = delta * _act_grad(activations[layer], model.activation)
    return grads, loss


def _adam_update(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, starts: range,
                 scratch: np.ndarray, c1: float, c2: float, lr: float) -> None:
    """m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g, p -= (lr*(m/c1)) / (sqrt(v/c2) + eps),
    operation by operation into m, v, p and the two rows of ``scratch``, for
    the ADAM_CHUNK elements from each of ``starts``: every element sees the
    same operations, bit-identical to whole-array updates."""
    for lo in starts:
        chunk = slice(lo, lo + ADAM_CHUNK)
        pc, gc, mc, vc = p[chunk], g[chunk], m[chunk], v[chunk]
        a, b = scratch[0, :pc.size], scratch[1, :pc.size]
        np.multiply(mc, ADAM_BETA1, out=mc)
        np.multiply(gc, 1 - ADAM_BETA1, out=a)
        np.add(mc, a, out=mc)
        np.multiply(vc, ADAM_BETA2, out=vc)
        np.multiply(gc, 1 - ADAM_BETA2, out=a)
        np.multiply(a, gc, out=a)
        np.add(vc, a, out=vc)
        np.divide(mc, c1, out=a)
        np.multiply(a, lr, out=a)
        np.divide(vc, c2, out=b)
        np.sqrt(b, out=b)
        np.add(b, ADAM_EPS, out=b)
        np.divide(a, b, out=a)
        np.subtract(pc, a, out=pc)


def adam_step(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, t: int, lr: float,
              worker: ThreadPoolExecutor | None = None) -> None:
    """Bias-corrected step ``t`` (counted from 1) of the flat float64
    parameters ``p``, in place, from the gradients ``g`` and the moments
    ``m`` and ``v``, four arrays of one length. Given a ``worker``, it takes
    every other chunk of a step of four or more full chunks."""
    c1, c2 = 1 - ADAM_BETA1**t, 1 - ADAM_BETA2**t
    starts = range(0, p.size, ADAM_CHUNK)
    parts = [starts] if worker is None or p.size < 4 * ADAM_CHUNK else [starts[::2], starts[1::2]]
    scratch = np.empty((len(parts), 2, min(ADAM_CHUNK, p.size)))
    # The worker runs in the caller's context, which holds numpy's error state.
    shared = [worker.submit(contextvars.copy_context().run, _adam_update, p, g, m, v, part,
                            rows, c1, c2, lr) for part, rows in zip(parts[1:], scratch[1:])]
    try:
        _adam_update(p, g, m, v, parts[0], scratch[0], c1, c2, lr)
    finally:
        for future in shared:  # the parameters are the caller's again only once both are done
            future.result()


def _views(flat: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    """Consecutive views of ``flat``, one shaped like each array of ``like``."""
    ends = [0, *accumulate(x.size for x in like)]
    return [flat[lo:hi].reshape(x.shape) for lo, hi, x in zip(ends, ends[1:], like)]


def train(
    model: MlpModel, train_data: tuple[np.ndarray, np.ndarray], cfg: TrainConfig
) -> list[float]:
    """Mini-batch training of ``model`` in place: per-epoch seeded shuffle,
    backprop, one optimizer step per batch. Returns the full-pass train MSE
    of each epoch; an epoch whose MSE is not finite raises ValueError.

    The weights and biases are copied into one flat buffer, and the model
    keeps views of it. The gradients and Adam's two moments are three more
    flat buffers of the same length, which live only for this call, so a
    second call starts from zero moments."""
    X, y = np.asarray(train_data[0], dtype=float), np.asarray(train_data[1], dtype=float)
    if X.size == 0:
        raise ValueError("empty training set")
    losses = []
    rng = np.random.default_rng(cfg.seed)
    p = np.concatenate([x.reshape(-1) for x in model.parameter_list()], dtype=float)
    params = _views(p, model.parameter_list())
    model.weights, model.biases = params[::2], params[1::2]  # the old arrays go here
    g, m, v = np.empty_like(p), np.zeros_like(p), np.zeros_like(p)
    grads, t = _views(g, params), 0  # backprop writes each step's gradients into g
    # A diverging run overflows before its epoch ends; it is reported below.
    with (ThreadPoolExecutor(max_workers=1, thread_name_prefix="adam") if ADAM_PARTS > 1
          else contextlib.nullcontext()) as worker, np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(len(y))
            for start in range(0, len(y), cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                backprop(model, X[batch], y[batch], out=grads)
                t += 1
                adam_step(p, g, m, v, t, cfg.learning_rate, worker)
            losses.append(mse_loss(forward(model, X), y))
            if not math.isfinite(losses[-1]):
                raise ValueError(f"training diverged at epoch {epoch}")
    return losses


def split_dataset(records: list, cfg: TrainConfig) -> tuple[list, list, list]:
    """Seeded shuffle, then floor(TRAIN_FRAC*n) / floor(TEST_FRAC*n) /
    remainder. The 1e-9 nudge keeps two-decimal fractions exact against
    float rounding."""
    n = len(records)
    if n < 10:
        raise ValueError(f"need at least 10 records, got {n}")
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(n)
    n_train = int(math.floor(TRAIN_FRAC * n + 1e-9))
    n_test = int(math.floor(TEST_FRAC * n + 1e-9))
    shuffled = [records[i] for i in order]
    return (
        shuffled[:n_train],
        shuffled[n_train:n_train + n_test],
        shuffled[n_train + n_test:],
    )


# ---------------------------------------------------------------------------
# Featurization and normalization
# ---------------------------------------------------------------------------

def featurize_molecule(mol: Molecule, spec: FeatureSpec, out: np.ndarray) -> None:
    """Write the fingerprint bits, then the descriptors ``spec`` names, into ``out``."""
    nbits = spec.fingerprint.nbits
    out[:nbits] = np.bincount(circular_fingerprint(mol, spec.fingerprint).on_bits, minlength=nbits)
    desc = compute_descriptors(mol)
    out[nbits:] = [getattr(desc, name) for name in spec.descriptors]


def featurize_records(records: list[DatasetRecord],
                      spec: FeatureSpec) -> tuple[np.ndarray, np.ndarray]:
    """``(X, y)`` over the records ``molecules`` yields: one feature row each,
    written into one preallocated float64 matrix of ``spec.width()`` columns,
    and each pIC50 (NaN when unlabeled). When none is featurized, ValueError."""
    X, y = np.empty((len(records), spec.width())), []
    for record, mol in molecules(records):
        featurize_molecule(mol, spec, X[len(y)])
        y.append(record.pic50)
    if not y:
        raise ValueError("no records to featurize")
    return X[:len(y)], np.array(y, dtype=float)


def fit_norm_stats(X: np.ndarray) -> NormStats:
    """Per-feature mean/std over the training matrix; zero-variance
    features are dropped and their indices recorded implicitly by `kept`."""
    X = np.asarray(X, dtype=float)
    std = X.std(axis=0)
    kept = np.flatnonzero(std > 0)
    if kept.size == 0:
        raise ValueError("every feature is constant; nothing to train on")
    return NormStats(mean=X[:, kept].mean(axis=0), std=std[kept], kept=kept)


def _require_featurization(model: MlpModel) -> FeatureSpec:
    if model.feature_spec is None or model.norm_stats is None:
        raise ValueError("model lacks featurization config or norm stats")
    return model.feature_spec


def predict_rows(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """The pIC50 of each raw feature row of ``X``, normalized by the model's
    norm stats, then one GEMV per row and layer: a row's value alone."""
    return forward(model, model.norm_stats.apply(X), rowwise=True)


def scored_molecules(records: list[DatasetRecord], models: dict[str, MlpModel]):
    """``(record, molecule, {target: pIC50})`` for each record ``molecules``
    yields, targets in ``models`` order ({} with no models). Each block of
    PREDICT_BLOCK molecules, the only ones held, is featurized once per
    distinct FeatureSpec. A model that cannot featurize raises before any row."""
    specs = list(dict.fromkeys(_require_featurization(m) for m in models.values()))
    pairs = molecules(records)
    while block := list(islice(pairs, PREDICT_BLOCK)):
        rows = {spec: np.empty((len(block), spec.width())) for spec in specs}
        for n, (_, mol) in enumerate(block):
            for spec, X in rows.items():
                featurize_molecule(mol, spec, X[n])
        scores = {t: predict_rows(m, rows[m.feature_spec]).tolist() for t, m in models.items()}
        for n, (record, mol) in enumerate(block):
            yield record, mol, {t: pic50s[n] for t, pic50s in scores.items()}
        del block, mol  # the next block is read without this one


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
    ranked by descending pIC50, ties by id. A model that cannot featurize
    raises before any row."""
    out = []
    for record, mol, pic50s in scored_molecules(records, {model.target: model}):
        del mol  # it goes with its block
        pic50 = pic50s[model.target]
        out.append(GatedPrediction(record.id, record.name, pic50, pic50 > threshold))
    return sorted(out, key=lambda p: (-p.pic50, p.id))


@dataclass(frozen=True)
class EvalResult:
    mse: float
    r2: float


def evaluate(model: MlpModel, X: np.ndarray, y: np.ndarray) -> EvalResult:
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ValueError("empty test set")
    pred = forward(model, X)
    mse = mse_loss(pred, y)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum((y - pred) ** 2))
    if ss_tot == 0:
        r2 = 1.0 if ss_res == 0 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return EvalResult(mse=mse, r2=r2)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_model(model: MlpModel, path: str) -> None:
    """Write the model as JSON. A model without featurization or with a
    non-finite weight or bias (a diverged run) raises ValueError before the
    file is opened, as load_model would refuse it."""
    _require_featurization(model)
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError(f"non-finite weight or bias in layer {layer}")
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "target": model.target,
        "layer_sizes": model.layer_sizes,
        "activation": model.activation,
        "weights": None,  # written row by row below
        "biases": [b.tolist() for b in model.biases],
        "feature_config": {
            "radius": model.feature_spec.fingerprint.radius,
            "nbits": model.feature_spec.fingerprint.nbits,
            "hash_seed": model.feature_spec.fingerprint.hash_seed,
            "descriptors": list(model.feature_spec.descriptors),
        },
        "norm_stats": {
            "mean": model.norm_stats.mean.tolist(),
            "std": model.norm_stats.std.tolist(),
            "kept": model.norm_stats.kept.tolist(),
        },
        "train_meta": model.train_meta,
    }
    # The bytes of json.dumps(doc), which takes the C encoder (json.dump
    # never does), but one weight row per call, so neither the text nor the
    # nested lists of the largest layer are held whole.
    with open(path, "w", encoding="utf-8") as handle:
        for n, (key, value) in enumerate(doc.items()):
            handle.write(("{" if n == 0 else ", ") + json.dumps(key) + ": ")
            if key != "weights":
                handle.write(json.dumps(value))
                continue
            handle.write("[")
            for layer, w in enumerate(model.weights):
                handle.write(", [" if layer else "[")
                for r, row in enumerate(w):
                    handle.write((", " if r else "") + json.dumps(row.tolist()))
                handle.write("]")
            handle.write("]")
        handle.write("}")


def load_model(path: str) -> MlpModel:
    """Read a model file; a malformed one raises ValueError naming the field."""
    doc = json_document(path, "model", MODEL_FORMAT_VERSION)
    sizes = [size.integer(lo=1) for size in doc["layer_sizes"]]
    weights = [w.floats(2) for w in doc["weights"]]
    biases = [b.floats(1) for b in doc["biases"]]
    if len(weights) != len(sizes) - 1 or len(biases) != len(sizes) - 1:
        raise ValueError("layer count mismatch in model file")
    for idx, (w, b) in enumerate(zip(weights, biases)):
        if w.shape != (sizes[idx + 1], sizes[idx]) or b.shape != (sizes[idx + 1],):
            raise ValueError(f"bad shape for layer {idx}: {w.shape}/{b.shape}")
    fc, ns = doc.get("feature_config"), doc.get("norm_stats")
    if fc is None or ns is None:
        raise ValueError("model file lacks featurization config or norm stats")
    fingerprint = FingerprintConfig(*(fc[key].value for key in ("radius", "nbits", "hash_seed")))
    if not 0 <= fingerprint.hash_seed < 2**64:  # fingerprints use the seed modulo 2**64
        raise ValueError("bad field feature_config.hash_seed: outside [0, 2**64)")
    spec = FeatureSpec(fingerprint, fc["descriptors"].names(DESCRIPTOR_FEATURES))
    kept = np.asarray(ns["kept"].indices(spec.width()), dtype=int)
    stats = NormStats(mean=ns["mean"].floats(1), std=ns["std"].floats(1), kept=kept)
    if kept.size != sizes[0]:
        raise ValueError("normalization width != model input width")
    if not stats.mean.shape == stats.std.shape == kept.shape:
        raise ValueError("norm_stats mean, std and kept differ in length")
    if not (stats.std > 0).all():
        raise ValueError("norm_stats.std must be positive")
    meta = doc.get("train_meta")
    return MlpModel(
        weights, biases, doc["activation"].one_of(("relu", "tanh")), doc["target"].text(),
        feature_spec=spec, norm_stats=stats, train_meta={} if meta is None else meta.object(),
    )


def train_pipeline(
    records: list[DatasetRecord], cfg: TrainConfig, target: str = "custom"
) -> tuple[MlpModel, list[float], EvalResult]:
    """Records-to-model orchestration: split, featurize (default FeatureSpec),
    normalize, train, and evaluate on the test partition. The holdout
    partition is counted in ``train_meta`` and not scored."""
    labeled = [r for r in records if r.pic50 is not None]
    train_recs, test_recs, holdout_recs = split_dataset(labeled, cfg)
    spec = FeatureSpec()
    X_train, y_train = featurize_records(train_recs, spec)
    stats = fit_norm_stats(X_train)
    Xn_train = stats.apply(X_train)
    del X_train  # the raw features are not read again; free them before the weights
    sizes = [int(stats.kept.size), *cfg.hidden_layers, 1]
    model = init_model(sizes, TRAIN_ACTIVATION, cfg.seed, target)
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
    losses = train(model, (Xn_train, y_train), cfg)
    X_test, y_test = featurize_records(test_recs, spec)
    return model, losses, evaluate(model, stats.apply(X_test), y_test)
