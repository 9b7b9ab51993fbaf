"""Topological pharmacophore hypotheses: feature detection, candidate
enumeration, fit scoring, cost-based validation and fit-ranked screening.

Feature geometry is the bond-path distance between feature anchors, not
3D coordinates; the conformational generation parameters are recorded on
every hypothesis as provenance only. A hypothesis of n features scores a
molecule as

    fit = sum over feature pairs (i, j) of
          w_ij * max(0, 1 - dev_ij / (tol_ij + 1)),
    w_ij = (w_i + w_j) / (n - 1),

where dev is |observed path distance - constraint|. The pair weights sum
to the feature weights, so a perfect self-match scores exactly
sum(weights). Assignment search is exact (brute force) for the supported
3-6 feature range.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from .chem_graph import DOUBLE, SINGLE, Molecule
from .descriptors import is_acceptor

log = logging.getLogger(__name__)

HBD, HBA = "HBD", "HBA"
HYDROPHOBE, AROMATIC_RING = "Hydrophobe", "AromaticRing"
NEG_IONIZABLE, POS_IONIZABLE = "NegIonizable", "PosIonizable"
FEATURE_KINDS = (HBD, HBA, HYDROPHOBE, AROMATIC_RING, NEG_IONIZABLE, POS_IONIZABLE)

HYPOTHESIS_FORMAT_VERSION = 1
MIN_FEATURES, MAX_FEATURES = 3, 6
DEFAULT_MAX_CANDIDATES = 255
DEFAULT_TOLERANCE = 1
# Complexity penalty weight in the total cost.
COMPLEXITY_LAMBDA = 0.1
# Generation parameters recorded verbatim on every hypothesis; topological
# scoring does not consume them.
GEN_PARAMS = {"energy_threshold_kcal_per_mol": 10.0, "max_conformations": 255}


class InsufficientTraining(ValueError):
    pass


@dataclass(frozen=True)
class PharmFeature:
    kind: str
    anchor: tuple[int, ...]  # atom index (singleton) or ring/fragment atom set


@dataclass(frozen=True)
class HypothesisCosts:
    null_cost: float
    total_cost: float

    @property
    def delta(self) -> float:
        return self.null_cost - self.total_cost


@dataclass
class Hypothesis:
    features: list[tuple[str, float]]  # (kind, weight)
    pair_constraints: dict[tuple[int, int], tuple[float, float]]  # (dist, tol)
    fit_regression: tuple[float, float] | None = None  # (slope, intercept)
    costs: HypothesisCosts | None = None
    gen_params: dict = field(default_factory=lambda: dict(GEN_PARAMS))
    enumeration_index: int = 0
    seed_smiles: str | None = None

    def __post_init__(self):
        if not MIN_FEATURES <= len(self.features) <= MAX_FEATURES:
            raise ValueError(
                f"feature count {len(self.features)} outside "
                f"[{MIN_FEATURES}, {MAX_FEATURES}]"
            )
        if any(w <= 0 for _, w in self.features):
            raise ValueError("feature weights must be positive")
        if any(t < 0 for _, t in self.pair_constraints.values()):
            raise ValueError("tolerances must be non-negative")

    def predict_pic50(self, fit: float) -> float | None:
        if self.fit_regression is None:
            return None
        slope, intercept = self.fit_regression
        return slope * fit + intercept


# ---------------------------------------------------------------------------
# Feature detection
# ---------------------------------------------------------------------------

def _carboxyl_carbons(mol: Molecule) -> set[int]:
    out = set()
    for idx, atom in enumerate(mol.atoms):
        if atom.element != "C" or atom.aromatic:
            continue
        has_carbonyl = any(
            b.order == DOUBLE and mol.atoms[j].element == "O"
            for j, b in mol.neighbors(idx)
        )
        has_hydroxyl = any(
            b.order == SINGLE and mol.atoms[j].element == "O" and mol.total_h(j) > 0
            for j, b in mol.neighbors(idx)
        )
        if has_carbonyl and has_hydroxyl:
            out.add(idx)
    return out


def _is_basic_nitrogen(mol: Molecule, idx: int) -> bool:
    """Aliphatic amine rule: non-aromatic N, single bonds only, no aromatic
    or carbonyl-carbon neighbor."""
    atom = mol.atoms[idx]
    if atom.element != "N" or atom.aromatic or atom.formal_charge != 0:
        return False
    for j, bond in mol.neighbors(idx):
        if bond.order != SINGLE:
            return False
        nbr = mol.atoms[j]
        if nbr.aromatic:
            return False
        if nbr.element == "C" and any(
            b2.order == DOUBLE and mol.atoms[k].element in ("O", "N", "S")
            for k, b2 in mol.neighbors(j)
        ):
            return False
    return True


def detect_features(mol: Molecule) -> tuple[PharmFeature, ...]:
    """Rule-table feature extraction; deterministic order (kind, anchor)."""
    return mol.derived(_detect_features)


def _detect_features(mol: Molecule) -> tuple[PharmFeature, ...]:
    feats: list[PharmFeature] = []
    for idx, atom in enumerate(mol.atoms):
        if atom.element in ("N", "O") and mol.total_h(idx) > 0:
            feats.append(PharmFeature(HBD, (idx,)))
        if is_acceptor(mol, idx):
            feats.append(PharmFeature(HBA, (idx,)))
        if atom.formal_charge < 0:
            feats.append(PharmFeature(NEG_IONIZABLE, (idx,)))
        if atom.formal_charge > 0:
            feats.append(PharmFeature(POS_IONIZABLE, (idx,)))
        elif _is_basic_nitrogen(mol, idx):
            feats.append(PharmFeature(POS_IONIZABLE, (idx,)))
    for c in sorted(_carboxyl_carbons(mol)):
        feats.append(PharmFeature(NEG_IONIZABLE, (c,)))

    # Hydrophobes: components of non-aromatic carbons, 3+ atoms.
    plain_c = (i for i, a in enumerate(mol.atoms) if a.element == "C" and not a.aromatic)
    for comp in mol.components(plain_c):
        if len(comp) >= 3:
            feats.append(PharmFeature(HYDROPHOBE, tuple(comp)))

    # Aromatic ring systems: components of aromatic atoms.
    aromatic = (i for i, a in enumerate(mol.atoms) if a.aromatic)
    for comp in mol.components(aromatic):
        feats.append(PharmFeature(AROMATIC_RING, tuple(comp)))

    feats.sort(key=lambda f: (FEATURE_KINDS.index(f.kind), f.anchor))
    return tuple(feats)


def _all_pairs_path_lengths(mol: Molecule) -> tuple[tuple[float, ...], ...]:
    n = len(mol.atoms)
    dist = [[math.inf] * n for _ in range(n)]
    for src in range(n):
        dist[src][src] = 0
        queue = [src]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v, _ in mol.neighbors(u):
                if dist[src][v] == math.inf:
                    dist[src][v] = dist[src][u] + 1
                    queue.append(v)
    return tuple(map(tuple, dist))


def feature_distance(mol: Molecule, a: PharmFeature, b: PharmFeature) -> float:
    """Shortest bond-path distance between the two anchor sets, read from
    the molecule's all-pairs path table (built on first use)."""
    table = mol.derived(_all_pairs_path_lengths)
    return min(table[i][j] for i in a.anchor for j in b.anchor)


# ---------------------------------------------------------------------------
# Hypothesis generation and scoring
# ---------------------------------------------------------------------------

def generate_hypotheses(
    training: list[tuple[Molecule, float]],
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    tolerance: float = DEFAULT_TOLERANCE,
    seed_smiles: str | None = None,
) -> list[Hypothesis]:
    """Enumerate 3-5 feature subsets of the most-active molecule's features.

    Pair constraints come from that molecule's bond-path distances with the
    given tolerance. Enumeration order is subset size ascending, then
    lexicographic by feature index; the candidate cap keeps that prefix.
    """
    labeled = [(m, p) for m, p in training if p is not None]
    if len(labeled) < 4:
        raise InsufficientTraining(
            f"need at least 4 training records with pIC50, got {len(labeled)}"
        )
    seed_mol, _ = max(enumerate(labeled), key=lambda t: (t[1][1], -t[0]))[1]
    feats = detect_features(seed_mol)
    if len(feats) < MIN_FEATURES:
        raise InsufficientTraining(
            f"most active molecule exposes only {len(feats)} features"
        )
    candidates: list[Hypothesis] = []
    for size in range(MIN_FEATURES, min(5, len(feats)) + 1):
        for combo in itertools.combinations(range(len(feats)), size):
            constraints = {}
            for ai, bi in itertools.combinations(range(size), 2):
                d = feature_distance(seed_mol, feats[combo[ai]], feats[combo[bi]])
                constraints[(ai, bi)] = (d, tolerance)
            candidates.append(
                Hypothesis(
                    features=[(feats[i].kind, 1.0) for i in combo],
                    pair_constraints=constraints,
                    enumeration_index=len(candidates),
                    seed_smiles=seed_smiles,
                )
            )
            if len(candidates) >= max_candidates:
                return candidates
    return candidates


def fit_value(h: Hypothesis, mol: Molecule) -> float:
    """Best injective kind-respecting mapping of hypothesis features onto
    molecule features; 0 when no kind-complete mapping exists."""
    mol_feats = detect_features(mol)
    by_kind: dict[str, list[PharmFeature]] = {}
    for f in mol_feats:
        by_kind.setdefault(f.kind, []).append(f)
    slots_by_kind: dict[str, list[int]] = {}
    for slot, (kind, _w) in enumerate(h.features):
        slots_by_kind.setdefault(kind, []).append(slot)
    for kind, slots in slots_by_kind.items():
        if len(by_kind.get(kind, ())) < len(slots):
            return 0.0
    n = len(h.features)
    weights = [w for _, w in h.features]

    kinds = sorted(slots_by_kind)
    per_kind_choices = [
        itertools.permutations(by_kind[kind], len(slots_by_kind[kind]))
        for kind in kinds
    ]
    best = 0.0
    for choice in itertools.product(*per_kind_choices):
        assignment: dict[int, PharmFeature] = {}
        for kind, picked in zip(kinds, choice):
            for slot, feat in zip(slots_by_kind[kind], picked):
                assignment[slot] = feat
        score = 0.0
        for (i, j), (constraint, tol) in h.pair_constraints.items():
            d = feature_distance(mol, assignment[i], assignment[j])
            if math.isinf(d) and math.isinf(constraint):
                dev = 0.0  # both pairs disconnected: treated as matching
            elif math.isinf(d) or math.isinf(constraint):
                continue  # term contributes 0
            else:
                dev = abs(d - constraint)
            w_pair = (weights[i] + weights[j]) / (n - 1)
            score += w_pair * max(0.0, 1.0 - dev / (tol + 1.0))
        best = max(best, score)
    return best


def _least_squares(fits: list[float], pic50s: list[float]) -> tuple[float, float, bool]:
    mean_f = sum(fits) / len(fits)
    mean_y = sum(pic50s) / len(pic50s)
    var = sum((f - mean_f) ** 2 for f in fits)
    if var == 0:
        return 0.0, mean_y, True
    slope = sum((f - mean_f) * (y - mean_y) for f, y in zip(fits, pic50s)) / var
    return slope, mean_y - slope * mean_f, False


def score_costs(
    h: Hypothesis, training: list[tuple[Molecule, float]]
) -> HypothesisCosts:
    """Fit the fit->pIC50 regression by least squares, then cost the
    hypothesis: total = squared residuals + lambda * feature count; null =
    squared deviations from the mean predictor."""
    fits = [fit_value(h, mol) for mol, _ in training]
    pic50s = [p for _, p in training]
    slope, intercept, degenerate = _least_squares(fits, pic50s)
    if degenerate:
        log.debug("degenerate regression: all fits equal, using mean predictor")
    h.fit_regression = (slope, intercept)
    mean_y = sum(pic50s) / len(pic50s)
    total = sum(
        (slope * f + intercept - y) ** 2 for f, y in zip(fits, pic50s)
    ) + COMPLEXITY_LAMBDA * len(h.features)
    null = sum((mean_y - y) ** 2 for y in pic50s)
    h.costs = HypothesisCosts(null_cost=null, total_cost=total)
    return h.costs


def select_best(candidates: list[Hypothesis]) -> Hypothesis:
    """Maximize null - total cost; ties prefer fewer features, then lower
    enumeration index."""
    if not candidates:
        raise ValueError("no candidates")
    scored = [c for c in candidates if c.costs is not None]
    if not scored:
        raise ValueError("candidates have no costs; run score_costs first")
    return min(
        scored,
        key=lambda c: (-c.costs.delta, len(c.features), c.enumeration_index),
    )


@dataclass(frozen=True)
class ScreenRow:
    id: str
    name: str | None
    fit: float
    predicted_pic50: float | None
    class_label: str | None = None


def screen_by_fit(
    h: Hypothesis, library: Iterable[tuple[str, str | None, Molecule, str | None]]
) -> list[ScreenRow]:
    """Score a library (id, name, molecule, class label) and rank by fit
    descending, ties by id. Molecules whose feature detection fails are
    skipped and logged."""
    rows = []
    for item_id, name, mol, class_label in library:
        try:
            fit = fit_value(h, mol)
        except ValueError as exc:
            log.warning("skipping %s: feature scoring failed (%s)", item_id, exc)
            continue
        rows.append(
            ScreenRow(item_id, name, fit, h.predict_pic50(fit), class_label)
        )
    rows.sort(key=lambda r: (-r.fit, r.id))
    return rows


@dataclass(frozen=True)
class ClassSummaryRow:
    classify: str
    type_label: str
    representative: str
    quantity: int
    degree_of_fit: float


def class_summary(rows: list[ScreenRow]) -> list[ClassSummaryRow]:
    """Group screened rows by class label: representative is the top-fit
    member, degree of fit the representative's fit."""
    groups: dict[str, list[ScreenRow]] = {}
    for row in rows:
        if row.class_label is not None:
            groups.setdefault(row.class_label, []).append(row)
    out = []
    for index, label in enumerate(sorted(groups)):
        members = sorted(groups[label], key=lambda r: (-r.fit, r.id))
        top = members[0]
        out.append(
            ClassSummaryRow(
                classify=chr(ord("A") + index) if index < 26 else str(index),
                type_label=label,
                representative=top.name or top.id,
                quantity=len(members),
                degree_of_fit=top.fit,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_hypothesis(h: Hypothesis, path: str) -> None:
    doc = {
        "format_version": HYPOTHESIS_FORMAT_VERSION,
        "features": [{"kind": k, "weight": w} for k, w in h.features],
        "pair_constraints": [
            {"i": i, "j": j, "distance": d, "tolerance": t}
            for (i, j), (d, t) in sorted(h.pair_constraints.items())
        ],
        "fit_regression": None
        if h.fit_regression is None
        else {"slope": h.fit_regression[0], "intercept": h.fit_regression[1]},
        "costs": None
        if h.costs is None
        else {"null_cost": h.costs.null_cost, "total_cost": h.costs.total_cost},
        "gen_params": h.gen_params,
        "enumeration_index": h.enumeration_index,
        "seed_smiles": h.seed_smiles,
    }
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2)


def load_hypothesis(path: str) -> Hypothesis:
    with open(path) as handle:
        doc = json.load(handle)
    if doc.get("format_version") != HYPOTHESIS_FORMAT_VERSION:
        raise ValueError(
            f"unsupported hypothesis format_version {doc.get('format_version')}"
        )
    h = Hypothesis(
        features=[(f["kind"], f["weight"]) for f in doc["features"]],
        pair_constraints={
            (c["i"], c["j"]): (c["distance"], c["tolerance"])
            for c in doc["pair_constraints"]
        },
        gen_params=doc.get("gen_params", dict(GEN_PARAMS)),
        enumeration_index=doc.get("enumeration_index", 0),
        seed_smiles=doc.get("seed_smiles"),
    )
    if doc.get("fit_regression"):
        h.fit_regression = (
            doc["fit_regression"]["slope"],
            doc["fit_regression"]["intercept"],
        )
    if doc.get("costs"):
        h.costs = HypothesisCosts(
            null_cost=doc["costs"]["null_cost"],
            total_cost=doc["costs"]["total_cost"],
        )
    return h
