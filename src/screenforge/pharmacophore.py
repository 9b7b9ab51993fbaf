"""Topological pharmacophore hypotheses: feature detection, candidate
enumeration, fit scoring, cost-based validation and fit-ranked screening.

Feature geometry is the bond-path distance between feature anchors, not
3D coordinates: the fewest bonds from any atom of one anchor set to any
atom of the other, found by one breadth-first search from each feature's
anchors (infinite across fragments). Every hypothesis file records the
conformational generation parameters GEN_PARAMS as provenance only. A
hypothesis of n features scores a molecule as

    fit = sum over feature pairs (i, j) of
          w_ij * max(0, 1 - dev_ij / (tol_ij + 1)),
    w_ij = (w_i + w_j) / (n - 1),

where dev is |observed path distance - constraint|. The pair weights sum
to the feature weights, so a perfect self-match scores exactly
sum(weights).

The fit is the exact best mapping, found by depth-first branch and bound:
slots are fixed fewest candidates first, each trying first the candidates
that add the most, so the first complete mapping is the greedy one. A
branch is cut when its terms plus a bound on the rest (per open slot, its
best sum of terms against the fixed slots, after Gilmore and Lawler; per
pair of open slots, its best term) fall short of the best fit so far by
more than 1e-9 times the weight sum, a margin that covers float rounding.
Mappings left are scored in pair_constraints order, so the fit is the same
float as exhaustive search.

Training scores each distinct candidate once: candidates with the same
kinds, weights and pair constraints in the same order get the same fits,
so they share one regression and one cost.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass
from operator import add

from .chem_graph import DOUBLE, SINGLE, Molecule, canonical_smiles
from .descriptors import is_acceptor
from .fields import json_document

log = logging.getLogger(__name__)

HBD, HBA = "HBD", "HBA"
HYDROPHOBE, AROMATIC_RING = "Hydrophobe", "AromaticRing"
NEG_IONIZABLE, POS_IONIZABLE = "NegIonizable", "PosIonizable"
FEATURE_KINDS = (HBD, HBA, HYDROPHOBE, AROMATIC_RING, NEG_IONIZABLE, POS_IONIZABLE)

HYPOTHESIS_FORMAT_VERSION = 1
MIN_FEATURES, MAX_FEATURES = 3, 6
DEFAULT_MAX_CANDIDATES = 255
# Tolerance of every pair constraint a generated hypothesis gets.
PAIR_TOLERANCE = 1
# Complexity penalty weight in the total cost.
COMPLEXITY_LAMBDA = 0.1
# Generation parameters written verbatim into every hypothesis file; topological
# scoring does not consume them, and loading ignores them.
GEN_PARAMS = {"energy_threshold_kcal_per_mol": 10.0, "max_conformations": 255}


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
    enumeration_index: int = 0
    seed_smiles: str | None = None

    def __post_init__(self):
        if not MIN_FEATURES <= len(self.features) <= MAX_FEATURES:
            raise ValueError(
                f"feature count {len(self.features)} outside "
                f"[{MIN_FEATURES}, {MAX_FEATURES}]"
            )
        # written so that a NaN fails the test too
        if not all(0 < w < math.inf for _, w in self.features):
            raise ValueError("feature weights must be positive and finite")
        # bounds every pair weight (w_i + w_j) / (n - 1) and every fit
        if not math.isfinite(sum(w for _, w in self.features)):
            raise ValueError("feature weights must have a finite sum")
        if not all(t >= 0 for _, t in self.pair_constraints.values()):
            raise ValueError("tolerances must be non-negative")
        if any(i == j for i, j in self.pair_constraints):
            raise ValueError("a pair constraint joins a feature to itself")

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
            b.order == SINGLE and mol.atoms[j].element == "O" and mol.total_h[j] > 0
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
        if atom.element in ("N", "O") and mol.total_h[idx] > 0:
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


def _path_lengths(mol: Molecule, sources: Iterable[int]) -> list[float]:
    """Bond-path distance from the nearest of ``sources`` to every atom,
    math.inf where none is reachable: one breadth-first search."""
    dist = [math.inf] * len(mol.atoms)
    queue = list(sources)
    for s in queue:
        dist[s] = 0
    for u in queue:
        for v, _ in mol.neighbors(u):
            if dist[v] == math.inf:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


# ---------------------------------------------------------------------------
# Hypothesis generation and scoring
# ---------------------------------------------------------------------------

def generate_hypotheses(
    training: list[tuple[Molecule, float]],
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> list[Hypothesis]:
    """Enumerate 3-5 feature subsets of the most-active molecule's features.

    That seed molecule is the first one with the highest pIC50, and every
    candidate records its canonical SMILES. Pair constraints come from its
    bond-path distances with tolerance PAIR_TOLERANCE. Enumeration order is
    subset size ascending, then lexicographic by feature index; the
    candidate cap keeps that prefix.
    """
    if max_candidates < 1:
        raise ValueError(f"max_candidates {max_candidates} must be at least 1")
    labeled = [(m, p) for m, p in training if p is not None]
    if len(labeled) < 4:
        raise ValueError(f"need at least 4 training records with pIC50, got {len(labeled)}")
    seed_mol, _ = max(enumerate(labeled), key=lambda t: (t[1][1], -t[0]))[1]
    feats = detect_features(seed_mol)
    if len(feats) < MIN_FEATURES:
        raise ValueError(f"most active molecule exposes only {len(feats)} features")
    dist = seed_mol.derived(_feature_distances)
    seed_smiles = canonical_smiles(seed_mol)
    candidates: list[Hypothesis] = []
    for size in range(MIN_FEATURES, min(5, len(feats)) + 1):
        for combo in itertools.combinations(range(len(feats)), size):
            constraints = {}
            for ai, bi in itertools.combinations(range(size), 2):
                constraints[(ai, bi)] = (dist[combo[ai]][combo[bi]], PAIR_TOLERANCE)
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


def _feature_distances(mol: Molecule) -> tuple[tuple[float, ...], ...]:
    """The shortest bond-path distance between the anchor sets of every two
    features, in detect_features order."""
    feats = mol.derived(_detect_features)
    return tuple(
        tuple(min(dist[j] for j in b.anchor) for b in feats)
        for dist in (_path_lengths(mol, a.anchor) for a in feats)
    )


def _pair_term(d: float, constraint: float, tol: float, w_pair: float) -> float:
    if math.isinf(d) or math.isinf(constraint):
        # both infinite is a match (dev 0); one alone drops the term
        return w_pair if d == constraint else 0.0
    return w_pair * max(0.0, 1.0 - abs(d - constraint) / (tol + 1.0))


def _kind_candidates(mol: Molecule) -> dict[str, tuple[int, ...]]:
    """Indices into detect_features of each kind's features."""
    feats = mol.derived(_detect_features)
    return {k: tuple(f for f, feat in enumerate(feats) if feat.kind == k) for k in FEATURE_KINDS}


def _pair_table(mol: Molecule, kind_e: str, kind_l: str, constraint: float, tol: float,
                w_pair: float) -> tuple[tuple[float, ...], ...]:
    """table[a][b] is a pair's term when its slot of kind_e takes its a-th
    candidate and its slot of kind_l its b-th, or -inf when both would take
    the same feature."""
    dist, by_kind = mol.derived(_feature_distances), mol.derived(_kind_candidates)
    return tuple(
        tuple(_pair_term(dist[f][g], constraint, tol, w_pair) if f != g else -math.inf
              for g in by_kind[kind_l])
        for f in by_kind[kind_e]
    )


def fit_value(h: Hypothesis, mol: Molecule) -> float:
    """Best injective kind-respecting mapping of hypothesis features onto
    molecule features (see module docstring); 0 if none is kind-complete."""
    feats = detect_features(mol)
    kinds = [kind for kind, _w in h.features]
    by_kind = mol.derived(_kind_candidates)
    cands = [by_kind.get(kind, ()) for kind in kinds]
    if any(len(c) < kinds.count(kind) for c, kind in zip(cands, kinds)):
        return 0.0
    n = len(kinds)
    order = sorted(range(n), key=lambda s: len(cands[s]))
    depth = {s: k for k, s in enumerate(order)}
    # terms[p] = (e, l, table) for the p-th pair, e the slot fixed first;
    # each table is built once per molecule (see _pair_table).
    terms = []
    for (i, j), (constraint, tol) in h.pair_constraints.items():
        w_pair = (h.features[i][1] + h.features[j][1]) / (n - 1)
        e, l = sorted((i, j), key=depth.__getitem__)
        terms.append((e, l, mol.derived(_pair_table, kinds[e], kinds[l], constraint, tol,
                                        w_pair)))
    # open_max[k] bounds the pairs within order[k:], later[k] lists those
    # from order[k] to them.
    open_max = [
        sum(max(map(max, table)) for e, l, table in terms if depth[e] >= k)
        for k in range(n)
    ]
    later = [
        [(depth[l] - k - 1, table) for e, l, table in terms if e == s]
        for k, s in enumerate(order)
    ]
    slack = 1e-9 * sum(w for _kind, w in h.features)  # the rounding margin
    pos = [0] * n
    used = [False] * len(feats)
    best = 0.0

    def search(k: int, partial: float, gains: list[list[float]]) -> None:
        # partial sums the terms among the slots fixed so far; gains[t][b] is
        # what slot order[k + t] adds to it by taking its b-th candidate.
        nonlocal best
        s, gain = order[k], gains[0]
        for a in sorted(range(len(gain)), key=gain.__getitem__, reverse=True):
            f = cands[s][a]
            if used[f]:
                continue
            fixed = partial + gain[a]
            pos[s] = a
            if k == n - 1:
                if fixed + slack >= best:
                    score = 0.0
                    for e, l, table in terms:
                        score += table[pos[e]][pos[l]]
                    best = max(best, score)
                continue
            rest = gains[1:]
            for t, table in later[k]:
                rest[t] = list(map(add, rest[t], table[a]))
            # a bound of exactly 0 leaves only zero terms, which cannot beat best
            upper = fixed + sum(map(max, rest)) + open_max[k + 1]
            if upper + slack < best or upper == 0.0:
                continue
            used[f] = True
            search(k + 1, fixed, rest)
            used[f] = False

    search(0, 0.0, [[0.0] * len(cands[s]) for s in order])
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


def score_candidates(
    candidates: list[Hypothesis], training: list[tuple[Molecule, float]]
) -> None:
    """score_costs each candidate, once per distinct hypothesis: a candidate
    whose features and pair constraint items, in order, equal an earlier
    one's (all fit_value reads) takes that one's regression and costs."""
    first: dict[tuple, Hypothesis] = {}
    for h in candidates:
        scored = first.setdefault((tuple(h.features), tuple(h.pair_constraints.items())), h)
        if scored is h:
            score_costs(h, training)
        else:
            h.fit_regression, h.costs = scored.fit_regression, scored.costs


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
        "gen_params": GEN_PARAMS,
        "enumeration_index": h.enumeration_index,
        "seed_smiles": h.seed_smiles,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)


def load_hypothesis(path: str) -> Hypothesis:
    """Read a hypothesis file; a malformed one raises ValueError naming the field."""
    doc = json_document(path, "hypothesis", HYPOTHESIS_FORMAT_VERSION)
    features = [(f["kind"].one_of(FEATURE_KINDS, "feature kind"), f["weight"].number(finite=False))
                for f in doc["features"]]
    pairs = {}
    for c in doc["pair_constraints"]:
        pair = (c["i"].integer(), c["j"].integer())
        if max(pair) >= len(features):
            raise ValueError(f"pair constraint {pair} outside the {len(features)} features")
        if pair[0] >= pair[1] or pair in pairs:  # each pair once, as (i, j) with i < j
            raise ValueError(f"bad field {c.path}: pair {pair} "
                             + ("repeated" if pair in pairs else "is not i < j"))
        # the distance between features on two fragments is infinite
        pairs[pair] = (c["distance"].number(finite=False), c["tolerance"].number())
    fit, costs = doc.get("fit_regression"), doc.get("costs")
    index, seed = doc.get("enumeration_index"), doc.get("seed_smiles")
    h = Hypothesis(
        features,
        pairs,
        fit_regression=None if fit is None else (fit["slope"].number(), fit["intercept"].number()),
        costs=None if costs is None else HypothesisCosts(
            costs["null_cost"].number(), costs["total_cost"].number()),
        enumeration_index=0 if index is None else index.integer(),
        seed_smiles=None if seed is None else seed.text(),
    )
    if h.fit_regression is not None:
        # Every fit lies in [0, sum of weights], so every prediction lies
        # between the intercept and its value at the top of that range.
        slope, intercept = h.fit_regression
        top = sum(w for _, w in features)
        if not math.isfinite(slope * top + intercept):
            raise ValueError(f"fit_regression {h.fit_regression!r} overflows at fit {top!r}")
    return h
