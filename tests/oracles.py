"""Independent oracles used by the test suite.

These deliberately re-derive results along different code paths than the
library (set arithmetic, exhaustive enumeration, plain-python loops) so a
test never checks an implementation against itself.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re

import numpy as np

from screenforge.chem_graph import (
    AROMATIC,
    AROMATIC_ORGANIC,
    ATOMIC_WEIGHTS,
    BOND_ORDER_VALUE,
    DOUBLE,
    ORGANIC_SUBSET,
    SINGLE,
    TRIPLE,
    VALENCES,
    Atom,
    Bond,
    Molecule,
    SmilesSyntaxError,
    UnbalancedParenthesis,
    UnclosedRing,
    UnknownElement,
    _BOND_CHARS,
    _parse_bracket,
    element_counts,
    largest_fragment,
    parse_smiles,
)
from screenforge.descriptors import compute_descriptors
from screenforge.fingerprints import FingerprintConfig, FingerprintVector
from screenforge.pdenet import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    forward,
)
from screenforge.simcluster import tanimoto_matrix

from helpers import on_bit_vector


def formula_weight(formula: str) -> float:
    """Sum of standard atomic weights over a formula such as ``C9H8O4``,
    counted element by element in the order written."""
    tokens = re.findall(r"([A-Z][a-z]?)(\d*)", formula)
    if not tokens or "".join(e + n for e, n in tokens) != formula:
        raise ValueError(f"malformed formula {formula!r}")
    return sum(ATOMIC_WEIGHTS[element] * int(n or 1) for element, n in tokens)


def hydrogens_oracle(mol: Molecule) -> tuple[list[int], list[int]]:
    """``(hydrogens, total_h)`` re-derived from the bond list alone.

    An atom's hydrogens are its bracket count if one is written, else its
    ``bare_hydrogens_oracle`` count. Its total adds the ``[H]`` atoms bonded
    to it.
    """
    n = len(mol.atoms)
    h_atoms = [0] * n
    for bond in mol.bonds:
        for u, v in ((bond.a, bond.b), (bond.b, bond.a)):
            h_atoms[u] += mol.atoms[v].element == "H"
    hydrogens = [a.explicit_h if a.explicit_h is not None else bare or 0
                 for a, bare in zip(mol.atoms, bare_hydrogens_oracle(mol))]
    return hydrogens, [h + k for h, k in zip(hydrogens, h_atoms)]


def bare_hydrogens_oracle(mol: Molecule) -> list[int | None]:
    """Per atom, the hydrogens of its symbol written without a bracket,
    whatever count a bracket pins: for an element with standard valences,
    the lowest valence that covers its bond-order sum minus that sum, where
    an aromatic atom tries only its first valence and counts one ring pi
    bond when it has no double or triple bond and is C or B, or a
    two-connected N or P; None when no valence covers the sum or the element
    has none.
    """
    n = len(mol.atoms)
    order_sum, degree = [0] * n, [0] * n
    multiple = [False] * n
    for bond in mol.bonds:
        for u in (bond.a, bond.b):
            order_sum[u] += BOND_ORDER_VALUE[bond.order]
            degree[u] += 1
            multiple[u] = multiple[u] or bond.order in (DOUBLE, TRIPLE)
    bare = []
    for i, a in enumerate(mol.atoms):
        valences, total = VALENCES.get(a.element, ()), order_sum[i]
        if a.aromatic:
            valences = valences[:1]
            pi_capable = a.element in ("C", "B") or (a.element in ("N", "P") and degree[i] == 2)
            if pi_capable and not multiple[i]:
                total += 1
        bare.append(min((v - total for v in valences if v >= total), default=None))
    return bare


def _atom_keys(mol: Molecule) -> list[tuple]:
    total_h = hydrogens_oracle(mol)[1]
    return [
        (a.element, a.formal_charge, a.isotope or 0, a.aromatic, total_h[i])
        for i, a in enumerate(mol.atoms)
    ]


def brute_force_isomorphic(a: Molecule, b: Molecule) -> bool:
    """Backtracking graph-isomorphism check for small molecules."""
    n = len(a.atoms)
    if n != len(b.atoms) or len(a.bonds) != len(b.bonds):
        return False
    atom_keys_a, atom_keys_b = _atom_keys(a), _atom_keys(b)
    if sorted(atom_keys_a) != sorted(atom_keys_b):
        return False

    bonds_a = {(min(x.a, x.b), max(x.a, x.b)): x.order for x in a.bonds}
    bonds_b = {(min(x.a, x.b), max(x.a, x.b)): x.order for x in b.bonds}
    candidates = [
        [j for j in range(n) if atom_keys_b[j] == atom_keys_a[i]] for i in range(n)
    ]
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == n:
            return True
        for j in candidates[i]:
            if j in used:
                continue
            ok = True
            for (x, y), order in bonds_a.items():
                if x == i and y in mapping:
                    if bonds_b.get((min(j, mapping[y]), max(j, mapping[y]))) != order:
                        ok = False
                        break
                elif y == i and x in mapping:
                    if bonds_b.get((min(j, mapping[x]), max(j, mapping[x]))) != order:
                        ok = False
                        break
            if ok:
                # also forbid extra bonds in b between mapped atoms
                for x, y in mapping.items():
                    key_a = (min(i, x), max(i, x))
                    key_b = (min(j, y), max(j, y))
                    if (key_a in bonds_a) != (key_b in bonds_b):
                        ok = False
                        break
            if ok:
                mapping[i] = j
                used.add(j)
                if extend(i + 1):
                    return True
                del mapping[i]
                used.discard(j)
        return False

    return extend(0)


def tanimoto_set_oracle(a, b) -> float:
    """|A n B| / |A u B| over the set-bit index sets."""
    sa = {i for i, bit in enumerate(a) if bit}
    sb = {i for i, bit in enumerate(b) if bit}
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def tanimoto_rows_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The unblocked float64 kernel the library used before its blocked
    one: general-vector Tanimoto of every row of ``a`` against every row of
    ``b`` (an A x B array); a pair of all-zero rows gives 1.0."""
    dots = a @ b.T
    denom = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - dots
    return np.where(denom > 0, dots / np.where(denom == 0, 1, denom), 1.0)


def dense_rows(items) -> np.ndarray:
    """The fingerprints as an n x nbits 0/1 uint8 array, set one on-bit at a
    time."""
    rows = np.zeros((len(items), items[0].config.nbits), dtype=np.uint8)
    for row, v in zip(rows, items):
        for bit in v.on_bits.tolist():
            row[bit] = 1
    return rows


def distance_matrix(items) -> np.ndarray:
    """Pairwise Tanimoto distances 1 - T as an n x n array from the blocked
    kernel, n >= 1: the square form of the condensed distances
    ``hier_cluster`` merges in."""
    dist = tanimoto_matrix(items, items)
    return np.subtract(1.0, dist, out=dist)


def distance_matrix_oracle(items) -> np.ndarray:
    """``distance_matrix`` from the fingerprints' dense rows as float64."""
    rows = dense_rows(items).astype(np.float64)
    return 1.0 - tanimoto_rows_oracle(rows, rows)


def from_hex_oracle(text: str) -> FingerprintVector:
    """Decode ``fingerprints.to_hex``: ``r<radius>b<nbits>s<seed>:<hex>``,
    bit 0 first."""
    head, _, payload = text.partition(":")
    radius, nbits, seed = map(int, re.fullmatch(r"r(\d+)b(\d+)s(-?\d+)", head).groups())
    cfg = FingerprintConfig(radius=radius, nbits=nbits, hash_seed=seed)
    bits = np.unpackbits(np.frombuffer(bytes.fromhex(payload), dtype=np.uint8))
    return on_bit_vector(np.flatnonzero(bits), cfg)


def hash64_oracle(data: str, seed: int) -> int:
    """A freshly keyed 64-bit blake2b digest of ``data`` (the seed's hash)."""
    key = (seed % 2**64).to_bytes(8, "little")
    return int.from_bytes(
        hashlib.blake2b(data.encode("utf-8"), digest_size=8, key=key).digest(),
        "little",
    )


def _bond_label(order: str) -> int:
    return 4 if order == AROMATIC else BOND_ORDER_VALUE[order]


def circular_fingerprint_oracle(mol: Molecule, cfg: FingerprintConfig) -> np.ndarray:
    """The seed's fingerprint as a dense 0/1 uint8 row: ``repr`` and a fresh
    hash for every atom environment of every round, one bit set at a time."""
    frag = largest_fragment(mol)
    seed = cfg.hash_seed
    total_h = hydrogens_oracle(frag)[1]
    ids = [
        hash64_oracle(
            repr(
                (
                    a.element,
                    a.formal_charge,
                    a.aromatic,
                    frag.degree(i),
                    total_h[i],
                )
            ),
            seed,
        )
        for i, a in enumerate(frag.atoms)
    ]
    bits = np.zeros(cfg.nbits, dtype=np.uint8)
    for env_id in ids:
        bits[env_id % cfg.nbits] = 1
    for _ in range(cfg.radius):
        new_ids = []
        for i in range(len(frag.atoms)):
            nbrs = sorted((_bond_label(b.order), ids[j]) for j, b in frag.neighbors(i))
            new_ids.append(hash64_oracle(repr((ids[i], tuple(nbrs))), seed))
        ids = new_ids
        for env_id in ids:
            bits[env_id % cfg.nbits] = 1
    return bits


def act_grad_oracle(z, kind: str):
    """The seed's activation derivative, read from the pre-activation."""
    return (z > 0).astype(float) if kind == "relu" else 1.0 - np.tanh(z) ** 2


def forward_pass_oracle(model, X):
    """The seed's training forward pass: ``(prediction, per-layer
    pre-activations, per-layer activations)``, each a fresh array."""
    a = X
    activations = [a]
    zs = []
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w.T + b
        zs.append(z)
        if i == last:
            a = z
        else:
            a = np.maximum(z, 0.0) if model.activation == "relu" else np.tanh(z)
        activations.append(a)
    return a[:, 0], zs, activations


def backprop_oracle(model, X, y):
    """The seed's backprop: a fresh gradient array per weight and bias,
    collected output layer first and reversed."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1)
    if X.shape[0] != y.shape[0]:
        raise ValueError("X rows and y length differ")
    pred, zs, activations = forward_pass_oracle(model, X)
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
            delta = delta * act_grad_oracle(zs[layer - 1], model.activation)
    grads.reverse()
    return grads, loss


def adam_step_oracle(model, gradients, lr: float):
    """The seed's Adam step: fresh moment and parameter-sized temporaries
    for every operation."""
    params = model.parameter_list()
    state = model.adam_state
    if state is None:
        state = AdamState(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )
        model.adam_state = state
    if len(gradients) != len(params):
        raise ValueError("gradient count != parameter count")
    for g, p in zip(gradients, params):
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter {p.shape}")
    state.t += 1
    t = state.t
    for i, (g, p) in enumerate(zip(gradients, params)):
        state.m[i] = ADAM_BETA1 * state.m[i] + (1 - ADAM_BETA1) * g
        state.v[i] = ADAM_BETA2 * state.v[i] + (1 - ADAM_BETA2) * g * g
        m_hat = state.m[i] / (1 - ADAM_BETA1**t)
        v_hat = state.v[i] / (1 - ADAM_BETA2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return model


def featurize_molecule_oracle(mol, spec) -> np.ndarray:
    """The seed's featurize_molecule: the seed's dense fingerprint bits as
    floats and the descriptor tail, concatenated into a new row."""
    bits = circular_fingerprint_oracle(mol, spec.fingerprint)
    desc = compute_descriptors(mol)
    tail = [float(getattr(desc, name)) for name in spec.descriptors]
    return np.concatenate([bits.astype(float), np.asarray(tail)])


def predict_pic50_oracle(model, mol) -> float:
    """The single-row prediction that block scoring replaced: one molecule's
    feature row, normalized as a (1, K) matrix and run through forward's
    batch product."""
    raw = featurize_molecule_oracle(mol, model.feature_spec)[None, :]
    return float(forward(model, model.norm_stats.apply(raw))[0])


def featurize_records_oracle(records, spec) -> np.ndarray:
    """The seed's featurize_records: a list of rows, then an np.stack copy
    (which raises ValueError on an empty list)."""
    rows = []
    for record in records:
        try:
            rows.append(featurize_molecule_oracle(parse_smiles(record.canonical_smiles), spec))
        except ValueError as exc:
            raise ValueError(f"record {record.id}: {exc}") from exc
    return np.stack(rows)


def norm_apply_oracle(stats, X) -> np.ndarray:
    """The seed's NormStats.apply: gather, subtract and divide, each into a
    fresh array."""
    return (X[:, stats.kept] - stats.mean) / stats.std


def mlp_forward_oracle(weights, biases, activation, x):
    """Plain-python affine/activation chain, no numpy."""
    values = list(x)
    last = len(weights) - 1
    for layer, (w, b) in enumerate(zip(weights, biases)):
        nxt = []
        for row, bias in zip(w, b):
            z = sum(wi * vi for wi, vi in zip(row, values)) + bias
            if layer == last:
                nxt.append(z)
            elif activation == "relu":
                nxt.append(max(z, 0.0))
            else:
                nxt.append(math.tanh(z))
        values = nxt
    return values[0]


def _all_pairs_path_lengths(mol: Molecule) -> tuple[tuple[float, ...], ...]:
    """Bond-path distance between every two atoms (math.inf across
    fragments), one breadth-first search per atom."""
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


def anchor_distance_oracle(table, a, b) -> float:
    """Shortest path between two features' anchor sets, the minimum of the
    all-pairs table over every anchor pair."""
    return min(table[i][j] for i in a.anchor for j in b.anchor)


def fit_value_oracle(hypothesis, mol: Molecule) -> float:
    """Exhaustive enumeration of every injective mapping from hypothesis
    slots onto molecule features, kind-checked per mapping."""
    from screenforge.pharmacophore import detect_features

    feats = detect_features(mol)
    table = _all_pairs_path_lengths(mol)
    slots = hypothesis.features
    n = len(slots)
    weights = [w for _, w in slots]
    best = 0.0
    found_complete = False
    for combo in itertools.permutations(range(len(feats)), n):
        if any(feats[m].kind != slots[s][0] for s, m in enumerate(combo)):
            continue
        found_complete = True
        score = 0.0
        for (i, j), (constraint, tol) in hypothesis.pair_constraints.items():
            d = anchor_distance_oracle(table, feats[combo[i]], feats[combo[j]])
            if math.isinf(d) and math.isinf(constraint):
                dev = 0.0
            elif math.isinf(d) or math.isinf(constraint):
                continue
            else:
                dev = abs(d - constraint)
            score += (weights[i] + weights[j]) / (n - 1) * max(0.0, 1.0 - dev / (tol + 1.0))
        best = max(best, score)
    return best if found_complete else 0.0


def fit_value_product_oracle(h, mol: Molecule) -> float:
    """The exhaustive search ``fit_value`` used before branch and bound: the
    product of per-kind permutations, each assignment scored in
    ``h.pair_constraints`` order."""
    from screenforge.pharmacophore import PharmFeature, detect_features

    mol_feats = detect_features(mol)
    table = _all_pairs_path_lengths(mol)
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
            d = anchor_distance_oracle(table, assignment[i], assignment[j])
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


def score_candidates_oracle(candidates, training) -> None:
    """The scoring loop ``pharm train`` ran before ``score_candidates``:
    ``score_costs`` on every candidate, duplicates included."""
    from screenforge.pharmacophore import score_costs

    for candidate in candidates:
        score_costs(candidate, training)


def least_squares_oracle(xs, ys):
    """Closed-form 1-D least squares (slope, intercept)."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    var = sum((x - mx) ** 2 for x in xs)
    if var == 0:
        return 0.0, my
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / var
    return slope, my - slope * mx


def canonical_smiles_oracle(mol: Molecule) -> str:
    """Canonical SMILES written by the recursive two-pass fragment writer
    that the library's explicit-stack writer replaced. An uncharged,
    untagged, non-isotopic organic-subset atom is written bare when it pins
    no H count or pins its ``bare_hydrogens_oracle`` count; any other atom
    is written in brackets."""
    from screenforge.chem_graph import _bond_token, canonical_ranks

    bare_h = bare_hydrogens_oracle(mol)

    def atom_token(u: int) -> str:
        a = mol.atoms[u]
        symbol = a.element.lower() if a.aromatic else a.element
        organic = AROMATIC_ORGANIC if a.aromatic else ORGANIC_SUBSET
        if (symbol in organic and a.formal_charge == 0 and a.isotope is None
                and a.chirality is None and a.explicit_h in (None, bare_h[u])):
            return symbol
        isotope = "" if a.isotope is None else str(a.isotope)
        h = a.explicit_h or 0
        count = "" if h == 0 else "H" if h == 1 else f"H{h}"
        c = a.formal_charge
        charge = "" if c == 0 else ("+" if c > 0 else "-") + (str(abs(c)) if abs(c) > 1 else "")
        return f"[{isotope}{symbol}{a.chirality or ''}{count}{charge}]"

    ranks = canonical_ranks(mol)

    def write(start: int) -> str:
        preorder, children, ring_closures = [], {}, []
        seen_bonds, visited = set(), set()

        def classify(u):
            visited.add(u)
            preorder.append(u)
            children[u] = []
            for v, bond in sorted(mol.neighbors(u), key=lambda t: ranks[t[0]]):
                if id(bond) in seen_bonds:
                    continue
                seen_bonds.add(id(bond))
                if v in visited:
                    ring_closures.append((v, u, bond))
                else:
                    children[u].append((v, bond))
                    classify(v)

        classify(start)
        pre_index = {a: i for i, a in enumerate(preorder)}
        opens, closes = {}, {}
        for open_atom, close_atom, bond in sorted(
            ring_closures, key=lambda t: (pre_index[t[0]], pre_index[t[1]])
        ):
            opens.setdefault(open_atom, []).append(bond)
            closes.setdefault(close_atom, []).append(bond)
        digit_of, free_digits, out = {}, list(range(1, 100)), []

        def digit_token(d):
            return str(d) if d < 10 else f"%{d:02d}"

        def emit(u):
            out.append(atom_token(u))
            for bond in closes.get(u, ()):
                d = digit_of.pop(id(bond))
                free_digits.append(d)
                free_digits.sort()
                out.append(digit_token(d))
            for bond in opens.get(u, ()):
                d = free_digits.pop(0)
                digit_of[id(bond)] = d
                out.append(_bond_token(bond, mol) + digit_token(d))
            kids = children[u]
            for v, bond in kids[:-1]:
                out.append("(" + _bond_token(bond, mol))
                emit(v)
                out.append(")")
            if kids:
                v, bond = kids[-1]
                out.append(_bond_token(bond, mol))
                emit(v)

        emit(start)
        return "".join(out)

    pieces = [
        write(min(frag, key=lambda i: ranks[i]))
        for frag in components_oracle(mol, range(len(mol.atoms)))
    ]
    return ".".join(sorted(pieces))


def hier_cluster_oracle(dist, linkage="average", k=1):
    """Agglomerative clustering of a distance matrix by a full argmin over
    every active pair at each merge (O(n^3)): the scan the library's
    nearest-neighbour list replaced. Same tie rule: the smallest (i, j)
    among equal distances. Representatives are read from ``dist``."""
    from screenforge.simcluster import ClusterAssignment

    dist = np.asarray(dist, dtype=float)
    n = dist.shape[0]
    work = dist.copy()
    np.fill_diagonal(work, np.inf)
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=float)
    members = [[i] for i in range(n)]
    # work[i, j] for active i < j, and inf everywhere else
    pairs = np.where(np.triu(np.ones((n, n), dtype=bool), 1), work, np.inf)

    for _ in range(n - k):
        flat = int(np.argmin(pairs))  # first occurrence = smallest (i, j)
        i, j = divmod(flat, n)
        if linkage == "single":
            merged = np.minimum(work[i], work[j])
        elif linkage == "complete":
            merged = np.maximum(work[i], work[j])
        else:
            merged = (sizes[i] * work[i] + sizes[j] * work[j]) / (sizes[i] + sizes[j])
        work[i], work[:, i] = merged, merged
        work[i, i] = np.inf
        active[j] = False
        sizes[i] += sizes[j]
        members[i].extend(members[j])
        pairs[j], pairs[:, j] = np.inf, np.inf
        pairs[i, i + 1 :] = np.where(active[i + 1 :], merged[i + 1 :], np.inf)
        pairs[:i, i] = np.where(active[:i], merged[:i], np.inf)

    clusters = sorted((min(m), m) for idx, m in enumerate(members) if active[idx])
    labels = [0] * n
    ordered_members = []
    for cluster_id, (_, member_list) in enumerate(clusters):
        ordered_members.append(sorted(member_list))
        for item in member_list:
            labels[item] = cluster_id
    return ClusterAssignment(
        labels=tuple(labels),
        representatives=tuple(medoids_oracle(ordered_members, dist)),
    )


def merge_nn_list_oracle(work: np.ndarray, n: int, linkage: str, k: int) -> np.ndarray:
    """The nearest-neighbour-list merge ``simcluster._merge`` replaced: each
    search and update masks merged-away rows and columns with an ``active``
    array, and each merge relabels its members (``owner == j``). Merges
    down to k clusters in the condensed distances ``work`` (overwritten)
    and returns each item's cluster id, its smallest member index."""
    ids = np.arange(n)
    base = ids * (2 * n - ids - 3) // 2 - 1
    first = (base + ids + 1).tolist()
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=float)
    owner = ids.copy()
    nn = np.full(n, n)
    best = np.full(n, np.inf)
    diagonal = np.full(1, np.inf)

    def run(r: int) -> np.ndarray:
        return work[first[r] : first[r] + n - 1 - r]

    def scan(r: int) -> None:
        row = np.where(active[r + 1 :], run(r), np.inf)
        c = int(np.argmin(row))
        nn[r], best[r] = r + 1 + c, row[c]

    for r in range(n - 1):
        scan(r)
    for _ in range(n - k):
        i = int(np.argmin(best))
        j = int(nn[i])
        above = base[:i] + i
        di = np.concatenate((work[above], diagonal, run(i)))
        dj = np.concatenate((work[base[:j] + j], diagonal, run(j)))
        if linkage == "single":
            merged = np.minimum(di, dj)
        elif linkage == "complete":
            merged = np.maximum(di, dj)
        else:
            merged = (sizes[i] * di + sizes[j] * dj) / (sizes[i] + sizes[j])
        work[above], run(i)[:] = merged[:i], merged[i + 1 :]
        active[j], best[j] = False, np.inf
        sizes[i] += sizes[j]
        owner[owner == j] = i
        stale = np.flatnonzero(active & ((nn == i) | (nn == j)))
        col, head = merged[:i], best[:i]
        closer = active[:i] & ((col < head) | ((col == head) & (nn[:i] > i)))
        nn[:i][closer], head[closer] = i, col[closer]
        for r in stale:
            scan(int(r))
    return owner


def nn_list_cluster_oracle(items, linkage="average", k=1):
    """``hier_cluster`` as ``merge_nn_list_oracle`` merges the unblocked
    float64 distances, with medoids read from the full matrix."""
    from screenforge.simcluster import ClusterAssignment

    dist = distance_matrix_oracle(items)
    n = len(items)
    owner = merge_nn_list_oracle(dist[np.triu_indices(n, 1)], n, linkage, k)
    roots, labels = np.unique(owner, return_inverse=True)
    clusters = [np.flatnonzero(owner == c).tolist() for c in roots]
    return ClusterAssignment(labels=tuple(labels.tolist()),
                             representatives=tuple(medoids_oracle(clusters, dist)))


def distance_totals_oracle(member_list: list[int], dist) -> np.ndarray:
    """Each member's summed distance to its co-members, read from the full
    matrix."""
    sub = dist[np.ix_(member_list, member_list)]  # a copy
    np.fill_diagonal(sub, 0.0)  # as in merging, the diagonal is ignored
    return sub.sum(axis=1)


def medoids_oracle(clusters: list[list[int]], dist) -> list[int]:
    """Per cluster, the member with the least summed distance to its
    co-members (the lowest id on a tie), read from the full matrix."""
    return [m[int(np.argmin(distance_totals_oracle(m, dist)))] for m in clusters]


def cluster_members(assignment, cluster: int) -> list[int]:
    """The items an assignment labels ``cluster``, in ascending order."""
    return [i for i, label in enumerate(assignment.labels) if label == cluster]


def medoid_representatives(assignment, dist) -> list[int]:
    """``medoids_oracle`` of a given assignment's clusters."""
    clusters = [cluster_members(assignment, c) for c in range(len(assignment.representatives))]
    return medoids_oracle(clusters, dist)


def string_similarity_oracle(a: str, b: str) -> float:
    """2*LCS/(|a|+|b|) with the LCS length from the O(|a||b|) dynamic
    programming table."""
    prev = [0] * (len(b) + 1)
    for ca in a:
        cur = [0]
        for j, cb in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if ca == cb else max(prev[j], cur[-1]))
        prev = cur
    return 2.0 * prev[-1] / (len(a) + len(b))


def components_oracle(mol: Molecule, atoms) -> list[list[int]]:
    """Connected components of the subgraph induced by ``atoms`` by the
    set-based depth-first walk the library's list-based one replaced:
    members sorted, components ordered by smallest member."""
    members = set(atoms)
    seen: set[int] = set()
    out = []
    for start in sorted(members):
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            u = stack.pop()
            comp.append(u)
            for v, _ in mol.neighbors(u):
                if v in members and v not in seen:
                    seen.add(v)
                    stack.append(v)
        out.append(sorted(comp))
    return out


def largest_fragment_oracle(mol: Molecule) -> Molecule:
    """The largest fragment picked the way the library once did: build every
    fragment as a molecule, then take the most heavy atoms, then the highest
    mass summed over the built fragment's element counts, then the lowest
    first atom index."""
    frags = []
    for frag in components_oracle(mol, range(len(mol.atoms))):
        index_map = {old: new for new, old in enumerate(frag)}
        bonds = [
            b._replace(a=index_map[b.a], b=index_map[b.b])
            for b in mol.bonds
            if b.a in index_map and b.b in index_map
        ]
        frags.append((frag[0], Molecule([mol.atoms[i] for i in frag], bonds)))

    def mass(m: Molecule) -> float:
        return sum(ATOMIC_WEIGHTS[e] * c for e, c in element_counts(m).items())

    return max(frags, key=lambda f: (f[1].heavy_atom_count(), mass(f[1]), -f[0]))[1]


def _cycle_basis(mol: Molecule) -> list[list[int]]:
    """Fundamental cycles from a BFS spanning forest (a cycle basis,
    not necessarily the smallest set of smallest rings)."""
    n, adj = len(mol.atoms), mol._adjacency
    parent = [-1] * n
    depth = [-1] * n
    tree_edges: set[int] = set()
    order: list[int] = []  # BFS visit order, also the queue
    head = 0
    for root in range(n):
        if depth[root] != -1:
            continue
        depth[root] = 0
        order.append(root)
        while head < len(order):
            u = order[head]
            head += 1
            for v, bond in adj[u]:
                if depth[v] == -1:
                    depth[v] = depth[u] + 1
                    parent[v] = u
                    tree_edges.add(id(bond))
                    order.append(v)
    cycles = []
    seen_edges: set[tuple[int, int]] = set()
    for u in order:
        for v, bond in adj[u]:
            key = (min(u, v), max(u, v))
            if id(bond) in tree_edges or key in seen_edges:
                continue
            seen_edges.add(key)
            pu, pv = u, v
            left, right = [pu], [pv]
            while depth[pu] > depth[pv]:
                pu = parent[pu]
                left.append(pu)
            while depth[pv] > depth[pu]:
                pv = parent[pv]
                right.append(pv)
            while pu != pv:
                pu, pv = parent[pu], parent[pv]
                left.append(pu)
                right.append(pv)
            cycles.append(left + right[-2::-1])
    return cycles


def ring_bonds_oracle(mol: Molecule) -> set[tuple[int, int]]:
    """Non-bridge bonds as (low, high) atom pairs, via iterative Tarjan
    lowlink: a bond lies on a cycle exactly when it is not a bridge."""
    n = len(mol.atoms)
    disc = [-1] * n
    low = [0] * n
    bridges: set[tuple[int, int]] = set()
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        while stack:
            u, parent_edge, i = stack.pop()
            if i == 0:
                disc[u] = low[u] = timer
                timer += 1
            nbrs = mol.neighbors(u)
            if i < len(nbrs):
                stack.append((u, parent_edge, i + 1))
                v, bond = nbrs[i]
                if disc[v] == -1:
                    stack.append((v, id(bond), 0))
                elif id(bond) != parent_edge:
                    low[u] = min(low[u], disc[v])
            else:
                for v, bond in nbrs:
                    if id(bond) == parent_edge:
                        continue
                    if disc[v] > disc[u]:  # tree child
                        low[u] = min(low[u], low[v])
                        if low[v] > disc[u]:
                            bridges.add((min(u, v), max(u, v)))
    keys = {(min(b.a, b.b), max(b.a, b.b)) for b in mol.bonds}
    return keys - bridges


def parse_smiles_oracle(text: str) -> Molecule:
    """The character-by-character parser the library's table-driven one
    replaced: ten ``startswith`` probes and a new :class:`Atom` per atom.

    Raises UnclosedRing, UnbalancedParenthesis, UnknownElement,
    ValenceViolation or SmilesSyntaxError on malformed input.
    """
    if not isinstance(text, str) or not text.strip():
        raise SmilesSyntaxError("empty SMILES string")
    text = text.strip()
    atoms: list[Atom] = []
    bonds: list[Bond] = []
    prev: int | None = None
    pending: tuple[str, str | None] | None = None
    branch_stack: list[int | None] = []
    # ring number -> (atom index, pending bond at opening)
    open_rings: dict[int, tuple[int, tuple[str, str | None] | None]] = {}

    def add_bond(i: int, j: int, spec: tuple[str, str | None] | None) -> None:
        if spec is None:
            both_aromatic = atoms[i].aromatic and atoms[j].aromatic
            order, direction = (AROMATIC, None) if both_aromatic else (SINGLE, None)
        else:
            order, direction = spec
        bonds.append(Bond(i, j, order, direction))

    def close_ring(num: int) -> None:
        nonlocal pending
        if prev is None:
            raise SmilesSyntaxError(f"ring digit {num} before any atom")
        if num in open_rings:
            other, opening_spec = open_rings.pop(num)
            if other == prev:
                raise SmilesSyntaxError(f"ring {num} closed on its opening atom")
            if opening_spec is not None and pending is not None and opening_spec != pending:
                raise SmilesSyntaxError(f"conflicting bond symbols on ring {num}")
            add_bond(other, prev, opening_spec if opening_spec is not None else pending)
        else:
            open_rings[num] = (prev, pending)
        pending = None

    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            raise SmilesSyntaxError(f"whitespace inside SMILES at column {i}")
        if ch == "(":
            if prev is None:
                raise SmilesSyntaxError("branch opened before any atom")
            if pending is not None:
                raise SmilesSyntaxError("bond symbol immediately before '('")
            branch_stack.append(prev)
            i += 1
            continue
        if ch == ")":
            if not branch_stack:
                raise UnbalancedParenthesis(f"unmatched ')' at column {i}")
            if pending is not None:
                raise SmilesSyntaxError("dangling bond symbol before ')'")
            prev = branch_stack.pop()
            i += 1
            continue
        if ch == ".":
            if pending is not None or branch_stack:
                raise SmilesSyntaxError("misplaced fragment separator '.'")
            prev = None
            i += 1
            continue
        if ch in _BOND_CHARS:
            if pending is not None:
                raise SmilesSyntaxError(f"two bond symbols in a row at column {i}")
            if prev is None:
                raise SmilesSyntaxError(f"bond symbol before any atom at column {i}")
            pending = _BOND_CHARS[ch]
            i += 1
            continue
        if "0" <= ch <= "9":
            close_ring(int(ch))
            i += 1
            continue
        if ch == "%":
            if i + 2 >= n or not ("0" <= text[i + 1] <= "9" and "0" <= text[i + 2] <= "9"):
                raise SmilesSyntaxError(f"'%' needs two digits at column {i}")
            close_ring(int(text[i + 1:i + 3]))
            i += 3
            continue
        if ch == "[":
            atom, i = _parse_bracket(text, i)
        else:
            atom = None
            for sym in ORGANIC_SUBSET:
                if text.startswith(sym, i):
                    atom = Atom(sym)
                    i += len(sym)
                    break
            if atom is None:
                if ch in AROMATIC_ORGANIC:
                    atom = Atom(ch.upper(), aromatic=True)
                    i += 1
                elif ch.isalpha():
                    raise UnknownElement(
                        f"element '{ch}' not in the organic subset at column {i}"
                    )
                else:
                    raise SmilesSyntaxError(f"unexpected character {ch!r} at column {i}")
        atoms.append(atom)
        idx = len(atoms) - 1
        if prev is not None:
            add_bond(prev, idx, pending)
        elif pending is not None:
            raise SmilesSyntaxError("bond symbol before first atom of a fragment")
        pending = None
        prev = idx

    if pending is not None:
        raise SmilesSyntaxError("dangling bond symbol at end of input")
    if branch_stack:
        raise UnbalancedParenthesis(f"{len(branch_stack)} unclosed '('")
    if open_rings:
        nums = sorted(open_rings)
        raise UnclosedRing(f"unmatched ring closure digit(s): {nums}")
    if not atoms:
        raise SmilesSyntaxError("no atoms in SMILES")
    return Molecule(atoms, bonds)


def _initial_invariants(mol: Molecule) -> list[tuple]:
    total_h = hydrogens_oracle(mol)[1]
    return [
        (
            a.element,
            a.formal_charge,
            a.isotope or 0,
            a.aromatic,
            mol.degree(i),
            total_h[i],
        )
        for i, a in enumerate(mol.atoms)
    ]


def _dense_ranks(keys: list) -> list[int]:
    order = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def canonical_ranks_oracle(mol: Molecule) -> list[int]:
    """Canonical atom ranks by full synchronous rounds that re-key every
    atom, the refinement the library's incremental one replaced.

    Ties that survive refinement are split one atom at a time (lowest
    current rank class, lowest original index) and refinement re-runs, so
    equivalent atoms of symmetric molecules stay interchangeable while the
    emitted string is unique.
    """
    n = len(mol.atoms)
    ranks = _dense_ranks(_initial_invariants(mol))

    def refine(ranks: list[int]) -> list[int]:
        while True:
            keys = []
            for i in range(n):
                nbrs = sorted(
                    (BOND_ORDER_VALUE[b.order] if b.order != AROMATIC else 4, ranks[j])
                    for j, b in mol.neighbors(i)
                )
                keys.append((ranks[i], tuple(nbrs)))
            new = _dense_ranks(keys)
            if new == ranks:
                return ranks
            ranks = new

    ranks = refine(ranks)
    while len(set(ranks)) < n:
        counts: dict[int, list[int]] = {}
        for i, r in enumerate(ranks):
            counts.setdefault(r, []).append(i)
        tied_rank = min(r for r, members in counts.items() if len(members) > 1)
        chosen = min(counts[tied_rank])
        ranks = [r * 2 for r in ranks]
        ranks[chosen] -= 1
        ranks = refine(_dense_ranks(ranks))
    return ranks
