"""Independent oracles used by the test suite.

These deliberately re-derive results along different code paths than the
library (set arithmetic, exhaustive enumeration, plain-python loops) so a
test never checks an implementation against itself.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from screenforge.chem_graph import Molecule


def _atom_key(mol: Molecule, i: int):
    a = mol.atoms[i]
    return (a.element, a.formal_charge, a.isotope or 0, a.aromatic, mol.total_h(i))


def brute_force_isomorphic(a: Molecule, b: Molecule) -> bool:
    """Backtracking graph-isomorphism check for small molecules."""
    n = len(a.atoms)
    if n != len(b.atoms) or len(a.bonds) != len(b.bonds):
        return False
    keys_a = sorted(_atom_key(a, i) for i in range(n))
    keys_b = sorted(_atom_key(b, i) for i in range(n))
    if keys_a != keys_b:
        return False

    bonds_a = {(min(x.a, x.b), max(x.a, x.b)): x.order for x in a.bonds}
    bonds_b = {(min(x.a, x.b), max(x.a, x.b)): x.order for x in b.bonds}
    candidates = [
        [j for j in range(n) if _atom_key(b, j) == _atom_key(a, i)] for i in range(n)
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


def tanimoto_formula_oracle(a, b) -> float:
    """Direct evaluation of T = A.B / (|A|^2 + |B|^2 - A.B), plain python."""
    dot = sum(x * y for x, y in zip(a, b))
    na = sum(x * x for x in a)
    nb = sum(y * y for y in b)
    denom = na + nb - dot
    return 1.0 if denom == 0 else dot / denom


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


def fit_value_oracle(hypothesis, mol: Molecule) -> float:
    """Exhaustive enumeration of every injective mapping from hypothesis
    slots onto molecule features, kind-checked per mapping."""
    from screenforge.pharmacophore import detect_features, feature_distance

    feats = detect_features(mol)
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
            d = feature_distance(mol, feats[combo[i]], feats[combo[j]])
            if math.isinf(d) and math.isinf(constraint):
                dev = 0.0
            elif math.isinf(d) or math.isinf(constraint):
                continue
            else:
                dev = abs(d - constraint)
            score += (weights[i] + weights[j]) / (n - 1) * max(0.0, 1.0 - dev / (tol + 1.0))
        best = max(best, score)
    return best if found_complete else 0.0


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
    that the library's explicit-stack writer replaced."""
    from screenforge.chem_graph import _atom_token, _bond_token, canonical_ranks

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
            out.append(_atom_token(mol.atoms[u]))
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
        for frag in mol.components(range(len(mol.atoms)))
    ]
    return ".".join(sorted(pieces))


def hier_cluster_oracle(dist, linkage="average", k=1):
    """Agglomerative clustering by a full argmin over every active pair at
    each merge (O(n^3)): the scan the library's nearest-neighbour list
    replaced. Same tie rule: the smallest (i, j) among equal distances."""
    from screenforge.simcluster import ClusterAssignment, _medoids

    dist = np.asarray(dist, dtype=float)
    n = dist.shape[0]
    work = dist.copy().astype(float)
    np.fill_diagonal(work, np.inf)
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=float)
    members = [[i] for i in range(n)]

    for _ in range(n - k):
        masked = np.where(active[:, None] & active[None, :], work, np.inf)
        masked[np.tril_indices(n)] = np.inf
        flat = int(np.argmin(masked))  # first occurrence = smallest (i, j)
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

    clusters = sorted((min(m), m) for idx, m in enumerate(members) if active[idx])
    labels = [0] * n
    ordered_members = []
    for cluster_id, (_, member_list) in enumerate(clusters):
        ordered_members.append(sorted(member_list))
        for item in member_list:
            labels[item] = cluster_id
    return ClusterAssignment(
        labels=tuple(labels),
        k=k,
        linkage=linkage,
        representatives=tuple(_medoids(ordered_members, dist)),
    )


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
