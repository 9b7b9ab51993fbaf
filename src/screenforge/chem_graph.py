"""Molecular graphs from SMILES: parsing, canonicalization, formulas.

The supported grammar is the Daylight organic subset (B, C, N, O, P, S,
F, Cl, Br, I and their aromatic lowercase forms) plus bracket atoms with
isotope, chirality tag, hydrogen count and charge. Bracket atoms may name
a wider range of elements so salt counter-ions such as [Na+] survive
ingestion. Stereo markers (``/ \\ @``) are accepted and recorded but never
interpreted; bond direction markers are normalized away on writing.

Aromaticity is taken from the input flags as written; there is no
perception or kekulization pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

# Abridged standard atomic weights (g/mol).
ATOMIC_WEIGHTS = {
    "H": 1.008, "B": 10.81, "C": 12.011, "N": 14.007, "O": 15.999,
    "F": 18.998, "P": 30.974, "S": 32.06, "Cl": 35.45, "Br": 79.904,
    "I": 126.904,
    # Bracket-only elements (salt formers and common hetero elements).
    "Li": 6.94, "Na": 22.990, "K": 39.098, "Rb": 85.468, "Cs": 132.905,
    "Mg": 24.305, "Ca": 40.078, "Sr": 87.62, "Ba": 137.327,
    "Al": 26.982, "Si": 28.085, "Se": 78.971, "As": 74.922,
    "Zn": 65.38, "Fe": 55.845, "Cu": 63.546, "Mn": 54.938, "Co": 58.933,
    "Ni": 58.693, "Ag": 107.868, "Sn": 118.71, "Pt": 195.084,
    "Au": 196.967, "Hg": 200.59, "Pb": 207.2,
}

# Elements readable/writable without brackets, longest symbols first.
ORGANIC_SUBSET = ("Cl", "Br", "B", "C", "N", "O", "P", "S", "F", "I")
AROMATIC_ORGANIC = ("b", "c", "n", "o", "p", "s")

# Standard valence alternatives for implicit-hydrogen derivation.
VALENCES = {
    "B": (3,), "C": (4,), "N": (3, 5), "O": (2,), "P": (3, 5),
    "S": (2, 4, 6), "F": (1,), "Cl": (1,), "Br": (1,), "I": (1,),
    "H": (1,),
}

SINGLE, DOUBLE, TRIPLE, AROMATIC = "single", "double", "triple", "aromatic"
BOND_ORDER_VALUE = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3, AROMATIC: 1}


class SmilesError(ValueError):
    """Base class for every parser and molecule-validation error."""


class SmilesSyntaxError(SmilesError):
    """Malformed SMILES text not covered by a more specific error."""


class UnclosedRing(SmilesError):
    """A ring-closure digit was opened but never matched."""


class UnbalancedParenthesis(SmilesError):
    """Branch parentheses do not balance."""


class UnknownElement(SmilesError):
    """Element symbol outside the supported set."""


class ValenceViolation(SmilesError):
    """Implicit hydrogen count would be negative under standard valences."""


@dataclass(frozen=True)
class Atom:
    element: str
    formal_charge: int = 0
    isotope: int | None = None
    aromatic: bool = False
    # None means "derive implicit hydrogens"; bracket atoms pin a count.
    explicit_h: int | None = None
    chirality: str | None = None


@dataclass(frozen=True)
class Bond:
    a: int
    b: int
    order: str = SINGLE
    direction: str | None = None  # recorded '/' or '\', never interpreted

    def other(self, idx: int) -> int:
        return self.b if idx == self.a else self.a


@dataclass
class Molecule:
    """Attributed molecular graph. Treat as immutable after construction.

    Derived values (ring data, fingerprints, descriptors, pharmacophore
    features and path tables) are computed once, on first request, and
    live as long as the molecule.
    """

    atoms: list[Atom]
    bonds: list[Bond]
    fragment_count: int = 1
    implicit_h: list[int] = field(default_factory=list)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def derived(self, compute, *args):
        """``compute(self, *args)``, computed on the first request for that
        function and those arguments and returned from the memo after."""
        key = (compute, *args)
        if key not in self._memo:
            self._memo[key] = compute(self, *args)
        return self._memo[key]

    @property
    def rings(self) -> list[list[int]]:
        """A cycle basis, built on first access."""
        return self.derived(_cycle_basis)

    @property
    def ring_bonds(self) -> frozenset[tuple[int, int]]:
        """Bonds on some cycle, as (low, high) atom pairs, built on first
        access."""
        return self.derived(_ring_bonds)

    def neighbors(self, idx: int) -> list[tuple[int, Bond]]:
        return self._adjacency[idx]

    def total_h(self, idx: int) -> int:
        """Hydrogens on an atom: implicit or pinned, plus [H] neighbors."""
        atom = self.atoms[idx]
        own = atom.explicit_h if atom.explicit_h is not None else self.implicit_h[idx]
        return own + sum(1 for j, _ in self._adjacency[idx] if self.atoms[j].element == "H")

    def heavy_atom_count(self) -> int:
        return sum(1 for a in self.atoms if a.element != "H")

    def degree(self, idx: int) -> int:
        return len(self._adjacency[idx])

    def bond_between(self, i: int, j: int) -> Bond | None:
        for k, bond in self._adjacency[i]:
            if k == j:
                return bond
        return None

    def components(self, atoms) -> list[list[int]]:
        """Connected components of the subgraph induced by ``atoms``:
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
                for v, _ in self._adjacency[u]:
                    if v in members and v not in seen:
                        seen.add(v)
                        stack.append(v)
            out.append(sorted(comp))
        return out


def _build_adjacency(n: int, bonds: list[Bond]) -> list[list[tuple[int, Bond]]]:
    adj: list[list[tuple[int, Bond]]] = [[] for _ in range(n)]
    for bond in bonds:
        adj[bond.a].append((bond.b, bond))
        adj[bond.b].append((bond.a, bond))
    return adj


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


def _ring_bonds(mol: Molecule) -> frozenset[tuple[int, int]]:
    # The non-bridge edges, as each of them lies on some basis cycle. The
    # basis itself is not kept: rotatable_bonds reads only the edge set.
    return frozenset(
        (min(u, v), max(u, v))
        for ring in _cycle_basis(mol)
        for u, v in zip(ring, ring[1:] + ring[:1])
    )


def _implicit_hydrogens(atoms: list[Atom], bonds: list[Bond], adj) -> list[int]:
    out = [0] * len(atoms)
    for idx, atom in enumerate(atoms):
        if atom.explicit_h is not None:
            continue
        valences = VALENCES.get(atom.element)
        if valences is None:
            # Bracket-only element without a pinned H count: no implicit H.
            continue
        sigma = 0
        has_multiple = False
        for _, bond in adj[idx]:
            sigma += BOND_ORDER_VALUE[bond.order]
            if bond.order in (DOUBLE, TRIPLE):
                has_multiple = True
        if atom.aromatic:
            # One ring pi bond is assumed for aromatic C/B, and for
            # two-connected aromatic N/P (pyridine-like). Aromatic O/S
            # contribute a lone pair instead, as do three-connected N/P.
            pi = 0
            if not has_multiple:
                if atom.element in ("C", "B"):
                    pi = 1
                elif atom.element in ("N", "P") and len(adj[idx]) == 2:
                    pi = 1
            sigma += pi
            candidates = (valences[0],)
        else:
            candidates = valences
        h = -1
        for v in candidates:
            if v >= sigma:
                h = v - sigma
                break
        if h < 0:
            raise ValenceViolation(
                f"atom {idx} ({atom.element}): bond order sum {sigma} exceeds "
                f"allowed valences {candidates}"
            )
        out[idx] = h
    return out


def make_molecule(atoms: list[Atom], bonds: list[Bond]) -> Molecule:
    """Validate parts and derive fragments and implicit hydrogens."""
    n = len(atoms)
    seen_pairs: set[tuple[int, int]] = set()
    for bond in bonds:
        if bond.a == bond.b:
            raise SmilesSyntaxError(f"bond between atom {bond.a} and itself")
        if not (0 <= bond.a < n and 0 <= bond.b < n):
            raise SmilesSyntaxError("bond endpoint out of range")
        key = (min(bond.a, bond.b), max(bond.a, bond.b))
        if key in seen_pairs:
            raise SmilesSyntaxError(f"duplicate bond between atoms {key}")
        seen_pairs.add(key)
        if bond.order == AROMATIC and not (
            atoms[bond.a].aromatic and atoms[bond.b].aromatic
        ):
            raise SmilesSyntaxError(
                f"aromatic bond {key} touches a non-aromatic atom"
            )
    adj = _build_adjacency(n, bonds)
    mol = Molecule(
        atoms=list(atoms),
        bonds=list(bonds),
        implicit_h=_implicit_hydrogens(atoms, bonds, adj),
    )
    mol._adjacency = adj
    mol._fragment_list = mol.components(range(n))
    mol.fragment_count = len(mol._fragment_list)
    return mol


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_BOND_CHARS = {
    "-": (SINGLE, None), "=": (DOUBLE, None), "#": (TRIPLE, None),
    ":": (AROMATIC, None), "/": (SINGLE, "/"), "\\": (SINGLE, "\\"),
}


def _parse_bracket(text: str, pos: int) -> tuple[Atom, int]:
    """Parse a bracket atom starting at ``text[pos] == '['``."""
    end = text.find("]", pos)
    if end == -1:
        raise SmilesSyntaxError(f"unterminated bracket atom at column {pos}")
    body = text[pos + 1:end]
    i = 0
    isotope = None
    if i < len(body) and body[i].isdigit():
        j = i
        while j < len(body) and body[j].isdigit():
            j += 1
        isotope = int(body[i:j])
        i = j
    if i >= len(body) or not body[i].isalpha():
        raise SmilesSyntaxError(f"bracket atom missing element symbol: [{body}]")
    symbol = body[i]
    i += 1
    if i < len(body) and body[i].islower() and symbol.isupper():
        symbol += body[i]
        i += 1
    aromatic = symbol[0].islower()
    element = symbol.capitalize() if aromatic else symbol
    if aromatic and symbol not in AROMATIC_ORGANIC:
        raise UnknownElement(f"unsupported aromatic element '{symbol}'")
    if element not in ATOMIC_WEIGHTS:
        raise UnknownElement(f"unsupported element '{element}'")
    chirality = None
    if i < len(body) and body[i] == "@":
        chirality = "@"
        i += 1
        if i < len(body) and body[i] == "@":
            chirality = "@@"
            i += 1
    h_count = 0
    if i < len(body) and body[i] == "H":
        i += 1
        j = i
        while j < len(body) and body[j].isdigit():
            j += 1
        h_count = int(body[i:j]) if j > i else 1
        i = j
    charge = 0
    if i < len(body) and body[i] in "+-":
        sign = 1 if body[i] == "+" else -1
        i += 1
        if i < len(body) and body[i].isdigit():
            j = i
            while j < len(body) and body[j].isdigit():
                j += 1
            charge = sign * int(body[i:j])
            i = j
        else:
            charge = sign
            while i < len(body) and body[i] == body[i - 1]:
                charge += sign
                i += 1
    if i != len(body):
        raise SmilesSyntaxError(f"unsupported bracket-atom feature in [{body}]")
    if not -4 <= charge <= 4:
        raise SmilesSyntaxError(f"formal charge {charge} outside [-4, +4]")
    return Atom(element, charge, isotope, aromatic, h_count, chirality), end + 1


def parse_smiles(text: str) -> Molecule:
    """Parse a SMILES string into a validated :class:`Molecule`.

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
        if ch.isdigit():
            close_ring(int(ch))
            i += 1
            continue
        if ch == "%":
            if i + 2 >= n or not (text[i + 1].isdigit() and text[i + 2].isdigit()):
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
    return make_molecule(atoms, bonds)


# ---------------------------------------------------------------------------
# Canonical ranks and canonical SMILES
# ---------------------------------------------------------------------------

def _initial_invariants(mol: Molecule) -> list[tuple]:
    return [
        (
            a.element,
            a.formal_charge,
            a.isotope or 0,
            a.aromatic,
            mol.degree(i),
            mol.total_h(i),
        )
        for i, a in enumerate(mol.atoms)
    ]


def _dense_ranks(keys: list) -> list[int]:
    order = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def canonical_ranks(mol: Molecule) -> list[int]:
    """Canonical atom ranks via iterative neighborhood-invariant refinement.

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


_ORGANIC_WRITABLE = set(ORGANIC_SUBSET)
_AROMATIC_WRITABLE = {"B", "C", "N", "O", "P", "S"}


def _atom_token(atom: Atom) -> str:
    symbol = atom.element.lower() if atom.aromatic else atom.element
    needs_bracket = (
        atom.formal_charge != 0
        or atom.isotope is not None
        or atom.chirality is not None
        or atom.explicit_h is not None
        or atom.element not in _ORGANIC_WRITABLE
        or (atom.aromatic and atom.element not in _AROMATIC_WRITABLE)
    )
    if not needs_bracket:
        return symbol
    parts = ["["]
    if atom.isotope is not None:
        parts.append(str(atom.isotope))
    parts.append(symbol)
    if atom.chirality:
        parts.append(atom.chirality)
    h = atom.explicit_h or 0
    if h == 1:
        parts.append("H")
    elif h > 1:
        parts.append(f"H{h}")
    c = atom.formal_charge
    if c == 1:
        parts.append("+")
    elif c == -1:
        parts.append("-")
    elif c > 1:
        parts.append(f"+{c}")
    elif c < -1:
        parts.append(f"-{-c}")
    parts.append("]")
    return "".join(parts)


def _bond_token(bond: Bond, mol: Molecule) -> str:
    if bond.order == DOUBLE:
        return "="
    if bond.order == TRIPLE:
        return "#"
    if bond.order == SINGLE and mol.atoms[bond.a].aromatic and mol.atoms[bond.b].aromatic:
        return "-"  # explicit, else re-parse would read it as aromatic
    return ""


def _write_fragment(mol: Molecule, ranks: list[int], start: int) -> str:
    # First pass: depth-first walk in ascending-rank order, classifying tree
    # bonds vs ring closures. Visit-time marking keeps every ring-closure
    # opening atom strictly earlier in the emitted string than its closer.
    # Both passes keep explicit stacks, so chain length is not bounded by
    # the interpreter's recursion limit.
    preorder: list[int] = []
    children: dict[int, list[tuple[int, Bond]]] = {}
    ring_closures: list[tuple[int, int, Bond]] = []  # (open atom, close atom, bond)
    seen_bonds: set[int] = set()
    visited: set[int] = set()

    def visit(u: int):
        visited.add(u)
        preorder.append(u)
        children[u] = []
        return u, iter(sorted(mol.neighbors(u), key=lambda t: ranks[t[0]]))

    walk = [visit(start)]
    while walk:
        u, pending = walk[-1]
        for v, bond in pending:
            if id(bond) in seen_bonds:
                continue
            seen_bonds.add(id(bond))
            if v in visited:
                ring_closures.append((v, u, bond))
            else:
                children[u].append((v, bond))
                walk.append(visit(v))
                break
        else:
            walk.pop()

    pre_index = {a: i for i, a in enumerate(preorder)}
    opens: dict[int, list[tuple[int, Bond]]] = {}
    closes: dict[int, list[Bond]] = {}
    for open_atom, close_atom, bond in sorted(
        ring_closures, key=lambda t: (pre_index[t[0]], pre_index[t[1]])
    ):
        opens.setdefault(open_atom, []).append((close_atom, bond))
        closes.setdefault(close_atom, []).append(bond)

    digit_of: dict[int, int] = {}
    free_digits = list(range(1, 100))

    def digit_token(d: int) -> str:
        return str(d) if d < 10 else f"%{d:02d}"

    out: list[str] = []
    # Second pass: preorder emission from a stack of atoms (ints) and
    # literal tokens (strs), children pushed in reverse.
    todo: list[int | str] = [start]
    while todo:
        u = todo.pop()
        if isinstance(u, str):
            out.append(u)
            continue
        out.append(_atom_token(mol.atoms[u]))
        # Close digits first so a freed digit may be reopened on this atom.
        for bond in closes.get(u, ()):
            d = digit_of.pop(id(bond))
            free_digits.append(d)
            free_digits.sort()
            out.append(digit_token(d))
        for _close_atom, bond in opens.get(u, ()):
            d = free_digits.pop(0)
            digit_of[id(bond)] = d
            out.append(_bond_token(bond, mol))
            out.append(digit_token(d))
        kids = children[u]
        steps: list[int | str] = []
        for v, bond in kids[:-1]:
            steps += ["(", _bond_token(bond, mol), v, ")"]
        if kids:
            v, bond = kids[-1]
            steps += [_bond_token(bond, mol), v]
        todo.extend(reversed(steps))
    return "".join(out)


def canonical_smiles(mol: Molecule) -> str:
    """Deterministic SMILES usable as a structural identity key.

    Output is invariant under input atom reordering and re-parses to an
    isomorphic graph. Bond direction markers are dropped; atom chirality
    tags are carried through verbatim.
    """
    ranks = canonical_ranks(mol)
    pieces = []
    for frag in mol._fragment_list:
        start = min(frag, key=lambda i: ranks[i])
        pieces.append(_write_fragment(mol, ranks, start))
    return ".".join(sorted(pieces))


# ---------------------------------------------------------------------------
# Formula, fragments, renumbering
# ---------------------------------------------------------------------------

def element_counts(mol: Molecule) -> dict[str, int]:
    counts: dict[str, int] = {}
    for i, atom in enumerate(mol.atoms):
        counts[atom.element] = counts.get(atom.element, 0) + 1
        h = atom.explicit_h if atom.explicit_h is not None else mol.implicit_h[i]
        if h:
            counts["H"] = counts.get("H", 0) + h
    return counts


def molecular_formula(mol: Molecule) -> str:
    """Hill-order formula (C, H, then alphabetical) including implicit H."""
    counts = element_counts(mol)
    symbols: list[str] = []
    if "C" in counts:
        symbols.append("C")
        if "H" in counts:
            symbols.append("H")
        symbols.extend(sorted(e for e in counts if e not in ("C", "H")))
    else:
        symbols.extend(sorted(counts))
    return "".join(
        f"{sym}{counts[sym]}" if counts[sym] > 1 else sym for sym in symbols
    )


def fragment_molecules(mol: Molecule) -> list[Molecule]:
    """Split a molecule into its connected components, original order kept."""
    out = []
    for frag in mol._fragment_list:
        index_map = {old: new for new, old in enumerate(frag)}
        atoms = [mol.atoms[i] for i in frag]
        bonds = [
            replace(b, a=index_map[b.a], b=index_map[b.b])
            for b in mol.bonds
            if b.a in index_map and b.b in index_map
        ]
        out.append(make_molecule(atoms, bonds))
    return out


def largest_fragment(mol: Molecule) -> Molecule:
    """Connected component with the most heavy atoms.

    Ties break toward higher total mass (hydrogens included), then the
    fragment containing the lowest original atom index.
    """
    if mol.fragment_count == 1:
        return mol
    frags = fragment_molecules(mol)
    firsts = [frag_atoms[0] for frag_atoms in mol._fragment_list]

    def mass(m: Molecule) -> float:
        return sum(ATOMIC_WEIGHTS[e] * c for e, c in element_counts(m).items())

    best = max(
        range(len(frags)),
        key=lambda i: (frags[i].heavy_atom_count(), mass(frags[i]), -firsts[i]),
    )
    return frags[best]


def renumbered(mol: Molecule, order: list[int]) -> Molecule:
    """Rebuild the molecule with atom ``order[i]`` moved to position ``i``."""
    if sorted(order) != list(range(len(mol.atoms))):
        raise ValueError("order must be a permutation of atom indices")
    inverse = {old: new for new, old in enumerate(order)}
    atoms = [mol.atoms[old] for old in order]
    bonds = [replace(b, a=inverse[b.a], b=inverse[b.b]) for b in mol.bonds]
    return make_molecule(atoms, bonds)


def iter_smi_lines(text: str):
    """Yield ``(line_number, smiles, name)`` from .smi content.

    Format: ``<SMILES><whitespace><optional name>``; ``#`` lines and blank
    lines are skipped; handles LF and CRLF.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        smiles = parts[0]
        name = parts[1].strip() if len(parts) > 1 else None
        yield lineno, smiles, name
