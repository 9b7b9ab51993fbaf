"""Molecular graphs from SMILES: parsing, canonicalization, formulas.

The supported grammar is the Daylight organic subset (B, C, N, O, P, S,
F, Cl, Br, I and their aromatic lowercase forms) plus bracket atoms with
isotope, chirality tag, hydrogen count and charge. Bracket atoms may name
a wider range of elements so salt counter-ions such as [Na+] survive
ingestion. Stereo markers (``/ \\ @``) are accepted and recorded but never
interpreted; bond direction markers are normalized away on writing. A
molecule, parsed or built by hand, is made in one place: ``Molecule``'s
constructor validates the bonds and derives everything else it holds.

Aromaticity is taken from the input flags as written; there is no
perception or kekulization pass. A ring bond is any bond on a cycle (a
non-bridge); the set is found on first request from one breadth-first
spanning forest, and no list of rings is kept.

Atoms are frozen, so the parser gives every plain organic-subset or
aromatic atom one shared instance per symbol. A bond is an immutable named
tuple, equal and hashed by value; the parser makes one object per bond,
and the writer and the ring-bond search key bonds by ``id``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .fields import text_lines

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
# One code per bond order, aromatic apart: canonical ranks and fingerprint
# environments key neighbours by it.
BOND_CODE = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3, AROMATIC: 4}


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


class Bond(NamedTuple):
    a: int
    b: int
    order: str = SINGLE
    direction: str | None = None  # recorded '/' or '\', never interpreted


@dataclass
class Molecule:
    """Attributed molecular graph. Treat as immutable after construction.

    ``Molecule(atoms, bonds)`` keeps both lists, rejects a self-bond, an
    out-of-range endpoint, a repeated atom pair, an aromatic bond touching a
    non-aromatic atom, an impossible valence and an atom with neither an H
    count nor standard valences, and derives adjacency, fragments and
    hydrogen counts; equality compares atoms and bonds.
    ``hydrogens[i]`` counts the hydrogens on atom i that are not atoms of
    the graph: the bracket count if one is written, else the valence-derived
    count. ``total_h[i]`` adds the atom's ``[H]`` neighbours.
    Other derived values (ring bonds, fingerprints, descriptors, features)
    are computed once, on first request, and live as long as the molecule.
    """

    atoms: list[Atom]
    bonds: list[Bond]
    hydrogens: list[int] = field(init=False, compare=False)
    total_h: list[int] = field(init=False, compare=False)
    _adjacency: list[list[tuple[int, Bond]]] = field(init=False, repr=False, compare=False)
    _fragment_list: list[list[int]] = field(init=False, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        atoms = self.atoms
        n = len(atoms)
        seen_pairs: set[tuple[int, int]] = set()
        adj: list[list[tuple[int, Bond]]] = [[] for _ in range(n)]
        for bond in self.bonds:
            a, b = bond.a, bond.b
            if a == b:
                raise SmilesSyntaxError(f"bond between atom {a} and itself")
            if not (0 <= a < n and 0 <= b < n):
                raise SmilesSyntaxError("bond endpoint out of range")
            key = (a, b) if a < b else (b, a)
            if key in seen_pairs:
                raise SmilesSyntaxError(f"duplicate bond between atoms {key}")
            seen_pairs.add(key)
            if bond.order == AROMATIC and not (atoms[a].aromatic and atoms[b].aromatic):
                raise SmilesSyntaxError(f"aromatic bond {key} touches a non-aromatic atom")
            adj[a].append((b, bond))
            adj[b].append((a, bond))
        self.hydrogens, self.total_h = _hydrogen_counts(atoms, adj)
        self._adjacency = adj
        self._fragment_list = self.components(range(n))

    @property
    def fragment_count(self) -> int:
        return len(self._fragment_list)

    def derived(self, compute, *args):
        """``compute(self, *args)``, computed on the first request for that
        function and those arguments and returned from the memo after."""
        key = (compute, *args)
        if key not in self._memo:
            self._memo[key] = compute(self, *args)
        return self._memo[key]

    @property
    def ring_bonds(self) -> frozenset[tuple[int, int]]:
        """Bonds on some cycle, as (low, high) atom pairs, built on first
        access."""
        return self.derived(_ring_bonds)

    def neighbors(self, idx: int) -> list[tuple[int, Bond]]:
        return self._adjacency[idx]

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
        adj = self._adjacency
        n = len(adj)
        unseen = [False] * n  # True for a member not yet reached
        for i in atoms:
            unseen[i] = True
        out = []
        for start in range(n):
            if not unseen[start]:
                continue
            unseen[start] = False
            comp = [start]
            for u in comp:
                for v, _ in adj[u]:
                    if unseen[v]:
                        unseen[v] = False
                        comp.append(v)
            if len(comp) == n:
                return [list(range(n))]
            out.append(sorted(comp))
        return out


def _ring_bonds(mol: Molecule) -> frozenset[tuple[int, int]]:
    """Bonds on some cycle, as (low, high) atom pairs: each bond outside a
    breadth-first spanning forest, with the forest path between its two
    ends. These are the edges of the fundamental cycles, whose union is
    exactly the set of non-bridge bonds."""
    n, adj = len(mol.atoms), mol._adjacency
    parent = [-1] * n
    depth = [-1] * n
    tree_edges: set[int] = set()
    for root in range(n):
        if depth[root] != -1:
            continue
        depth[root] = 0
        queue = [root]
        for u in queue:
            for v, bond in adj[u]:
                if depth[v] == -1:
                    depth[v] = depth[u] + 1
                    parent[v] = u
                    tree_edges.add(id(bond))
                    queue.append(v)
    ring: set[tuple[int, int]] = set()
    for bond in mol.bonds:
        if id(bond) in tree_edges:
            continue
        u, v = bond.a, bond.b
        ring.add((min(u, v), max(u, v)))
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            ring.add((min(u, parent[u]), max(u, parent[u])))
            u = parent[u]
    return frozenset(ring)


def _hydrogen_counts(atoms: list[Atom], adj) -> tuple[list[int], list[int]]:
    """``(hydrogens, total_h)`` as ``Molecule`` documents them."""
    hydrogens, total_h = [], []
    for idx, atom in enumerate(atoms):
        sigma = h_atoms = 0
        for j, bond in adj[idx]:
            sigma += BOND_ORDER_VALUE[bond.order]
            if atoms[j].element == "H":
                h_atoms += 1
        h = atom.explicit_h
        valences = VALENCES.get(atom.element)
        if h is None and valences is None:  # the parser gives bracket atoms a count
            raise SmilesSyntaxError(f"atom {idx} ({atom.element}) needs an explicit H count")
        if h is None:
            if atom.aromatic:
                # One ring pi bond is assumed for aromatic C/B, and for
                # two-connected aromatic N/P (pyridine-like). Aromatic O/S
                # contribute a lone pair instead, as do three-connected N/P.
                pi = 0
                if sigma == len(adj[idx]):  # no double or triple bond
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
        hydrogens.append(h)
        total_h.append(h + h_atoms)
    return hydrogens, total_h


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# One shared instance per organic-subset and aromatic token; Atom is frozen.
_SUBSET_ATOMS = {sym: Atom(sym) for sym in ORGANIC_SUBSET} | {
    sym: Atom(sym.upper(), aromatic=True) for sym in AROMATIC_ORGANIC
}

_BOND_CHARS = {
    "-": (SINGLE, None), "=": (DOUBLE, None), "#": (TRIPLE, None),
    ":": (AROMATIC, None), "/": (SINGLE, "/"), "\\": (SINGLE, "\\"),
}


def _digit_run(text: str, i: int) -> int:
    """The end of the run of ASCII digits at ``text[i]`` (``str.isdigit``
    also accepts other scripts' digits, which SMILES does not)."""
    while i < len(text) and "0" <= text[i] <= "9":
        i += 1
    return i


def _parse_bracket(text: str, pos: int) -> tuple[Atom, int]:
    """Parse a bracket atom starting at ``text[pos] == '['``."""
    end = text.find("]", pos)
    if end == -1:
        raise SmilesSyntaxError(f"unterminated bracket atom at column {pos}")
    body = text[pos + 1:end]
    i = _digit_run(body, 0)
    isotope = int(body[:i]) if i else None
    if i >= len(body) or not body[i].isalpha():
        raise SmilesSyntaxError(f"bracket atom missing element symbol: [{body}]")
    symbol = body[i]
    i += 1
    # A lowercase second letter ends an element symbol, or aromatic as or se.
    if body[i : i + 1].islower() and (symbol.isupper() or symbol + body[i] in ("as", "se")):
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
        j = _digit_run(body, i + 1)
        h_count = int(body[i + 1:j]) if j > i + 1 else 1
        i = j
    charge = 0
    if i < len(body) and body[i] in "+-":
        sign = 1 if body[i] == "+" else -1
        i += 1
        j = _digit_run(body, i)
        if j > i:
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
        atom = _SUBSET_ATOMS.get(ch)
        if atom is not None:
            if ch in "CB" and text[i:i + 2] in _SUBSET_ATOMS:  # Cl, Br
                atom = _SUBSET_ATOMS[text[i:i + 2]]
            i += len(atom.element)
        elif ch == "[":
            atom, i = _parse_bracket(text, i)
        elif ch == "(":
            if prev is None:
                raise SmilesSyntaxError("branch opened before any atom")
            if pending is not None:
                raise SmilesSyntaxError("bond symbol immediately before '('")
            branch_stack.append(prev)
            i += 1
            continue
        elif ch == ")":
            if not branch_stack:
                raise UnbalancedParenthesis(f"unmatched ')' at column {i}")
            if pending is not None:
                raise SmilesSyntaxError("dangling bond symbol before ')'")
            prev = branch_stack.pop()
            i += 1
            continue
        elif ch == ".":
            if pending is not None or branch_stack:
                raise SmilesSyntaxError("misplaced fragment separator '.'")
            prev = None
            i += 1
            continue
        elif ch in _BOND_CHARS:
            if pending is not None:
                raise SmilesSyntaxError(f"two bond symbols in a row at column {i}")
            if prev is None:
                raise SmilesSyntaxError(f"bond symbol before any atom at column {i}")
            pending = _BOND_CHARS[ch]
            i += 1
            continue
        elif "0" <= ch <= "9":
            close_ring(int(ch))
            i += 1
            continue
        elif ch == "%":
            if _digit_run(text, i + 1) < i + 3:
                raise SmilesSyntaxError(f"'%' needs two digits at column {i}")
            close_ring(int(text[i + 1:i + 3]))
            i += 3
            continue
        elif ch.isspace():
            raise SmilesSyntaxError(f"whitespace inside SMILES at column {i}")
        elif ch.isalpha():
            raise UnknownElement(f"element '{ch}' not in the organic subset at column {i}")
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


# ---------------------------------------------------------------------------
# Canonical ranks and canonical SMILES
# ---------------------------------------------------------------------------

def canonical_ranks(mol: Molecule) -> list[int]:
    """Canonical atom ranks via iterative neighborhood-invariant refinement.

    Atoms are split into classes by their initial invariants, then by the
    sorted (bond, class) pairs of their neighbours, in synchronous rounds
    until no class splits. Ties that survive are split one atom at a time
    (lowest class, lowest original index) and refinement re-runs, so
    equivalent atoms of symmetric molecules stay interchangeable while the
    emitted string is unique.

    Refinement is incremental and gives the same ranks as re-keying every
    atom each round. A class is labelled by its start offset in sorted
    order, a monotone relabelling of dense ranks, so every key compares as
    before, and a split moves no other class's label. Two class-mates with
    no neighbour in a newly split-off piece have equal neighbour counts
    into every class, so they cannot part; a round re-keys only the
    neighbours of split pieces, and class-mates it does not reach share
    one key. The largest piece of a split need not be followed (Hopcroft):
    equal counts into the old class and into the other pieces give equal
    counts into it.
    """
    atoms, adj, total_h = mol.atoms, mol._adjacency, mol.total_h
    n = len(atoms)
    # One pass over the adjacency groups the atoms by initial invariant and
    # gives each its (bond code * n, neighbour) pairs: code * n + label
    # orders as (code, label).
    nbrs = []
    by_invariant: dict[tuple, list[int]] = {}
    for i, a in enumerate(atoms):
        nb = adj[i]
        by_invariant.setdefault(
            (a.element, a.formal_charge, a.isotope or 0, a.aromatic, len(nb), total_h[i]), []
        ).append(i)
        nbrs.append([(BOND_CODE[b.order] * n, j) for j, b in nb])
    label = [0] * n
    # classes[s] lists the members of the class that starts at offset s;
    # nothing reads the stale list at an offset that starts no class.
    classes: list[list[int]] = [[]] * n
    start = 0
    for key in sorted(by_invariant):
        members = classes[start] = by_invariant[key]
        for i in members:
            label[i] = start
        start += len(members)

    touched = range(n)
    first_tied = 0
    while True:
        while touched:
            hits: dict[int, list[int]] = {}
            for i in touched:
                if len(classes[label[i]]) > 1:
                    hits.setdefault(label[i], []).append(i)
            splits = []
            for s, hit in hits.items():
                groups: dict[tuple[int, ...], list[int]] = {}
                for i in hit:
                    k = tuple(sorted([c + label[j] for c, j in nbrs[i]]))
                    groups.setdefault(k, []).append(i)
                members = classes[s]
                if len(hit) < len(members):
                    hit_set = set(hit)
                    rest = [i for i in members if i not in hit_set]
                    k = tuple(sorted([c + label[j] for c, j in nbrs[rest[0]]]))
                    groups.setdefault(k, []).extend(rest)
                if len(groups) > 1:
                    splits.append((s, [groups[k] for k in sorted(groups)]))
            # Labels change only after every key of the round is taken.
            touched = set()
            for s, pieces in splits:
                largest = max(pieces, key=len)
                for piece in pieces:
                    classes[s] = piece
                    for i in piece:
                        label[i] = s
                    if piece is not largest:
                        for i in piece:
                            touched.update([j for _, j in nbrs[i]])
                    s += len(piece)
        while first_tied < n and len(classes[first_tied]) == 1:
            first_tied += 1
        if first_tied == n:
            return label  # every class is one atom: offsets are dense ranks
        tied = classes[first_tied]
        chosen = min(tied)
        classes[first_tied] = [chosen]
        classes[first_tied + 1] = [i for i in tied if i != chosen]
        for i in classes[first_tied + 1]:
            label[i] = first_tied + 1
        touched = {j for _, j in nbrs[chosen]}


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


def _write_fragment(mol: Molecule, ranked: list[list[tuple[int, Bond]]], start: int) -> str:
    # First pass: depth-first walk in ascending-rank order (``ranked`` lists
    # neighbours in that order). An edge to an unvisited atom is a tree bond;
    # an edge back to an earlier atom other than the parent is a ring closure,
    # opened on that earlier atom, so every opening atom comes strictly before
    # its closer in the string. The walk keeps an explicit stack, so chain
    # length is not bounded by the interpreter's recursion limit.
    position = {start: 0}  # atom -> preorder position
    preorder = [start]
    # Per position, the text before the atom: ")" when it follows a
    # sibling's branch, "(" when a later sibling follows it, its tree bond.
    lead: list[list[str]] = [[""]]
    last_child: dict[int, int] = {}  # atom -> position of its latest child
    ring_closures: list[tuple[int, int, Bond]] = []  # (open, close position, bond)
    walk = [(start, -1, iter(ranked[start]))]
    while walk:
        u, parent, pending = walk[-1]
        for v, bond in pending:
            if v not in position:
                here = len(preorder)
                position[v] = here
                preorder.append(v)
                if u in last_child:
                    lead[last_child[u]].insert(-1, "(")
                    lead.append([")", _bond_token(bond, mol)])
                else:
                    lead.append([_bond_token(bond, mol)])
                last_child[u] = here
                walk.append((v, u, iter(ranked[v])))
                break
            if v != parent and position[v] < position[u]:
                ring_closures.append((position[v], position[u], bond))
        else:
            walk.pop()

    opens: dict[int, list[Bond]] = {}
    closes: dict[int, list[Bond]] = {}
    ring_closures.sort()  # no two share both positions, so bonds are never compared
    for open_at, close_at, bond in ring_closures:
        opens.setdefault(open_at, []).append(bond)
        closes.setdefault(close_at, []).append(bond)

    digit_of: dict[int, int] = {}
    free_digits = list(range(1, 100))

    def digit_token(d: int) -> str:
        return str(d) if d < 10 else f"%{d:02d}"

    # Second pass: emission in preorder.
    out: list[str] = []
    for here, u in enumerate(preorder):
        out.extend(lead[here])
        out.append(_atom_token(mol.atoms[u]))
        # Close digits first so a freed digit may be reopened on this atom.
        for bond in closes.get(here, ()):
            d = digit_of.pop(id(bond))
            free_digits.append(d)
            free_digits.sort()
            out.append(digit_token(d))
        for bond in opens.get(here, ()):
            if not free_digits:
                raise SmilesError("more than 99 ring closures open at once")
            d = free_digits.pop(0)
            digit_of[id(bond)] = d
            out.append(_bond_token(bond, mol))
            out.append(digit_token(d))
    return "".join(out)


def canonical_smiles(mol: Molecule) -> str:
    """Deterministic SMILES usable as a structural identity key.

    Output is invariant under input atom reordering and re-parses to an
    isomorphic graph. Bond direction markers are dropped; atom chirality
    tags are carried through verbatim.
    """
    ranks = canonical_ranks(mol)
    adj = mol._adjacency
    # Visiting atoms in rank order lists every atom's neighbours in rank order.
    ranked: list[list[tuple[int, Bond]]] = [[] for _ in ranks]
    for u in sorted(range(len(ranks)), key=ranks.__getitem__):
        for v, bond in adj[u]:
            ranked[v].append((u, bond))
    pieces = [
        _write_fragment(mol, ranked, min(frag, key=ranks.__getitem__))
        for frag in mol._fragment_list
    ]
    return ".".join(sorted(pieces))


# ---------------------------------------------------------------------------
# Formula, fragments, renumbering
# ---------------------------------------------------------------------------

def element_counts(mol: Molecule) -> dict[str, int]:
    return _element_counts(mol, range(len(mol.atoms)))


def _element_counts(mol: Molecule, indices) -> dict[str, int]:
    counts: dict[str, int] = {}
    for i in indices:
        atom = mol.atoms[i]
        counts[atom.element] = counts.get(atom.element, 0) + 1
        h = mol.hydrogens[i]
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


def largest_fragment(mol: Molecule) -> Molecule:
    """Connected component with the most heavy atoms, as a molecule of its
    own, built once per molecule (a single fragment is the molecule itself).

    Ties break toward higher total mass (hydrogens included), then the
    fragment containing the lowest original atom index.
    """
    if mol.fragment_count == 1:
        return mol
    return mol.derived(_largest_fragment)


def _largest_fragment(mol: Molecule) -> Molecule:
    def rank(frag: list[int]):
        # A component keeps every bond of its atoms, so these counts, and the
        # order of the mass sum, equal those of the built fragment.
        heavy = sum(1 for i in frag if mol.atoms[i].element != "H")
        counts = _element_counts(mol, frag)
        return heavy, sum(ATOMIC_WEIGHTS[e] * c for e, c in counts.items()), -frag[0]

    frag = max(mol._fragment_list, key=rank)
    index_map = {old: new for new, old in enumerate(frag)}
    bonds = [
        b._replace(a=index_map[b.a], b=index_map[b.b])
        for b in mol.bonds
        if b.a in index_map
    ]
    return Molecule([mol.atoms[i] for i in frag], bonds)


def iter_smi_lines(text: str):
    """Yield ``(line_number, smiles, name)`` from .smi content: lines of
    ``<SMILES><whitespace><optional name>``, read by ``text_lines``."""
    for lineno, line in text_lines(text):
        smiles, *name = line.split(None, 1)
        yield lineno, smiles, name[0] if name else None
