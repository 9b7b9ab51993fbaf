"""Physicochemical descriptors and rule-based ADME flags.

All numeric constants (polar-surface fragment contributions, logP atom
contributions, ADME thresholds and the four bioavailability scores) live in
versioned plain-text tables under ``screenforge/data``, and nowhere else.
The contribution tables are loaded once at first use. The ADME threshold
table is read once per command, bundled or from a user file, and passed to
``admet_flags`` as a value; it is not cached, and a user table's scores are
reported as written. The ADME flags are transparent threshold rules,
labeled approximate in every report; they do not reproduce any vendor model.

Hydrogen counts come from the molecule: ``Molecule.hydrogens`` for the
hydrogens that are not graph atoms, ``Molecule.total_h`` with the ``[H]``
neighbours added.

Descriptor computation operates on the largest fragment (salts stripped);
``molecular_weight`` alone takes a whole molecule and sums every fragment
of it, so multi-fragment weights stay additive.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .chem_graph import (
    ATOMIC_WEIGHTS,
    DOUBLE,
    TRIPLE,
    SINGLE,
    Molecule,
    UnknownElement,
    element_counts,
    largest_fragment,
)
from .fields import decimal, text_lines

log = logging.getLogger(__name__)

GI_HIGH, GI_LOW = "High", "Low"
YES, NO = "Yes", "No"


@dataclass(frozen=True)
class DescriptorSet:
    mw: float
    tpsa: float
    wlogp: float
    hbd: int
    hba: int
    rotatable_bonds: int
    heavy_atoms: int

    def __post_init__(self):
        if self.mw <= 0:
            raise ValueError("mw must be positive")
        if self.tpsa < 0:
            raise ValueError("tpsa must be non-negative")
        for name in ("hbd", "hba", "rotatable_bonds", "heavy_atoms"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class AdmetFlags:
    gi_absorption: str
    bbb_permeant: str
    pgp_substrate: str
    bioavailability_score: float


# ---------------------------------------------------------------------------
# Constants tables
# ---------------------------------------------------------------------------

def _data_text(name: str) -> str:
    return resources.files("screenforge").joinpath(f"data/{name}").read_text("utf-8")


def _keyvalue(text: str, source: str) -> dict[str, float]:
    """``key value`` rows, each key once and each value a finite decimal
    number in ASCII."""
    table = {}
    for lineno, line in text_lines(text):
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"{source}: line {lineno}: {len(fields)} fields, not 'key value'")
        key, value = fields
        if key in table:
            raise ValueError(f"{source}: line {lineno}: key {key} repeated")
        table[key] = decimal(value, f"constant {key}")
    return table


@lru_cache(maxsize=None)
def load_tpsa_table() -> dict[tuple, float]:
    table: dict[tuple, float] = {}
    for _, line in text_lines(_data_text("tpsa_contributions.txt")):
        fields = line.split()
        element, rest = fields[0], [int(x) for x in fields[1:9]]
        table[(element, *rest)] = decimal(fields[9], f"constant {' '.join(fields[:9])}")
    return table


@lru_cache(maxsize=None)
def load_logp_table() -> dict[str, float]:
    return _keyvalue(_data_text("logp_contributions.txt"), "logp_contributions.txt")


def load_admet_thresholds(path: str | None = None) -> dict[str, float]:
    """The bundled threshold table, or the file at ``path``, which must
    define every bundled key."""
    if path is None:
        return _keyvalue(_data_text("admet_thresholds.txt"), "admet_thresholds.txt")
    table = _keyvalue(Path(path).read_text("utf-8-sig"), path)
    missing = sorted(load_admet_thresholds().keys() - table.keys())
    if missing:
        raise ValueError(f"{path}: missing thresholds {', '.join(missing)}")
    return table


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------

def molecular_weight(mol: Molecule) -> float:
    """Sum of standard atomic weights, implicit hydrogens included."""
    total = 0.0
    for element, count in element_counts(mol).items():
        if element not in ATOMIC_WEIGHTS:
            raise UnknownElement(f"no atomic weight for element {element!r}")
        total += ATOMIC_WEIGHTS[element] * count
    return total


def _heavy_bond_profile(mol: Molecule, idx: int) -> tuple[int, int, int, int]:
    """Counts of (single, double, triple, aromatic) bonds to heavy neighbors."""
    s = d = t = a = 0
    for j, bond in mol.neighbors(idx):
        if mol.atoms[j].element == "H":
            continue
        if bond.order == SINGLE:
            s += 1
        elif bond.order == DOUBLE:
            d += 1
        elif bond.order == TRIPLE:
            t += 1
        else:
            a += 1
    return s, d, t, a


def _in_three_ring(mol: Molecule, idx: int) -> bool:
    nbrs = [j for j, _ in mol.neighbors(idx) if mol.atoms[j].element != "H"]
    for i, u in enumerate(nbrs):
        for v in nbrs[i + 1:]:
            if mol.bond_between(u, v) is not None:
                return True
    return False


def tpsa(mol: Molecule) -> float:
    """Topological polar surface area from fragment contributions (Å²)."""
    table = load_tpsa_table()
    total = 0.0
    for idx, atom in enumerate(mol.atoms):
        if atom.element not in ("N", "O", "S", "P"):
            continue
        s, d, t, a = _heavy_bond_profile(mol, idx)
        key = (
            atom.element,
            int(atom.aromatic),
            atom.formal_charge,
            mol.total_h[idx],
            s, d, t, a,
            int(_in_three_ring(mol, idx)),
        )
        if key in table:
            total += table[key]
        elif key[:-1] + (0,) in table:  # ring membership only refines a few rows
            total += table[key[:-1] + (0,)]
    return total


def is_acceptor(mol: Molecule, idx: int) -> bool:
    """N/O hydrogen-bond acceptor rule. Amide-like nitrogens (single-bonded
    to a carbonyl carbon) are not counted; the pharmacophore feature rules
    share this rule."""
    atom = mol.atoms[idx]
    if atom.element not in ("N", "O"):
        return False
    if atom.element == "N":
        for j, bond in mol.neighbors(idx):
            if bond.order != SINGLE or mol.atoms[j].element != "C":
                continue
            for k, b2 in mol.neighbors(j):
                if b2.order == DOUBLE and mol.atoms[k].element == "O":
                    return False
    return True


def hbd_hba(mol: Molecule) -> tuple[int, int]:
    """(donor hydrogens on N/O, acceptor atom count)."""
    hbd = 0
    hba = 0
    for idx, atom in enumerate(mol.atoms):
        if atom.element in ("N", "O"):
            hbd += mol.total_h[idx]
            if is_acceptor(mol, idx):
                hba += 1
    return hbd, hba


def rotatable_bonds(mol: Molecule) -> int:
    """Single non-ring bonds between heavy atoms that each carry another
    heavy neighbor. Amide bonds are not special-cased."""
    ring = mol.ring_bonds

    def heavy_degree(i: int) -> int:
        return sum(1 for j, _ in mol.neighbors(i) if mol.atoms[j].element != "H")

    count = 0
    for bond in mol.bonds:
        if bond.order != SINGLE:
            continue
        if (min(bond.a, bond.b), max(bond.a, bond.b)) in ring:
            continue
        if mol.atoms[bond.a].element == "H" or mol.atoms[bond.b].element == "H":
            continue
        if heavy_degree(bond.a) >= 2 and heavy_degree(bond.b) >= 2:
            count += 1
    return count


def wlogp(mol: Molecule) -> float:
    """Additive logP over the shipped reduced atom-type table.

    Type assignment order per atom:
      C: aromatic -> C_aromatic; any N/O/S/P/halogen neighbor ->
         C_aliphatic_hetero; else C_aliphatic.
      N: aromatic -> N_aromatic; else N_aliphatic.
      O: aromatic -> O_aromatic; negative charge -> O_negative; any double
         bond -> O_carbonyl; any hydrogen -> O_hydroxyl; else O_ether.
      S/P/halogens: single type each.
    Hydrogens (implicit or explicit) add H_on_hetero when the parent atom
    is N/O/S/P, else H_on_carbon. Atoms matching no type contribute
    ``fallback`` and are reported via logging.
    """
    table = load_logp_table()
    hetero = {"N", "O", "S", "P", "F", "Cl", "Br", "I"}
    total = 0.0
    for idx, atom in enumerate(mol.atoms):
        el = atom.element
        if el == "H":
            # Explicit hydrogen node: classify by its heavy neighbor.
            nbr_el = next(
                (mol.atoms[j].element for j, _ in mol.neighbors(idx)), "C"
            )
            key = "H_on_hetero" if nbr_el in ("N", "O", "S", "P") else "H_on_carbon"
            total += table[key]
            continue
        if el == "C":
            if atom.aromatic:
                key = "C_aromatic"
            elif any(
                mol.atoms[j].element in hetero for j, _ in mol.neighbors(idx)
            ):
                key = "C_aliphatic_hetero"
            else:
                key = "C_aliphatic"
        elif el == "N":
            key = "N_aromatic" if atom.aromatic else "N_aliphatic"
        elif el == "O":
            if atom.aromatic:
                key = "O_aromatic"
            elif atom.formal_charge < 0:
                key = "O_negative"
            elif any(b.order == DOUBLE for _, b in mol.neighbors(idx)):
                key = "O_carbonyl"
            elif mol.total_h[idx] > 0:
                key = "O_hydroxyl"
            else:
                key = "O_ether"
        elif el == "S":
            key = "S_any"
        elif el == "P":
            key = "P_any"
        elif el in ("F", "Cl", "Br", "I"):
            key = el
        else:
            log.warning("untyped atom %d (%s): using fallback logP value", idx, el)
            total += table["fallback"]
            continue
        total += table[key]
        h = mol.hydrogens[idx]
        if h:
            h_key = "H_on_hetero" if el in ("N", "O", "S", "P") else "H_on_carbon"
            total += h * table[h_key]
    return total


def compute_descriptors(mol: Molecule) -> DescriptorSet:
    """Full descriptor set over the largest fragment of the molecule."""
    return mol.derived(_compute_descriptors)


def _compute_descriptors(mol: Molecule) -> DescriptorSet:
    frag = largest_fragment(mol)
    hbd, hba = hbd_hba(frag)
    return DescriptorSet(
        mw=molecular_weight(frag),
        tpsa=tpsa(frag),
        wlogp=wlogp(frag),
        hbd=hbd,
        hba=hba,
        rotatable_bonds=rotatable_bonds(frag),
        heavy_atoms=frag.heavy_atom_count(),
    )


# ---------------------------------------------------------------------------
# ADME flags
# ---------------------------------------------------------------------------

def lipinski_violations(d: DescriptorSet, th: dict[str, float]) -> int:
    return sum(
        (
            d.mw > th["ro5_mw_max"],
            d.wlogp > th["ro5_wlogp_max"],
            d.hbd > th["ro5_hbd_max"],
            d.hba > th["ro5_hba_max"],
        )
    )


def admet_flags(d: DescriptorSet, th: dict[str, float]) -> AdmetFlags:
    """Categorical ADME flags from a threshold table (approximate), as
    ``load_admet_thresholds`` returns it."""
    gi = GI_HIGH if (d.tpsa <= th["gi_tpsa_max"] and d.wlogp <= th["gi_wlogp_max"]) else GI_LOW
    bbb = (
        YES
        if (
            d.tpsa <= th["bbb_tpsa_max"]
            and th["bbb_wlogp_min"] <= d.wlogp <= th["bbb_wlogp_max"]
        )
        else NO
    )
    pgp = YES if (d.mw > th["pgp_mw_min"] and d.tpsa > th["pgp_tpsa_min"]) else NO
    if lipinski_violations(d, th) <= th["ro5_violations_allowed"]:
        score = th["bioavail_pass"]
    elif d.tpsa <= th["bioavail_low_tpsa_max"]:
        score = th["bioavail_low_tpsa"]
    elif d.tpsa > th["bioavail_high_tpsa_min"]:
        score = th["bioavail_high_tpsa"]
    else:
        score = th["bioavail_default_fail"]
    return AdmetFlags(gi, bbb, pgp, score)
