"""Small helpers that only the test suite needs: renumbering a molecule,
counting fingerprint bits, comparing two fingerprint vectors, the Tanimoto
of two vectors, a molecule's feature row and reading a report's header
lines."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from screenforge.chem_graph import Molecule
from screenforge.fingerprints import FingerprintVector
from screenforge.pdenet import FeatureSpec, featurize_molecule
from screenforge.simcluster import tanimoto_matrix


def renumbered(mol: Molecule, order: list[int]) -> Molecule:
    """Rebuild the molecule with atom ``order[i]`` moved to position ``i``."""
    if sorted(order) != list(range(len(mol.atoms))):
        raise ValueError("order must be a permutation of atom indices")
    inverse = {old: new for new, old in enumerate(order)}
    atoms = [mol.atoms[old] for old in order]
    bonds = [b._replace(a=inverse[b.a], b=inverse[b.b]) for b in mol.bonds]
    return Molecule(atoms, bonds)


def feature_row(mol: Molecule, spec: FeatureSpec) -> np.ndarray:
    """The raw feature row ``featurize_molecule`` writes, in a new array."""
    out = np.empty(spec.width())
    featurize_molecule(mol, spec, out)
    return out


def popcount(v: FingerprintVector) -> int:
    return int(v.bits.sum())


def same_vector(a: FingerprintVector, b: FingerprintVector) -> bool:
    """Equal config and equal bits; ``==`` on vectors compares identity."""
    return a.config == b.config and bool(np.array_equal(a.bits, b.bits))


def tanimoto_pair(a, b) -> float:
    """``tanimoto_matrix`` of two vectors as one-row float64 matrices."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(tanimoto_matrix(a[None, :], b[None, :])[0, 0])


def read_report_header(path: str) -> dict[str, str]:
    header = {}
    for line in Path(path).read_text("utf-8").splitlines():
        if not line.startswith(("#", ">")):
            break
        key, _, value = line[1:].strip().partition("=")
        header[key] = value
    return header
