"""Small helpers that only the test suite needs: renumbering a molecule,
building a fingerprint from its set bits, counting them, comparing two
fingerprints, the Tanimoto of two fingerprints, a molecule's feature row and
reading a report's header lines."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from screenforge.chem_graph import Molecule
from screenforge.fingerprints import FingerprintConfig, FingerprintVector
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


def on_bit_vector(bits, cfg: FingerprintConfig) -> FingerprintVector:
    """The fingerprint whose set bits are the indices ``bits``, held as the
    hasher holds them: ascending, read-only, in the least unsigned dtype that
    holds ``cfg.nbits - 1``."""
    on_bits = np.unique(np.asarray(list(bits), dtype=np.min_scalar_type(cfg.nbits - 1)))
    on_bits.flags.writeable = False
    return FingerprintVector(on_bits, cfg)


def popcount(v: FingerprintVector) -> int:
    return len(v.on_bits)


def same_vector(a: FingerprintVector, b: FingerprintVector) -> bool:
    """Equal config and equal on-bits of one dtype; ``==`` on vectors
    compares identity."""
    return (a.config == b.config and a.on_bits.dtype == b.on_bits.dtype
            and bool(np.array_equal(a.on_bits, b.on_bits)))


def tanimoto_pair(a: FingerprintVector, b: FingerprintVector) -> float:
    """``tanimoto_matrix`` of two fingerprints as one-item lists."""
    return float(tanimoto_matrix([a], [b])[0, 0])


def read_report_header(path: str) -> dict[str, str]:
    header = {}
    for line in Path(path).read_text("utf-8").splitlines():
        if not line.startswith(("#", ">")):
            break
        key, _, value = line[1:].strip().partition("=")
        header[key] = value
    return header
