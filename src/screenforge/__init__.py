"""screenforge: a self-contained virtual-screening toolkit."""

__version__ = "0.1.0"

from .chem_graph import (  # noqa: F401
    Molecule,
    canonical_smiles,
    largest_fragment,
    molecular_formula,
    parse_smiles,
)
from .descriptors import admet_flags, compute_descriptors  # noqa: F401
from .fingerprints import FingerprintConfig, circular_fingerprint  # noqa: F401
from .pdenet import ic50_to_pic50  # noqa: F401
