import random
import sys
from importlib import resources
from pathlib import Path

import pytest

from screenforge.chem_graph import iter_smi_lines, parse_smiles

# benchmarks/gen.py grows the generated libraries that tests import.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))


def corpus_entries():
    text = resources.files("screenforge").joinpath("data/corpus.smi").read_text("utf-8")
    return [(name, smiles) for _, smiles, name in iter_smi_lines(text)]


@pytest.fixture(scope="session")
def corpus():
    """(name, smiles, Molecule) for every bundled corpus entry."""
    return [(name, smi, parse_smiles(smi)) for name, smi in corpus_entries()]


@pytest.fixture()
def rng():
    return random.Random(20240810)
