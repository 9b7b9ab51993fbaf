"""Property tests on adversarial SMILES: long chains, deep branch nesting,
many ring-closure digits with ``%nn`` reuse, salts, large bracket
hydrogen counts and hydrogens written as atoms.

The table-driven parser and the incremental canonical ranks are checked
against the implementations they replaced, and the molecule's hydrogen
counts against a re-derivation, all kept in ``oracles.py``.
"""

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from oracles import (
    canonical_ranks_oracle,
    components_oracle,
    hydrogens_oracle,
    parse_smiles_oracle,
)
from test_canonical_random import random_molecule
from screenforge.chem_graph import (
    Atom,
    Bond,
    Molecule,
    SmilesError,
    canonical_ranks,
    canonical_smiles,
    parse_smiles,
)
from helpers import renumbered
from screenforge.cli import main
from screenforge.screenctl import ingest

CHAIN_ATOMS = ["C", "C", "C", "N", "O", "S", "Cl", "Br", "c", "n"]


def ring_token(num: int) -> str:
    return str(num) if num < 10 else f"%{num:02d}"


@st.composite
def long_chains(draw):
    atoms = draw(st.lists(st.sampled_from(CHAIN_ATOMS), min_size=1, max_size=300))
    bonds = draw(st.lists(st.sampled_from(["", "", "", "=", "#"]),
                          min_size=len(atoms), max_size=len(atoms)))
    return atoms[0] + "".join(b + a for b, a in zip(bonds, atoms[1:]))


@st.composite
def deep_branches(draw):
    depth = draw(st.integers(1, 250))
    tail = draw(st.sampled_from(["C", "O", "N", "Cl", "c"]))
    return "C(" * depth + tail + ")C" * depth


@st.composite
def ring_digit_heavy(draw):
    """A carbon chain that opens up to dozens of rings, closes some, then
    reopens freed numbers (lowest first, so ``%nn`` numbers are reused)
    before closing the rest. Closures land at least two atoms after their
    opening, so most strings parse."""
    free = list(range(1, 100))
    opened: list[tuple[int, int]] = []  # (ring number, opening atom)
    out = []
    n_atoms = draw(st.integers(4, 160))
    for k in range(n_atoms):
        out.append("C")
        phase = 4 * k // n_atoms  # open, close, reopen, close
        closable = [r for r in opened if r[1] <= k - 2]
        if phase in (1, 3) and closable:
            ring = closable[draw(st.integers(0, len(closable) - 1))]
            opened.remove(ring)
            free.append(ring[0])
            free.sort()
            out.append(ring_token(ring[0]))
        elif phase in (0, 2) and free and draw(st.booleans()):
            num = free.pop(0)
            opened.append((num, k))
            out.append(ring_token(num))
    if draw(st.booleans()):
        for num, at in opened:
            if at <= n_atoms - 3:
                out.append("C" + ring_token(num))
    return "".join(out)


SALT_PARTS = ["[Na+]", "[K+]", "[Cl-]", "[Br-]", "[O-]C(=O)C", "OC(=O)c1ccccc1",
              "[NH4+]", "[Ca+2]", "O", "CCO", "[Mg++]", "c1ccncc1"]


@st.composite
def salts(draw):
    return ".".join(draw(st.lists(st.sampled_from(SALT_PARTS), min_size=1, max_size=12)))


@st.composite
def bracket_hydrogens(draw):
    count = draw(st.one_of(st.integers(0, 12), st.integers(10**3, 10**9)))
    isotope = draw(st.sampled_from(["", "13", "999999"]))
    element = draw(st.sampled_from(["C", "N", "O", "S", "c"]))
    charge = draw(st.sampled_from(["", "+", "-", "+2", "--"]))
    atom = f"[{isotope}{element}H{count}{charge}]"
    return draw(st.sampled_from([atom, f"C{atom}C", f"{atom}.{atom}", f"OC({atom})=O"]))


# A heavy atom (the first of a core) with hydrogen atoms ([H], [2H], [3H])
# and methyls bonded to it, written before it and as branches after it.
HYDROGEN_CORES = [("C", ""), ("N", ""), ("O", ""), ("S", ""), ("P", ""), ("c", "1ccccc1"),
                  ("[nH]", "1cccc1"), ("[NH4+]", ""), ("[CH2]", "C"), ("[O-]", ""), ("[Na+]", "")]


@st.composite
def hydrogen_atoms(draw):
    first, rest = draw(st.sampled_from(HYDROGEN_CORES))
    before = draw(st.sampled_from(["", "[H]", "[2H]"]))
    branches = draw(st.lists(st.sampled_from(["[H]", "[2H]", "[3H]", "C"]), max_size=4))
    return before + first + "".join(f"({h})" for h in branches) + rest


# Digits of other scripts, for which ``str.isdigit`` is true (Arabic-Indic
# one and three, superscript two, fullwidth five, NKo one, Devanagari six),
# each where the parser reads a digit: a ring digit, a ``%nn`` pair, an
# isotope, a hydrogen count or a charge.
NON_ASCII_DIGIT_SMILES = [
    template.format(d=d)
    for d in "\u0661\u0663\u00b2\uff15\u07c1\u096c"
    for template in ("C{d}CCC1", "C1CCC{d}", "C{d}C", "C%1{d}CC%1{d}", "C%{d}1CC%{d}1",
                     "[{d}H]C", "[1{d}C]", "[NH{d}]", "[CH2{d}]", "[O-{d}]", "C[N+{d}](C)C")
]


ADVERSARIAL = st.one_of(long_chains(), deep_branches(), ring_digit_heavy(), salts(),
                        bracket_hydrogens(), hydrogen_atoms(),
                        st.sampled_from(NON_ASCII_DIGIT_SMILES))
SMILES_ALPHABET = "CcNnOoSsPpBbFlIrHK[]()=#:/\\.@+-%0123456789"


def same_outcome(text: str) -> None:
    """The parser builds the oracle's molecule or raises its error class."""
    try:
        expected = parse_smiles_oracle(text)
    except Exception as exc:  # any class: the parser must raise the same one
        with pytest.raises(type(exc)):
            parse_smiles(text)
        return
    got = parse_smiles(text)
    assert got == expected
    assert got.fragment_count == expected.fragment_count


def ladder(rungs: int):
    """Two carbon rails of ``rungs`` atoms joined rung by rung."""
    bonds = [Bond(i, rungs + i) for i in range(rungs)]
    bonds += [Bond(i, i + 1) for i in range(rungs - 1)]
    bonds += [Bond(rungs + i, rungs + i + 1) for i in range(rungs - 1)]
    return Molecule([Atom("C")] * (2 * rungs), bonds)


def ladder_smiles(rungs: int) -> str:
    """The ladder walked rung, rail, rung, ...: each rail bond off the walk
    is a ring opened on an even position and closed three atoms later."""
    out = []
    for p in range(2 * rungs):
        out.append("C")
        if p % 2 and p >= 3:
            out.append(str(1 + (p - 3) // 2 % 2))
        if p % 2 == 0 and p <= 2 * rungs - 4:
            out.append(str(1 + p // 2 % 2))
    return "".join(out)


class TestParserMatchesOracle:
    @given(st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=256))
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_ascii(self, text):
        same_outcome(text)

    @given(st.text(st.sampled_from(SMILES_ALPHABET), max_size=80))
    @settings(max_examples=400, deadline=None)
    def test_fuzzed_smiles_alphabet(self, text):
        same_outcome(text)

    @given(ADVERSARIAL)
    @settings(max_examples=200, deadline=None)
    def test_adversarial(self, text):
        same_outcome(text)

    def test_non_ascii_digits_are_smiles_errors(self):
        for text in NON_ASCII_DIGIT_SMILES:
            with pytest.raises(SmilesError):
                parse_smiles(text)

    def test_organic_atoms_are_shared(self):
        mol = parse_smiles("CCl.ClC")
        assert mol.atoms[0] is mol.atoms[3]
        assert mol.atoms[1] is mol.atoms[2]
        assert mol.bonds[0] is not mol.bonds[1]


def assert_fragments_match_oracle(mol) -> None:
    """The fragment list equals the set-based walk's, and so do the
    components of the subsets that feature detection asks for."""
    assert mol._fragment_list == components_oracle(mol, range(len(mol.atoms)))
    assert mol.fragment_count == len(mol._fragment_list)
    plain_c = [i for i, a in enumerate(mol.atoms) if a.element == "C" and not a.aromatic]
    aromatic = [i for i, a in enumerate(mol.atoms) if a.aromatic]
    for subset in (plain_c, aromatic, plain_c[::2]):
        assert mol.components(iter(subset)) == components_oracle(mol, subset)


class TestFragmentList:
    def test_corpus_and_salted_corpus(self, corpus):
        for _name, smiles, mol in corpus:
            assert_fragments_match_oracle(mol)
            for salt in (".[Na+]", ".[Cl-]"):
                assert_fragments_match_oracle(parse_smiles(smiles + salt))

    @given(st.one_of(salts(), ring_digit_heavy()))
    @settings(max_examples=200, deadline=None)
    def test_salts_and_ring_digit_heavy(self, text):
        try:
            mol = parse_smiles(text)
        except SmilesError:
            assume(False)
        assert_fragments_match_oracle(mol)

    def test_ring_closed_across_a_dot_is_one_fragment(self):
        mol = parse_smiles("C1.C1")
        assert mol._fragment_list == [[0, 1]]
        assert mol.fragment_count == 1
        assert_fragments_match_oracle(mol)


class TestIngest:
    @given(ADVERSARIAL)
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_a_single_row_never_aborts_the_batch(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "lib.smi"
            path.write_text(f"{text} odd\nCCO ethanol\n")
            records, stats = ingest(str(path))
        assert stats.read == 2
        assert stats.read == stats.parsed + stats.parse_errors
        assert len(records) == stats.parsed - stats.duplicates_removed
        assert all(error.startswith("line 1:") for error in stats.errors)
        assert "CCO" in [r.canonical_smiles for r in records]  # kept, or kept first

    def test_non_ascii_digits_are_row_errors(self, tmp_path):
        path = tmp_path / "lib.smi"
        rows = "".join(f"{text} x{i}\n" for i, text in enumerate(NON_ASCII_DIGIT_SMILES))
        path.write_text(rows + "CCO ethanol\n", "utf-8")
        records, stats = ingest(str(path))
        assert stats.parse_errors == len(NON_ASCII_DIGIT_SMILES)
        assert [r.canonical_smiles for r in records] == ["CCO"]

    def test_ladder_with_more_than_99_open_rings_is_a_row_error(self, tmp_path, capsys):
        # 199 rungs: the canonical walk holds 100 ring closures open at once,
        # though the input needs only two ring digits.
        text = ladder_smiles(199)
        assert canonical_smiles(parse_smiles(ladder_smiles(30))) == canonical_smiles(ladder(30))
        with pytest.raises(SmilesError, match="more than 99"):
            canonical_smiles(parse_smiles(text))
        path = tmp_path / "lib.smi"
        path.write_text(f"{text} ladder\nCCO ethanol\n")
        assert main(["parse", str(path)]) == 0
        out = capsys.readouterr()
        assert out.out.splitlines()[1:] == ["2,ethanol,CCO,C2H6O"]
        assert "more than 99 ring closures" in out.err


class TestCanonicalSmiles:
    @given(ADVERSARIAL, st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_invariant_under_renumbering(self, text, rng):
        try:
            mol = parse_smiles(text)
            canonical = canonical_smiles(mol)
        except SmilesError:
            assume(False)
        assert canonical_smiles(parse_smiles(canonical)) == canonical
        order = list(range(len(mol.atoms)))
        rng.shuffle(order)
        assert canonical_smiles(renumbered(mol, order)) == canonical


class TestHydrogenCounts:
    @given(ADVERSARIAL)
    @settings(max_examples=300, deadline=None)
    def test_adversarial_smiles_match_oracle(self, text):
        try:
            mol = parse_smiles(text)
        except SmilesError:
            assume(False)
        assert (mol.hydrogens, mol.total_h) == hydrogens_oracle(mol)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_random_graph_generator(self, rng):
        mol = random_molecule(rng)
        assert (mol.hydrogens, mol.total_h) == hydrogens_oracle(mol)

    @pytest.mark.parametrize("smiles, hydrogens, total_h", [
        ("[NH4+]", [4], [4]),
        ("C[NH3+]", [3, 3], [3, 3]),
        ("[H]O[H]", [0, 0, 0], [0, 2, 0]),
        ("[2H]C([2H])([2H])O", [0, 0, 0, 0, 1], [0, 3, 0, 0, 1]),
        ("[2H][nH]1cccc1", [0, 1, 1, 1, 1, 1], [0, 2, 1, 1, 1, 1]),
        ("[Na+].[OH-]", [0, 1], [0, 1]),
    ])
    def test_examples(self, smiles, hydrogens, total_h):
        mol = parse_smiles(smiles)
        assert (mol.hydrogens, mol.total_h) == (hydrogens, total_h)
        assert hydrogens_oracle(mol) == (hydrogens, total_h)


CAGES = [
    "C12C3C4C1C5C2C3C45",  # cubane
    "C12C3C1C1C2C31",  # prismane
    "C1C2CC3CC1CC(C2)C3",  # adamantane
    "C1CC2CCC1CC2",  # bicyclo[2.2.2]octane
    "C12C3C4C5C1C1C2C3C4C51",  # pentaprismane
    "C1CCCCCCCCCCCCCCCCCCCCCCC1",
    "c1ccc2cc3ccccc3cc2c1",
    "C(C)(C)(C)C.C(C)(C)(C)C",
    "C12C3C4C1C5C2C3C45.C12C3C4C1C5C2C3C45",
]


class TestRanksMatchOracle:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_random_graph_generator(self, rng):
        mol = random_molecule(rng)
        assert canonical_ranks(mol) == canonical_ranks_oracle(mol)
        order = list(range(len(mol.atoms)))
        rng.shuffle(order)
        other = renumbered(mol, order)
        assert canonical_ranks(other) == canonical_ranks_oracle(other)

    @pytest.mark.parametrize("smiles", CAGES)
    def test_symmetric_cages(self, smiles):
        mol = parse_smiles(smiles)
        rng = random.Random(smiles)
        for _ in range(5):
            assert canonical_ranks(mol) == canonical_ranks_oracle(mol)
            order = list(range(len(mol.atoms)))
            rng.shuffle(order)
            mol = renumbered(mol, order)

    def test_ladder(self):
        mol = ladder(30)
        assert canonical_ranks(mol) == canonical_ranks_oracle(mol)

    # Hydrogen atoms written as atoms count toward their neighbour's
    # hydrogens in the initial invariant.
    @pytest.mark.parametrize("smiles", [
        "[H]OC([H])C", "[H][H].C[H]", "OCOC[2H]C(Cl)(Cl)Cl", "CNc1ccccc1[2H]C(Cl)(Cl)Cl",
    ])
    def test_hydrogen_atoms(self, smiles):
        mol = parse_smiles(smiles)
        rng = random.Random(smiles)
        for _ in range(5):
            assert canonical_ranks(mol) == canonical_ranks_oracle(mol)
            order = list(range(len(mol.atoms)))
            rng.shuffle(order)
            mol = renumbered(mol, order)
