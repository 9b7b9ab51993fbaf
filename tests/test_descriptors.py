import random

import pytest

from oracles import formula_weight
from screenforge import descriptors
from screenforge.chem_graph import Atom, Bond, Molecule, UnknownElement, parse_smiles
from screenforge.descriptors import (
    DescriptorSet,
    admet_flags,
    compute_descriptors,
    hbd_hba,
    lipinski_violations,
    load_admet_thresholds,
    load_logp_table,
    molecular_weight,
    rotatable_bonds,
    tpsa,
    wlogp,
)


class TestMolecularWeight:
    @pytest.mark.parametrize(
        "formula,expected,tol",
        [
            ("C15H10O6", 286.24, 0.05),
            ("C11H8O3", 188.19, 0.05),
            ("H2", 2.016, 0.001),
        ],
    )
    def test_formula_examples(self, formula, expected, tol):
        assert formula_weight(formula) == pytest.approx(expected, abs=tol)

    @pytest.mark.parametrize("smiles, formula", [
        ("CC(=O)Oc1ccccc1C(=O)O", "C9H8O4"),
        ("O=c1c(O)c(-c2ccc(O)c(O)c2)oc2cc(O)cc(O)c12", "C15H10O7"),
        ("CCO.[Na+]", "C2H6ONa"),
    ])
    def test_molecule_weighs_its_formula(self, smiles, formula):
        assert molecular_weight(parse_smiles(smiles)) == pytest.approx(formula_weight(formula),
                                                                      abs=1e-9)

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            molecular_weight(Molecule([Atom("Xx", explicit_h=0)], []))

    def test_additivity_over_fragments(self, corpus, rng):
        smiles = [smi for _, smi, _ in corpus]
        for _ in range(25):
            a, b = rng.choice(smiles), rng.choice(smiles)
            combined = molecular_weight(parse_smiles(f"{a}.{b}"))
            parts = molecular_weight(parse_smiles(a)) + molecular_weight(parse_smiles(b))
            assert abs(combined - parts) < 1e-9


class TestTpsa:
    def test_benzene_zero(self):
        assert tpsa(parse_smiles("c1ccccc1")) == 0.0

    def test_phenol_single_aromatic_hydroxyl(self):
        assert tpsa(parse_smiles("Oc1ccccc1")) == pytest.approx(20.23)

    def test_diethyl_ether_single_ether_oxygen(self):
        assert tpsa(parse_smiles("CCOCC")) == pytest.approx(9.23)

    def test_aspirin_sum_of_fragments(self):
        # ester O + ester C=O + acid OH + acid C=O: 9.23 + 17.07 + 20.23 + 17.07
        assert tpsa(parse_smiles("CC(=O)Oc1ccccc1C(=O)O")) == pytest.approx(63.60)

    def test_monotone_under_hydroxyl_addition(self, corpus):
        for name, _, mol in corpus:
            carbon = next(
                (
                    i
                    for i, a in enumerate(mol.atoms)
                    if a.element == "C" and a.explicit_h is None and mol.hydrogens[i] > 0
                ),
                None,
            )
            if carbon is None:
                continue
            atoms = list(mol.atoms) + [Atom("O")]
            bonds = list(mol.bonds) + [Bond(carbon, len(mol.atoms))]
            grown = Molecule(atoms, bonds)
            assert tpsa(grown) > tpsa(mol), name


class TestTpsaTable:
    """The bundled table read through the constants reader, and copies of it
    with one more row, which the message names by its line."""

    @pytest.fixture
    def bundled(self):
        yield descriptors._data_text("tpsa_contributions.txt")
        descriptors.load_tpsa_table.cache_clear()  # the bundled table again, once unpatched

    def read(self, monkeypatch, text):
        monkeypatch.setattr(descriptors, "_data_text", lambda name: text)
        descriptors.load_tpsa_table.cache_clear()
        return descriptors.load_tpsa_table()

    def test_bundled_rows(self, monkeypatch, bundled):
        table = self.read(monkeypatch, bundled)
        assert len(table) == 42
        assert table[("N", 0, 0, 0, 3, 0, 0, 0, 0)] == 3.24

    @pytest.mark.parametrize("row, message", [
        # The key of the first row, its last field spelled 00.
        ("N 0 0 0 3 0 0 0 00  5.0", "key N 0 0 0 3 0 0 0 00 repeated"),
        ("N 0 0 0 3 0 0 0  3.24", "9 fields, not 9 key fields and a value"),
    ], ids=["repeated", "short"])
    def test_malformed_row_named_by_line(self, monkeypatch, bundled, row, message):
        lineno = len(bundled.splitlines()) + 1
        with pytest.raises(ValueError, match=rf"^tpsa_contributions.txt: line {lineno}: {message}$"):
            self.read(monkeypatch, f"{bundled}{row}\n")


class TestWlogp:
    def test_benzene_is_six_aromatic_ch(self):
        table = load_logp_table()
        expected = 6 * (table["C_aromatic"] + table["H_on_carbon"])
        assert wlogp(parse_smiles("c1ccccc1")) == pytest.approx(expected)

    def test_methane_carbon_plus_hydrogens(self):
        table = load_logp_table()
        expected = table["C_aliphatic"] + 4 * table["H_on_carbon"]
        assert wlogp(parse_smiles("C")) == pytest.approx(expected)

    def test_untyped_atom_uses_fallback(self, caplog):
        table = load_logp_table()
        with caplog.at_level("WARNING"):
            value = wlogp(parse_smiles("[Na+]"))
        assert value == pytest.approx(table["fallback"])
        assert any("untyped atom" in r.message for r in caplog.records)

    def test_hetero_carbon_typed_differently(self):
        table = load_logp_table()
        expected = (
            table["C_aliphatic_hetero"]
            + 3 * table["H_on_carbon"]
            + table["O_hydroxyl"]
            + table["H_on_hetero"]
        )
        assert wlogp(parse_smiles("CO")) == pytest.approx(expected)


class TestHbdHba:
    @pytest.mark.parametrize(
        "smiles,hbd,hba",
        [
            ("O", 2, 1),       # water
            ("CCO", 1, 1),     # ethanol
            ("Nc1ccccc1", 2, 1),  # aniline
            ("CC(N)=O", 2, 1),    # acetamide: amide N excluded from acceptors
            ("CCOCC", 0, 1),
        ],
    )
    def test_examples(self, smiles, hbd, hba):
        assert hbd_hba(parse_smiles(smiles)) == (hbd, hba)


class TestRotatableBonds:
    @pytest.mark.parametrize(
        "smiles,count",
        [
            ("CC", 0),          # terminal-only
            ("CCC", 0),
            ("CCCC", 1),
            ("c1ccccc1-c1ccccc1", 1),  # biaryl bond
            ("C1CCCCC1", 0),    # ring bonds excluded
            ("CCOCC", 2),
        ],
    )
    def test_examples(self, smiles, count):
        assert rotatable_bonds(parse_smiles(smiles)) == count


class TestAdmetFlags:
    def test_gi_low_when_tpsa_high(self):
        d = DescriptorSet(mw=300, tpsa=150, wlogp=1.0, hbd=1, hba=3, rotatable_bonds=2, heavy_atoms=20)
        assert admet_flags(d, load_admet_thresholds()).gi_absorption == "Low"

    def test_friendly_compound(self):
        d = DescriptorSet(mw=300, tpsa=50, wlogp=2.0, hbd=1, hba=3, rotatable_bonds=2, heavy_atoms=20)
        flags = admet_flags(d, load_admet_thresholds())
        assert flags.gi_absorption == "High"
        assert flags.bbb_permeant == "Yes"
        assert flags.bioavailability_score == 0.55

    def test_pgp_heuristic(self):
        d = DescriptorSet(mw=450, tpsa=80, wlogp=2.0, hbd=1, hba=3, rotatable_bonds=2, heavy_atoms=30)
        assert admet_flags(d, load_admet_thresholds()).pgp_substrate == "Yes"

    def test_invariant_rejects_nonpositive_mw(self):
        with pytest.raises(ValueError):
            DescriptorSet(mw=0, tpsa=0, wlogp=0, hbd=0, hba=0, rotatable_bonds=0, heavy_atoms=0)

    def test_determinism(self):
        d = DescriptorSet(mw=410, tpsa=90, wlogp=5.5, hbd=2, hba=9, rotatable_bonds=8, heavy_atoms=28)
        assert admet_flags(d, load_admet_thresholds()) == admet_flags(d, load_admet_thresholds())

    def test_bucket_closure_over_randomized_inputs(self):
        rng = random.Random(99)
        th = load_admet_thresholds()
        buckets = {th[f"bioavail_{k}"] for k in ("pass", "low_tpsa", "high_tpsa", "default_fail")}
        assert buckets == {0.11, 0.17, 0.55, 0.85}
        for _ in range(1000):
            d = DescriptorSet(
                mw=rng.uniform(10, 1200),
                tpsa=rng.uniform(0, 400),
                wlogp=rng.uniform(-8, 12),
                hbd=rng.randrange(0, 12),
                hba=rng.randrange(0, 20),
                rotatable_bonds=rng.randrange(0, 20),
                heavy_atoms=rng.randrange(1, 90),
            )
            assert admet_flags(d, th).bioavailability_score in buckets

    def test_score_is_read_from_the_table(self):
        th = load_admet_thresholds()
        d = DescriptorSet(mw=180, tpsa=60, wlogp=1, hbd=1, hba=4, rotatable_bonds=3, heavy_atoms=13)
        assert admet_flags(d, th).bioavailability_score == 0.55
        assert admet_flags(d, {**th, "bioavail_pass": 0.56}).bioavailability_score == 0.56

    def test_lipinski_violation_count(self):
        th = load_admet_thresholds()
        d = DescriptorSet(mw=600, tpsa=50, wlogp=6.0, hbd=6, hba=11, rotatable_bonds=2, heavy_atoms=40)
        assert lipinski_violations(d, th) == 4

    def test_constants_override_path(self, tmp_path):
        override = tmp_path / "th.txt"
        bundled = load_admet_thresholds()
        lines = [f"{k} {v}" for k, v in bundled.items()]
        lines[lines.index("gi_tpsa_max 142.0")] = "gi_tpsa_max 10"
        override.write_text("\n".join(lines))
        d = DescriptorSet(mw=300, tpsa=50, wlogp=2.0, hbd=1, hba=3, rotatable_bonds=2, heavy_atoms=20)
        assert admet_flags(d, bundled).gi_absorption == "High"
        assert admet_flags(d, load_admet_thresholds(str(override))).gi_absorption == "Low"


class TestComputeDescriptors:
    def test_operates_on_largest_fragment(self):
        with_salt = compute_descriptors(parse_smiles("CCO.[Na+]"))
        plain = compute_descriptors(parse_smiles("CCO"))
        assert with_salt == plain

    def test_heavy_atoms(self):
        assert compute_descriptors(parse_smiles("c1ccccc1")).heavy_atoms == 6
