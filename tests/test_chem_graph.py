import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_isomorphic, canonical_smiles_oracle
from screenforge.chem_graph import (
    Atom,
    Bond,
    SmilesError,
    UnbalancedParenthesis,
    UnclosedRing,
    UnknownElement,
    ValenceViolation,
    canonical_smiles,
    element_counts,
    iter_smi_lines,
    largest_fragment,
    make_molecule,
    molecular_formula,
    parse_smiles,
    renumbered,
)


class TestParsing:
    def test_methane(self):
        mol = parse_smiles("C")
        assert mol.heavy_atom_count() == 1
        assert mol.implicit_h[0] == 4

    def test_benzene(self):
        mol = parse_smiles("c1ccccc1")
        assert len(mol.atoms) == 6
        assert all(a.aromatic and a.element == "C" for a in mol.atoms)
        assert all(mol.implicit_h[i] == 1 for i in range(6))
        assert len(mol.rings) == 1
        assert sorted(mol.rings[0]) == list(range(6))

    def test_unclosed_ring(self):
        with pytest.raises(UnclosedRing):
            parse_smiles("C1CC")

    def test_unbalanced_parentheses(self):
        with pytest.raises(UnbalancedParenthesis):
            parse_smiles("C(C(C)C")
        with pytest.raises(UnbalancedParenthesis):
            parse_smiles("CC)C")

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            parse_smiles("CEC")
        with pytest.raises(UnknownElement):
            parse_smiles("[Xx]")

    def test_valence_violation(self):
        with pytest.raises(ValenceViolation):
            parse_smiles("C(C)(C)(C)(C)C")
        with pytest.raises(ValenceViolation):
            parse_smiles("O(C)(C)C")

    def test_bracket_atom_features(self):
        mol = parse_smiles("[13CH3+]")
        atom = mol.atoms[0]
        assert atom.isotope == 13
        assert atom.explicit_h == 3
        assert atom.formal_charge == 1

    def test_bracket_rejects_exotic_features(self):
        with pytest.raises(SmilesError):
            parse_smiles("[CH4:2]")  # atom-class maps are not guessed at

    def test_charge_range(self):
        with pytest.raises(SmilesError):
            parse_smiles("[O-5]")
        assert parse_smiles("[O-2]").atoms[0].formal_charge == -2

    def test_multi_fragment_and_salts(self):
        mol = parse_smiles("CCO.[Na+]")
        assert mol.fragment_count == 2
        assert mol.atoms[-1].element == "Na"

    def test_percent_ring_closure(self):
        mol = parse_smiles("C%10CCCCC%10")
        assert len(mol.rings) == 1

    def test_double_bond_before_ring_digit(self):
        mol = parse_smiles("C=1CCCCC=1")
        orders = {b.order for b in mol.bonds}
        assert "double" in orders

    def test_conflicting_ring_bond_symbols(self):
        with pytest.raises(SmilesError):
            parse_smiles("C=1CCCCC#1")

    def test_stereo_markers_recorded_not_interpreted(self):
        mol = parse_smiles("C/C=C/C")
        directions = [b.direction for b in mol.bonds]
        assert directions.count("/") == 2
        mol = parse_smiles("N[C@@H](C)C(=O)O")
        assert mol.atoms[1].chirality == "@@"

    def test_empty_input(self):
        with pytest.raises(SmilesError):
            parse_smiles("")
        with pytest.raises(SmilesError):
            parse_smiles("   ")

    def test_aromatic_bond_requires_aromatic_atoms(self):
        with pytest.raises(SmilesError):
            parse_smiles("C:C")

    def test_pyridine_and_furan_hydrogens(self):
        pyridine = parse_smiles("c1ccncc1")
        n_idx = next(i for i, a in enumerate(pyridine.atoms) if a.element == "N")
        assert pyridine.implicit_h[n_idx] == 0
        furan = parse_smiles("c1ccoc1")
        o_idx = next(i for i, a in enumerate(furan.atoms) if a.element == "O")
        assert furan.implicit_h[o_idx] == 0

    @given(st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=256))
    @settings(max_examples=300, deadline=None)
    def test_parser_totality_on_fuzzed_ascii(self, text):
        try:
            parse_smiles(text)
        except SmilesError:
            pass  # typed errors are the contract; anything else fails the test


class TestGraphQueries:
    def test_components_sorted_and_ordered_by_smallest_member(self):
        mol = parse_smiles("OCC(N)c1ccccc1.CC")
        assert mol.components(range(len(mol.atoms))) == [list(range(10)), [10, 11]]
        plain_c = [i for i, a in enumerate(mol.atoms) if a.element == "C" and not a.aromatic]
        assert mol.components(reversed(plain_c)) == [[1, 2], [10, 11]]
        assert mol.components([]) == []

    def test_ring_count_is_the_cyclomatic_number(self, corpus):
        for name, _, mol in corpus:
            assert len(mol.rings) == len(mol.bonds) - len(mol.atoms) + mol.fragment_count, name
            for ring in mol.rings:
                assert all(mol.bond_between(a, b) for a, b in zip(ring, ring[1:] + ring[:1]))


class TestCanonical:
    def test_atom_order_independence(self):
        assert canonical_smiles(parse_smiles("OCC")) == canonical_smiles(parse_smiles("CCO"))

    def test_idempotence(self, corpus):
        for name, _, mol in corpus:
            c = canonical_smiles(mol)
            assert canonical_smiles(parse_smiles(c)) == c, name

    def test_benzene_two_spellings(self):
        a = canonical_smiles(parse_smiles("c1ccccc1"))
        b = canonical_smiles(parse_smiles("c1ccc(cc1)"))
        assert a == b
        assert brute_force_isomorphic(parse_smiles(a), parse_smiles("c1ccccc1"))

    def test_round_trip_isomorphism_small(self, corpus):
        for name, _, mol in corpus:
            if mol.heavy_atom_count() > 12:
                continue
            again = parse_smiles(canonical_smiles(mol))
            assert brute_force_isomorphic(mol, again), name

    def test_permutation_invariance(self, corpus, rng):
        for name, _, mol in corpus:
            reference = canonical_smiles(mol)
            n = len(mol.atoms)
            for _ in range(10):
                order = list(range(n))
                rng.shuffle(order)
                assert canonical_smiles(renumbered(mol, order)) == reference, name

    def test_matches_recursive_writer_oracle(self, corpus, rng):
        for name, _, mol in corpus:
            assert canonical_smiles(mol) == canonical_smiles_oracle(mol), name
            for _ in range(3):
                order = list(range(len(mol.atoms)))
                rng.shuffle(order)
                other = renumbered(mol, order)
                assert canonical_smiles(other) == canonical_smiles_oracle(other), name

    def test_hydrogen_conservation(self, corpus):
        for name, _, mol in corpus:
            again = parse_smiles(canonical_smiles(mol))
            assert element_counts(mol).get("H", 0) == element_counts(again).get("H", 0), name

    def test_single_bond_between_aromatic_atoms_survives(self):
        biphenyl = parse_smiles("c1ccccc1-c1ccccc1")
        again = parse_smiles(canonical_smiles(biphenyl))
        assert brute_force_isomorphic(biphenyl, again)
        n_aromatic_bonds = sum(1 for b in again.bonds if b.order == "aromatic")
        assert n_aromatic_bonds == 12  # two rings, the bridge stays single


class TestFormula:
    @pytest.mark.parametrize(
        "smiles,formula",
        [
            ("C", "CH4"),
            ("CCO", "C2H6O"),
            ("O", "H2O"),
            ("[Na+].[Cl-]", "ClNa"),
            ("O=c1cc(-c2ccc(O)c(O)c2)oc2cc(O)cc(O)c12", "C15H10O6"),  # luteolin
        ],
    )
    def test_examples(self, smiles, formula):
        assert molecular_formula(parse_smiles(smiles)) == formula

    def test_explicit_hydrogens_counted(self):
        assert molecular_formula(parse_smiles("[H][H]")) == "H2"
        assert molecular_formula(parse_smiles("C([H])([H])([H])[H]")) == "CH4"


class TestLargestFragment:
    def test_single_fragment_identity(self):
        mol = parse_smiles("CCO")
        assert largest_fragment(mol) is mol

    def test_salt_stripping(self):
        frag = largest_fragment(parse_smiles("CCO.[Na+]"))
        assert molecular_formula(frag) == "C2H6O"

    def test_tie_broken_by_mass(self):
        # equal heavy-atom counts; NH3 outweighs CH4
        frag = largest_fragment(parse_smiles("C.N"))
        assert frag.atoms[0].element == "N"

    def test_mass_tie_broken_by_lowest_index(self):
        frag = largest_fragment(parse_smiles("C.C"))
        assert molecular_formula(frag) == "CH4"


class TestSmiFormat:
    def test_lines_comments_names_crlf(self):
        text = "# header\r\nCCO ethanol\r\n\r\nc1ccccc1\tbenzene ring\nC\n"
        rows = list(iter_smi_lines(text))
        assert rows == [
            (2, "CCO", "ethanol"),
            (4, "c1ccccc1", "benzene ring"),
            (5, "C", None),
        ]


class TestMakeMolecule:
    def test_duplicate_bond_rejected(self):
        atoms = [Atom("C"), Atom("C")]
        bonds = [Bond(0, 1), Bond(1, 0)]
        with pytest.raises(SmilesError):
            make_molecule(atoms, bonds)

    def test_self_bond_rejected(self):
        with pytest.raises(SmilesError):
            make_molecule([Atom("C")], [Bond(0, 0)])

    def test_renumbered_requires_permutation(self):
        mol = parse_smiles("CCO")
        with pytest.raises(ValueError):
            renumbered(mol, [0, 0, 1])
