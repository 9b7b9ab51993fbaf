"""Randomized canonicalization properties over generated molecules.

The generator builds random valence-respecting graphs directly (trees plus
ring bonds, multiple-bond upgrades, bracket-atom decorations), bypassing
the parser, so these tests exercise canonical writing and re-parsing on
structures no curated corpus would contain.
"""

import random

import pytest

from oracles import brute_force_isomorphic
from screenforge.chem_graph import (
    Atom,
    Bond,
    Molecule,
    canonical_smiles,
    element_counts,
    parse_smiles,
)
from helpers import renumbered

MAX_SINGLE_VALENCE = {"C": 4, "N": 3, "O": 2, "S": 2, "P": 3, "B": 3,
                      "F": 1, "Cl": 1, "Br": 1, "I": 1}
ELEMENT_POOL = ["C"] * 6 + ["N", "O", "C", "S", "F", "Cl", "Br", "P", "I", "B"]


def random_molecule(rng: random.Random):
    n = rng.randint(1, 10)
    elements = [rng.choice(ELEMENT_POOL) for _ in range(n)]
    free = [MAX_SINGLE_VALENCE[e] for e in elements]
    bonds = []
    adjacency = {i: set() for i in range(n)}

    # spanning tree over atoms that still have capacity
    for i in range(1, n):
        parents = [j for j in range(i) if free[j] > 0]
        if not parents:
            elements[i - 1] = "C"  # give the previous atom room and retry
            free[i - 1] = 4 - len(adjacency[i - 1])
            parents = [j for j in range(i) if free[j] > 0]
        j = rng.choice(parents)
        bonds.append([i, j, "single"])
        adjacency[i].add(j)
        adjacency[j].add(i)
        free[i] -= 1
        free[j] -= 1

    # extra ring bonds
    for _ in range(rng.randint(0, 3)):
        options = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if free[i] > 0 and free[j] > 0 and j not in adjacency[i]
        ]
        if not options:
            break
        i, j = rng.choice(options)
        bonds.append([i, j, "single"])
        adjacency[i].add(j)
        adjacency[j].add(i)
        free[i] -= 1
        free[j] -= 1

    # upgrade some bonds to double/triple where capacity remains
    for bond in bonds:
        i, j, _ = bond
        if rng.random() < 0.25 and free[i] > 0 and free[j] > 0:
            bond[2] = "double"
            free[i] -= 1
            free[j] -= 1
            if rng.random() < 0.3 and free[i] > 0 and free[j] > 0:
                bond[2] = "triple"
                free[i] -= 1
                free[j] -= 1

    atoms = []
    for i, element in enumerate(elements):
        charge = 0
        isotope = None
        explicit_h = None
        roll = rng.random()
        if roll < 0.08:
            charge = rng.choice([-1, 1])
            explicit_h = rng.randint(0, max(0, free[i]))
        elif roll < 0.14:
            isotope = rng.randint(2, 40)
            explicit_h = rng.randint(0, max(0, free[i]))
        atoms.append(
            Atom(element, formal_charge=charge, isotope=isotope, explicit_h=explicit_h)
        )
    return Molecule(atoms, [Bond(i, j, order) for i, j, order in bonds])


@pytest.fixture(scope="module")
def generated():
    rng = random.Random(424242)
    return [random_molecule(rng) for _ in range(200)]


def test_round_trip_isomorphism(generated):
    for idx, mol in enumerate(generated):
        again = parse_smiles(canonical_smiles(mol))
        assert brute_force_isomorphic(mol, again), f"molecule #{idx}"


def test_permutation_invariance(generated):
    rng = random.Random(99)
    for idx, mol in enumerate(generated):
        reference = canonical_smiles(mol)
        order = list(range(len(mol.atoms)))
        for _ in range(5):
            rng.shuffle(order)
            assert canonical_smiles(renumbered(mol, order)) == reference, f"molecule #{idx}"


def test_idempotence_and_hydrogen_conservation(generated):
    for idx, mol in enumerate(generated):
        c = canonical_smiles(mol)
        again = parse_smiles(c)
        assert canonical_smiles(again) == c, f"molecule #{idx}"
        assert element_counts(again).get("H", 0) == element_counts(mol).get("H", 0), (
            f"molecule #{idx}"
        )
