"""Seeded input generator for the benchmark workloads.

Libraries grow from the bundled ``data/corpus.smi`` by prepending seeded
substituents to corpus SMILES and keeping only canonical forms not seen
before. Growth is stratified (every corpus base and every growth depth gets
an equal share of the slots) so that the amount of work in a library hardly
depends on the seed; only which substituents land where does.

Activity tables are labelled with a seeded linear function of descriptors
plus seeded noise. The pharmacophore table is labelled by donor count, so
that its most active compound, which seeds every hypothesis, is a polyol.

Everything here is a pure function of the seed: the same seed writes
byte-identical files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from importlib import resources

from screenforge.chem_graph import SmilesError, canonical_smiles, iter_smi_lines, parse_smiles
from screenforge.descriptors import compute_descriptors

SUBSTITUENTS = (
    "C", "O", "N", "Cl", "F", "S", "C(=O)O", "C(=O)N", "OC", "C(C)", "C(O)", "c1ccccc1",
)
MAX_DEPTH = 4
ATTEMPTS_PER_SLOT = 12

# Descriptor centres and scales for the label function (typical values of
# the grown libraries), so each weight acts on a unit-scale term.
LABEL_TERMS = {
    "mw": (180.0, 80.0),
    "tpsa": (40.0, 30.0),
    "wlogp": (1.5, 1.5),
    "hbd": (1.5, 1.5),
    "hba": (2.5, 2.0),
    "rotatable_bonds": (2.0, 2.0),
    "heavy_atoms": (12.0, 6.0),
}

# Polyols (open-chain sugar alcohols) of these carbon counts and
# glycosides of these aglycones give the pharmacophore fit search many
# same-kind features (one donor and one acceptor per hydroxyl).
POLYOL_CARBONS = (4, 5, 6, 7)
POLYOL_CAPS = ("C", "CC", "C(C)=O")
AGLYCONES = (
    "c1ccccc1", "c1ccc(O)cc1", "c1ccc(C)cc1", "c1ccc(Cl)cc1", "c1ccc2ccccc2c1",
    "CCc1ccccc1", "c1ccncc1", "CC(C)C", "c1ccc(N)cc1", "c1ccc(F)cc1",
)
# Glucopyranose with the aglycone ether on C1, C2 or the primary C6.
GLYCOSIDE_LINKAGES = (
    "OCC1OC({})C(O)C(O)C1O",
    "OCC1OC(O)C({})C(O)C1O",
    "C({})C1OC(O)C(O)C(O)C1O",
)


@dataclass
class GenStats:
    attempts: int = 0
    kept: int = 0
    rejected_invalid: int = 0
    rejected_duplicate: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "attempts": self.attempts,
            "kept": self.kept,
            "rejected": self.rejected_invalid + self.rejected_duplicate,
            "rejected_invalid": self.rejected_invalid,
            "rejected_duplicate": self.rejected_duplicate,
        }


@dataclass
class Generator:
    """Grows distinct compounds; one instance keeps every canonical form it
    has emitted, so libraries drawn from it never overlap."""

    seed: int
    stats: GenStats = field(default_factory=GenStats)

    def __post_init__(self):
        text = resources.files("screenforge").joinpath("data/corpus.smi").read_text("utf-8")
        self.corpus = [smiles for _, smiles, _ in iter_smi_lines(text)]
        self.seen = {canonical_smiles(parse_smiles(s)) for s in self.corpus}
        self.rng = random.Random(f"screenforge-bench:{self.seed}")
        self.dead_bases: set[int] = set()
        self.slot = 0
        self.polyol_index = 0

    def _admit(self, smiles: str) -> bool:
        self.stats.attempts += 1
        try:
            canonical = canonical_smiles(parse_smiles(smiles))
        except SmilesError:
            self.stats.rejected_invalid += 1
            return False
        if canonical in self.seen:
            self.stats.rejected_duplicate += 1
            return False
        self.seen.add(canonical)
        self.stats.kept += 1
        return True

    def grow(self, n: int) -> list[str]:
        """``n`` new compounds. Slot i grows corpus base i mod len(corpus)
        to depth 1 + (i div len(corpus)) mod MAX_DEPTH; a slot that keeps
        failing goes one level deeper, and a base that never yields a valid
        compound (a saturated bracket atom, say) is dropped."""
        out: list[str] = []
        n_bases = len(self.corpus)
        while len(out) < n:
            slot = self.slot
            self.slot += 1
            base = slot % n_bases
            if base in self.dead_bases:
                continue
            depth = 1 + (slot // n_bases) % MAX_DEPTH
            grown = None
            valid_seen = False
            for attempt in range(ATTEMPTS_PER_SLOT):
                smiles = self.corpus[base]
                for _ in range(depth + attempt // 4):
                    smiles = self.rng.choice(SUBSTITUENTS) + smiles
                before = self.stats.rejected_invalid
                if self._admit(smiles):
                    grown = smiles
                    break
                valid_seen |= self.stats.rejected_invalid == before
            if grown is not None:
                out.append(grown)
            elif not valid_seen:
                self.dead_bases.add(base)
        return out

    def polyol_slice(self, n: int) -> list[str]:
        """``n`` polyols and glycosides, alternating, continuing one fixed
        cycle across calls. The slice does not depend on the seed, so every
        seed gets the same fit-search load from it. After the first round,
        a methyl, ethyl or acetyl cap on one hydroxyl keeps each polyol new.
        """
        out: list[str] = []
        while len(out) < n:
            i = self.polyol_index
            self.polyol_index += 1
            j = i // 2
            if i % 2 == 0:
                k = POLYOL_CARBONS[j % len(POLYOL_CARBONS)]
                parts = ["C(O)"] * (k - 2)
                rounds = j // len(POLYOL_CARBONS)
                if rounds:
                    cap = POLYOL_CAPS[(rounds - 1) // (k - 2) % len(POLYOL_CAPS)]
                    parts[(rounds - 1) % (k - 2)] = f"C(O{cap})"
                smiles = "OC" + "".join(parts) + "CO"
            else:
                aglycone = AGLYCONES[j % len(AGLYCONES)]
                linkage = GLYCOSIDE_LINKAGES[(j // len(AGLYCONES)) % len(GLYCOSIDE_LINKAGES)]
                smiles = linkage.format(f"O{aglycone}")
            if self._admit(smiles):
                out.append(smiles)
        return out


def descriptor_labels(smiles: list[str], rng: random.Random, offset: float,
                      noise: float = 0.25) -> list[float]:
    """pIC50 = offset + sum_k w_k z_k + noise, with seeded weights w over the
    unit-scaled descriptors z; rounded to three decimals."""
    weights = {name: rng.uniform(-0.4, 0.4) for name in LABEL_TERMS}
    out = []
    for s in smiles:
        d = compute_descriptors(parse_smiles(s))
        score = sum(
            w * (getattr(d, name) - LABEL_TERMS[name][0]) / LABEL_TERMS[name][1]
            for name, w in weights.items()
        )
        out.append(round(offset + score + rng.gauss(0.0, noise), 3))
    return out


def donor_labels(smiles: list[str], rng: random.Random) -> list[float]:
    """Pharmacophore training labels that rise with hydrogen-bond donors, so
    the most active compound, whose features seed every hypothesis, is the
    largest polyol."""
    out = []
    for s in smiles:
        d = compute_descriptors(parse_smiles(s))
        out.append(round(4.0 + 0.45 * d.hbd + 0.02 * d.heavy_atoms + rng.gauss(0.0, 0.05), 3))
    return out


def write_smi(path, smiles: list[str], prefix: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for i, s in enumerate(smiles):
            handle.write(f"{s} {prefix}{i:05d}\n")


def write_activity_csv(path, smiles: list[str], pic50s: list[float], prefix: str,
                       target: str = "") -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("id,name,smiles,pic50,target\n")
        for i, (s, p) in enumerate(zip(smiles, pic50s)):
            handle.write(f"{prefix}{i:05d},{prefix}-{i},{s},{p:.3f},{target}\n")
