"""Circular structural fingerprints.

Each atom-centered neighborhood up to a configurable radius hashes one bit
into a fixed-length binary vector. Environment identifiers are built from
canonical atom invariants refined by sorted neighbor invariants, so
isomorphic molecules always map to identical vectors; the hash is a keyed
64-bit blake2b digest, stable across runs and platforms.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .chem_graph import AROMATIC, BOND_ORDER_VALUE, Molecule, largest_fragment


class ConfigMismatch(ValueError):
    """Two fingerprints with different configurations were compared."""


@dataclass(frozen=True)
class FingerprintConfig:
    radius: int = 2
    nbits: int = 2048
    hash_seed: int = 0

    def __post_init__(self):
        if not all(isinstance(v, int) for v in (self.radius, self.nbits, self.hash_seed)):
            raise ValueError("radius, nbits and hash_seed must be integers")
        if self.nbits < 64 or self.nbits & (self.nbits - 1):
            raise ValueError("nbits must be a power of two >= 64")
        if not 0 <= self.radius <= 6:
            raise ValueError("radius must lie in [0, 6]")

    def tag(self) -> str:
        return f"r{self.radius}b{self.nbits}s{self.hash_seed}"


@dataclass(frozen=True)
class FingerprintVector:
    bits: np.ndarray = field(compare=False)
    config: FingerprintConfig = FingerprintConfig()

    def __post_init__(self):
        if len(self.bits) != self.config.nbits:
            raise ValueError("bit vector length differs from config.nbits")

    def __eq__(self, other):
        if not isinstance(other, FingerprintVector):
            return NotImplemented
        return self.config == other.config and bool(np.array_equal(self.bits, other.bits))


def _hash64(data: str, seed: int) -> int:
    key = (seed % 2**64).to_bytes(8, "little")
    return int.from_bytes(
        hashlib.blake2b(data.encode("utf-8"), digest_size=8, key=key).digest(),
        "little",
    )


def _bond_label(order: str) -> int:
    return 4 if order == AROMATIC else BOND_ORDER_VALUE[order]


def circular_fingerprint(
    mol: Molecule, cfg: FingerprintConfig = FingerprintConfig()
) -> FingerprintVector:
    """Hash atom environments of radius 0..cfg.radius over the largest
    fragment into a binary vector; its bits are read-only."""
    return mol.derived(_circular_fingerprint, cfg)


def _circular_fingerprint(mol: Molecule, cfg: FingerprintConfig) -> FingerprintVector:
    frag = largest_fragment(mol)
    seed = cfg.hash_seed
    ids = [
        _hash64(
            repr(
                (
                    a.element,
                    a.formal_charge,
                    a.aromatic,
                    frag.degree(i),
                    frag.total_h(i),
                )
            ),
            seed,
        )
        for i, a in enumerate(frag.atoms)
    ]
    bits = np.zeros(cfg.nbits, dtype=np.uint8)
    for env_id in ids:
        bits[env_id % cfg.nbits] = 1
    for _ in range(cfg.radius):
        new_ids = []
        for i in range(len(frag.atoms)):
            nbrs = sorted((_bond_label(b.order), ids[j]) for j, b in frag.neighbors(i))
            new_ids.append(_hash64(repr((ids[i], tuple(nbrs))), seed))
        ids = new_ids
        for env_id in ids:
            bits[env_id % cfg.nbits] = 1
    bits.flags.writeable = False
    return FingerprintVector(bits=bits, config=cfg)


def popcount(v: FingerprintVector) -> int:
    return int(v.bits.sum())


def to_hex(v: FingerprintVector) -> str:
    """Serialize as ``r<radius>b<nbits>s<seed>:<hex>`` (bit 0 first)."""
    return f"{v.config.tag()}:{np.packbits(v.bits).tobytes().hex()}"


def from_hex(text: str) -> FingerprintVector:
    head, _, payload = text.partition(":")
    import re

    match = re.fullmatch(r"r(\d+)b(\d+)s(-?\d+)", head)
    if not match or not payload:
        raise ValueError(f"malformed fingerprint string {text!r}")
    cfg = FingerprintConfig(
        radius=int(match.group(1)),
        nbits=int(match.group(2)),
        hash_seed=int(match.group(3)),
    )
    raw = np.frombuffer(bytes.fromhex(payload), dtype=np.uint8)
    bits = np.unpackbits(raw)[: cfg.nbits]
    if len(bits) != cfg.nbits:
        raise ValueError("fingerprint payload shorter than nbits")
    return FingerprintVector(bits=bits.astype(np.uint8), config=cfg)
