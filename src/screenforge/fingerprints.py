"""Circular structural fingerprints.

Each atom-centered neighborhood up to a configurable radius hashes one bit
into a fixed-length binary vector. Environment identifiers are built from
canonical atom invariants refined by sorted neighbor invariants, so
isomorphic molecules always map to identical vectors; the hash is a keyed
64-bit blake2b digest, stable across runs and platforms.

Each distinct environment is hashed once per run: a memo maps its flat key,
``(seed, *invariants)`` at radius 0 and ``(seed, id, label1, id1, ...)``
after, to the digest of the same ``repr`` as ever. Key fields are exact
``int``/``bool``/``str``, so equal keys have equal reprs (other radius-0
types are keyed by their repr). It is cleared at ``_ENV_CAP`` keys and
after each CLI command.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .chem_graph import BOND_CODE, Molecule, largest_fragment


@dataclass(frozen=True)
class FingerprintConfig:
    radius: int = 2
    nbits: int = 2048
    hash_seed: int = 0

    def __post_init__(self):
        if not all(type(v) is int for v in (self.radius, self.nbits, self.hash_seed)):
            raise ValueError("radius, nbits and hash_seed must be integers")
        if self.nbits < 64 or self.nbits & (self.nbits - 1):
            raise ValueError("nbits must be a power of two >= 64")
        if not 0 <= self.radius <= 6:
            raise ValueError("radius must lie in [0, 6]")

    def tag(self) -> str:
        return f"r{self.radius}b{self.nbits}s{self.hash_seed}"


@dataclass(frozen=True, eq=False)
class FingerprintVector:
    bits: np.ndarray
    config: FingerprintConfig = FingerprintConfig()

    def __post_init__(self):
        if len(self.bits) != self.config.nbits:
            raise ValueError("bit vector length differs from config.nbits")


_ENV_IDS: dict[tuple, int] = {}
_ENV_CAP = 1 << 16
_INVARIANT_TYPES = (str, int, bool, int, int)


@functools.lru_cache(maxsize=8)
def _keyed_blake2b(seed: int):
    return hashlib.blake2b(digest_size=8, key=(seed % 2**64).to_bytes(8, "little"))


def _new_env_id(key: tuple, text: str) -> int:
    """The keyed 64-bit blake2b digest of ``text``, kept under ``key``."""
    if len(_ENV_IDS) >= _ENV_CAP:
        _ENV_IDS.clear()
    h = _keyed_blake2b(key[0]).copy()
    h.update(text.encode("utf-8"))
    env_id = _ENV_IDS[key] = int.from_bytes(h.digest(), "little")
    return env_id


def circular_fingerprint(
    mol: Molecule, cfg: FingerprintConfig = FingerprintConfig()
) -> FingerprintVector:
    """Hash atom environments of radius 0..cfg.radius over the largest
    fragment into a binary vector; its bits are read-only."""
    return mol.derived(_circular_fingerprint, cfg)


def _circular_fingerprint(mol: Molecule, cfg: FingerprintConfig) -> FingerprintVector:
    frag = largest_fragment(mol)
    seed = cfg.hash_seed
    ids = []
    for i, a in enumerate(frag.atoms):
        inv = (a.element, a.formal_charge, a.aromatic, frag.degree(i), frag.total_h[i])
        key = (seed, *inv) if tuple(map(type, inv)) == _INVARIANT_TYPES else (seed, repr(inv))
        ids.append(_ENV_IDS.get(key) or _new_env_id(key, repr(inv)))
    nbrs = [[(BOND_CODE[b.order], j) for j, b in frag.neighbors(i)] for i in range(len(ids))]
    all_ids = list(ids)
    for _ in range(cfg.radius):
        new_ids = []
        for env_id, pairs in zip(ids, nbrs):
            key = [seed, env_id]
            for pair in sorted([(label, ids[j]) for label, j in pairs]):
                key += pair
            key = tuple(key)
            env_id = _ENV_IDS.get(key)
            if env_id is None:  # the string is repr((id, ((label, id), ...)))
                env_id = _new_env_id(key, repr((key[1], tuple(zip(key[2::2], key[3::2])))))
            new_ids.append(env_id)
        ids = new_ids
        all_ids += ids
    bits = np.zeros(cfg.nbits, dtype=np.uint8)
    bits[[env_id & (cfg.nbits - 1) for env_id in all_ids]] = 1
    bits.flags.writeable = False
    return FingerprintVector(bits=bits, config=cfg)


def to_hex(v: FingerprintVector) -> str:
    """Serialize as ``r<radius>b<nbits>s<seed>:<hex>`` (bit 0 first)."""
    return f"{v.config.tag()}:{np.packbits(v.bits).tobytes().hex()}"
