"""Deterministic, hierarchically seeded random number streams.

All stochastic behaviour in the synthetic web (site generation, ad
rotation per visit, cookie-count jitter, ...) must be reproducible so
that experiments are stable across runs and machines.  We derive child
seeds from a parent seed plus a string *scope* using SHA-256, which
gives independent streams without any global state.

Example
-------
>>> root = SeedSequence(42)
>>> a = root.stream("sites")
>>> b = root.stream("visits", "example.de", 3)
>>> a.random() != b.random()
True
"""

from __future__ import annotations

import hashlib
import random
from typing import Union

Scope = Union[str, int, bytes]

_MASK_64 = (1 << 64) - 1


def derive_seed(parent_seed: int, *scope: Scope) -> int:
    """Derive a 64-bit child seed from *parent_seed* and a scope path.

    The derivation is stable across Python versions and platforms
    (unlike ``hash()``, which is salted per process).
    """
    hasher = hashlib.sha256()
    hasher.update(str(parent_seed).encode("utf-8"))
    for part in scope:
        if isinstance(part, bytes):
            hasher.update(b"\x00b" + part)
        else:
            hasher.update(b"\x00s" + str(part).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "big") & _MASK_64


class SeedSequence:
    """A node in a tree of deterministic random streams."""

    __slots__ = ("seed",)

    def __init__(self, seed: int) -> None:
        self.seed = seed & _MASK_64

    def child(self, *scope: Scope) -> "SeedSequence":
        """Return a child sequence for the given scope path."""
        return SeedSequence(derive_seed(self.seed, *scope))

    def stream(self, *scope: Scope) -> random.Random:
        """Return an independent :class:`random.Random` for the scope."""
        return random.Random(derive_seed(self.seed, *scope))

    def __repr__(self) -> str:
        return f"SeedSequence(seed={self.seed})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SeedSequence) and other.seed == self.seed

    def __hash__(self) -> int:
        return hash(("SeedSequence", self.seed))
