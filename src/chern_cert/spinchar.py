"""Weight systems of the even spin groups' basic characters and the fixed
registry of restricted exceptional-group representations.

Weights live in a doubled lattice: each stored entry is twice the exponent of
the corresponding torus coordinate, so vector-representation weights have
entries +-2 and half-spin weights have entries +-1.  Doubling keeps the
half-integer exponents of the spin representations in exact integer
arithmetic; a weight is valid only when its entries are all even or all odd.

Characters are finite multisets of weights with positive multiplicities
(genuine characters only; virtual combinations are rejected).  They are
immutable after construction and hash by their weight multiset; the
weight-system constructors are memoized, so a repeated call hands back the
same character.  The generated weight systems (vector_weights,
exterior_square_weights, half_spin_weights) are valid by construction, and
sums, scalar multiples and branchings are built from weights of valid
characters, which keep their rank (or lose the last entry) and their
parity; all of them are built through the internal constructor
Character._derived, without the public constructor's checks, and a multiple
by 0 is the empty character.  No character is changed after it is built.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable, Mapping
from types import MappingProxyType

__all__ = [
    "Weight",
    "Character",
    "trivial",
    "vector_weights",
    "exterior_square_weights",
    "half_spin_weights",
    "registry",
    "rep_group",
    "char_equal",
    "REP_NAMES",
]

Weight = tuple[int, ...]


class Character:
    """Finite multiset of doubled-lattice weights at a fixed torus rank."""

    __slots__ = ("rank", "weights", "_hash")

    def __init__(
        self,
        rank: int,
        weights: "Mapping[Weight, int] | Iterable[tuple[Weight, int]]" = (),
    ):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        data: dict[Weight, int] = {}
        items = weights.items() if isinstance(weights, Mapping) else weights
        for w, mult in items:
            w = tuple(map(int, w))
            if len(w) != rank:
                raise ValueError(f"weight {w} does not match rank {rank}")
            if len({e & 1 for e in w}) > 1:
                raise ValueError(
                    f"weight {w} mixes integral and spin coordinates"
                )
            m = int(mult)
            if m < 0:
                raise ValueError("multiplicities must be nonnegative")
            if m:
                data[w] = data.get(w, 0) + m
        self._set(rank, data)

    @classmethod
    def _derived(cls, rank: int, data: dict) -> "Character":
        """The internal constructor for derived characters: data maps
        weights of valid characters, of length rank, to positive
        multiplicities, so nothing is checked again."""
        self = object.__new__(cls)
        self._set(rank, data)
        return self

    def _set(self, rank: int, data: dict) -> None:
        # the weights never change, so their hash is computed once
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "weights", MappingProxyType(data))
        object.__setattr__(self, "_hash", hash((rank, frozenset(data.items()))))

    def __setattr__(self, name, value):
        raise AttributeError("Character is immutable")

    @property
    def dim(self) -> int:
        return sum(self.weights.values())

    def __add__(self, other: "Character") -> "Character":
        if not isinstance(other, Character):
            return NotImplemented
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        merged = dict(self.weights)
        for w, m in other.weights.items():
            merged[w] = merged.get(w, 0) + m
        return Character._derived(self.rank, merged)

    def __mul__(self, k: int) -> "Character":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("scalar must be nonnegative")
        return Character._derived(self.rank, {w: k * m for w, m in self.weights.items()} if k else {})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, Character)
            and self.rank == other.rank
            and self.weights == other.weights
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Character(rank={self.rank}, dim={self.dim})"

    def is_negation_closed(self) -> bool:
        return all(
            self.weights.get(tuple(-e for e in w), 0) == m
            for w, m in self.weights.items()
        )

    def branch(self) -> "Character":
        """Restrict along the rank-(n-1) subtorus: the last torus coordinate
        maps to 1, so the last doubled entry is dropped (multiplicities add)."""
        if self.rank < 2:
            raise ValueError("cannot branch below rank 1")
        data: dict[Weight, int] = {}
        for w, m in self.weights.items():
            key = w[:-1]
            data[key] = data.get(key, 0) + m
        return Character._derived(self.rank - 1, data)

    def sorted_weights(self) -> list[tuple[Weight, int]]:
        return sorted(self.weights.items())

    def canonical_list(self) -> list[list]:
        """JSON-friendly canonical form: [[weight, multiplicity], ...] sorted."""
        return [[list(w), m] for w, m in self.sorted_weights()]


@functools.cache
def trivial(rank: int, multiplicity: int = 1) -> Character:
    """The trivial character (all-zero weight) with the given multiplicity."""
    return Character(rank, {(0,) * rank: multiplicity})


@functools.cache
def vector_weights(n: int) -> Character:
    """The 2n weights of the standard representation: +-2 e_i (doubled)."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    data = {}
    for i in range(n):
        for s in (2, -2):
            data[tuple(s if j == i else 0 for j in range(n))] = 1
    return Character._derived(n, data)


@functools.cache
def exterior_square_weights(n: int) -> Character:
    """The 2n(n-1) weights of the second exterior power of the standard
    representation: +-2 e_i +- 2 e_j for i < j (doubled)."""
    if n < 2:
        raise ValueError("rank must be >= 2")
    data = {}
    for i, j in itertools.combinations(range(n), 2):
        for si in (2, -2):
            for sj in (2, -2):
                w = [0] * n
                w[i], w[j] = si, sj
                data[tuple(w)] = 1
    return Character._derived(n, data)


@functools.cache
def half_spin_weights(n: int, sign: str = "+") -> Character:
    """Half-spin weight systems: all sign vectors in {+-1}^n whose product is
    +1 ("+"), -1 ("-"), or either ("both", the full spin character)."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    if sign not in ("+", "-", "both"):
        raise ValueError(f"sign must be '+', '-' or 'both', got {sign!r}")
    data = {}
    for eps in itertools.product((1, -1), repeat=n):
        parity = 1 if eps.count(-1) % 2 == 0 else -1
        if sign == "both" or (parity == 1) == (sign == "+"):
            data[eps] = 1
    return Character._derived(n, data)


REP_NAMES = ("rho4", "rho4adj", "rho6", "rho7", "rho8")

_REP_GROUPS = {
    "rho4": "F4",
    "rho4adj": "F4",
    "rho6": "E6",
    "rho7": "E7",
    "rho8": "E8",
}


@functools.cache
def _registry() -> dict[tuple[str, int], Character]:
    lam1 = vector_weights
    lam2 = exterior_square_weights
    delta = lambda n: half_spin_weights(n, "both")  # noqa: E731
    return {
        ("rho4", 4): trivial(4, 2) + lam1(4) + delta(4),
        ("rho4adj", 4): trivial(4, 4) + lam1(4) + delta(4) + lam2(4),
        ("rho6", 5): trivial(5, 1) + lam1(5) + half_spin_weights(5, "+"),
        ("rho6", 4): trivial(4, 3) + lam1(4) + delta(4),
        ("rho7", 6): 2 * lam1(6) + half_spin_weights(6, "-"),
        ("rho7", 4): trivial(4, 8) + 2 * lam1(4) + 2 * delta(4),
        ("rho8", 8): trivial(8, 8) + lam2(8) + half_spin_weights(8, "+"),
        ("rho8", 4): trivial(4, 32) + 8 * lam1(4) + 8 * delta(4) + lam2(4),
    }


def registry(name: str, rank: int) -> Character:
    """The registered restriction of a named exceptional-group representation
    to the spin group of the given torus rank."""
    try:
        return _registry()[(name, rank)]
    except KeyError:
        available = ", ".join(f"{n}@{r}" for n, r in sorted(_registry()))
        raise ValueError(
            f"no registry entry {name!r} at rank {rank} (available: {available})"
        ) from None


def rep_group(name: str) -> str:
    """Ambient exceptional group of a registered representation name."""
    try:
        return _REP_GROUPS[name]
    except KeyError:
        raise ValueError(f"unknown representation name {name!r}") from None


def char_equal(a: Character, b: Character) -> bool:
    """Exact multiset equality of two characters at the same rank."""
    if a.rank != b.rank:
        raise ValueError(f"rank mismatch: {a.rank} vs {b.rank}")
    return a == b
