"""Restriction of characters along a point of the dual torus mod p, and the
total mod-p Chern classes of the restricted characters.

A restriction point alpha in (F_p)^n encodes the homomorphism sending the
i-th torus coordinate to z^(alpha_i), z the canonical character of the cyclic
group of order p.  A weight with doubled coordinates d restricts to the
exponent (sum_i d_i alpha_i) / 2 mod p, and a line with exponent a contributes
the factor 1 + a*t to the total Chern class.
"""

from __future__ import annotations

from .fppoly import (
    UPoly,
    check_odd_prime,
    chern_of_exponents,
    in_subring,
    inv2,
    pm_factorization,
    subring_bound,
)
from .spinchar import Character, Weight, registry

__all__ = [
    "RestrictionPoint",
    "restrict_exponent",
    "restricted_exponents",
    "total_chern",
    "chern_named",
    "report_named",
]


class RestrictionPoint:
    """A homomorphism from the order-p cyclic group into the rank-n doubled
    torus, encoded by the exponent vector alpha.  Immutable, equal and
    hashed by (p, alpha)."""

    __slots__ = ("p", "alpha")

    def __init__(self, p: int, alpha: tuple[int, ...]):
        check_odd_prime(p)
        if not alpha:
            raise ValueError("alpha must be nonempty")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "alpha", tuple(int(a) % p for a in alpha))

    def __setattr__(self, name, value):
        raise AttributeError("RestrictionPoint is immutable")

    def __eq__(self, other):
        if not isinstance(other, RestrictionPoint):
            return NotImplemented
        return (self.p, self.alpha) == (other.p, other.alpha)

    def __hash__(self):
        return hash((self.p, self.alpha))

    def __repr__(self):
        return f"RestrictionPoint(p={self.p}, alpha={self.alpha})"

    @classmethod
    def parse(cls, p: int, text: str) -> "RestrictionPoint":
        """Parse a comma-separated digit list such as "1,1,1,0"."""
        try:
            alpha = tuple(int(part.strip()) for part in text.split(","))
        except ValueError:
            raise ValueError(f"malformed alpha {text!r}") from None
        return cls(p, alpha)

    @property
    def rank(self) -> int:
        return len(self.alpha)

    @property
    def is_zero(self) -> bool:
        return not any(self.alpha)

    @property
    def is_canonical(self) -> bool:
        """True when the coordinates are weakly increasing, i.e. alpha is the
        chosen representative of its coordinate-permutation class."""
        return all(a <= b for a, b in zip(self.alpha, self.alpha[1:]))

    def permuted(self, perm) -> "RestrictionPoint":
        if sorted(perm) != list(range(self.rank)):
            raise ValueError("not a permutation of the coordinates")
        return RestrictionPoint(self.p, tuple(self.alpha[i] for i in perm))

    def render(self) -> str:
        return ",".join(str(a) for a in self.alpha)


def restrict_exponent(weight: Weight, point: RestrictionPoint) -> int:
    """Exponent of z on the restricted line: (sum_i d_i alpha_i) / 2 mod p
    for a weight with doubled coordinates d."""
    if len(weight) != point.rank:
        raise ValueError(
            f"weight length {len(weight)} does not match rank {point.rank}"
        )
    total = sum(d * a for d, a in zip(weight, point.alpha))
    return (total * inv2(point.p)) % point.p


def restricted_exponents(char: Character, point: RestrictionPoint) -> list[int]:
    """All restricted line exponents with multiplicity, in a deterministic
    (sorted-weight) order."""
    if char.rank != point.rank:
        raise ValueError(f"rank mismatch: {char.rank} vs {point.rank}")
    out = []
    for w, mult in char.sorted_weights():
        e = restrict_exponent(w, point)
        out.extend([e] * mult)
    return out


def total_chern(char: Character, point: RestrictionPoint) -> UPoly:
    """Total mod-p Chern class of the restricted character: the product of
    (1 + a*t) over all restricted line exponents."""
    return chern_of_exponents(point.p, restricted_exponents(char, point))


def chern_named(name: str, point: RestrictionPoint) -> UPoly:
    """Total Chern class of a registered representation restricted at the
    given point; the registry rank is the point's rank."""
    return total_chern(registry(name, point.rank), point)


def report_named(name: str, point: RestrictionPoint) -> dict:
    """The total Chern class of a registered representation at one point,
    with the form flags the classification relies on, as plain data."""
    poly = chern_named(name, point)
    p = point.p
    d = subring_bound(p)
    pm = pm_factorization(poly)
    return {
        "p": p,
        "alpha": point.render(),
        "rank": point.rank,
        "rep": name,
        "total_chern": poly.render(),
        "degree": poly.degree,
        "flags": {
            "divisible_by_1_minus_t2": poly.divexact(UPoly(p, (1, 0, p - 1))) is not None,
            "pm_form": list(pm) if pm is not None else None,
            "subring_exponent": d,
            "in_subring": in_subring(poly, d),
            "canonical_alpha": point.is_canonical,
        },
    }
