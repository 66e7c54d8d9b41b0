"""Independent reference values for the chern-cert benchmark.

Nothing here imports chern_cert.  The weight systems are built from the
paper's formulas in the doubled lattice (lambda1: +-2 e_i; lambda2:
+-2 e_i +- 2 e_j; delta+-: sign vectors with product +-1), a restriction
point alpha sends a weight d to the exponent (d . alpha) / 2 mod p, and the
total Chern class is formed here as the product of the factors (1 + a*t)
mod p, one factor per weight.

Recompute and print the reference with

    python3 bench/reference.py
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import Counter

import numpy as np

# torus rank of each swept prime; the classes are tested for lying in the
# Dickson subring F_p[t^(p^3 - p^2)]: F_3[t^18] and F_5[t^100].
RANK = {3: 4, 5: 8}


def subring_exponent(p: int) -> int:
    return p**3 - p**2


# ---------------------------------------------------------------------------
# Doubled-lattice weight systems (lists of weights, repeated by multiplicity).
# ---------------------------------------------------------------------------


def trivial(n: int, mult: int) -> list[tuple[int, ...]]:
    return [(0,) * n] * mult


def lambda1(n: int) -> list[tuple[int, ...]]:
    return [
        tuple(s if j == i else 0 for j in range(n)) for i in range(n) for s in (2, -2)
    ]


def lambda2(n: int) -> list[tuple[int, ...]]:
    out = []
    for i, j in itertools.combinations(range(n), 2):
        for si in (2, -2):
            for sj in (2, -2):
                w = [0] * n
                w[i], w[j] = si, sj
                out.append(tuple(w))
    return out


def delta(n: int, sign: str) -> list[tuple[int, ...]]:
    """Sign vectors in {+-1}^n with product +1 ("+"), -1 ("-"), or any ("both")."""
    out = []
    for eps in itertools.product((1, -1), repeat=n):
        product = math.prod(eps)
        if sign == "both" or (product == 1) == (sign == "+"):
            out.append(eps)
    return out


def rho8(n: int) -> list[tuple[int, ...]]:
    """E8's adjoint representation restricted to Spin(16) (rank 8) or, down
    the branching chain, to Spin(8) (rank 4): rho8@4 = 32 + 8 lambda1 +
    8 delta + lambda2."""
    if n == 8:
        return trivial(8, 8) + lambda2(8) + delta(8, "+")
    if n == 4:
        return trivial(4, 32) + 8 * lambda1(4) + 8 * delta(4, "both") + lambda2(4)
    raise ValueError(f"rho8 is built at rank 4 or 8, not {n}")


CHARACTERS = {
    "lambda1+delta": lambda n: lambda1(n) + delta(n, "both"),
    "lambda2": lambda2,
    "delta+": lambda n: delta(n, "+"),
    "rho8": rho8,
}


def transposition_invariant(weights: list[tuple[int, ...]]) -> bool:
    """True when the weight multiset is unchanged by every adjacent
    coordinate transposition, hence by every coordinate permutation."""
    base = Counter(weights)
    n = len(weights[0])
    for i in range(n - 1):
        swapped = Counter(w[:i] + (w[i + 1], w[i]) + w[i + 2 :] for w in weights)
        if swapped != base:
            return False
    return True


# ---------------------------------------------------------------------------
# Restriction and the product of (1 + a*t).
# ---------------------------------------------------------------------------


def exponents(weights: "np.ndarray", alpha, p: int) -> "np.ndarray":
    inv2 = (p + 1) // 2
    return (weights @ np.asarray(alpha, dtype=np.int64)) * inv2 % p


def chern_product(exps, p: int) -> tuple[int, ...]:
    """Coefficients of prod (1 + a*t) mod p, one factor per exponent, with
    trailing zeros trimmed."""
    nonzero = [int(a) for a in exps if a % p]
    c = np.zeros(len(nonzero) + 1, dtype=np.int64)
    c[0] = 1
    for deg, a in enumerate(nonzero):
        c[1 : deg + 2] = (c[1 : deg + 2] + a * c[: deg + 1]) % p
    coeffs = c.tolist()
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def render(coeffs) -> str:
    """The certificates' polynomial text: increasing exponents, e.g.
    "1 + 2*t^18"; the zero polynomial is "0"."""
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            var = "t" if k == 1 else f"t^{k}"
            parts.append(var if c == 1 else f"{c}*{var}")
    return " + ".join(parts) if parts else "0"


def in_subring(coeffs, d: int) -> bool:
    return all(c == 0 or k % d == 0 for k, c in enumerate(coeffs))


def render_alpha(alpha) -> str:
    return ",".join(str(a) for a in alpha)


class Reference:
    """Weight matrices per (character, rank), built once."""

    def __init__(self):
        self._weights: dict[tuple[str, int], np.ndarray] = {}

    def weights(self, name: str, n: int) -> "np.ndarray":
        key = (name, n)
        if key not in self._weights:
            self._weights[key] = np.array(CHARACTERS[name](n), dtype=np.int64)
        return self._weights[key]

    def chern(self, name: str, p: int, alpha) -> tuple[int, ...]:
        return chern_product(exponents(self.weights(name, len(alpha)), alpha, p), p)

    def mod3(self) -> dict:
        """All 80 nonzero rank-4 points mod 3: the points where c(lambda1+delta)
        lies in F_3[t^18], the joint set where c(lambda2) does too, and the
        values of the classes there."""
        p, n, d = 3, RANK[3], subring_exponent(3)
        ld_set, joint_set = [], []
        ld_values, joint_values, rho8_values = set(), set(), set()
        for alpha in itertools.product(range(p), repeat=n):
            if not any(alpha):
                continue
            c_ld = self.chern("lambda1+delta", p, alpha)
            c_l2 = self.chern("lambda2", p, alpha)
            if not in_subring(c_ld, d):
                continue
            ld_set.append(render_alpha(alpha))
            ld_values.add(render(c_ld))
            if in_subring(c_l2, d):
                joint_set.append(render_alpha(alpha))
                joint_values.update((render(c_ld), render(c_l2)))
                rho8_values.add(render(self.chern("rho8", p, alpha)))
        return {
            "lambda1_delta_set": sorted(ld_set),
            "lambda1_delta_values": sorted(ld_values),
            "joint_set": sorted(joint_set),
            "joint_values": sorted(joint_values),
            "rho8_values": sorted(rho8_values),
        }

    def mod5(self) -> dict:
        """Rank-8 rho8 classes mod 5 over the weakly increasing
        representatives, each weighted by its orbit size under coordinate
        permutations; sound because the weight multiset is permutation
        invariant, which is checked first."""
        p, n, d = 5, RANK[5], subring_exponent(5)
        if not transposition_invariant(CHARACTERS["rho8"](n)):
            raise ArithmeticError("rho8@8 weights are not permutation invariant")
        weights = self.weights("rho8", n)
        reps = weighted = s5 = 0
        occurrences: Counter = Counter()
        for alpha in itertools.combinations_with_replacement(range(p), n):
            if not any(alpha):
                continue
            orbit = math.factorial(n)
            for k in Counter(alpha).values():
                orbit //= math.factorial(k)
            reps += 1
            weighted += orbit
            c = chern_product(exponents(weights, alpha, p), p)
            if in_subring(c, d):
                s5 += orbit
                occurrences[render(c)] += orbit
        return {
            "representatives": reps,
            "points_weighted": weighted,
            "s5_count": s5,
            "s5_value_occurrences": dict(sorted(occurrences.items())),
        }


def sample_points(seed: int, count: int) -> list[tuple[int, str]]:
    """count nonzero restriction points of each prime, drawn from seed, as
    (p, "a1,a2,...") pairs."""
    rng = random.Random(seed)
    out = []
    for p in sorted(RANK):
        for _ in range(count):
            alpha = (0,) * RANK[p]
            while not any(alpha):
                alpha = tuple(rng.randrange(p) for _ in range(RANK[p]))
            out.append((p, render_alpha(alpha)))
    return out


def compute() -> dict:
    ref = Reference()
    dims = {f"rho8@{n}": len(rho8(n)) for n in (4, 8)}
    return {"mod3": ref.mod3(), "mod5": ref.mod5(), "dims": dims}


if __name__ == "__main__":
    print(json.dumps(compute(), indent=2, sort_keys=True))
