"""Rank-3 Dickson invariants over F_p, their square-root invariant, and their
restriction to a rank-1 coordinate line.

Everything is derived from the orbit product prod_{v in F_p^3} (X + l_v),
where l_v = v1*y1 + v2*y2 + v3*y3 runs over all linear forms.  Writing the
product as sum_i (-1)^(3-i) c_{3,i} X^(p^i) (monic, c_{3,3} = 1) defines the
invariants; e3 is the product of l_v over one representative per antipodal
pair {v, -v} of nonzero vectors, and e3^2 equals c_{3,0} up to a recorded
unit.  Restricting y1 -> t, y2 -> 0, y3 -> 0 before expansion collapses the
orbit product to (X^p - t^(p-1) X)^(p^2) = X^(p^3) - t^((p-1)p^2) X^(p^2),
which pins the rank-1 images of the invariants.  The collapsed product is
homogeneous in t and X, so its three routes run on UPoly in X at t = 1.

The full 3-variable expansion builds the orbit product up a tower of
coordinate subspaces with sparse MPoly arithmetic, and e3 apart from it as a
dense product of its linear factors, one byte per coefficient of one int.
The rank-1 restriction path never needs the expansion.
"""

from __future__ import annotations

import itertools
import math

from .certificates import CheckResult
from .fppoly import MPoly, UPoly, check_odd_prime

__all__ = [
    "DicksonSet",
    "subring_bound",
    "compute",
    "orbit_product",
    "antipodal_representatives",
    "rank1_restriction",
    "transvection_generators",
    "sl3_invariance_check",
    "lemma_facts",
    "STATEMENT",
]

_RANK = 3
# the statement each supported prime's facts certify
STATEMENT = {3: "lemma-3.1-facts", 5: "lemma-4.2-facts"}
_PRIMES = tuple(STATEMENT)


def subring_bound(p: int) -> int:
    """t-exponent of the rank-1 image of the top proper Dickson invariant:
    p^3 - p^2.  Every restricted class of the ambient group lands in
    F_p[t^(p^3 - p^2)]."""
    check_odd_prime(p)
    return p**3 - p**2


class DicksonSet:
    """The computed invariants at one prime: c[i] is c_{3,i} (a polynomial in
    y1, y2, y3), e3 its square-root partner, sign the unit with
    e3^2 = sign * c_{3,0} (None if the relation failed).  Immutable."""

    __slots__ = ("p", "cs", "e3", "sign")

    def __init__(self, p: int, cs: tuple[MPoly, MPoly, MPoly], e3: MPoly, sign: "int | None"):
        for name, value in zip(self.__slots__, (p, cs, e3, sign)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("DicksonSet is immutable")

    def __reduce__(self):
        return DicksonSet, (self.p, self.cs, self.e3, self.sign)

    def c(self, i: int) -> MPoly:
        return self.cs[i]

    def cohomological_degrees(self) -> tuple[int, int, int]:
        # the y-variables sit in cohomological degree 2
        return tuple(2 * c.total_degree for c in self.cs)


def _check_supported_prime(p: int) -> None:
    """The Dickson facts are stated, and the expansion sized, for p in (3, 5)."""
    check_odd_prime(p)
    if p not in _PRIMES:
        raise ValueError(f"Dickson facts are stated for p in {_PRIMES}, got {p}")


def _dense_product(p: int, forms) -> MPoly:
    """The product of the given linear forms over F_p, as a polynomial in
    len(form) variables.

    The forms are multiplied in the given order into one int with a byte
    per coefficient, indexed by the exponents of all variables but the
    last; after k forms the product is homogeneous of degree k, so the last
    exponent is k minus the others.  An axis's extent is one more than the
    number of forms with a nonzero coefficient on it, and its stride is the
    product of the extents after it, so no term carries into a neighbouring
    cell.  Before reduction a byte holds at most len(form) (p - 1)^2, 64 at
    p = 5 with four variables, and bytes.translate reduces every byte mod p
    after each form.
    """
    forms = [tuple(c % p for c in form) for form in forms]
    arity = len(forms[0])
    if arity * (p - 1) ** 2 > 255:
        raise ValueError(f"byte cells cannot hold {arity} forms' terms at p = {p}")
    extents = [1 + sum(1 for f in forms if f[a]) for a in range(arity - 1)]
    strides = [math.prod(extents[a + 1 :]) for a in range(arity - 1)]
    reduce = bytes(b % p for b in range(256))
    cur = 1
    for *head, last in forms:
        nxt = cur * last  # the last variable's term
        for stride, coeff in zip(strides, head):
            if coeff:
                nxt += cur * coeff << 8 * stride
        cells = nxt.to_bytes((nxt.bit_length() + 7) // 8, "little")
        cur = int.from_bytes(cells.translate(reduce), "little")
    cells = cur.to_bytes(math.prod(extents), "little")
    degree = len(forms)
    terms = {}
    for i in itertools.compress(range(len(cells)), cells):
        key = tuple(i // stride % extent for stride, extent in zip(strides, extents))
        terms[key + (degree - sum(key),)] = cells[i]
    return MPoly(p, arity, terms)


def orbit_product(p: int) -> MPoly:
    """The full orbit product prod_v (X + l_v) as a polynomial in
    (y1, y2, y3, X), built up a tower of coordinate subspaces.

    R_0 = X and R_k(X) = prod_{a in F_p} R_{k-1}(X + a*y_{4-k}), first for
    y3, then y2, then y1.  By induction R_k is the product of X + l_v over
    the v spanned by the last k coordinates, so R_3 is the p^3 factors
    regrouped; nothing else about the invariants is used.  At p = 5 the
    stages have 2, 12 and 377 terms.  Each stage multiplies the shifts by
    +-1, +-2, ... first and the unshifted R_{k-1} last: at p = 5 the last
    stage's partial products then stay under 430 terms (921 in the order
    0, 1, ..., p - 1), which halves its term products.
    """
    _check_supported_prime(p)
    arity = _RANK + 1
    x = arity - 1
    order = [a for b in range(1, (p + 1) // 2) for a in (b, p - b)] + [0]
    tower = MPoly.variable(p, arity, x)
    for axis in reversed(range(_RANK)):
        product = MPoly.one(p, arity)
        for a in order:
            # X -> X + a*y_axis, every other variable fixed
            shift = [[int(i == j) for j in range(arity)] for i in range(arity)]
            shift[axis][x] = a
            product = product * tower.substitute_linear(shift)
        tower = product
    return tower


def antipodal_representatives(p: int) -> list[tuple[int, ...]]:
    """Lexicographically least member of each pair {v, -v}, v nonzero."""
    reps = []
    for v in itertools.product(range(p), repeat=_RANK):
        if not any(v):
            continue
        neg = tuple((p - e) % p for e in v)
        if v <= neg:
            reps.append(v)
    return reps


def _e3(p: int) -> MPoly:
    # multiplied out apart from orbit_product, so that e3^2 = +-c_{3,0}
    # compares two independent expansions
    return _dense_product(p, antipodal_representatives(p))


_CACHE: dict[int, DicksonSet] = {}


def compute(p: int) -> DicksonSet:
    """Expand the orbit product and extract c_{3,0}, c_{3,1}, c_{3,2} and e3
    (memoized per prime)."""
    _check_supported_prime(p)
    if p in _CACHE:
        return _CACHE[p]
    product = orbit_product(p)
    support = product.support_in_var(3)
    expected = [p**i for i in range(_RANK + 1)]
    if support != expected:
        raise ArithmeticError(
            f"orbit product has X-support {support}, expected {expected}"
        )
    top = product.coefficient_in_var(3, p**_RANK)
    if not (len(top.terms) == 1 and top.terms.get((0,) * _RANK) == 1):
        raise ArithmeticError("orbit product is not monic in X")
    cs = []
    for i in range(_RANK):
        sign = 1 if (_RANK - i) % 2 == 0 else -1
        cs.append(product.coefficient_in_var(3, p**i) * sign)
    e3 = _e3(p)
    e3_sq = e3 * e3
    if e3_sq == cs[0]:
        unit: "int | None" = 1
    elif e3_sq == cs[0] * (p - 1):
        unit = -1
    else:
        unit = None
    ds = DicksonSet(p=p, cs=tuple(cs), e3=e3, sign=unit)
    _CACHE[p] = ds
    return ds


# ---------------------------------------------------------------------------
# Rank-1 restriction (y1 -> t, y2 -> 0, y3 -> 0), three independent routes.
# ---------------------------------------------------------------------------


def _restricted_product_direct(p: int) -> UPoly:
    """Route A: substitute first, then expand all p^3 linear factors
    (X + v1*t) one by one."""
    factors = [UPoly(p, (a, 1)) for a in range(p)]
    product = UPoly.one(p)
    for v in itertools.product(range(p), repeat=_RANK):
        product = product * factors[v[0]]
    return product


def _restricted_product_power(p: int) -> UPoly:
    """Route B: (X^p - t^(p-1) X)^(p^2) by repeated squaring."""
    return (UPoly.monomial(p, 1, p) - UPoly.monomial(p, 1, 1)) ** (p * p)


def _restricted_product_closed(p: int) -> UPoly:
    """Route C: the closed Frobenius form X^(p^3) - t^((p-1)p^2) X^(p^2)."""
    return UPoly.monomial(p, 1, p**3) - UPoly.monomial(p, 1, p**2)


def _render_restricted(poly: UPoly) -> str:
    """The collapsed orbit product as a form of degree p^3 in t and X,
    terms by increasing X-exponent, e.g. "2*t^18*X^9 + X^27" at p = 3."""
    parts = []
    for xe, c in enumerate(poly.coeffs):
        if c:
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in (("t", poly.p**_RANK - xe), ("X", xe))
                if e
            ]
            parts.append("*".join(factors if c == 1 and factors else [str(c), *factors]))
    return " + ".join(parts) if parts else "0"


def rank1_restriction(p: int) -> dict:
    """Images of (c_{3,0}, c_{3,1}, c_{3,2}) and e3 under y1 -> t, y2 -> 0,
    y3 -> 0, computed on the factored forms, with the three routes for the
    collapsed orbit product compared exactly.

    Every factor X + v1*t is homogeneous of degree 1 in (t, X), so the
    routes work in F_p[X] at t = 1: the term c*X^e stands for
    c*t^(p^3 - e)*X^e."""
    check_odd_prime(p)
    direct = _restricted_product_direct(p)
    closed = _restricted_product_closed(p)
    routes_agree = direct == _restricted_product_power(p) == closed
    images = []
    for i in range(_RANK):
        sign = 1 if (_RANK - i) % 2 == 0 else -1
        images.append(UPoly.monomial(p, sign * direct.coefficient(p**i), p**_RANK - p**i))
    # e3 restricts through its factored form: one vanishing factor kills it
    e3_image = UPoly.one(p)
    for v in antipodal_representatives(p):
        e3_image = e3_image * UPoly(p, (0, v[0]))
    return {
        "images": tuple(images),
        "e3_image": e3_image,
        "routes_agree": routes_agree,
        "closed_form": _render_restricted(closed),
    }


def restrict_expanded(poly: MPoly) -> UPoly:
    """Substitute y1 -> t, y2 -> 0, y3 -> 0 into an expanded invariant."""
    if poly.arity != _RANK:
        raise ValueError("expected a polynomial in y1, y2, y3")
    return sum(
        (UPoly.monomial(poly.p, c, e1) for (e1, e2, e3), c in poly.terms.items() if e2 == e3 == 0),
        UPoly.zero(poly.p),
    )


# ---------------------------------------------------------------------------
# Linear-group invariance.
# ---------------------------------------------------------------------------


def transvection_generators(p: int) -> list[list[list[int]]]:
    """The six elementary transvections of SL_3(F_p): y_a -> y_a + y_b for
    a != b, all other variables fixed (as substitution matrices)."""
    mats = []
    for a in range(_RANK):
        for b in range(_RANK):
            if a == b:
                continue
            m = [[1 if i == j else 0 for j in range(_RANK)] for i in range(_RANK)]
            m[b][a] = 1
            mats.append(m)
    return mats


def sl3_invariance_check(p: int, ds: "DicksonSet | None" = None) -> CheckResult:
    """Every elementary transvection fixes c_{3,0}, c_{3,1}, c_{3,2} and e3;
    each violation is a witness."""
    ds = ds or compute(p)
    violations = []
    polys = {"c0": ds.c(0), "c1": ds.c(1), "c2": ds.c(2), "e3": ds.e3}
    generators = transvection_generators(p)
    for gi, m in enumerate(generators):
        for name, poly in polys.items():
            if poly.substitute_linear(m) != poly:
                violations.append({"generator": gi, "matrix": m, "invariant": name})
    return CheckResult.judge(
        STATEMENT[p],
        {"p": p, "rank": _RANK, "scope": "sl3-invariance"},
        {"generators_checked": len(generators), "invariants_checked": sorted(polys)},
        witnesses=violations,
    )


# ---------------------------------------------------------------------------
# Statement-level fact bundles.
# ---------------------------------------------------------------------------


def lemma_facts(p: int, full: bool = False) -> CheckResult:
    """The Dickson-invariant facts that feed the subring filters: rank-1
    restriction images (three routes agreeing), and, with full, the 3-variable
    expansion's degrees, the e3^2 relation and transvection invariance."""
    _check_supported_prime(p)
    d = subring_bound(p)
    problems: list[str] = []

    restriction = rank1_restriction(p)
    images = restriction["images"]
    expected_images = (UPoly.zero(p), UPoly.zero(p), UPoly.monomial(p, 1, d))
    if not restriction["routes_agree"]:
        problems.append("restriction routes disagree")
    for name, got, want in zip(("c0", "c1", "c2"), images, expected_images):
        if got != want:
            problems.append(f"{name} restricts to {got.render()}, expected {want.render()}")
    if not restriction["e3_image"].is_zero:
        problems.append("e3 restriction is nonzero")

    evidence: dict = {
        "subring_exponent": d,
        "restriction_images": {
            "c0": images[0].render(),
            "c1": images[1].render(),
            "c2": images[2].render(),
            "e3": restriction["e3_image"].render(),
        },
        "restriction_routes_agree": restriction["routes_agree"],
        "collapsed_orbit_product": restriction["closed_form"],
        "expected_cohomological_degrees": {
            "c0": 2 * (p**3 - 1),
            "c1": 2 * (p**3 - p),
            "c2": 2 * (p**3 - p**2),
            "e3": p**3 - 1,
        },
        "full_expansion": bool(full),
    }

    if full:
        ds = compute(p)
        degrees = ds.cohomological_degrees()
        expected_degrees = (2 * (p**3 - 1), 2 * (p**3 - p), 2 * (p**3 - p**2))
        if degrees != expected_degrees:
            problems.append(f"degrees {degrees}, expected {expected_degrees}")
        e3_degree = 2 * ds.e3.total_degree
        if e3_degree != p**3 - 1:
            problems.append(f"e3 degree {e3_degree}, expected {p**3 - 1}")
        if ds.sign is None:
            problems.append("e3^2 is not a unit multiple of c_{3,0}")
        invariance = sl3_invariance_check(p, ds)
        if not invariance.verified:
            problems.append("transvection invariance failed")
            evidence["invariance_violations"] = invariance.evidence["witnesses"]
        # cross-check: restricting the expanded invariants reproduces the
        # factored-route images
        cross = all(
            restrict_expanded(ds.c(i)) == images[i] for i in range(_RANK)
        ) and restrict_expanded(ds.e3) == restriction["e3_image"]
        if not cross:
            problems.append("expanded restriction disagrees with factored routes")
        evidence.update(
            {
                "cohomological_degrees": {
                    "c0": degrees[0],
                    "c1": degrees[1],
                    "c2": degrees[2],
                    "e3": e3_degree,
                },
                "e3_squared_sign": ds.sign,
                "transvection_invariance": invariance.verified,
                "expanded_restriction_cross_check": cross,
                "orbit_x_support": [p**i for i in range(_RANK + 1)],
            }
        )

    return CheckResult.judge(
        STATEMENT[p], {"p": p, "rank": _RANK, "full_expansion": bool(full)}, evidence, problems
    )
