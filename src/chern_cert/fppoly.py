"""Exact arithmetic over F_p and the polynomial rings F_p[t] and F_p[y1..yn, X].

Only odd prime moduli are accepted: the weight machinery divides by 2 mod p,
and the (1 - t^2) / (1 + t^2) form tests rely on those two factors being
coprime, which fails at p = 2.  Coefficients are always kept as canonical
residues in {0, ..., p-1}.

The univariate variable t stands for the degree-2 polynomial generator of the
mod-p cohomology of the classifying space of an order-p cyclic group (with
nilpotents discarded), so cohomological degree is twice the t-exponent.

Products in F_p[t] are one big-int product (Kronecker substitution): each
of k coefficient lists is packed into an int, a byte slot per coefficient,
wide enough for (p - 1)^k times the product of every length but the longest
so that no slot carries into the next, and the slots of the product are
reduced mod p once.  The two operands of UPoly.__mul__ are the case k = 2,
slots for min(len(a), len(b)) * (p - 1)^2; a total Chern class multiplies
its at most p - 1 binomial powers as one such product.  Slots are a power
of two bytes wide: array items up to 8 bytes, byte strings beyond (for p
near 2^32 and above).  Moduli are checked by a deterministic Miller-Rabin
test, exact below PRIME_BOUND.

Products in F_p[y1..yn, X] work on packed exponent keys: each term's
exponent vector is one int with a digit of width bits per variable,
variable i at bit i * width, where width is the bit length of the result's
total-degree bound.  No exponent of the result reaches 2^width, so adding
two keys adds the exponent vectors digit by digit with no carry, and a term
product costs one int addition instead of a new tuple.  Operands are packed
on entry and the result is unpacked once; MPoly.terms stays keyed by
exponent tuples.

The only linear substitution is an elementary shear y_a -> y_a + c*y_b,
MPoly.substitute_linear(a, b, c): the Dickson checks make no other change
of coordinates (the tower shifts X -> X + a*y and the transvections
y_a -> y_a + y_b).  A shear makes no term products: the terms that agree in
every other exponent and in e_a + e_b form a binary form with coefficient
list H, whose image is the Taylor shift H(u + c).  That shift is one
packed-int sum of h_i times the row (u + c)^i, each row packed like a
product operand with slots sized for len(H) * (p - 1)^2 and memoized, and
the sum's slots are reduced mod p once (one bytes.translate for byte slots).

Each type has one internal constructor for values derived from checked
ones, UPoly._reduced(p, coeffs) and MPoly._reduced(p, arity, terms): every
sum, negation, difference, product, power, quotient, coefficient extraction
and shear is built through it without the checks that the public
constructors UPoly(p, coeffs) and MPoly(p, arity, terms) keep for outside
input, and both power methods share one square-and-multiply.  No value is
changed after it is built, and every operation is pure.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from collections import Counter
from collections.abc import Iterable, Mapping
from operator import lshift
from sys import byteorder

__all__ = [
    "UPoly",
    "MPoly",
    "check_odd_prime",
    "PRIME_BOUND",
    "inv2",
    "chern_of_exponents",
    "chern_of_counts",
    "pair_factor",
    "in_subring",
    "subring_bound",
    "pm_factorization",
]


# Miller-Rabin with the first thirteen primes as bases (2 up to 41) is exact
# below this bound, the least composite that passes all of them (Sorenson
# and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def check_odd_prime(p: int) -> None:
    """Raise ValueError unless p is an odd prime (p = 2 is rejected) below
    PRIME_BOUND, the largest modulus whose primality is decided exactly."""
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        raise ValueError(f"modulus must be an odd prime, got {p!r}")
    if p >= PRIME_BOUND:
        raise ValueError(f"modulus {p} is not below the supported bound {PRIME_BOUND}")
    if not _is_prime(p):
        raise ValueError(f"modulus must be an odd prime, got {p}")


@functools.lru_cache(maxsize=256)
def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for odd 3 <= p < PRIME_BOUND."""
    if p in _WITNESSES:
        return True
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def inv2(p: int) -> int:
    """The inverse of 2 mod p, i.e. (p + 1) / 2."""
    check_odd_prime(p)
    return (p + 1) // 2


class UPoly:
    """Dense univariate polynomial over F_p in the variable t.

    Coefficients are canonical residues indexed by t-exponent with trailing
    zeros trimmed; the zero polynomial stores an empty tuple.  Products are
    one big-int product of the packed coefficient lists (see the module
    docstring): a slot of the packed product holds up to
    min(len(a), len(b)) * (p - 1)^2 before the single reduction mod p.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Iterable[int] = ()):
        check_odd_prime(p)
        cs = [int(c) % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.p = p
        self.coeffs = tuple(cs)

    @classmethod
    def _reduced(cls, p: int, coeffs) -> "UPoly":
        """The internal constructor for derived values: coeffs are residues
        in range(p) already and p is a modulus some UPoly was built with, so
        only trailing zeros are trimmed."""
        coeffs = tuple(coeffs)
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        self = object.__new__(cls)
        self.p = p
        self.coeffs = coeffs[:n]
        return self

    @classmethod
    def zero(cls, p: int) -> "UPoly":
        return cls(p)

    @classmethod
    def one(cls, p: int) -> "UPoly":
        return cls(p, (1,))

    @classmethod
    def monomial(cls, p: int, coeff: int, exponent: int) -> "UPoly":
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        return cls(p, (0,) * exponent + (coeff,))

    @property
    def degree(self) -> int:
        """t-degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def coefficient(self, exponent: int) -> int:
        if 0 <= exponent < len(self.coeffs):
            return self.coeffs[exponent]
        return 0

    def _check_same(self, other: "UPoly") -> None:
        if not isinstance(other, UPoly):
            raise TypeError(f"expected UPoly, got {type(other).__name__}")
        if self.p != other.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")

    def __add__(self, other):
        self._check_same(other)
        p = self.p
        pairs = itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return UPoly._reduced(p, [(a + b) % p for a, b in pairs])

    def __neg__(self):
        return UPoly._reduced(self.p, [-c % self.p for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_same(other)
        if self.is_zero or other.is_zero:
            return UPoly._reduced(self.p, ())
        return UPoly._reduced(self.p, _product(self.p, (self.coeffs, other.coeffs)))

    def __pow__(self, exponent: int) -> "UPoly":
        return _power(self, exponent, UPoly._reduced(self.p, (1,)))

    def divexact(self, divisor: "UPoly") -> "UPoly | None":
        """Exact quotient self / divisor, or None when the division leaves a
        remainder.  Never returns a truncated quotient."""
        self._check_same(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return UPoly._reduced(self.p, ())
        if self.degree < divisor.degree:
            return None
        p = self.p
        rem = list(self.coeffs)
        db = divisor.degree
        inv_lead = pow(divisor.coeffs[-1], -1, p)
        quot = [0] * (len(rem) - db)
        for k in range(len(rem) - 1, db - 1, -1):
            c = rem[k] % p
            if c == 0:
                continue
            f = (c * inv_lead) % p
            quot[k - db] = f
            for j, bc in enumerate(divisor.coeffs):
                rem[k - db + j] = (rem[k - db + j] - f * bc) % p
        if any(rem[:db]):
            return None
        return UPoly._reduced(p, quot)

    def __eq__(self, other):
        return (
            isinstance(other, UPoly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        return f"UPoly(p={self.p}, {self.render()!r})"

    def render(self) -> str:
        """Canonical text form: terms in increasing t-exponent, coefficients
        in {0..p-1}, e.g. "1 + 2*t^18"."""
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                var = "t" if k == 1 else f"t^{k}"
                parts.append(var if c == 1 else f"{c}*{var}")
        return " + ".join(parts)


def _power(base, exponent: int, one):
    """base ** exponent by square-and-multiply, starting from the unit one."""
    if exponent < 0:
        raise ValueError("negative powers are not defined")
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        base = base * base if exponent > 1 else base
        exponent >>= 1
    return result


# array type codes by item size, for packing slots of 1, 2, 4 and 8 bytes
_SLOT_CODES = {array(code).itemsize: code for code in "QLIHB"}


def _product(p: int, seqs) -> list[int]:
    """The coefficients of the product of seqs over F_p, for nonempty
    coefficient sequences of residues in range(p), by Kronecker substitution.

    Fixing the index in every sequence but the longest fixes the last one, so
    every coefficient of the k-fold integer product is a sum of at most the
    product of every length but the longest terms, each at most (p - 1)^k.
    With byte slots that wide the packed ints multiply without any slot
    carrying into the next, and each slot of the big-int product is one
    coefficient before reduction.  The empty product is [1]."""
    lengths = sorted(map(len, seqs))
    slot = _slot_bytes((p - 1) ** len(lengths) * math.prod(lengths[:-1]))
    x = math.prod([_pack(s, slot) for s in seqs])
    return [c % p for c in _unpack(x, sum(lengths) - len(lengths) + 1, slot)]


def _slot_bytes(bound: int) -> int:
    """The width in bytes, a power of two, of a packed slot that holds every
    value up to bound."""
    return 1 << ((bound.bit_length() - 1) // 8).bit_length()


def _pack(coeffs, slot: int) -> int:
    """coeffs (nonnegative ints, each fitting in slot bytes) as one int,
    coefficient i at bytes i * slot onward."""
    code = _SLOT_CODES.get(slot)
    if code is not None:
        return int.from_bytes(array(code, coeffs), byteorder)
    return int.from_bytes(b"".join([c.to_bytes(slot, "little") for c in coeffs]), "little")


def _unpack(x: int, n: int, slot: int):
    """The first n slots of the packed int x, the inverse of _pack."""
    code = _SLOT_CODES.get(slot)
    if code is not None:
        return array(code, x.to_bytes(n * slot, byteorder))
    data = x.to_bytes(n * slot, "little")
    return [int.from_bytes(data[i : i + slot], "little") for i in range(0, n * slot, slot)]


@functools.lru_cache(maxsize=16)
def _byte_residues(p: int) -> bytes:
    """The translation table that reduces every byte mod p."""
    return bytes(b % p for b in range(256))


@functools.lru_cache(maxsize=1024)
def _binomial_power(p: int, v: int, m: int) -> tuple[int, ...]:
    """The coefficients of (1 + v*t)^m over F_p, for v in 1..p-1 and m >= 0.

    With m = d p^i + r, d the top base-p digit and r < p^i,
    (1 + v t)^m = (1 + v t^(p^i))^d (1 + v t)^r, because raising to the
    p-th power is additive in characteristic p and v^p = v in F_p (Lucas's
    theorem, coefficient by coefficient).  The first factor has the
    coefficients C(d, k) v^k at t^(k p^i), and the memoized power of the
    lower digits r has degree r < p^i, so the result is d + 1 copies of it,
    the k-th scaled by C(d, k) v^k and starting at t^(k p^i): a new power
    costs one digit block on top of its memoized lower-digit prefix.  The
    leading coefficient is v^(sum of the digits), so the degree is m."""
    if not m:
        return (1,)
    step = 1
    while step * p <= m:
        step *= p
    d, r = divmod(m, step)
    prefix = _binomial_power(p, v, r)
    gap = [0] * (step - len(prefix))
    coeffs = [*prefix, *gap]
    for k in range(1, d + 1):
        c = math.comb(d, k) * pow(v, k, p) % p
        coeffs += [c * x % p for x in prefix]
        if k < d:
            coeffs += gap
    return tuple(coeffs)


@functools.lru_cache(maxsize=1024)
def _taylor_row(p: int, c: int, i: int, slot: int) -> int:
    """The coefficients of (u + c)^i over F_p, c in 1..p-1, packed by _pack
    into one int with slots of slot bytes, u^k at slot k.

    (u + c)^i = sum_k C(i, k) c^(i - k) u^k is (1 + c*t)^i with its
    coefficient list reversed."""
    return _pack(_binomial_power(p, c, i)[::-1], slot) if i else 1


def chern_of_counts(p: int, counts: Iterable[tuple[int, int]]) -> UPoly:
    """prod (1 + v*t)^m over the (value, multiplicity) pairs of counts: the
    total Chern class of a sum of line characters in which z^v occurs m
    times.  The multiplicities of each nonzero residue v mod p are added up,
    each power is built once per (p, v, m) from the base-p digits of m, and
    the powers are multiplied as one k-fold _product."""
    check_odd_prime(p)
    powers: dict[int, int] = {}
    for v, m in counts:
        if m < 0:
            raise ValueError(f"multiplicities must be nonnegative, got {m}")
        if v % p and m:
            powers[v % p] = powers.get(v % p, 0) + m
    return UPoly._reduced(p, _product(p, [_binomial_power(p, v, m) for v, m in powers.items()]))


def chern_of_exponents(p: int, exponents: Iterable[int]) -> UPoly:
    """Total Chern class of a sum of line characters z^a: the exact product
    of (1 + a*t) over the given exponent multiset (empty product is 1).

    The product depends only on how often each residue occurs, so the
    exponents are counted and expanded by chern_of_counts: a multiset of N
    exponents costs one packed product of at most p - 1 powers instead of N
    factors."""
    return chern_of_counts(p, Counter(map(int, exponents)).items())


def pair_factor(p: int, ai: int, aj: int) -> UPoly:
    """Expansion of (1-(ai+aj)t)(1-(ai-aj)t)(1-(-ai+aj)t)(1-(-ai-aj)t), the
    contribution of one coordinate pair to the exterior-square Chern class."""
    a, b = int(ai), int(aj)
    exps = (a + b, a - b, -a + b, -a - b)
    return chern_of_exponents(p, (-e for e in exps))


def in_subring(a: UPoly, d: int) -> bool:
    """True iff every nonzero coefficient sits at a t-exponent divisible by d,
    i.e. the polynomial lies in F_p[t^d]."""
    if d < 1:
        raise ValueError("subring exponent must be >= 1")
    # every nonzero coefficient is one of the coefficients at multiples of d
    coeffs, sub = a.coeffs, a.coeffs[::d]
    return len(coeffs) - coeffs.count(0) == len(sub) - sub.count(0)


def subring_bound(p: int) -> int:
    """t-exponent of the rank-1 image of the top proper Dickson invariant:
    p^3 - p^2.  Every restricted class of the ambient group lands in
    F_p[t^(p^3 - p^2)]."""
    check_odd_prime(p)
    return p**3 - p**2


def pm_factorization(a: UPoly) -> "tuple[int, int] | None":
    """Write a = (1-t^2)^e_minus * (1+t^2)^e_plus by greedy repeated exact
    division (all 1-t^2 factors first, then 1+t^2, then the remainder must be
    exactly 1).  Returns (e_minus, e_plus), or None when a is not of that
    form, zero included (zero divides exactly by everything, so the division
    would never stop).  The two factors are coprime for odd p, so the greedy
    order does not affect the answer."""
    if a.is_zero:
        return None
    p = a.p
    exponents = []
    for factor in (UPoly._reduced(p, (1, 0, p - 1)), UPoly._reduced(p, (1, 0, 1))):
        e = 0
        while (q := a.divexact(factor)) is not None:
            a, e = q, e + 1
        exponents.append(e)
    return tuple(exponents) if a.is_one else None


def _product_terms(a: dict, b: dict) -> dict:
    """The product of two packed term dicts, coefficients not reduced mod p.

    Keys are packed exponent vectors (see _packed_terms), and MPoly.__mul__
    sizes the digits for the product's total-degree bound, so no digit of
    ka + kb reaches 2^width and the sum of two keys is the key of the
    product monomial, with no digit carrying into its neighbour."""
    out: dict[int, int] = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return out


def _width(degree_bound: int) -> int:
    """Bits per packed exponent: every exponent of a polynomial whose total
    degree is at most degree_bound stays below 2^width (at least one bit)."""
    return max(degree_bound, 1).bit_length()


def _packed_terms(terms: Mapping, arity: int, width: int) -> dict[int, int]:
    """terms with each exponent vector packed into one int, exponent i in
    bits i * width onward."""
    shifts = range(0, width * arity, width)
    return {sum(map(lshift, key, shifts)): c for key, c in terms.items()}


def _unpacked_terms(packed: dict, arity: int, width: int, p: int) -> dict:
    """The inverse of _packed_terms, with coefficients reduced mod p and the
    ones that vanish dropped."""
    shifts = range(0, width * arity, width)
    mask = (1 << width) - 1
    return {tuple([k >> s & mask for s in shifts]): r for k, c in packed.items() if (r := c % p)}


class MPoly:
    """Sparse multivariate polynomial over F_p with a fixed variable arity.

    Terms map exponent tuples to nonzero canonical coefficients.  Variable
    order is positional; callers fix their own naming convention (the Dickson
    code uses y1, ..., yn with the auxiliary X in the last slot).
    """

    __slots__ = ("p", "arity", "terms")

    def __init__(self, p: int, arity: int, terms=()):
        check_odd_prime(p)
        if arity < 1:
            raise ValueError("arity must be >= 1")
        data: dict[tuple[int, ...], int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for key, coeff in items:
            key = tuple(int(e) for e in key)
            if len(key) != arity:
                raise ValueError(
                    f"exponent vector {key} does not match arity {arity}"
                )
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in {key}")
            c = (data.get(key, 0) + int(coeff)) % p
            if c:
                data[key] = c
            else:
                data.pop(key, None)
        self.p = p
        self.arity = arity
        self.terms = data

    @classmethod
    def _reduced(cls, p: int, arity: int, terms: dict) -> "MPoly":
        """The internal constructor for derived values: terms maps exponent
        tuples of length arity to nonzero residues in range(p), and p and
        arity are those some MPoly was built with, so nothing is checked
        again."""
        self = object.__new__(cls)
        self.p = p
        self.arity = arity
        self.terms = terms
        return self

    @classmethod
    def zero(cls, p: int, arity: int) -> "MPoly":
        return cls(p, arity)

    @classmethod
    def constant(cls, p: int, arity: int, value: int) -> "MPoly":
        return cls(p, arity, {(0,) * arity: value})

    @classmethod
    def one(cls, p: int, arity: int) -> "MPoly":
        return cls.constant(p, arity, 1)

    @classmethod
    def variable(cls, p: int, arity: int, index: int) -> "MPoly":
        key = tuple(1 if i == index else 0 for i in range(arity))
        return cls(p, arity, {key: 1})

    @classmethod
    def monomial(cls, p: int, arity: int, exponents, coeff: int = 1) -> "MPoly":
        return cls(p, arity, {tuple(exponents): coeff})

    @classmethod
    def linear_form(cls, p: int, arity: int, coeffs) -> "MPoly":
        """sum_i coeffs[i] * variable_i (coeffs may be shorter than arity)."""
        terms = {}
        for i, c in enumerate(coeffs):
            if int(c) % p:
                key = tuple(1 if k == i else 0 for k in range(arity))
                terms[key] = int(c) % p
        return cls(p, arity, terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(map(sum, self.terms))

    def support_in_var(self, var: int) -> list[int]:
        return sorted({k[var] for k in self.terms})

    def _check_same(self, other: "MPoly") -> None:
        if not isinstance(other, MPoly):
            raise TypeError(f"expected MPoly, got {type(other).__name__}")
        if self.p != other.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other):
        self._check_same(other)
        data = dict(self.terms)
        p = self.p
        for key, c in other.terms.items():
            v = (data.get(key, 0) + c) % p
            if v:
                data[key] = v
            else:
                data.pop(key, None)
        return MPoly._reduced(p, self.arity, data)

    def __neg__(self):
        p = self.p
        return MPoly._reduced(p, self.arity, {k: p - c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        p, arity = self.p, self.arity
        if isinstance(other, int):
            c = other % p
            # c and every stored coefficient are units mod the prime p, so
            # no product vanishes
            terms = {k: v * c % p for k, v in self.terms.items()} if c else {}
            return MPoly._reduced(p, arity, terms)
        self._check_same(other)
        if not (self.terms and other.terms):
            return MPoly._reduced(p, arity, {})
        width = _width(self.total_degree + other.total_degree)
        product = _product_terms(
            _packed_terms(self.terms, arity, width),
            _packed_terms(other.terms, arity, width),
        )
        return MPoly._reduced(p, arity, _unpacked_terms(product, arity, width, p))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MPoly":
        return _power(self, exponent, MPoly._reduced(self.p, self.arity, {(0,) * self.arity: 1}))

    def coefficient_in_var(self, var: int, exponent: int) -> "MPoly":
        """Coefficient of variable var to the given power, as a polynomial in
        the remaining variables (arity drops by one)."""
        if self.arity < 2:
            raise ValueError("cannot drop the only variable")
        if var not in range(self.arity):
            raise ValueError(f"no variable {var} in arity {self.arity}")
        terms = {key[:var] + key[var + 1 :]: c
                 for key, c in self.terms.items() if key[var] == exponent}
        return MPoly._reduced(self.p, self.arity - 1, terms)

    def substitute_linear(self, a: int, b: int, c: int) -> "MPoly":
        """self with y_a replaced by y_a + c*y_b, an elementary shear, for
        distinct variable indices a and b below the arity; c is read mod p
        and c = 0 returns self.

        The terms that agree in every exponent but e_a and e_b and in
        s = e_a + e_b form a binary form sum_i h_i y_a^i y_b^(s - i), whose
        image is H(u + c) at u = y_a / y_b for H(u) = sum_i h_i u^i: one
        packed sum of h_i times the packed row (u + c)^i.  A slot of the sum
        adds one product below p^2 per term of the form, so the slots are
        sized for len(h) * (p - 1)^2 and reduced once.  The images of
        distinct forms share no monomial, so each output term is written once."""
        indices = range(self.arity)
        if a == b or a not in indices or b not in indices:
            raise ValueError(f"a shear needs two distinct variable indices in"
                             f" {indices}, got a = {a}, b = {b}")
        p = self.p
        c %= p
        if not c:
            return self
        groups: dict[tuple[int, ...], dict[int, int]] = {}
        for key, coeff in self.terms.items():
            # the form's key: e_a moved onto e_b, so slot b holds s
            rest = list(key)
            rest[b] += rest[a]
            rest[a] = 0
            groups.setdefault(tuple(rest), {})[key[a]] = coeff
        data = {}
        for rest, h in groups.items():
            top = max(h) + 1
            slot = _slot_bytes(len(h) * (p - 1) ** 2)
            x = sum([hi * _taylor_row(p, c, i, slot) for i, hi in h.items()])
            if slot == 1:
                cells = x.to_bytes(top, byteorder).translate(_byte_residues(p))
            else:
                cells = [v % p for v in _unpack(x, top, slot)]
            key = list(rest)
            s = rest[b]
            for k in itertools.compress(range(top), cells):
                key[a] = k
                key[b] = s - k
                data[tuple(key)] = cells[k]
        return MPoly._reduced(p, self.arity, data)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items())

    def __eq__(self, other):
        return (
            isinstance(other, MPoly)
            and self.p == other.p
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"MPoly(p={self.p}, arity={self.arity}, {len(self.terms)} terms)"

    def render(self) -> str:
        """Canonical text form in the variables y1..yn, terms sorted by
        exponent vector."""
        if not self.terms:
            return "0"
        names = [f"y{i + 1}" for i in range(self.arity)]
        parts = []
        for key, c in self.sorted_terms():
            factors = []
            for name, e in zip(names, key):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return " + ".join(parts)
