"""Property suites for the algebraic identities the sweeps rely on."""

import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chern_cert import dickson, fppoly
from chern_cert.chern import RestrictionPoint, restricted_exponents, total_chern
from chern_cert.classify import count_table
from chern_cert.fppoly import (
    MPoly,
    UPoly,
    chern_of_exponents,
    pair_factor,
    pm_factorization,
)
from chern_cert.spinchar import (
    exterior_square_weights,
    half_spin_weights,
    vector_weights,
)

primes = st.sampled_from((3, 5))


@st.composite
def upolys(draw, max_degree=50, allow_zero=True):
    p = draw(primes)
    coeffs = draw(
        st.lists(st.integers(0, 6), min_size=0 if allow_zero else 1, max_size=max_degree + 1)
    )
    poly = UPoly(p, coeffs)
    if not allow_zero and poly.is_zero:
        poly = poly + UPoly.one(p)
    return poly


def naive_substitute(f, matrix):
    """The composition term by term from MPoly +, * and ** alone."""
    n = len(matrix)
    images = [
        MPoly.linear_form(f.p, f.arity, [matrix[i][j] for i in range(n)])
        for j in range(n)
    ]
    out = MPoly.zero(f.p, f.arity)
    for key, coeff in f.terms.items():
        term = MPoly.monomial(f.p, f.arity, (0,) * n + key[n:], coeff)
        for j in range(n):
            term = term * images[j] ** key[j]
        out = out + term
    return out


# the swept characters, built here from the weight systems themselves
GRID_CHARS = {
    "lambda1": vector_weights,
    "lambda2": exterior_square_weights,
    "delta+": lambda n: half_spin_weights(n, "+"),
    "lambda1+delta": lambda n: vector_weights(n) + half_spin_weights(n, "both"),
}


@st.composite
def grid_points(draw):
    """A prime, a rank (odd ranks split unevenly), a tuple of swept
    characters at that rank and a nonzero point."""
    p = draw(primes)
    n = draw(st.integers(2, 7))
    names = draw(st.lists(st.sampled_from(sorted(GRID_CHARS)), min_size=1, max_size=4, unique=True))
    alpha = draw(st.tuples(*(st.integers(0, p - 1) for _ in range(n))).filter(any))
    return p, tuple(GRID_CHARS[name](n) for name in names), alpha


class TestCountGrid:
    @settings(max_examples=60, deadline=None)
    @given(grid_points())
    def test_counts_match_restricted_exponents(self, case):
        p, chars, alpha = case
        table = count_table(p, chars)
        # full mode lists the nonzero points in lexicographic order
        i = int("".join(map(str, alpha)), p) - 1
        assert table.alpha(i) == alpha
        pt = RestrictionPoint(p, alpha)
        for char, counts in zip(chars, table.counts[table.class_of[i]]):
            exps = Counter(restricted_exponents(char, pt))
            assert counts == tuple(exps[v] for v in range(p)), char
        # every GRID_CHARS entry is permutation-invariant, so canonical mode
        # gives the point's sorted representative the same counts
        canonical = count_table(p, chars, "canonical")
        rep = canonical.reps.index(tuple(sorted(alpha)))
        assert canonical.counts[canonical.class_of[rep]] == table.counts[table.class_of[i]]
        # and orbit weighting gives every class its exhaustive weight
        assert canonical.weights == table.weights


@st.composite
def exponent_lists(draw):
    """A prime and up to 300 exponents, negative ones included, drawn as
    runs of one value so that multiplicities reach several base-p digits."""
    p = draw(st.sampled_from((3, 5, 7, 11, 1000003, 4294967311)))
    runs = draw(st.lists(st.tuples(st.integers(-2 * p, 2 * p), st.integers(1, 60)), max_size=12))
    exps = [v for v, m in runs for _ in range(m)][:300]
    return p, draw(st.permutations(exps))


class TestChernOfExponentsDigits:
    @given(exponent_lists())
    @example((3, []))
    @example((3, [1] * 26 + [-1] * 108))  # multiplicities 222 and 11000 in base 3
    @example((1000003, [1000002] * 300))
    @settings(deadline=None)
    def test_matches_factor_by_factor_product(self, case):
        p, exps = case
        naive = UPoly.one(p)
        for a in exps:
            naive = naive * UPoly(p, (1, a))
        assert chern_of_exponents(p, exps) == naive


@st.composite
def count_lists(draw):
    """A prime and (value, multiplicity) pairs for 1 to p - 1 distinct
    residues (at most six), each value shifted by a multiple of p, so that
    values are negative or divisible by p too, with multiplicities 0 to 300."""
    p = draw(st.sampled_from((3, 5, 7, 65537, 4294967311)))
    k = draw(st.integers(1, min(p - 1, 6)))
    residues = draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k, unique=True))
    return p, [(r + p * draw(st.integers(-2, 1)), draw(st.integers(0, 300))) for r in residues]


class TestChernOfCountsOneProduct:
    @given(count_lists())
    @example((5, [(1, 300), (2, 300), (3, 300), (4, 300)]))  # the widest p = 5 slots
    @example((3, [(0, 7), (-3, 2)]))  # only zero residues: the class is 1
    @example((4294967311, [(-1, 300), (2, 300), (3, 1)]))  # slots beyond 8 bytes
    @settings(deadline=None)
    def test_matches_factor_by_factor_product(self, case):
        p, counts = case
        naive = UPoly.one(p)
        for v, m in counts:
            if v % p and m:
                naive = naive * UPoly(p, fppoly._binomial_power(p, v % p, m))
        assert fppoly.chern_of_counts(p, counts) == naive


class TestBinomialPowerDigitPrefix:
    @given(
        st.sampled_from((3, 5, 7, 65537, 1000003, 4294967311)),
        st.integers(1, 2**40),
        st.integers(0, 700),
    )
    @example(5, 4, 624)  # four base-5 digits, every one of them 4
    @example(3, 2, 243)  # a power of p: a lone top digit over the prefix 1
    @example(4294967311, 4294967309, 300)  # v = p - 1: one digit, residues beyond 32 bits
    @settings(deadline=None)
    def test_matches_the_binomial_theorem(self, p, v, m):
        # (1 + v*t)^m from its memoized lower-digit prefix and its top digit
        v = v % (p - 1) + 1
        expected = tuple(math.comb(m, k) * pow(v, k, p) % p for k in range(m + 1))
        assert fppoly._binomial_power(p, v, m) == expected


class TestInSubring:
    @given(
        st.sampled_from((3, 5, 1000003, 4294967311)),
        st.lists(st.integers(0, 4), max_size=60),
        st.integers(1, 12),
    )
    @settings(deadline=None)
    def test_matches_the_definition(self, p, coeffs, d):
        # zeros counted at multiples of d and everywhere, for every modulus
        poly = UPoly(p, [c * (p // 3) for c in coeffs])
        expected = all(c == 0 or k % d == 0 for k, c in enumerate(poly.coeffs))
        assert fppoly.in_subring(poly, d) is expected


@st.composite
def sparse_coefficient_pairs(draw):
    """A prime and two coefficient lists, mostly zeros; empty lists and
    all-zero lists give zero polynomials."""
    p = draw(st.sampled_from((3, 5, 7)))
    coeff = st.one_of(st.just(0), st.just(0), st.just(p), st.integers(-2 * p, 2 * p))
    return p, draw(st.lists(coeff, max_size=40)), draw(st.lists(coeff, max_size=40))


def dense_convolution(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# 4294967311, the least prime above 2^32, needs slots wider than 8 bytes
PACKED_PRIMES = (3, 5, 7, 1000003, 4294967311)


@st.composite
def packed_factors(draw):
    """A prime and two coefficient lists of residues, 0 to 300 long, heavy
    in p - 1, whose products fill a slot of the packed product the most."""
    p = draw(st.sampled_from(PACKED_PRIMES))
    coeff = st.one_of(st.just(0), st.just(p - 1), st.integers(0, p - 1))
    return p, draw(st.lists(coeff, max_size=300)), draw(st.lists(coeff, max_size=300))


class TestPackedMultiply:
    @given(packed_factors())
    @example((3, [], []))
    @example((5, [1], [4, 3]))
    @example((1000003, [7, 1000002], [1]))
    @settings(deadline=None)
    def test_matches_schoolbook(self, case):
        p, a, b = case
        got = UPoly(p, a) * UPoly(p, b)
        assert got == UPoly(p, dense_convolution(a, b))
        assert all(0 <= c < p for c in got.coeffs)
        assert not got.coeffs or got.coeffs[-1] != 0

    @pytest.mark.parametrize("p", PACKED_PRIMES)
    @pytest.mark.parametrize("n", [1, 2, 15, 16, 63, 64, 300])
    def test_full_slots(self, p, n):
        # every coefficient p - 1: the middle slot holds n (p - 1)^2, the
        # slot bound exactly; 15/16 and 63/64 cross from one-byte to
        # two-byte slots at p = 5 and p = 3
        a = [p - 1] * n
        got = UPoly(p, a) * UPoly(p, a)
        assert got == UPoly(p, dense_convolution(a, a))
        assert got.degree == 2 * n - 2
        assert (UPoly.zero(p) * UPoly(p, a)).is_zero
        assert UPoly.one(p) * UPoly(p, a) == UPoly(p, a)


class TestSparseMultiply:
    @given(sparse_coefficient_pairs())
    @example((5, [], [1, 2]))
    @example((5, [0, 5, 0], [1]))
    @example((5, [1, 0, 4], [1, 0, 0, 0, 1]))
    @example((3, [0, 0, 1], [0, 2, 0, 0, 3, 1]))
    def test_matches_dense_convolution(self, case):
        p, a, b = case
        assert UPoly(p, a) * UPoly(p, b) == UPoly(p, dense_convolution(a, b))


def tuple_product(p, a, b):
    """The product of two tuple-keyed term dicts over F_p, schoolbook."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = (out.get(key, 0) + ca * cb) % p
    return {k: c for k, c in out.items() if c}


def tuple_substitute(p, arity, terms, matrix):
    """Each term with variable j replaced by the linear form in column j of
    matrix, one factor at a time, on tuple-keyed term dicts."""
    n = len(matrix)
    unit = [tuple(int(i == v) for v in range(arity)) for i in range(n)]
    images = [{unit[i]: matrix[i][j] % p for i in range(n) if matrix[i][j] % p} for j in range(n)]
    out = {}
    for key, coeff in terms.items():
        term = {(0,) * n + key[n:]: coeff}
        for j in range(n):
            for _ in range(key[j]):
                term = tuple_product(p, term, images[j])
        for k, c in term.items():
            out[k] = (out.get(k, 0) + c) % p
    return {k: c for k, c in out.items() if c}


# exponents at 2^k - 1 and 2^k: a packed digit one bit too narrow carries
EDGE_EXPONENTS = (0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32)


@st.composite
def packed_operands(draw):
    """A prime in {3, 5, 7}, an arity of 1 to 4 and two polynomials with
    exponents from EDGE_EXPONENTS (zero polynomials included)."""
    p = draw(st.sampled_from((3, 5, 7)))
    arity = draw(st.integers(1, 4))
    keys = st.tuples(*(st.sampled_from(EDGE_EXPONENTS) for _ in range(arity)))
    coeffs = st.integers(0, p - 1)
    f = draw(st.dictionaries(keys, coeffs, max_size=4))
    g = draw(st.dictionaries(keys, coeffs, max_size=4))
    return p, arity, f, g


class TestPackedKeys:
    """MPoly's packed exponent keys against tuple-keyed references."""

    @given(packed_operands())
    @example((5, 2, {(8, 0): 1, (0, 8): 1}, {(8, 0): 1, (0, 8): 4}))
    @example((3, 3, {(15, 1, 0): 2}, {(16, 15, 1): 1, (0, 0, 0): 1}))
    @example((7, 4, {(1, 7, 8, 0): 3}, {(31, 0, 0, 1): 1}))
    @example((3, 1, {(16,): 1}, {(16,): 2}))
    @example((5, 2, {}, {(3, 4): 1}))
    @example((5, 2, {(1, 1): 5}, {}))
    @settings(max_examples=60, deadline=None)
    def test_product_matches_tuple_keys(self, case):
        p, arity, f, g = case
        a, b = MPoly(p, arity, f), MPoly(p, arity, g)
        assert (a * b).terms == tuple_product(p, a.terms, b.terms)
        assert (b * a).terms == tuple_product(p, a.terms, b.terms)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_degree_at_a_power_of_two(self, k):
        # y1^(2^k) arises from factors of degree 2^k - 1 and 1 and from the
        # square of y1^(2^(k-1)); one bit fewer would carry it into y2
        p = 5
        y1, y2 = MPoly.variable(p, 2, 0), MPoly.variable(p, 2, 1)
        low = MPoly.monomial(p, 2, (2**k - 1, 0))
        assert (low * (y1 + y2)).terms == {(2**k, 0): 1, (2**k - 1, 1): 1}
        half = MPoly.monomial(p, 2, (2 ** (k - 1), 0))
        assert (half * half).terms == {(2**k, 0): 1}


def shear_matrix(n, a, b, c):
    """The n x n identity with c at row b, column a: y_a -> y_a + c*y_b, the
    matrix the references substitute."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    m[b][a] = c
    return m


@st.composite
def shear_cases(draw):
    """A polynomial over F_p in 2..4 variables, not homogeneous in general
    and possibly zero, and an elementary shear (a, b, c) of two of its
    variables.  c is drawn up to a multiple of p away from its residue, 0
    included, so the shear is read after reduction mod p."""
    p = draw(st.sampled_from((3, 5, 7)))
    arity = draw(st.integers(2, 4))
    a, b = draw(st.permutations(range(arity)))[:2]
    c = draw(st.integers(0, p - 1)) + p * draw(st.integers(-1, 1))
    keys = st.tuples(*(st.integers(0, 6) for _ in range(arity)))
    terms = draw(st.dictionaries(keys, st.integers(0, p - 1), max_size=8))
    return MPoly(p, arity, terms), a, b, c


class TestShear:
    """substitute_linear's elementary shears (Taylor shifts of packed binary
    forms) against the tuple-keyed references, and bad indices rejected."""

    @given(shear_cases())
    @example((MPoly(3, 2, {}), 0, 1, 1))
    @example((MPoly(5, 3, {(2, 1, 0): 1, (0, 3, 4): 2, (0, 0, 0): 3}), 0, 1, 4))
    @settings(max_examples=80, deadline=None)
    def test_matches_references(self, case):
        f, a, b, c = case
        matrix = shear_matrix(f.arity, a, b, c)
        got = f.substitute_linear(a, b, c)
        assert got.terms == tuple_substitute(f.p, f.arity, f.terms, matrix)
        assert got == naive_substitute(f, matrix)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_every_shift_and_both_orders(self, p):
        # a non-homogeneous polynomial in y1, y2, y3 and an auxiliary X
        terms = {(3, 1, 0, 2): 1, (0, 4, 1, 0): p - 1, (1, 1, 1, 1): 2, (2, 0, 0, 0): 1, (0, 0, 0, 3): 1}
        f = MPoly(p, 4, terms)
        for a, b in itertools.permutations(range(4), 2):
            for c in range(1, p):
                m = shear_matrix(4, a, b, c)
                assert f.substitute_linear(a, b, c).terms == tuple_substitute(p, 4, f.terms, m), (a, b, c)

    @pytest.mark.parametrize("e", [13, 48])
    def test_dense_form_needs_two_byte_slots(self, e):
        # (y1 + y2)^13 = (y1^7 + y2^7)(y1 + y2)^6 at p = 7 has 14 terms in
        # one binary form, (y1 + y2)^48 has 49: slots of 14 * 36 and 49 * 36
        # need two bytes
        p = 7
        f = MPoly.linear_form(p, 3, (1, 1)) ** e + MPoly.monomial(p, 3, (2, 1, 1), 3)
        for a, b in ((0, 1), (1, 0)):
            assert f.substitute_linear(a, b, 2) == naive_substitute(f, shear_matrix(3, a, b, 2))
        assert f.substitute_linear(1, 0, 6).terms == tuple_substitute(
            p, 3, f.terms, shear_matrix(3, 1, 0, 6)
        )

    @pytest.mark.parametrize("p", [1000003, 4294967311])
    def test_wide_slots(self, p):
        # (p - 1)^2 needs eight bytes at p = 1000003 and more than eight
        # (packed byte strings, not arrays) at p = 4294967311
        f = MPoly(p, 3, {(3, 2, 0): p - 1, (1, 4, 1): 2, (0, 5, 0): p - 2, (4, 0, 2): 1})
        for a, b in ((0, 1), (1, 0), (2, 0)):
            got = f.substitute_linear(a, b, p - 3)
            assert got == naive_substitute(f, shear_matrix(3, a, b, p - 3))

    @pytest.mark.parametrize(
        "a, b",
        [
            (1, 1),  # a == b: a scaling, not a shear
            (0, 3),  # b is the arity
            (4, 0),  # a beyond the arity
            (-1, 0),  # negative indices do not count from the end
            (0, -3),
        ],
    )
    def test_bad_indices_are_rejected(self, a, b):
        f = MPoly(5, 3, {(3, 3, 2): 1, (1, 1, 1): 2})
        with pytest.raises(ValueError, match="distinct variable indices"):
            f.substitute_linear(a, b, 1)

    def test_zero_shift_returns_self(self):
        # c = 0 and every multiple of p are the identity
        f = MPoly(5, 3, {(3, 3, 2): 1, (1, 1, 1): 2})
        for c in (0, 5, -10):
            assert f.substitute_linear(0, 2, c) is f


class TestMPolyCancellation:
    def test_product_stores_no_zero_coefficient(self):
        # (y1 + y2)(y1 - y2) = y1^2 - y2^2: the two y1*y2 terms cancel
        p = 5
        y1, y2 = MPoly.variable(p, 2, 0), MPoly.variable(p, 2, 1)
        product = (y1 + y2) * (y1 - y2)
        assert product.terms == {(2, 0): 1, (0, 2): 4}
        assert 0 not in product.terms.values()


def assert_upoly_rebuilds(a):
    """a equals the UPoly the validating constructor builds from its
    coefficients, which are residues with no trailing zero."""
    assert a == UPoly(a.p, a.coeffs)
    assert all(0 <= c < a.p for c in a.coeffs)
    assert not a.coeffs or a.coeffs[-1]


def assert_mpoly_rebuilds(f):
    """f equals the MPoly the validating constructor builds from its terms,
    which have nonzero residues and keys of f's arity only."""
    assert f == MPoly(f.p, f.arity, f.terms)
    assert all(0 < c < f.p for c in f.terms.values())
    assert all(type(key) is tuple and len(key) == f.arity for key in f.terms)


@st.composite
def upoly_pairs(draw):
    """Two polynomials over one prime, zero included."""
    p = draw(primes)
    coeffs = st.lists(st.integers(-6, 12), max_size=26)
    return UPoly(p, draw(coeffs)), UPoly(p, draw(coeffs))


@st.composite
def mpoly_cases(draw):
    """Two polynomials over one prime in {3, 5, 7} at one arity of 1 to 4,
    zero included, an int scalar that may be a multiple of p, a variable
    index and two distinct variable indices (one when the arity is 1)."""
    p = draw(st.sampled_from((3, 5, 7)))
    arity = draw(st.integers(1, 4))
    keys = st.tuples(*(st.integers(0, 4) for _ in range(arity)))
    terms = st.dictionaries(keys, st.integers(0, p - 1), max_size=6)
    f, g = MPoly(p, arity, draw(terms)), MPoly(p, arity, draw(terms))
    k = draw(st.integers(-2 * p, 2 * p))
    var = draw(st.integers(0, arity - 1))
    shear = tuple(draw(st.permutations(range(arity)))[:2])
    return f, g, k, var, shear


class TestInternalConstructors:
    """Derived polynomials skip the public constructors' checks; each must
    still be the polynomial those constructors would build."""

    @given(upoly_pairs(), st.integers(0, 6))
    @example((UPoly(5, (1, 2, 3)), UPoly(5, (1, 2, 3))), 0)  # a - a cancels every term
    @example((UPoly(5, (1, 2)), UPoly(5, (0, 3))), 2)  # the top terms of a + b cancel
    @example((UPoly(3, (0, 1)), UPoly(3, ())), 1)  # -a keeps its zero coefficient a residue
    @settings(deadline=None)
    def test_upoly_operations(self, pair, e):
        a, b = pair
        for result in (a + b, a - b, -a, a * b, a**e):
            assert_upoly_rebuilds(result)
        if not b.is_zero:
            assert_upoly_rebuilds((a * b).divexact(b))
            if (q := a.divexact(b)) is not None:
                assert_upoly_rebuilds(q)

    @given(mpoly_cases(), st.integers(0, 3), st.integers(0, 4))
    # (y1 + y2)(y1 - y2) cancels its y1*y2 terms, and 5 * f is zero
    @example(
        (MPoly(5, 2, {(1, 0): 1, (0, 1): 1}), MPoly(5, 2, {(1, 0): 1, (0, 1): 4}), 5, 0, (0, 1)), 2, 1
    )
    @settings(deadline=None)
    def test_mpoly_operations(self, case, e, exponent):
        f, g, k, var, shear = case
        for result in (f + g, f + (-f), -f, f * k, k * f, f * g, f**e):
            assert_mpoly_rebuilds(result)
        if f.arity >= 2:
            assert_mpoly_rebuilds(f.coefficient_in_var(var, exponent))
            assert_mpoly_rebuilds(f.substitute_linear(*shear, k))

    @pytest.mark.parametrize("p", [3, 5])
    def test_dickson_expansion(self, p):
        ds = dickson.compute(p)
        for poly in (ds.e3, *ds.cs):
            assert_mpoly_rebuilds(poly)


class TestFrobenius:
    @given(upolys())
    def test_pth_power_stretches_exponents(self, a):
        # the coefficients of a, with p - 1 zeros after each
        stretched = [0] * (a.p * len(a.coeffs))
        stretched[:: a.p] = a.coeffs
        assert a**a.p == UPoly(a.p, stretched)

    def test_headline_collapses(self):
        # (1 - t^2)^9 = 1 - t^18 over F_3 and (1 - t^4)^25 = 1 - t^100 over F_5
        assert (UPoly(3, (1, 0, -1)) ** 9) == UPoly.one(3) - UPoly.monomial(3, 1, 18)
        assert (UPoly(5, (1, 0, 0, 0, -1)) ** 25) == UPoly.one(5) - UPoly.monomial(
            5, 1, 100
        )


class TestRoundTrips:
    @given(upolys(max_degree=25), upolys(max_degree=25, allow_zero=False))
    def test_mul_then_divexact(self, a, b):
        if a.p != b.p:
            b = UPoly(a.p, b.coeffs)
            assume(not b.is_zero)  # reducing mod a.p can zero it
        assert (a * b).divexact(b) == a

    @given(st.integers(0, 12), st.integers(0, 12), primes)
    def test_pm_factorization_reconstructs(self, e_minus, e_plus, p):
        built = (UPoly(p, (1, 0, -1)) ** e_minus) * (UPoly(p, (1, 0, 1)) ** e_plus)
        got = pm_factorization(built)
        assert got == (e_minus, e_plus)
        rebuilt = (UPoly(p, (1, 0, -1)) ** got[0]) * (UPoly(p, (1, 0, 1)) ** got[1])
        assert rebuilt == built


class TestPairFactorClosedForm:
    @pytest.mark.parametrize("p", [3, 5])
    def test_all_pairs(self, p):
        # the four-line expansion equals 1 - 2(ai^2+aj^2) t^2 + (ai^2-aj^2)^2 t^4
        for ai, aj in itertools.product(range(p), repeat=2):
            closed = UPoly(
                p,
                (1, 0, -2 * (ai * ai + aj * aj), 0, (ai * ai - aj * aj) ** 2),
            )
            assert pair_factor(p, ai, aj) == closed

    @pytest.mark.parametrize("p", [3, 5])
    def test_matches_exponent_product(self, p):
        for ai, aj in itertools.product(range(p), repeat=2):
            exps = (ai + aj, ai - aj, -ai + aj, -ai - aj)
            assert pair_factor(p, ai, aj) == chern_of_exponents(p, exps)


class TestNegationClosure:
    @given(
        primes,
        st.lists(st.integers(0, 6), min_size=0, max_size=12),
    )
    def test_closed_multisets_give_even_polynomials(self, p, half):
        exps = list(half) + [-a for a in half]
        poly = chern_of_exponents(p, exps)
        assert all(c == 0 for k, c in enumerate(poly.coeffs) if k % 2 == 1)

    @pytest.mark.parametrize("alpha", [(1, 1, 1, 0), (1, 2, 0, 2), (2, 2, 2, 2)])
    def test_self_conjugate_characters_mod3(self, alpha):
        pt = RestrictionPoint(3, alpha)
        for char in (
            vector_weights(4),
            exterior_square_weights(4),
            half_spin_weights(4, "both"),
        ):
            poly = total_chern(char, pt)
            assert all(
                c == 0 for k, c in enumerate(poly.coeffs) if k % 2 == 1
            )


class TestPermutationEquivariance:
    def test_random_points_and_permutations(self):
        rng = random.Random(20240814)
        cases = [
            (3, 4, (vector_weights, exterior_square_weights,
                    lambda n: half_spin_weights(n, "both"),
                    lambda n: half_spin_weights(n, "+"))),
            (5, 8, (vector_weights, exterior_square_weights,
                    lambda n: half_spin_weights(n, "both"),
                    lambda n: half_spin_weights(n, "+"))),
        ]
        for p, n, makers in cases:
            chars = [mk(n) for mk in makers]
            for _ in range(12):
                alpha = tuple(rng.randrange(p) for _ in range(n))
                perm = list(range(n))
                rng.shuffle(perm)
                pt = RestrictionPoint(p, alpha)
                pt_perm = pt.permuted(perm)
                for char in chars:
                    assert total_chern(char, pt) == total_chern(char, pt_perm)


class TestChernDegreeBound:
    @given(
        st.tuples(*(st.integers(0, 4) for _ in range(8))),
    )
    @settings(max_examples=40)
    def test_half_spin_mod5(self, alpha):
        pt = RestrictionPoint(5, alpha)
        char = half_spin_weights(8, "+")
        assert total_chern(char, pt).degree <= char.dim
