"""Exact arithmetic: residues mod p, dense univariate and sparse multivariate
rings."""

import pytest

from chern_cert.fppoly import (
    MPoly,
    UPoly,
    chern_of_exponents,
    check_odd_prime,
    in_subring,
    inv2,
    pair_factor,
    pm_factorization,
    subring_bound,
)


class TestFpScalar:
    """F_p scalars: canonical residues, the inverse of 2, modulus checks."""

    def test_canonical_residue(self):
        assert UPoly(3, (7,)).coeffs == (1,)
        assert UPoly(5, (-1,)).coeffs == (4,)
        assert UPoly(7, (7,)).is_zero

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_inv2_doubles_to_one(self, p):
        assert (2 * inv2(p)) % p == 1

    # 3215031751, 3825123056546413051 and 318665857834031151167461 are
    # strong pseudoprimes to the prime bases up to 7, 23 and 37; 2^89 - 1 is
    # a prime above PRIME_BOUND
    @pytest.mark.parametrize(
        "bad",
        [2, 4, 9, 15, 1, 0, -3, 3215031751, 3825123056546413051, 318665857834031151167461, 2**89 - 1],
    )
    def test_rejects_non_odd_primes(self, bad):
        with pytest.raises(ValueError):
            check_odd_prime(bad)
        with pytest.raises(ValueError):
            UPoly(bad, (0,))

    @pytest.mark.parametrize("p", [41, 1000003, 4294967311, 10**18 + 3, 2**61 - 1])
    def test_accepts_large_primes(self, p):
        check_odd_prime(p)
        assert UPoly(p, (p + 1,)).is_one


class TestUPoly:
    def test_trailing_zeros_trimmed(self):
        a = UPoly(3, (1, 2, 0, 0))
        assert a.coeffs == (1, 2)
        assert a.degree == 1
        assert UPoly(3, (0, 0)).is_zero
        assert UPoly(3).degree == -1

    def test_mul_difference_of_squares(self):
        one_plus = UPoly(3, (1, 1))
        one_minus = UPoly(3, (1, -1))
        assert (one_plus * one_minus) == UPoly(3, (1, 0, -1))

    def test_mul_square_of_headline_factor(self):
        # (1 - t^18)^2 = 1 + t^18 + t^36 over F_3
        base = UPoly.one(3) - UPoly.monomial(3, 1, 18)
        assert (base * base).render() == "1 + t^18 + t^36"

    def test_ninth_power_collapses(self):
        # (1 - t^2)^9 = 1 - t^18 over F_3, by repeated multiplication
        one_minus_t2 = UPoly(3, (1, 0, -1))
        assert one_minus_t2**9 == UPoly(3, (1,) + (0,) * 17 + (2,))

    def test_pow_squares_no_further_than_the_last_bit(self, monkeypatch):
        # x^8: three squarings and one multiplication into the unit, with no
        # square after the top exponent bit
        calls = []
        real = UPoly.__mul__

        def counted(self, other):
            calls.append(other)
            return real(self, other)

        monkeypatch.setattr(UPoly, "__mul__", counted)
        x = UPoly(5, (0, 1))
        assert x**8 == UPoly.monomial(5, 1, 8)
        assert len(calls) == 4
        calls.clear()
        assert x**0 == UPoly.one(5) and not calls
        assert UPoly(5, (1, 1)) ** 5 == UPoly(5, (1,) + (0,) * 4 + (1,))

    def test_divexact(self):
        p = 3
        one_minus_t2 = UPoly(p, (1, 0, -1))
        assert UPoly(p, (1, 0, -1)).divexact(UPoly(p, (1, -1))) == UPoly(p, (1, 1))
        big = UPoly.one(p) - UPoly.monomial(p, 1, 18)
        q = big.divexact(one_minus_t2)
        assert q == one_minus_t2**8
        assert q * one_minus_t2 == big

    def test_divexact_not_divisible(self):
        # 1 + t^2 is not divisible by 1 - t: the value at t = 1 is 2 != 0
        a = UPoly(3, (1, 0, 1))
        b = UPoly(3, (1, -1))
        assert a.divexact(b) is None

    def test_divexact_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            UPoly(3, (1,)).divexact(UPoly.zero(3))

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            UPoly(3, (1,)) * UPoly(5, (1,))

    def test_render(self):
        assert UPoly.zero(5).render() == "0"
        assert UPoly(3, (1,)).render() == "1"
        assert (UPoly.one(3) - UPoly.monomial(3, 1, 18)).render() == "1 + 2*t^18"
        assert UPoly(5, (2, 1)).render() == "2 + t"
        assert UPoly(5, (0, 0, 3)).render() == "3*t^2"


class TestChernOfExponents:
    def test_conjugate_pair(self):
        assert chern_of_exponents(3, [1, -1]) == UPoly(3, (1, 0, -1))

    def test_trivial_line(self):
        assert chern_of_exponents(5, [0]).is_one
        assert chern_of_exponents(5, []).is_one

    def test_frozen_24_exponent_multiset(self):
        # the exponents of the 24-dimensional swept character at the witness
        # point (1,1,1,0) mod 3: six zeros, nine ones, nine twos
        exps = [0] * 6 + [1] * 9 + [2] * 9
        assert chern_of_exponents(3, exps).render() == "1 + 2*t^18"


class TestPairFactor:
    def test_squares_one_one(self):
        assert pair_factor(3, 1, 1) == UPoly(3, (1, 0, -1))

    def test_squares_one_zero(self):
        assert pair_factor(3, 1, 0) == UPoly(3, (1, 0, -1)) ** 2

    def test_mixed_squares_mod5(self):
        # squares 4 = -1 and 1: the factor is 1 - t^4 = (1 - t^2)(1 + t^2)
        f = pair_factor(5, 2, 1)
        assert f == UPoly(5, (1, 0, 0, 0, -1))
        assert f == UPoly(5, (1, 0, -1)) * UPoly(5, (1, 0, 1))


class TestInSubring:
    def test_examples(self):
        p = 3
        assert in_subring(UPoly.one(p) - UPoly.monomial(p, 1, 18), 18)
        sixth = UPoly(p, (1, 0, -1)) ** 6
        assert sixth.render() == "1 + t^6 + t^12"
        assert not in_subring(sixth, 18)
        assert in_subring(UPoly.one(p), 18)
        assert in_subring(UPoly.one(p), 7)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            in_subring(UPoly.one(3), 0)


class TestSubringBound:
    def test_values(self):
        assert subring_bound(3) == 18
        assert subring_bound(5) == 100
        assert subring_bound(7) == 294

    def test_rejects_p2(self):
        with pytest.raises(ValueError):
            subring_bound(2)


class TestPmFactorization:
    def test_one_minus_t4(self):
        assert pm_factorization(UPoly(5, (1, 0, 0, 0, -1))) == (1, 1)

    def test_one_minus_t100(self):
        # 1 - t^100 = (1 - t^4)^25 over F_5
        a = UPoly(5, (1,) + (0,) * 99 + (4,))
        assert pm_factorization(a) == (25, 25)

    def test_odd_degree_is_not_of_form(self):
        assert pm_factorization(UPoly(5, (1, 1))) is None

    def test_constant_one(self):
        assert pm_factorization(UPoly.one(3)) == (0, 0)

    @pytest.mark.parametrize("p", [3, 5])
    def test_zero_is_not_of_form(self, p):
        # zero divides exactly by 1 - t^2, so plain repeated division never stops
        assert pm_factorization(UPoly.zero(p)) is None

    def test_reconstruction(self):
        p = 3
        a = (UPoly(p, (1, 0, -1)) ** 4) * (UPoly(p, (1, 0, 1)) ** 2)
        assert pm_factorization(a) == (4, 2)


class TestMPoly:
    def test_add_mul(self):
        p = 3
        y1 = MPoly.variable(p, 2, 0)
        y2 = MPoly.variable(p, 2, 1)
        square = (y1 + y2) * (y1 + y2)
        assert square == y1 * y1 + 2 * (y1 * y2) + y2 * y2

    def test_no_zero_terms_stored(self):
        p = 3
        a = MPoly(p, 1, {(0,): 1})
        b = MPoly(p, 1, {(0,): 2})
        assert (a + b).is_zero
        assert not (a + b).terms

    def test_substitute_identity(self):
        # a shear by c = 0 mod p is the identity and returns the polynomial
        p = 3
        y1 = MPoly.variable(p, 3, 0)
        assert y1.substitute_linear(0, 1, 0) is y1
        assert y1.substitute_linear(0, 2, -3) is y1
        # c is read mod p
        assert y1.substitute_linear(0, 1, 4) == y1.substitute_linear(0, 1, 1)

    def test_substitute_transvection_binomial(self):
        # y1^2 under y1 -> y1 + y2 becomes y1^2 + 2 y1 y2 + y2^2
        p = 3
        f = MPoly.monomial(p, 3, (2, 0, 0))
        got = f.substitute_linear(0, 1, 1)
        want = MPoly(
            p, 3, {(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1}
        )
        assert got == want

    def test_substitute_fixes_trailing_auxiliary(self):
        # y1 -> y1 + y2 leaves the last variable fixed
        p = 3
        f = MPoly.monomial(p, 3, (1, 0, 2))
        got = f.substitute_linear(0, 1, 1)
        want = MPoly(p, 3, {(1, 0, 2): 1, (0, 1, 2): 1})
        assert got == want

    def test_substitute_arity_mismatch(self):
        # a variable index beyond the arity names no variable
        f = MPoly.variable(3, 3, 0)
        with pytest.raises(ValueError):
            f.substitute_linear(0, 3, 1)

    def test_coefficient_extraction(self):
        p = 3
        f = MPoly(p, 2, {(2, 1): 2, (0, 1): 1, (1, 0): 1})
        c1 = f.coefficient_in_var(1, 1)
        assert c1 == MPoly(p, 1, {(2,): 2, (0,): 1})
        # the result is built from the terms unchecked, so the index is checked
        for var in (-1, 2):
            with pytest.raises(ValueError, match="no variable"):
                f.coefficient_in_var(var, 1)

    def test_pow(self):
        p = 5
        lin = MPoly.linear_form(p, 2, (1, 1))
        assert lin**0 == MPoly.one(p, 2)
        assert lin**3 == lin * lin * lin

    def test_render(self):
        p = 3
        f = MPoly(p, 2, {(1, 2): 2, (0, 0): 1})
        assert f.render() == "1 + 2*y1*y2^2"
