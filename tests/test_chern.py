"""Restriction points, restricted exponents, and total Chern classes."""

import pytest

from chern_cert.chern import (
    RestrictionPoint,
    chern_named,
    report_named,
    restrict_exponent,
    restricted_exponents,
    total_chern,
)
from chern_cert.fppoly import UPoly
from chern_cert.spinchar import (
    exterior_square_weights,
    half_spin_weights,
    vector_weights,
)


class TestRestrictionPoint:
    def test_canonicalizes(self):
        pt = RestrictionPoint(3, (4, -1, 0, 3))
        assert pt.alpha == (1, 2, 0, 0)

    def test_parse(self):
        assert RestrictionPoint.parse(3, "1,1,1,0").alpha == (1, 1, 1, 0)
        with pytest.raises(ValueError):
            RestrictionPoint.parse(3, "1,x,0")
        with pytest.raises(ValueError):
            RestrictionPoint.parse(4, "1,0")

    def test_flags(self):
        assert RestrictionPoint(3, (0, 0)).is_zero
        assert not RestrictionPoint(3, (1, 0)).is_zero
        assert RestrictionPoint(5, (0, 1, 1)).is_canonical
        assert not RestrictionPoint(5, (1, 0, 1)).is_canonical

    def test_render_roundtrip(self):
        pt = RestrictionPoint(5, (1, 0, 4))
        assert RestrictionPoint.parse(5, pt.render()) == pt

    def test_value_semantics(self):
        pt = RestrictionPoint(5, (6, 0, -1))
        same = RestrictionPoint(5, (1, 0, 4))
        assert pt == same and hash(pt) == hash(same)
        assert pt != RestrictionPoint(7, (1, 0, 4)) and pt != (1, 0, 4)
        with pytest.raises(AttributeError):
            pt.alpha = (0, 0, 1)


class TestRestrictExponent:
    def test_vector_weight(self):
        pt = RestrictionPoint(3, (1, 0, 0, 0))
        assert restrict_exponent((2, 0, 0, 0), pt) == 1

    def test_spin_weight_sums_to_zero(self):
        pt = RestrictionPoint(3, (1, 1, 1, 0))
        assert restrict_exponent((1, 1, 1, 1), pt) == 0

    def test_spin_weight_mod5(self):
        pt = RestrictionPoint(5, (1, 0, 0, 0, 0, 0, 0, 0))
        assert restrict_exponent((1,) * 8, pt) == 3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            restrict_exponent((2, 0), RestrictionPoint(3, (1, 0, 0)))

    def test_multiset_with_multiplicity(self):
        pt = RestrictionPoint(3, (1, 1, 1, 0))
        char = vector_weights(4) + half_spin_weights(4, "both")
        exps = restricted_exponents(char, pt)
        assert len(exps) == 24
        assert sorted(exps) == [0] * 6 + [1] * 9 + [2] * 9


class TestTotalChern:
    def test_vector_at_unit_point(self):
        pt = RestrictionPoint(3, (1, 0, 0, 0))
        assert total_chern(vector_weights(4), pt) == UPoly(3, (1, 0, -1))

    def test_witness_point_headline_value(self):
        pt = RestrictionPoint(3, (1, 1, 1, 0))
        char = vector_weights(4) + half_spin_weights(4, "both")
        assert total_chern(char, pt).render() == "1 + 2*t^18"

    def test_exterior_square_mod5_unit_point(self):
        pt = RestrictionPoint(5, (1, 0, 0, 0, 0, 0, 0, 0))
        got = total_chern(exterior_square_weights(8), pt)
        assert got == UPoly(5, (1, 0, -1)) ** 14

    def test_half_spin_mod5_unit_point(self):
        pt = RestrictionPoint(5, (1, 0, 0, 0, 0, 0, 0, 0))
        got = total_chern(half_spin_weights(8, "+"), pt)
        assert got == UPoly(5, (1, 0, 1)) ** 64

    def test_zero_point_gives_one(self):
        pt = RestrictionPoint(3, (0, 0, 0, 0))
        assert total_chern(vector_weights(4), pt).is_one

    def test_degree_bound(self):
        for alpha in ((1, 1, 1, 0), (1, 2, 0, 0), (2, 2, 2, 2)):
            pt = RestrictionPoint(3, alpha)
            for char in (
                vector_weights(4),
                exterior_square_weights(4),
                half_spin_weights(4, "both"),
            ):
                assert total_chern(char, pt).degree <= char.dim

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            total_chern(vector_weights(4), RestrictionPoint(3, (1, 0)))


class TestChernNamed:
    def test_theorem_values_at_witness(self):
        pt = RestrictionPoint(3, (1, 1, 1, 0))
        assert chern_named("rho4", pt).render() == "1 + 2*t^18"
        assert chern_named("rho6", pt).render() == "1 + 2*t^18"
        assert chern_named("rho7", pt).render() == "1 + t^18 + t^36"
        assert chern_named("rho8", pt).render() == "1 + 2*t^162"
        assert chern_named("rho4adj", pt).render() == "1 + t^18 + t^36"

    def test_multiplicativity_of_rank4_adjoint_chain(self):
        # rho8@4 = 32 trivial + 8 lambda1 + 8 delta + lambda2, so its class is
        # c(lambda1)^8 c(delta)^8 c(lambda2) at every point
        for alpha in ((1, 1, 1, 0), (1, 2, 0, 1), (2, 0, 0, 1)):
            pt = RestrictionPoint(3, alpha)
            expected = (
                total_chern(vector_weights(4), pt) ** 8
                * total_chern(half_spin_weights(4, "both"), pt) ** 8
                * total_chern(exterior_square_weights(4), pt)
            )
            assert chern_named("rho8", pt) == expected

    def test_unknown_rank(self):
        with pytest.raises(ValueError):
            chern_named("rho8", RestrictionPoint(3, (1, 0, 0, 0, 0, 0)))


class TestChernReport:
    def test_flags_recomputed_from_polynomial(self):
        pt = RestrictionPoint(3, (1, 1, 1, 0))
        flags = report_named("rho4", pt)["flags"]
        assert flags["divisible_by_1_minus_t2"] is True
        assert flags["pm_form"] == [9, 0]
        assert flags["subring_exponent"] == 18
        assert flags["in_subring"] is True
        assert flags["canonical_alpha"] is False  # 1,1,1,0 is not sorted

    def test_to_dict(self):
        pt = RestrictionPoint(3, (0, 1, 1, 1))
        d = report_named("rho7", pt)
        assert d["total_chern"] == "1 + t^18 + t^36"
        assert d["rep"] == "rho7"
        assert d["alpha"] == "0,1,1,1"
        assert d["flags"]["canonical_alpha"] is True

    def test_report_outside_the_subring(self):
        pt = RestrictionPoint(5, (1, 0, 0, 0, 0, 0, 0, 0))
        d = report_named("rho8", pt)
        assert (d["p"], d["rank"], d["degree"]) == (5, 8, 156)
        assert d["flags"]["pm_form"] == [14, 64]
        assert d["flags"]["in_subring"] is False
