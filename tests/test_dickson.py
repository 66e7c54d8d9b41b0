"""Rank-3 Dickson invariants: defining identity, degrees, restriction, and
linear-group invariance."""

import hashlib
import itertools
import pickle

import pytest

from chern_cert import cli, dickson, fppoly
from chern_cert.verify import run_statement
from chern_cert.fppoly import MPoly, UPoly


class TestOrbitProductMod3:
    def test_x_support_is_p_powers(self):
        product = dickson.orbit_product(3)
        assert product.support_in_var(3) == [1, 3, 9, 27]

    def test_monic(self):
        product = dickson.orbit_product(3)
        top = product.coefficient_in_var(3, 27)
        assert top == MPoly.one(3, 3)

    def test_matches_plain_factor_product(self):
        # the subspace tower against the 27 factors X + l_v multiplied out
        # with MPoly arithmetic alone
        p = 3
        x = MPoly.variable(p, 4, 3)
        plain = MPoly.one(p, 4)
        for v in itertools.product(range(p), repeat=3):
            plain = plain * (x + MPoly.linear_form(p, 4, v))
        assert dickson.orbit_product(p) == plain

    @pytest.mark.parametrize("p", [3, 5])
    def test_defining_identity_reconstructs(self, p):
        # sum_i (-1)^(3-i) c_{3,i} X^(p^i) multiplies back to the orbit product
        product = dickson.orbit_product(p)
        ds = dickson.compute(p)
        rebuilt = MPoly.zero(p, 4)
        coeffs = list(ds.cs) + [MPoly.one(p, 3)]
        for i, c in enumerate(coeffs):
            sign = 1 if (3 - i) % 2 == 0 else -1
            lifted = MPoly(
                p, 4, {key + (p**i,): v for key, v in c.terms.items()}
            )
            rebuilt = rebuilt + lifted * sign
        assert rebuilt == product

    def test_polynomial_and_cohomological_degrees(self):
        ds = dickson.compute(3)
        assert tuple(2 * c.total_degree for c in ds.cs) == (52, 48, 36)

    def test_invariants_homogeneous(self):
        ds = dickson.compute(3)
        for c in ds.cs:
            degrees = {sum(k) for k in c.terms}
            assert len(degrees) == 1


# The term count and the sha256 of render() of each expansion, pinned from
# the tuple-keyed MPoly arithmetic they were first computed with.  The
# certificates record only degrees, the sign and booleans, so an expansion
# that is wrong but still invariant would keep every golden hash.
EXPANSION_DIGESTS = {
    (3, "c0"): (21, "d3e503d066517f8997d08c44a55e7ef754535c0725efeb24f53fbeaeca72ab45"),
    (3, "c1"): (27, "ec86cba48958a69c643b07c25773351fdb3abb2915c01a14e40694a7f64f2c03"),
    (3, "c2"): (25, "abe36dcf42315938453f40830e548f0bba21a3f6850267f7436ab3a2e617fdd4"),
    (3, "e3"): (6, "86dae5e5672cd9cc49cfd992850d792f09c0468c792d89530d3cfb5f0edffa4e"),
    (3, "orbit"): (74, "901470f9b44f9944dc27f75a1694cf1aa4207814a86252eb066e4a5ee80bfe41"),
    (5, "c0"): (120, "a0babe4b0b80b9cfab221cc8d8e8339354123bccb5fee6f61e33864eecc68b53"),
    (5, "c1"): (130, "5e221c4415af31932aa2139d98f79ed67b276c6f099b2d2f3a3abc9de795a013"),
    (5, "c2"): (126, "6cf5b1988651e467477ff829087af7a3fff8cf2e7302d3c9c4cd02c395f6cc10"),
    (5, "e3"): (21, "dd775b52904c8e1a6408c87dadaedf2023e17443da7d76aebd4b841083c4058c"),
    (5, "orbit"): (377, "da973b7ed55bbe3faa1e5383c75d44d96e42a1f2e6996fed693ed305a8ca4372"),
}


@pytest.mark.parametrize("p, name", sorted(EXPANSION_DIGESTS))
def test_expansion_render_digests(p, name):
    ds = dickson.compute(p)
    poly = {"c0": ds.cs[0], "c1": ds.cs[1], "c2": ds.cs[2], "e3": ds.e3}.get(name) or dickson.orbit_product(p)
    digest = hashlib.sha256(poly.render().encode("ascii")).hexdigest()
    assert (len(poly.terms), digest) == EXPANSION_DIGESTS[p, name]


def test_dickson_set_is_immutable_and_pickles():
    ds = dickson.compute(3)
    with pytest.raises(AttributeError):
        ds.sign = -1
    back = pickle.loads(pickle.dumps(ds))
    assert (back.p, back.cs, back.e3, back.sign) == (ds.p, ds.cs, ds.e3, ds.sign)


class TestSquareRootInvariant:
    def test_e3_degree_and_sign_mod3(self):
        ds = dickson.compute(3)
        assert 2 * ds.e3.total_degree == 26
        assert ds.sign == 1
        assert ds.e3 * ds.e3 == ds.cs[0]

    def test_antipodal_representatives(self):
        reps = dickson.antipodal_representatives(3)
        assert len(reps) == 13
        seen = set()
        for v in reps:
            neg = tuple((3 - e) % 3 for e in v)
            assert v <= neg
            assert neg not in seen
            seen.add(v)

    def test_e3_representative_count_mod5(self):
        assert len(dickson.antipodal_representatives(5)) == 62

    @pytest.mark.parametrize("p", [3, 5])
    def test_e3_matches_plain_factor_product(self, p):
        # _dense_product against the antipodal forms multiplied out with
        # MPoly arithmetic alone
        plain = MPoly.one(p, 3)
        for v in dickson.antipodal_representatives(p):
            plain = plain * MPoly.linear_form(p, 3, v)
        assert dickson._e3(p) == plain

    def test_dense_product_rejects_cells_that_could_overflow(self):
        # three terms of up to 10 * 10 each can exceed a byte at p = 11
        with pytest.raises(ValueError, match="byte cells"):
            dickson._dense_product(11, [(1, 1, 1)])


class TestRank1Restriction:
    @pytest.mark.parametrize("p,d", [(3, 18), (5, 100)])
    def test_images(self, p, d):
        facts = dickson.rank1_restriction(p)
        assert facts["routes_agree"]
        c0, c1, c2 = facts["images"]
        assert c0.is_zero and c1.is_zero
        assert c2 == UPoly.monomial(p, 1, d)
        assert facts["e3_image"].is_zero

    def test_closed_form_text(self):
        assert dickson.rank1_restriction(3)["closed_form"] == "2*t^18*X^9 + X^27"
        assert (
            dickson.rank1_restriction(5)["closed_form"] == "4*t^100*X^25 + X^125"
        )

    @pytest.mark.parametrize("p", [3, 5])
    def test_expanded_invariants_restrict_identically(self, p):
        ds = dickson.compute(p)
        facts = dickson.rank1_restriction(p)
        for i in range(3):
            assert dickson.restrict_expanded(ds.cs[i]) == facts["images"][i]
        assert dickson.restrict_expanded(ds.e3) == facts["e3_image"]


class TestInvariance:
    def test_transvections_fix_everything_mod3(self):
        assert dickson.sl3_invariance_check(dickson.compute(3)) == []
        assert len(dickson.transvection_generators()) == 6

    def test_transvections_fix_everything_mod5(self):
        assert dickson.sl3_invariance_check(dickson.compute(5)) == []

    @pytest.mark.parametrize("a", [0, 1, 2])
    @pytest.mark.parametrize("p", [3, 5])
    def test_diagonal_generator_fixes_c_and_negates_e3(self, p, a):
        # y_a -> 2*y_a and the transvections (checked above) generate
        # GL_3(F_p).  The c invariants are fixed by all of it; e3 picks up
        # det^((p - 1) / 2), the Legendre symbol of 2, which is -1 at 3 and 5
        ds = dickson.compute(p)

        def scaled(f):
            return MPoly(p, f.arity, {k: c * pow(2, k[a], p) for k, c in f.terms.items()})

        for i in range(3):
            assert scaled(ds.cs[i]) == ds.cs[i]
        assert scaled(ds.e3) == (p - 1) * ds.e3

    def test_identity_matrix_trivially_fixes(self):
        # the shear y1 -> y1 + 0*y2 is the identity matrix
        ds = dickson.compute(3)
        assert ds.e3.substitute_linear(0, 1, 0) is ds.e3


class TestLemmaFacts:
    def test_mod3_bundle(self):
        result = dickson.lemma_facts(3, full=True)
        assert result.verified
        ev = result.evidence
        assert ev["restriction_images"] == {
            "c0": "0",
            "c1": "0",
            "c2": "t^18",
            "e3": "0",
        }
        assert ev["cohomological_degrees"] == {
            "c0": 52,
            "c1": 48,
            "c2": 36,
            "e3": 26,
        }
        assert ev["e3_squared_sign"] == 1
        assert ev["transvection_invariance"] is True

    def test_mod5_cheap_bundle(self):
        result = dickson.lemma_facts(5)
        assert result.verified
        assert result.parameters["full_expansion"] is False
        assert result.evidence["restriction_images"]["c2"] == "t^100"

    def test_mod5_full_bundle(self):
        result = dickson.lemma_facts(5, full=True)
        assert result.verified
        ev = result.evidence
        assert ev["cohomological_degrees"] == {
            "c0": 248,
            "c1": 240,
            "c2": 200,
            "e3": 124,
        }
        # at p = 5 the square of e3 is minus c_{3,0}
        assert ev["e3_squared_sign"] == -1

    def test_rejects_unsupported_prime(self):
        with pytest.raises(ValueError):
            dickson.lemma_facts(7)

    @pytest.mark.parametrize("p", [2, 7, 11])
    def test_expansion_rejects_unsupported_prime(self, p):
        # p = 7 is an odd prime, but the facts and the expansion are for
        # p in (3, 5) only
        with pytest.raises(ValueError):
            dickson.orbit_product(p)
        with pytest.raises(ValueError):
            dickson.compute(p)


class TestOrbitProductMod5:
    def test_matches_dense_factor_product(self):
        # the subspace tower against the 125 factors X + l_v multiplied one
        # at a time by _dense_product (the plain MPoly product of 125
        # factors takes seconds)
        p = 5
        forms = [v + (1,) for v in itertools.product(range(p), repeat=3)]
        assert dickson.orbit_product(p) == dickson._dense_product(p, forms)

    def test_stages_multiply_norm_pairs(self, monkeypatch):
        # each stage multiplies R(X + a*y) R(X - a*y) for a = 1, 2, the two
        # pairs together, then R(X): twelve products, no operand over the
        # 240 terms of the last stage's pairs
        sizes = []
        real = MPoly.__mul__
        monkeypatch.setattr(
            MPoly, "__mul__", lambda a, b: sizes.append((len(a.terms), len(b.terms))) or real(a, b)
        )
        assert len(dickson.orbit_product(5).terms) == 377
        assert len(sizes) == 12
        assert max(map(max, sizes)) <= 240
        assert sum(a * b for a, b in sizes) <= 9610

    def test_x_support_and_degrees(self):
        product = dickson.orbit_product(5)
        assert product.support_in_var(3) == [1, 5, 25, 125]
        ds = dickson.compute(5)
        assert tuple(2 * c.total_degree for c in ds.cs) == (248, 240, 200)

    def test_restriction_matches_direct_substitution(self):
        # substituting the expanded orbit product agrees with the collapsed
        # closed form, coefficient by coefficient in (X, t)
        p = 5
        product = dickson.orbit_product(p)
        collapsed: dict[tuple[int, int], int] = {}
        for (e1, e2, e3, ex), c in product.terms.items():
            if e2 == 0 and e3 == 0:
                key = (ex, e1)
                collapsed[key] = (collapsed.get(key, 0) + c) % p
        collapsed = {k: v for k, v in collapsed.items() if v}
        assert collapsed == {(125, 0): 1, (25, 100): 4}


def _flip(product: MPoly, key: tuple) -> MPoly:
    """product with the coefficient at key doubled, so it stays nonzero."""
    return MPoly(product.p, product.arity, {**product.terms, key: 2 * product.terms[key]})


class TestMutations:
    """Faults injected at existing seams must turn the facts Falsified."""

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("index", [0, 1, 2, -1])
    def test_flipped_orbit_coefficient_breaks_invariance(self, monkeypatch, p, index):
        product = dickson.orbit_product(p)
        # a term of some c_{3,i}; TestBrokenExpansion doubles the X^(p^3) term
        keys = sorted(k for k in product.terms if k[3] != p**3)
        flipped = _flip(product, keys[index])
        monkeypatch.setattr(dickson, "orbit_product", lambda q: flipped)
        result = dickson.lemma_facts(p, full=True)
        assert not result.verified
        assert "transvection invariance failed" in result.evidence["problems"]
        assert result.evidence["invariance_violations"]

    @pytest.mark.parametrize("p", [3, 5])
    def test_fault_after_a_first_run_is_seen(self, monkeypatch, p):
        # nothing kept from a first run hides a fault injected after it
        assert dickson.lemma_facts(p, full=True).verified
        product = dickson.orbit_product(p)
        keys = sorted(k for k in product.terms if k[3] != p**3)
        flipped = _flip(product, keys[-1])
        monkeypatch.setattr(dickson, "orbit_product", lambda q: flipped)
        result = dickson.lemma_facts(p, full=True)
        assert not result.verified
        assert "transvection invariance failed" in result.evidence["problems"]

    @pytest.mark.parametrize("p", [3, 5])
    def test_dropped_antipodal_representative_breaks_e3(self, monkeypatch, p):
        reps = dickson.antipodal_representatives(p)
        monkeypatch.setattr(dickson, "antipodal_representatives", lambda q: reps[1:])
        result = dickson.lemma_facts(p, full=True)
        assert not result.verified
        problems = result.evidence["problems"]
        assert "e3^2 is not a unit multiple of c_{3,0}" in problems
        assert any(problem.startswith("e3 degree") for problem in problems)


class TestDenseKernel:
    """Route A of the restriction multiplies its p^3 factors with
    _dense_product, so a fault in that kernel reaches the default
    (restricted) facts, not only the full expansion's e3."""

    @staticmethod
    def _drop_last_form(monkeypatch):
        real = dickson._dense_product
        monkeypatch.setattr(dickson, "_dense_product", lambda p, forms: real(p, forms[:-1]))

    @pytest.mark.parametrize("p", [3, 5])
    def test_dropped_form_splits_the_routes(self, monkeypatch, p):
        self._drop_last_form(monkeypatch)
        assert not dickson.rank1_restriction(p)["routes_agree"]

    def test_dropped_form_falsifies_the_default_mod5_facts(self, monkeypatch):
        self._drop_last_form(monkeypatch)
        result = dickson.lemma_facts(5)
        assert result.status == "Falsified"
        assert "restriction routes disagree" in result.evidence["problems"]

    @pytest.mark.parametrize("p", [3, 5])
    def test_route_a_makes_no_upoly_product(self, monkeypatch, p):
        calls = []
        real = UPoly.__mul__
        monkeypatch.setattr(UPoly, "__mul__", lambda a, b: calls.append(b) or real(a, b))
        assert dickson._restricted_product_direct(p) == dickson._restricted_product_closed(p)
        assert calls == []


def _without_x1(product: MPoly) -> MPoly:
    """product with its X^1 terms, and so c_{3,0}, dropped."""
    return MPoly(product.p, product.arity, {k: c for k, c in product.terms.items() if k[3] != 1})


def _doubled_top(product: MPoly) -> MPoly:
    """product with its X^(p^3) coefficient doubled, so it is not monic."""
    top = product.p**3
    terms = {k: 2 * c if k[3] == top else c for k, c in product.terms.items()}
    return MPoly(product.p, product.arity, terms)


class TestBrokenExpansion:
    """An orbit product with the wrong X-support or not monic in X makes the
    full facts Falsified with a named problem, never an exception."""

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("fault", [_without_x1, _doubled_top])
    def test_named_problem_and_exit_1(self, monkeypatch, tmp_path, p, fault):
        broken = fault(dickson.orbit_product(p))
        monkeypatch.setattr(dickson, "orbit_product", lambda q: broken)
        support = [1, p, p**2, p**3]
        if fault is _without_x1:
            support = support[1:]
            problem = f"orbit product has X-support {support}, expected {[1, p, p**2, p**3]}"
        else:
            problem = "orbit product is not monic in X"
        cert = run_statement(dickson.STATEMENT[p], full_dickson=True)
        assert cert.status == "Falsified"
        assert cert.evidence["problems"][0] == problem
        assert cert.evidence["orbit_x_support"] == support
        args = ["verify", dickson.STATEMENT[p], "--full-dickson", "--out", str(tmp_path / "c.json")]
        assert cli.main(args) == 1


_TAYLOR_ROW = fppoly._taylor_row


def _shift_from_p(p, c, i, slot):
    """The packed row of (u + c + 1)^i in place of (u + c)^i for i >= p."""
    return _TAYLOR_ROW.__wrapped__(p, c % (p - 1) + 1 if i >= p else c, i, slot)


def _constant_slot_plus_one(p, c, i, slot):
    """The packed row of (u + c)^i + 1."""
    return _TAYLOR_ROW.__wrapped__(p, c, i, slot) + 1


class TestShearRowMutations:
    """A fault in the packed Taylor-shift rows of MPoly.substitute_linear
    must turn the transvection check Falsified.  Shifting every row with
    c + 1 instead of c is no such fault: it computes the image under
    another transvection, which fixes the invariants too."""

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("row", [_shift_from_p, _constant_slot_plus_one])
    def test_corrupted_row_breaks_invariance(self, monkeypatch, p, row):
        ds = dickson.compute(p)  # the orbit product is expanded before the fault
        monkeypatch.setattr(fppoly, "_taylor_row", row)
        violations = dickson.sl3_invariance_check(ds)
        assert violations
        # lemma_facts judges the same expansion, not one made under the fault
        monkeypatch.setattr(dickson, "compute", lambda q: ds)
        facts = dickson.lemma_facts(p, full=True)
        assert not facts.verified
        assert "transvection invariance failed" in facts.evidence["problems"]
        assert facts.evidence["invariance_violations"] == violations

    @pytest.mark.parametrize("p", [3, 5])
    def test_uniform_shift_is_another_transvection(self, monkeypatch, p):
        ds = dickson.compute(p)
        monkeypatch.setattr(
            fppoly, "_taylor_row", lambda q, c, i, slot: _TAYLOR_ROW(q, c % (q - 1) + 1, i, slot)
        )
        assert dickson.sl3_invariance_check(ds) == []
