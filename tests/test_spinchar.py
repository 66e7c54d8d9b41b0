"""Weight systems, the representation registry, and branching."""

import itertools

import pytest

from chern_cert import spinchar, verify
from chern_cert.spinchar import (
    Character,
    char_equal,
    exterior_square_weights,
    half_spin_weights,
    registry,
    rep_group,
    trivial,
    vector_weights,
)


class TestWeightSystems:
    def test_vector_dims(self):
        assert vector_weights(4).dim == 8
        assert vector_weights(8).dim == 16
        assert dict(vector_weights(1).weights) == {(2,): 1, (-2,): 1}

    def test_exterior_square_dims(self):
        assert exterior_square_weights(4).dim == 24
        assert exterior_square_weights(8).dim == 112
        assert set(exterior_square_weights(2).weights) == {
            (2, 2), (2, -2), (-2, 2), (-2, -2)
        }

    def test_half_spin_dims(self):
        assert half_spin_weights(4, "both").dim == 16
        assert half_spin_weights(8, "+").dim == 128
        assert dict(half_spin_weights(1, "+").weights) == {(1,): 1}

    def test_rank8_registry_dimension_balance(self):
        # 8 + 112 + 128 = 248
        assert (
            trivial(8, 8).dim
            + exterior_square_weights(8).dim
            + half_spin_weights(8, "+").dim
            == 248
        )

    def test_mixed_parity_rejected(self):
        with pytest.raises(ValueError):
            Character(2, {(1, 2): 1})

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            Character(1, {(2,): -1})

    def test_zero_multiplicity_dropped(self):
        c = Character(1, {(2,): 0})
        assert c.dim == 0

    def test_negation_closure(self):
        for n in (4, 8):
            assert vector_weights(n).is_negation_closed()
            assert exterior_square_weights(n).is_negation_closed()
            assert half_spin_weights(n, "both").is_negation_closed()
        # the positive half-spin system is negation closed exactly at even rank
        for n in range(2, 9):
            assert half_spin_weights(n, "+").is_negation_closed() == (n % 2 == 0)


class TestRegistry:
    @pytest.mark.parametrize(
        "name,rank,dim",
        [
            ("rho4", 4, 26),
            ("rho4adj", 4, 52),
            ("rho6", 5, 27),
            ("rho6", 4, 27),
            ("rho7", 6, 56),
            ("rho7", 4, 56),
            ("rho8", 8, 248),
            ("rho8", 4, 248),
        ],
    )
    def test_dimensions(self, name, rank, dim):
        assert registry(name, rank).dim == dim

    def test_unknown_entry(self):
        with pytest.raises(ValueError):
            registry("rho9", 4)
        with pytest.raises(ValueError):
            registry("rho8", 6)

    def test_groups(self):
        assert rep_group("rho4") == "F4"
        assert rep_group("rho4adj") == "F4"
        assert rep_group("rho8") == "E8"
        with pytest.raises(ValueError):
            rep_group("rho5")


class TestBranching:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_vector_branches(self, n):
        assert char_equal(
            vector_weights(n).branch(), trivial(n - 1, 2) + vector_weights(n - 1)
        )

    @pytest.mark.parametrize("n", range(3, 9))
    def test_exterior_square_branches(self, n):
        assert char_equal(
            exterior_square_weights(n).branch(),
            2 * vector_weights(n - 1) + exterior_square_weights(n - 1),
        )

    def test_exterior_square_branches_to_rank_one(self):
        # at the bottom the exterior-square part is the empty weight system
        assert char_equal(
            exterior_square_weights(2).branch(), 2 * vector_weights(1)
        )

    @pytest.mark.parametrize("n", range(2, 9))
    def test_half_spin_branches(self, n):
        delta_lower = half_spin_weights(n - 1, "both")
        assert char_equal(half_spin_weights(n, "+").branch(), delta_lower)
        assert char_equal(half_spin_weights(n, "-").branch(), delta_lower)
        assert char_equal(half_spin_weights(n, "both").branch(), 2 * delta_lower)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_branch_preserves_dimension(self, n):
        for char in (
            vector_weights(n),
            exterior_square_weights(n),
            half_spin_weights(n, "+"),
        ):
            assert char.branch().dim == char.dim

    def test_rho8_chain(self):
        c = registry("rho8", 8)
        for _ in range(4):
            c = c.branch()
        assert char_equal(c, registry("rho8", 4))

    def test_rho6_and_rho7_chains(self):
        assert char_equal(registry("rho6", 5).branch(), registry("rho6", 4))
        assert char_equal(
            registry("rho7", 6).branch().branch(), registry("rho7", 4)
        )

    def test_rho8_rank4_expected_combination(self):
        expected = (
            trivial(4, 32)
            + 8 * vector_weights(4)
            + 8 * half_spin_weights(4, "both")
            + exterior_square_weights(4)
        )
        assert char_equal(registry("rho8", 4), expected)

    def test_branch_below_rank_one_fails(self):
        with pytest.raises(ValueError):
            vector_weights(1).branch()

    def test_char_equal_rank_mismatch(self):
        with pytest.raises(ValueError):
            char_equal(vector_weights(2), vector_weights(3))

    def test_half_spin_signs_disjoint(self):
        assert not char_equal(
            half_spin_weights(4, "+"), half_spin_weights(4, "-")
        )


def assert_rebuilds(c):
    """c equals, and hashes like, the character the validating constructor
    builds from its weights, and holds no weight of multiplicity 0."""
    rebuilt = Character(c.rank, dict(c.weights))
    assert rebuilt == c
    assert hash(rebuilt) == hash(c)
    assert all(m > 0 for m in c.weights.values())


class TestDerivedCharacters:
    """Sums, scalar multiples and branchings skip the public constructor's
    checks; each must still be the character that constructor would build."""

    @pytest.mark.parametrize("key", sorted(spinchar._registry()))
    def test_registry_entries(self, key):
        assert_rebuilds(registry(*key))

    def test_branching_statement_characters(self, monkeypatch):
        seen = []
        real_equal, real_branch = verify.char_equal, Character.branch

        def recording_equal(a, b):
            seen.extend((a, b))
            return real_equal(a, b)

        def recording_branch(self):
            branched = real_branch(self)
            seen.append(branched)
            return branched

        monkeypatch.setattr(verify, "char_equal", recording_equal)
        monkeypatch.setattr(Character, "branch", recording_branch)
        assert verify.check_branching().verified
        assert len(seen) > 100
        for c in seen:
            assert_rebuilds(c)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sums_and_scalar_multiples(self, n):
        basics = [trivial(n, 3), vector_weights(n), half_spin_weights(n, "+"), half_spin_weights(n, "both")]
        if n >= 2:
            basics.append(exterior_square_weights(n))
        for a, b in itertools.product(basics, repeat=2):
            assert_rebuilds(a + b)
        for a in basics:
            for k in (0, 1, 2, 7):
                assert_rebuilds(k * a)
                assert_rebuilds(a * k)
            assert not (0 * a).weights and (0 * a) == Character(n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_equal_characters_from_every_route_hash_equal(self, n):
        # 2 lambda1 by +, by * on either side, by the constructor (weights in
        # reverse order) and, with two trivial lines, by branching from rank
        # n + 1, whose two weights +-2 e_(n+1) restrict to 0
        v = vector_weights(n)
        routes = [v + v, 2 * v, v * 2, Character(n, reversed([(w, 2) for w in v.weights]))]
        for c in routes:
            assert c == routes[0] and hash(c) == hash(routes[0])
        branched = (2 * vector_weights(n + 1)).branch()
        assert branched == routes[0] + trivial(n, 4)
        assert hash(branched) == hash(routes[0] + trivial(n, 4))
        assert hash(v + trivial(n)) != hash(v)
