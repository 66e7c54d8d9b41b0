"""Classification sweeps: the 80-point mod-3 run, the mod-5 machinery, and
the count-class-kernel-versus-character-pipeline cross-checks."""

import functools
import hashlib
import itertools
import math
import operator
from collections import Counter

import pytest

from chern_cert import chern, classify, cli
from chern_cert.certificates import Certificate, canonical_json
from chern_cert.chern import RestrictionPoint, chern_named, restricted_exponents, total_chern
from chern_cert.classify import (
    _pm_form,
    canonical_representatives,
    check_prop32,
    check_prop33,
    check_prop43,
    check_prop44,
    classify_e8_mod5,
    classify_f4_mod3,
    count_table,
    orbit_size,
    sweep_mod5,
)
from chern_cert.fppoly import (
    UPoly,
    chern_of_counts,
    chern_of_exponents,
    in_subring,
    pm_factorization,
    subring_bound,
)
from chern_cert.spinchar import (
    REP_NAMES,
    Character,
    exterior_square_weights,
    half_spin_weights,
    trivial,
    vector_weights,
)

V200 = "1 + 3*t^100 + t^200"  # (1 - t^100)^2 over F_5


@pytest.fixture(scope="module")
def result():
    return classify_f4_mod3()


@pytest.fixture(scope="module")
def chars():
    return {
        "lambda2": exterior_square_weights(8),
        "delta+": half_spin_weights(8, "+"),
    }


@pytest.fixture(scope="module")
def canonical():
    return classify_e8_mod5(mode="canonical")


@pytest.fixture(scope="module")
def mod5_chars():
    return (exterior_square_weights(8), half_spin_weights(8, "+"), vector_weights(8))


@pytest.fixture(scope="module")
def mod5_table(mod5_chars):
    # the canonical view the mod-5 statements read by default
    return count_table(5, mod5_chars, "canonical")


def without_rho8_lambda1_weight(chars):
    """The mod-3 columns with rho8 missing one copy of the lambda1 weight
    (2, 0, 0, 0), whose exponent is alpha_1."""
    *rest, rho8 = chars
    weights = dict(rho8.weights)
    weights[(2, 0, 0, 0)] -= 1
    return (*rest, Character(4, weights))


def dropping_weights(j, *dropped):
    """The mod-3 columns with swept column j (0: lambda1+delta, 1: lambda2)
    missing one copy of each dropped weight."""
    chars = list(classify._mod3_chars())
    weights = dict(chars[j].weights)
    for w in dropped:
        weights[w] -= 1
    chars[j] = Character(4, weights)
    return tuple(chars)


MOD3_CHECKS = {"theorem-1.1": classify_f4_mod3, "prop-3.2": check_prop32, "prop-3.3": check_prop33}
MOD5_CHECKS = {"theorem-4.1": classify_e8_mod5, "prop-4.3": check_prop43, "prop-4.4": check_prop44}

# theorem-1.1's and prop-3.3's non-closure witnesses when lambda2 keeps only
# its positive-sum weights, in point order as the per-point loops gave them
POSITIVE_LAMBDA2_WITNESS_ALPHAS = [
    "0,0,0,1", "0,0,0,2", "0,0,1,0", "0,0,2,0", "0,1,0,0", "0,2,0,0",
    "1,0,0,0", "1,1,1,1", "1,1,1,2", "1,1,2,1", "1,2,1,1", "1,2,2,2",
    "2,0,0,0", "2,1,1,1", "2,1,2,2", "2,2,1,2", "2,2,2,1", "2,2,2,2",
]


def lopsided(n):
    """A rank-n character with front-only, back-only and cross weights of two
    back parts, with multiplicities, that no coordinate transposition keeps."""

    def w(*entries):  # (coordinate, entry) pairs
        out = [0] * n
        for i, e in entries:
            out[i] = e
        return tuple(out)

    last = n - 1
    return Character(
        n,
        {
            w((0, 2)): 1,
            w((last, -2)): 2,
            w((0, 2), (last, 2)): 1,
            w((1, -2), (last, 2)): 3,
            w((0, 4), (last - 1, 2)): 1,
        },
    )


def heavy_front(n):
    """lopsided(n) plus a front-only weight of multiplicity 300 and a cross
    weight of multiplicity 256: counts that need 2-byte lanes, on the front
    side only."""
    front_only, cross = [0] * n, [0] * n
    front_only[0] = cross[0] = cross[n - 1] = 2
    return lopsided(n) + Character(n, {tuple(front_only): 300, tuple(cross): 256})


def assert_counts_point_by_point(p, chars, table):
    """Every nonzero point of the table, in sweep order, against the
    exponent counts of each character restricted at that point alone."""
    n = chars[0].rank
    alphas = [a for a in itertools.product(range(p), repeat=n) if any(a)]
    assert table.points == len(alphas)
    for i, alpha in enumerate(alphas):
        assert table.alpha(i) == alpha
        pt = RestrictionPoint(p, alpha)
        for char, counts in zip(chars, table.counts[table.class_of[i]]):
            exps = Counter(restricted_exponents(char, pt))
            assert counts == tuple(exps[v] for v in range(p)), (alpha, char)


class TestClassifyF4Mod3:
    def test_verified(self, result):
        assert result.verified
        assert result.statement == "theorem-1.1"

    def test_universal_checks(self, result):
        ev = result.evidence
        assert ev["points_total"] == 80
        assert ev["divisible_by_1_minus_t2_all"] is True
        assert ev["lambda2_nontrivial_all"] is True

    def test_consistent_set_is_three_nonzero_coordinates(self, result):
        # independent combinatorial description of the joint-consistent set
        oracle = sorted(
            ",".join(map(str, a))
            for a in itertools.product(range(3), repeat=4)
            if sum(1 for x in a if x) == 3
        )
        assert sorted(result.evidence["consistent_alphas"]) == oracle
        assert result.evidence["consistent_count"] == 32

    def test_witness_membership(self, result):
        assert "1,1,1,0" in result.evidence["consistent_alphas"]
        assert "1,0,0,0" not in result.evidence["consistent_alphas"]

    def test_emitted_polynomials(self, result):
        assert result.evidence["polynomials"] == {
            "rho4": "1 + 2*t^18",
            "rho6": "1 + 2*t^18",
            "rho7": "1 + t^18 + t^36",
            "rho8": "1 + 2*t^162",
            "rho4adj": "1 + t^18 + t^36",
        }

    def test_proof_route_identities(self, result):
        assert result.evidence["rho4adj_product_identity"] is True
        assert result.evidence["rho8_alternate_reading_agrees"] is True

    def test_rho8_missing_a_weight_is_falsified(self, monkeypatch):
        # the fault lands after the true table is memoized; the memo is keyed
        # by the characters themselves, so it cannot hand back the old table
        assert classify_f4_mod3().verified
        lossy = without_rho8_lambda1_weight(classify._mod3_chars())
        monkeypatch.setattr(classify, "_mod3_chars", lambda: lossy)
        result = classify_f4_mod3()
        assert not result.verified
        assert result.evidence["polynomials"]["rho8"] != "1 + 2*t^162"
        assert result.evidence["rho8_alternate_reading_agrees"] is False

    def test_memo_keeps_a_changed_character_apart(self):
        chars = classify._mod3_chars()
        true = count_table(3, chars)
        faulted = count_table(3, without_rho8_lambda1_weight(chars))
        assert count_table(3, chars) is true
        i = int("1110", 3) - 1  # the consistent point 1,1,1,0 in sweep order
        assert true.alpha(i) == faulted.alpha(i) == (1, 1, 1, 0)
        rho8 = lambda table: classify._class_poly(3, table.counts[table.class_of[i]][-1]).render()
        assert rho8(true) == "1 + 2*t^162"
        assert rho8(faulted) != "1 + 2*t^162"

    def test_one_expansion_per_class_and_character(self, monkeypatch):
        calls = []
        real = classify.chern_of_counts

        def counted(p, counts):
            counts = list(counts)
            calls.append((p, tuple(m for _, m in counts)))
            return real(p, counts)

        def forbidden(*args):
            raise AssertionError("theorem-1.1 must not work point by point")

        monkeypatch.setattr(classify, "_TABLES", {})
        monkeypatch.setattr(classify, "chern_of_counts", counted)
        classify._class_poly.cache_clear()
        # every per-point class (chern_named, total_chern) expands here
        monkeypatch.setattr(chern, "chern_of_exponents", forbidden)
        result = classify_f4_mod3()
        assert result.verified
        # p = 3 expands each swept class from its counts, its one pair factor
        # (1 + t)^m[1] (1 - t)^m[2] from (0, m[1], m[2]), and every column of
        # the consistent class: 2 + 2 + 5 distinct counts
        table = count_table(3, classify._mod3_chars())
        swept = {m for cls in table.counts for m in cls[:2]}
        pairs = {(0, m[1], m[2]) for m in swept}
        alphas = result.evidence["consistent_alphas"]
        ids = {table.class_of[int(a.replace(",", ""), 3) - 1] for a in alphas}
        consistent = {m for k in ids for m in table.counts[k]}
        assert (len(swept), len(pairs), len(consistent - swept)) == (2, 2, 5)
        assert sorted(calls) == sorted((3, m) for m in swept | pairs | consistent)
        # mod 5 expands the 66 pair factors (v, m[v], m[-v]) of lambda2 and
        # delta+, 65 distinct counts kept at v and -v only (P_1(0, 0) and
        # P_2(0, 0) are both the empty counts), and one rho8 class per
        # distinct sum of their counts, 13 for the 53 classes; no lambda2 or
        # delta+ class is multiplied out, and lambda1 enters only through its
        # counts
        calls.clear()
        assert classify_e8_mod5("full").verified
        table = count_table(5, classify._mod5_chars(), "full")
        columns = [(cls[j], v) for cls in table.counts for j in (0, 1) for v in (1, 2)]
        triples = {(v, m[v], m[-v]) for m, v in columns}
        pairs = {tuple(c if u in (v, 5 - v) else 0 for u, c in enumerate(m)) for m, v in columns}
        sums = {tuple(map(sum, zip(*cls[:2]))) for cls in table.counts}
        assert (len(triples), len(pairs), len(sums), len(table.counts)) == (66, 65, 13, 53)
        assert sorted(calls) == sorted((5, m) for m in pairs | sums)


class TestMod3LostWeight:
    """A swept column that loses a weight is no longer negation-closed or no
    longer of size 24; the per-class closure check must see it, although
    the smaller consistent sets alone still look verified."""

    @pytest.mark.parametrize(
        "j, dropped, falsified, consistent",
        [
            (0, [(2, 0, 0, 0)], {"theorem-1.1", "prop-3.2", "prop-3.3"}, (8, 14, 8)),
            (1, [(2, 2, 0, 0)], {"theorem-1.1", "prop-3.3"}, (8, 56, 8)),
            (1, [(2, 2, 0, 0), (-2, -2, 0, 0)], {"theorem-1.1", "prop-3.3"}, (8, 56, 8)),
        ],
    )
    def test_lost_weight_is_falsified(self, monkeypatch, j, dropped, falsified, consistent):
        lossy = dropping_weights(j, *dropped)
        monkeypatch.setattr(classify, "_mod3_chars", lambda: lossy)
        for (statement, check), count in zip(MOD3_CHECKS.items(), consistent):
            result = check()
            ev = result.evidence
            assert ev["consistent_count"] == count, statement
            assert result.verified == (statement not in falsified), statement
            if statement not in falsified:
                continue
            closure = [w for w in ev["witnesses"] if w["check"] == "closure"]
            assert closure, statement
            # the first witness, recomputed point by point under the same fault
            alpha = tuple(int(a) for a in closure[0]["alpha"].split(","))
            exps = Counter(restricted_exponents(lossy[j], RestrictionPoint(3, alpha)))
            assert exps[1] != exps[2] or sum(exps.values()) != 24

    def test_witness_order_survives_the_per_class_pass(self, monkeypatch):
        lambda2 = classify._mod3_chars()[1]
        positive = Character(4, {w: m for w, m in lambda2.weights.items() if sum(w) > 0})
        chars = list(classify._mod3_chars())
        chars[1] = positive
        monkeypatch.setattr(classify, "_mod3_chars", lambda: tuple(chars))
        for check, label in ((classify_f4_mod3, "lambda2 divisibility"), (check_prop33, "divisibility")):
            result = check()
            assert not result.verified
            others = [w for w in result.evidence["witnesses"] if w["check"] != "closure"]
            assert others == [{"alpha": a, "check": label} for a in POSITIVE_LAMBDA2_WITNESS_ALPHAS]


class TestSubringBoundShift:
    def test_shifted_bound_empties_the_consistent_sets(self, monkeypatch):
        # fresh tables, so no per-class pass memoized under the true bound
        monkeypatch.setattr(classify, "_TABLES", {})
        monkeypatch.setattr(classify, "subring_bound", lambda p: p**3 - p**2 + 1)
        for check in MOD3_CHECKS.values():
            result = check()
            assert not result.verified
            assert result.evidence["consistent_count"] == 0
        for mode in ("canonical", "full"):
            result = classify_e8_mod5(mode)
            assert not result.verified
            assert result.evidence["s5_count"] == 0
            # prop-4.3 and prop-4.4 do not read the bound
            assert check_prop43(mode).verified and check_prop44(mode).verified


class TestStaleMemo:
    def test_bound_shifted_after_a_run_reaches_every_statement(self, monkeypatch):
        # the per-class passes are memoized per table and subring exponent,
        # so a bound changed after the true tables were built still counts
        for check in (*MOD3_CHECKS.values(), lambda: classify_e8_mod5("canonical")):
            assert check().verified
        monkeypatch.setattr(classify, "subring_bound", lambda p: p**3 - p**2 + 1)
        for check in (check_prop32, check_prop33):
            ev = check().evidence
            assert ev["subring_exponent"] == 19
            assert ev["consistent_count"] == 0
            assert ev["problems"][-1] == "consistent set is empty"
        result = classify_e8_mod5("canonical")
        assert not result.verified
        assert result.evidence["subring_exponent"] == 101
        assert result.evidence["s5_count"] == 0
        assert result.evidence["problems"] == ["consistent set is empty"]

    def test_expected_value_changed_after_a_run_reaches_every_statement(self, monkeypatch):
        # the class sets are memoized on the expected values themselves, so
        # an expected value changed after the true judgement is judged afresh
        for check in MOD3_CHECKS.values():
            assert check().verified
        for check in (classify_e8_mod5, check_prop43, check_prop44):
            assert check("canonical").verified
        one_plus = lambda p, d: UPoly.one(p) + UPoly.monomial(p, 1, d)
        monkeypatch.setattr(classify, "_consistent_value", one_plus)
        problem = {
            "theorem-1.1": "consistent value",
            "prop-3.2": "value",
            "prop-3.3": "value",
            "theorem-4.1": "a consistent point has an unexpected value",
        }
        checks = {**MOD3_CHECKS, "theorem-4.1": lambda: classify_e8_mod5("canonical")}
        for statement, check in checks.items():
            result = check()
            assert not result.verified, statement
            assert problem[statement] in result.evidence["problems"], statement
        for check in (check_prop32, check_prop33):
            assert check().evidence["value_on_consistent_set"] == "1 + t^18"


class TestExpansionRouteFaults:
    """Every class polynomial comes from _class_poly, so a fault in one of
    its routes (the rho8 sums, the pair factors, the mod-3 classes) reaches
    exactly the statements that read that route, in both mod-5 modes."""

    @staticmethod
    def falsified(monkeypatch, hit) -> dict:
        """The problems of each falsified statement when _class_poly adds t
        to every class whose counts m hit(p, m) accepts, judged afresh."""
        real = classify._class_poly

        def faulted(p, m):
            return real(p, m) + UPoly.monomial(p, 1, 1) if hit(p, m) else real(p, m)

        monkeypatch.setattr(classify, "_class_poly", faulted)
        fresh = functools.cache(classify._class_sets.__wrapped__)
        monkeypatch.setattr(classify, "_class_sets", fresh)
        results = {name: check() for name, check in MOD3_CHECKS.items()}
        for mode in ("canonical", "full"):
            for name, check in MOD5_CHECKS.items():
                results[name, mode] = check(mode)
        return {key: r.evidence["problems"] for key, r in results.items() if not r.verified}

    def test_rho8_sums(self, monkeypatch):
        found = self.falsified(monkeypatch, lambda p, m: p == 5 and sum(m) == 240)
        assert found == {
            ("theorem-4.1", mode): ["consistent set is empty"] for mode in ("canonical", "full")
        }

    def test_pair_factors(self, monkeypatch):
        found = self.falsified(monkeypatch, lambda p, m: p == 5 and sum(map(bool, m)) <= 2)
        assert set(found) == set(itertools.product(MOD5_CHECKS, ("canonical", "full")))
        for problems in found.values():
            assert "plus/minus product form fails" in problems

    def test_mod3_classes(self, monkeypatch):
        found = self.falsified(monkeypatch, lambda p, m: p == 3 and sum(m) == 24)
        assert set(found) == set(MOD3_CHECKS)
        assert found["theorem-1.1"][:3] == [
            "lambda1+delta divisibility",
            "lambda2 divisibility",
            "joint-consistent set is empty",
        ]
        assert found["prop-3.2"] == found["prop-3.3"] == ["divisibility", "consistent set is empty"]


def lambda2_mod5(keep):
    """The mod-5 columns with lambda2 cut to the weights keep accepts."""
    lambda2, *rest = classify._mod5_chars()
    return (Character(8, {w: m for w, m in lambda2.weights.items() if keep(w)}), *rest)


def payload_json(result):
    return canonical_json(Certificate.from_result(result).payload())


class TestMod5ColumnFaults:
    """Each mod-5 statement reads only the columns it is about: a fault in
    lambda2 falsifies theorem-4.1 and prop-4.3 with witnesses of its own
    column and leaves prop-4.4, the delta+ statement, untouched."""

    def test_lambda2_missing_one_weight(self, monkeypatch):
        true44 = payload_json(check_prop44("full"))
        lossy = lambda2_mod5(lambda w: w != (2, 2) + (0,) * 6)
        monkeypatch.setattr(classify, "_mod5_chars", lambda: lossy)
        for check in (classify_e8_mod5, check_prop43):
            result = check("full")
            assert not result.verified
            witnesses = result.evidence["witnesses"]
            assert list(witnesses) == ["fail_closure", "fail_pm"]
            assert result.evidence["problems"] == [
                "negation closure fails",
                "plus/minus product form fails",
            ]
            # the first witness of each, recomputed point by point
            alpha = tuple(int(a) for a in witnesses["fail_closure"][0].split(","))
            exps = Counter(restricted_exponents(lossy[0], RestrictionPoint(5, alpha)))
            assert any(exps[v] != exps[-v % 5] for v in range(5)) or sum(exps.values()) != 112
            alpha = tuple(int(a) for a in witnesses["fail_pm"][0].split(","))
            exps = restricted_exponents(lossy[0], RestrictionPoint(5, alpha))
            assert pm_factorization(chern_of_exponents(5, exps)) is None
        assert payload_json(check_prop44("full")) == true44

    @pytest.mark.parametrize("mode", ["canonical", "full"])
    def test_lambda2_missing_its_sum_four_weights(self, monkeypatch, mode):
        # closed under negation and S8, so only the size 112 can tell
        lossy = lambda2_mod5(lambda w: abs(sum(w)) != 4)
        assert sum(lossy[0].weights.values()) == 56
        monkeypatch.setattr(classify, "_mod5_chars", lambda: lossy)
        result = check_prop43(mode)
        assert not result.verified
        witnesses = result.evidence["witnesses"]
        assert witnesses["fail_closure"]
        assert "fail_pm" not in witnesses
        assert result.evidence["problems"][0] == "negation closure fails"
        assert check_prop44(mode).verified
        theorem = classify_e8_mod5(mode)
        assert not theorem.verified
        assert theorem.evidence["witnesses"]["fail_closure"] == witnesses["fail_closure"]
        assert theorem.evidence["problems"][-1] == "consistent set is empty"


class TestProp3Checks:
    def test_prop32(self):
        result = check_prop32()
        assert result.verified
        assert result.evidence["consistent_count"] == 56
        assert result.evidence["value_on_consistent_set"] == "1 + 2*t^18"

    def test_prop33_uses_joint_filter(self):
        result = check_prop33()
        assert result.verified
        assert result.evidence["joint_filter"] is True
        assert result.evidence["consistent_count"] == 32

    def test_divisibility_sweeps_mod3(self):
        one_minus_t2 = UPoly(3, (1, 0, 2))
        table = count_table(3, classify._mod3_chars()[:2])
        assert table.points == 80
        for cls in table.counts:
            for m in cls:
                assert classify._class_poly(3, m).divexact(one_minus_t2) is not None, m

    def test_count_table_and_grid_are_immutable(self):
        chars = classify._mod3_chars()[:2]
        table = count_table(3, chars)
        rebuilt = classify._build_table(3, 4, chars)
        # equal only to itself: the memoized class sets are keyed by table
        assert table != rebuilt and table == table
        assert bytes(rebuilt.class_of) == bytes(table.class_of)
        with pytest.raises(AttributeError):
            table.mode = "canonical"
        with pytest.raises(AttributeError):
            classify._grid(3, 4, chars).width = 1


class TestTunedPathAgainstCharacterPipeline:
    """The count-class kernel must agree with the plain character pipeline;
    canonical representatives cover every permutation class, which the
    equivariance property extends to all points."""

    def test_all_canonical_representatives(self, chars, mod5_table):
        reps = canonical_representatives()
        assert [mod5_table.alpha(i) for i in range(mod5_table.points)] == reps
        for i, alpha in enumerate(reps):
            pt = RestrictionPoint(5, alpha)
            m2, mD, _ = mod5_table.counts[mod5_table.class_of[i]]
            f2, fD = classify._class_poly(5, m2), classify._class_poly(5, mD)
            g2 = total_chern(chars["lambda2"], pt)
            gD = total_chern(chars["delta+"], pt)
            assert f2 == g2, alpha
            assert fD == gD, alpha
            assert _pm_form(m2) == pm_factorization(g2), alpha
            assert _pm_form(mD) == pm_factorization(gD), alpha

    def test_every_point_mod3_and_orbit_weights(self):
        # the table theorem-1.1 reads: the swept characters, then the registry
        columns = classify._mod3_chars()
        full = count_table(3, columns)
        assert sorted(full.weights) == [24, 24, 32]
        alphas = [a for a in itertools.product(range(3), repeat=4) if any(a)]
        assert [full.alpha(i) for i in range(full.points)] == alphas
        chars = (
            vector_weights(4) + half_spin_weights(4, "both"),
            exterior_square_weights(4),
        )
        for i, alpha in enumerate(alphas):
            pt = RestrictionPoint(3, alpha)
            got = tuple(classify._class_poly(3, m) for m in full.counts[full.class_of[i]])
            assert got[:2] == tuple(total_chern(c, pt) for c in chars), alpha
            assert got[2:] == tuple(chern_named(name, pt) for name in REP_NAMES), alpha
        # canonical mode weights each class by orbit sizes to the same totals
        canonical = count_table(3, columns, "canonical")
        assert canonical.points == len(canonical_representatives(3, 4))
        assert dict(zip(canonical.counts, canonical.weights)) == dict(
            zip(full.counts, full.weights)
        )

    def test_exponent_count_totals(self, mod5_table):
        assert len(mod5_table.counts) == 53
        for m2, mD, _ in mod5_table.counts:
            assert sum(m2) == 112
            assert sum(mD) == 128


class TestSplitGrid:
    """The full split grid against canonical mode and against a plain
    point-by-point sweep, and the structural checks on its input."""

    def test_full_and_canonical_class_weights_agree(self, mod5_chars, mod5_table):
        full = count_table(5, mod5_chars)
        assert full.points == 5**8 - 1
        assert len(full.counts) == 53
        assert dict(zip(full.counts, full.weights)) == dict(
            zip(mod5_table.counts, mod5_table.weights)
        )

    def test_first_s5_points(self, chars):
        # c(lambda2) c(delta+) is the class of the joint exponent list; it
        # depends only on that multiset, so equal sorted lists share one
        # expansion
        d = subring_bound(5)
        consistent: dict[tuple, bool] = {}
        expected = []
        for alpha in itertools.islice(itertools.product(range(5), repeat=8), 1, 2000):
            pt = RestrictionPoint(5, alpha)
            exps = restricted_exponents(chars["lambda2"], pt) + restricted_exponents(
                chars["delta+"], pt
            )
            key = tuple(sorted(exps))
            if key not in consistent:
                consistent[key] = in_subring(chern_of_exponents(5, exps), d)
            if consistent[key]:
                expected.append(",".join(map(str, alpha)))
                if len(expected) == 32:
                    break
        assert len(expected) == 32
        assert expected[-1] == "0,0,0,2,3,3,3,3"
        assert classify_e8_mod5("full").evidence["s5_witnesses_first"] == expected

    def test_canonical_mode_rejects_asymmetric_character(self):
        lopsided = Character(3, {(2, 0, 0): 1, (-2, 0, 0): 1})
        # full mode visits every point and needs no symmetry
        full = count_table(3, (lopsided,))
        assert full.weighted_points == 26
        # the orbit weights still sum to the point total, but not class by
        # class: the weights differ from the full table's
        canonical = count_table(3, (lopsided,), "canonical")
        assert canonical.counts is full.counts
        assert canonical.weighted_points == 26
        assert canonical.weights != full.weights

    def test_split_that_loses_a_weight_is_rejected(self, monkeypatch):
        class Dropping(Character):
            __slots__ = ()

            def sorted_weights(self):
                return super().sorted_weights()[1:]

        # Dropping compares equal to vector_weights(4), so a memoized table
        # of that character would be handed back without a split
        monkeypatch.setattr(classify, "_TABLES", {})
        dropping = Dropping(4, vector_weights(4).weights)
        for mode in ("full", "canonical"):
            with pytest.raises(ValueError, match="split"):
                count_table(5, (dropping,), mode)


class TestDistinctFrontRows:
    """Full mode fills one cell per pair of front and back signatures and
    reads every point's class back from those cells; canonical mode is a
    view of the full table and fills none."""

    @pytest.mark.parametrize(
        "p, n, heavy",
        [
            pytest.param(3, 4, False, id="3-4"),
            pytest.param(3, 5, False, id="3-5"),
            pytest.param(5, 4, False, id="5-4"),
            # odd ranks: the back half is one coordinate longer than the
            # front, and heavy_front needs 2-byte lanes
            pytest.param(7, 3, True, id="7-3-heavy"),
            pytest.param(5, 5, True, id="5-5-heavy"),
        ],
    )
    def test_every_point_against_restricted_exponents(self, p, n, heavy):
        chars = (vector_weights(n), lopsided(n), exterior_square_weights(n), half_spin_weights(n, "+"))
        chars += (heavy_front(n),) if heavy else ()
        table = count_table(p, chars)
        assert_counts_point_by_point(p, chars, table)
        assert all(w > 0 for w in table.weights)
        assert sum(table.weights) == p**n - 1
        assert Counter(table.class_of.tolist()) == dict(enumerate(table.weights))

    def test_one_cell_fill_per_signature_pair(self, monkeypatch):
        filled = []
        real = classify._cell

        def counted(grid, f, b):
            filled.append((f, b))
            return real(grid, f, b)

        monkeypatch.setattr(classify, "_TABLES", {})
        monkeypatch.setattr(classify, "_cell", counted)
        cases = [
            (5, classify._mod5_chars(), "full", 400),  # 20 front by 20 back signatures
            (5, classify._mod5_chars(), "canonical", 0),  # a view of the full table
            (3, classify._mod3_chars(), "full", 9),  # 3 by 3
            (3, classify._mod3_chars(), "canonical", 0),
        ]
        for p, chars, mode, cells in cases:
            filled.clear()
            count_table(p, chars, mode)
            assert len(filled) == len(set(filled)) == cells, (p, mode)

    def test_prime_beyond_one_byte_exponents_is_rejected(self):
        with pytest.raises(ValueError, match="one byte"):
            count_table(257, (vector_weights(1),))

    def test_counts_wider_than_a_byte(self):
        # a count of 300 needs a slot wider than a byte; a carry out of any
        # slot would show in the next value's count or the next character's
        heavy = trivial(3, 300) + 100 * vector_weights(3) + half_spin_weights(3, "both")
        chars = (vector_weights(3), heavy, exterior_square_weights(3))
        assert_counts_point_by_point(5, chars, count_table(5, chars))

    def test_back_to_back_builds_of_one_shape(self, monkeypatch):
        # two character tuples of one p and rank, built one after the other
        # with the table memo cleared and the first table dropped: a cache
        # keyed by object identity that outlived the first build would hand
        # its histograms to the second
        monkeypatch.setattr(classify, "_TABLES", {})
        for chars in (
            (vector_weights(4), lopsided(4), half_spin_weights(4, "+")),
            (exterior_square_weights(4), heavy_front(4), half_spin_weights(4, "-")),
        ):
            classify._TABLES.clear()
            assert_counts_point_by_point(5, chars, count_table(5, chars))

    def test_more_than_256_classes_widen_the_class_ids(self):
        # each coordinate's weight has its own multiplicity, so the counts
        # tell every point apart: 624 classes, numbered in point order
        distinct = Character(
            4, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 6, (0, 0, 2, 0): 36, (0, 0, 0, 2): 216}
        )
        table = count_table(5, (distinct,))
        assert table.points == len(table.weights) == 624
        assert table.class_of.itemsize > 1
        assert table.class_of.tolist() == list(range(624))
        # first hands back point indices: 0,0,1,1 is point 5, 4,4,4,4 point 623
        assert table.first({623, 5}, 3) == [5, 623]
        assert [classify._point(table, i) for i in (5, 623)] == ["0,0,1,1", "4,4,4,4"]

    def test_lambda2_missing_a_weight_is_falsified(self, monkeypatch):
        lambda2, *rest = classify._mod5_chars()
        weights = dict(lambda2.weights)
        del weights[(0,) * 6 + (2, 2)]
        lossy = (Character(8, weights), *rest)
        monkeypatch.setattr(classify, "_mod5_chars", lambda: lossy)
        result = classify_e8_mod5("full")
        assert not result.verified
        witnesses = result.evidence["witnesses"]["fail_closure"]
        assert witnesses
        # the first witness, recomputed point by point under the same fault
        alpha = tuple(int(a) for a in witnesses[0].split(","))
        exps = Counter(restricted_exponents(lossy[0], RestrictionPoint(5, alpha)))
        assert exps != Counter({-v % 5: m for v, m in exps.items()})
        # the fault breaks coordinate-permutation symmetry, so the orbit
        # weights no longer match the full sweep's class weights
        canonical = classify_e8_mod5("canonical")
        assert not canonical.verified
        problems = canonical.evidence["problems"]
        assert problems[0] == "orbit-weighted class weights differ from the full sweep's"
        assert "negation closure fails" in problems

    def test_symmetry_fault_gives_a_falsified_certificate(self, monkeypatch, tmp_path):
        lossy = lambda2_mod5(lambda w: w != (0,) * 6 + (2, 2))
        monkeypatch.setattr(classify, "_mod5_chars", lambda: lossy)
        out = tmp_path / "theorem-4.1.json"
        # canonical is the default mode
        assert cli.main(["verify", "theorem-4.1", "--out", str(out)]) == 1
        cert = Certificate.load(out)
        assert cert.status == "Falsified"
        assert cert.evidence["problems"][0] == (
            "orbit-weighted class weights differ from the full sweep's"
        )


class TestSweepMod5:
    def test_verified(self, canonical):
        assert canonical.verified
        assert canonical.statement == "theorem-4.1"

    def test_point_accounting(self, canonical):
        ev = canonical.evidence
        assert ev["points_scanned"] == 494
        assert ev["points_weighted"] == 5**8 - 1

    def test_universal_form_checks(self, canonical):
        ev = canonical.evidence
        assert ev["pm_form_all"] is True
        assert ev["lambda2_nontrivial_all"] is True
        assert ev["even_exponent_closure_all"] is True

    def test_consistent_set_values(self, canonical):
        # over the whole point space only the squared value occurs
        ev = canonical.evidence
        assert ev["s5_count"] == 48384
        assert ev["s5_values"] == [V200]
        assert ev["s5_value_occurrences"] == {V200: 48384}
        assert ev["c100_coefficients"] == {V200: 3}

    def test_orbit_sizes_partition_the_space(self):
        total = sum(orbit_size(a) for a in canonical_representatives())
        assert total == 5**8 - 1

    def test_prop43_and_prop44(self):
        p43 = check_prop43(mode="canonical")
        assert p43.verified
        assert p43.evidence["pm_form_all"] is True
        assert p43.evidence["nontrivial_all"] is True
        p44 = check_prop44(mode="canonical")
        assert p44.verified
        assert p44.evidence["pm_form_all"] is True

    def test_divisibility_sweep_mod5_both_characters(self, mod5_table):
        # lambda1+delta mod 5 is a product of 1 - t^2 and 1 + t^2 factors, at
        # least one of them, at every point (lambda2 is pinned by prop-4.3)
        lambda1_delta = vector_weights(8) + half_spin_weights(8, "both")
        table = count_table(5, (lambda1_delta,), "canonical")
        assert table.weighted_points == 5**8 - 1
        for (m,) in table.counts:
            form = _pm_form(m)
            assert form is not None, m
            assert sum(form) > 0, m
        for m2, _, _ in mod5_table.counts:
            assert sum(_pm_form(m2)) > 0

    def test_class_expansion_and_predicates_skip_validation(self, monkeypatch):
        # the pair factors, rho8 expansions and per-class predicates build
        # every polynomial from reduced coefficients; only the two consistent
        # values and their pieces go through the validating constructor.  The
        # predicates expand pair factors (counts at one pair {v, -v} only)
        # and rho8 sums (240 weights), never a lambda2, delta+ or lambda1
        # class
        monkeypatch.setattr(classify, "_TABLES", {})
        table = count_table(5, classify._mod5_chars(), "full")
        calls = []
        real = UPoly.__init__

        def counted(self, p, coeffs=()):
            calls.append(p)
            real(self, p, coeffs)

        monkeypatch.setattr(UPoly, "__init__", counted)
        expanded = []
        class_poly = classify._class_poly
        monkeypatch.setattr(
            classify, "_class_poly", lambda p, m: expanded.append(m) or class_poly(p, m)
        )
        assert classify_e8_mod5("full").verified
        for m in expanded:
            pairs = {min(v, 5 - v) for v in range(1, 5) if m[v]}
            assert sum(m) == 240 or (m[0] == 0 and len(pairs) <= 1), m
        assert any(sum(m) == 240 for m in expanded)
        assert len(calls) <= 8

    @pytest.mark.parametrize("mode", ["canonical", "full"])
    def test_factorwise_verdicts_match_the_multiplied_out_columns(self, monkeypatch, mode):
        def fallback(poly):
            raise AssertionError(f"_pm_form fell back on {poly!r}")

        table = count_table(5, classify._mod5_chars(), mode)
        assert len(table.counts) == 53
        monkeypatch.setattr(classify, "pm_factorization", fallback)
        classes = range(len(table.counts))
        columns = [classify._reading(table, (j,), classes) for j in (0, 1)]
        rho8 = classify._reading(table, (0, 1), classes)
        for k, counts in enumerate(table.counts):
            for j in (0, 1):
                m, column = counts[j], columns[j][k]
                assert column == functools.reduce(operator.mul, classify._factors(m))
                assert column == chern_of_counts(5, enumerate(m))
                assert _pm_form(m) == pm_factorization(column) is not None, (k, j)
            assert rho8[k] == columns[0][k] * columns[1][k], k

    def test_pm_form_on_counts_that_are_not_negation_closed(self):
        # a factor that disagrees with its prediction sends the multiplied-out
        # class to the greedy division, whichever pair {v, -v} it is
        for m in itertools.product(range(3), repeat=4):
            counts = (0, *m)
            poly = chern_of_counts(5, enumerate(counts))
            assert _pm_form(counts) == pm_factorization(poly), counts

    def test_pm_fallback_is_dead_on_true_data(self, monkeypatch):
        # on true data every predicted +-t^2 form matches its expansion, so
        # the greedy factorization is never asked
        def fallback(poly):
            raise AssertionError(f"_pm_form fell back on {poly!r}")

        monkeypatch.setattr(classify, "_TABLES", {})
        monkeypatch.setattr(classify, "pm_factorization", fallback)
        for mode in ("canonical", "full"):
            assert classify_e8_mod5(mode).verified
            assert check_prop43(mode).verified
            assert check_prop44(mode).verified

    def test_delta_minus_for_delta_plus_cannot_be_caught(self, monkeypatch):
        # the sign change x8 -> -x8 swaps delta+ and delta-, and fixes lambda1,
        # lambda2 and (F_5)^8, so the swept counts are the same up to a
        # relabelling of the points
        def flip(char):
            return Character(8, {w[:-1] + (-w[-1],): m for w, m in char.weights.items()})

        lambda2, delta_plus, lambda1 = classify._mod5_chars()
        delta_minus = half_spin_weights(8, "-")
        assert flip(delta_plus) == delta_minus
        assert flip(lambda2) == lambda2 and flip(lambda1) == lambda1

        checks = (classify_e8_mod5, check_prop43, check_prop44)
        modes = ("canonical", "full")
        true = {(c, m): Certificate.from_result(c(m)).payload() for c in checks for m in modes}
        monkeypatch.setattr(classify, "_mod5_chars", lambda: (lambda2, delta_minus, lambda1))
        swapped = {(c, m): Certificate.from_result(c(m)).payload() for c in checks for m in modes}
        for key in true:
            assert swapped[key]["status"] == "Verified"
            if key == (classify_e8_mod5, "canonical"):
                # canonical mode sweeps weakly increasing points only, which
                # the sign change does not keep
                for payload in (true[key], swapped[key]):
                    del payload["evidence"]["s5_witnesses_first"]
            assert canonical_json(swapped[key]) == canonical_json(true[key])

    def test_class_sets_judged_once_for_both_modes(self, monkeypatch):
        # the canonical view shares the full table's classes, so the mod-5
        # statements of both modes read one judgement of them, and the three
        # mod-3 statements another: the memo is keyed on values, so every
        # statement of a prime asks for the same judgement
        calls = []
        real = classify._class_sets.__wrapped__

        @functools.cache
        def counted(table, spec, d, expected):
            calls.append((table.p, table.mode))
            return real(table, spec, d, expected)

        monkeypatch.setattr(classify, "_TABLES", {})
        monkeypatch.setattr(classify, "_class_sets", counted)
        for check in MOD3_CHECKS.values():
            assert check().verified
        for mode in ("canonical", "full"):
            for check in (classify_e8_mod5, check_prop43, check_prop44):
                assert check(mode).verified
        assert calls == [(3, "full"), (5, "full")]

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            sweep_mod5(mode="bogus")

    def test_invalid_character_rejected(self):
        with pytest.raises(ValueError, match="one rank"):
            count_table(5, (), "canonical")
        with pytest.raises(ValueError, match="one rank"):
            count_table(3, (vector_weights(4), vector_weights(3)))


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("n", [4, 8])
def test_canonical_point_count_closed_form(p, n):
    # weakly increasing vectors are multisets of n digits mod p; the zero
    # vector is the one dropped
    assert math.comb(p + n - 1, n) - 1 == len(canonical_representatives(p, n))


def test_canonical_point_count_constant():
    assert classify.CANONICAL_POINTS_5 == len(canonical_representatives())


# sha256 of bytes(class_of) + repr((counts, weights)): each table's class
# numbering by first point, count vectors and weights, as built before the
# kernel read its histograms as byte planes
TABLE_DIGESTS = {
    (3, "full"): "dd490ecf467f209bd443d9c0114db6260c0024163032457547e2caf5e9e54cd7",
    (3, "canonical"): "1fd51a644bbbaadeec4ac75dd3a27aa8206fc139cb597c692e45035ac1e6541a",
    (5, "full"): "f66c9213e1ddea416546466b9a12c244d1a16a3a86d5b7d725c53900e0f1e8cd",
    (5, "canonical"): "c0b540ce6ca8f4e6be9d85b69ff2d49309ca388a9b2e1564bc8e40b2fe202efe",
}


@pytest.mark.parametrize("p, mode", sorted(TABLE_DIGESTS))
def test_table_digest(monkeypatch, p, mode):
    monkeypatch.setattr(classify, "_TABLES", {})
    chars = classify._mod3_chars() if p == 3 else classify._mod5_chars()
    table = count_table(p, chars, mode)
    data = bytes(table.class_of) + repr((table.counts, table.weights)).encode()
    assert hashlib.sha256(data).hexdigest() == TABLE_DIGESTS[p, mode]
