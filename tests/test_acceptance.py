"""Acceptance gate: every criterion at its stated tolerance, one pass/fail
line each (run with -s to see the lines for passing criteria)."""

import contextlib
import itertools
import random
import time

from chern_cert.certificates import Certificate
from chern_cert.chern import RestrictionPoint, total_chern
from chern_cert.classify import classify_e8_mod5, classify_f4_mod3
from chern_cert.cli import main
from chern_cert.dickson import lemma_facts, rank1_restriction
from chern_cert.fppoly import UPoly, chern_of_exponents, pair_factor
from chern_cert.spinchar import (
    char_equal,
    exterior_square_weights,
    half_spin_weights,
    registry,
    trivial,
    vector_weights,
)
from chern_cert.verify import check_branching


@contextlib.contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {description}: FAIL", flush=True)
        raise
    print(
        f"[criterion {number}] {description}: PASS"
        f" ({time.perf_counter() - start:.2f}s)",
        flush=True,
    )


def test_criterion_1_branching_suite():
    with criterion(1, "branching identities, ranks 2..8, exact multisets"):
        start = time.perf_counter()
        for n in range(2, 9):
            assert char_equal(
                vector_weights(n).branch(),
                trivial(n - 1, 2) + vector_weights(n - 1),
            )
            target = 2 * vector_weights(n - 1)
            if n - 1 >= 2:
                target = target + exterior_square_weights(n - 1)
            assert char_equal(exterior_square_weights(n).branch(), target)
            lower = half_spin_weights(n - 1, "both")
            assert char_equal(half_spin_weights(n, "+").branch(), lower)
            assert char_equal(half_spin_weights(n, "-").branch(), lower)
            assert char_equal(half_spin_weights(n, "both").branch(), 2 * lower)
        chained = registry("rho8", 8)
        for _ in range(4):
            chained = chained.branch()
        expected = (
            trivial(4, 32)
            + 8 * vector_weights(4)
            + 8 * half_spin_weights(4, "both")
            + exterior_square_weights(4)
        )
        assert char_equal(chained, expected)
        assert char_equal(chained, registry("rho8", 4))
        suite = check_branching()
        assert suite.verified
        assert time.perf_counter() - start < 1.0


def test_criterion_2_dimension_table():
    with criterion(2, "registry dimensions 26 / 52 / 27 / 56 / 248"):
        assert registry("rho4", 4).dim == 26
        assert registry("rho4adj", 4).dim == 52
        assert registry("rho6", 5).dim == 27
        assert registry("rho7", 6).dim == 56
        assert registry("rho8", 8).dim == 248
        assert registry("rho6", 4).dim == 27
        assert registry("rho7", 4).dim == 56
        assert registry("rho8", 4).dim == 248


def test_criterion_3_theorem_11_reproduction():
    with criterion(3, "mod-3 classification over all 80 points"):
        start = time.perf_counter()
        result = classify_f4_mod3()
        assert result.verified
        ev = result.evidence
        # (a) universal divisibility by 1 - t^2
        assert ev["divisible_by_1_minus_t2_all"] is True
        assert ev["lambda2_nontrivial_all"] is True
        # (b) joint-consistent set nonempty, with the stated witness present
        assert ev["consistent_count"] > 0
        assert "1,1,1,0" in ev["consistent_alphas"]
        # (c) every consistent point gives exactly 1 - t^18 for both classes
        assert ev["consistent_value"] == "1 + 2*t^18"
        witness = RestrictionPoint(3, (1, 1, 1, 0))
        lam1_delta = vector_weights(4) + half_spin_weights(4, "both")
        assert total_chern(lam1_delta, witness).render() == "1 + 2*t^18"
        assert total_chern(exterior_square_weights(4), witness).render() == "1 + 2*t^18"
        # (d) the emitted polynomials, coefficient-exactly
        assert ev["polynomials"] == {
            "rho4": "1 + 2*t^18",
            "rho6": "1 + 2*t^18",
            "rho7": "1 + t^18 + t^36",
            "rho8": "1 + 2*t^162",
            "rho4adj": "1 + t^18 + t^36",
        }
        assert time.perf_counter() - start < 5.0


def test_criterion_4_lemma_facts():
    with criterion(4, "Dickson facts: restriction images, degrees, invariance"):
        start = time.perf_counter()
        for p, d in ((3, 18), (5, 100)):
            facts = rank1_restriction(p)
            assert facts["routes_agree"]
            c0, c1, c2 = facts["images"]
            assert c0.is_zero and c1.is_zero
            assert c2 == UPoly.monomial(p, 1, d)
            assert facts["e3_image"].is_zero
        bundle = lemma_facts(3, full=True)
        assert bundle.verified
        ev = bundle.evidence
        assert ev["cohomological_degrees"] == {"c0": 52, "c1": 48, "c2": 36, "e3": 26}
        assert ev["e3_squared_sign"] in (1, -1)
        assert ev["e3_squared_sign"] == 1
        assert ev["transvection_invariance"] is True
        assert time.perf_counter() - start < 30.0


def test_criterion_5_theorem_41_reproduction():
    with criterion(5, "mod-5 classification, full sweep over 390624 points"):
        start = time.perf_counter()
        full = classify_e8_mod5(mode="full")
        elapsed = time.perf_counter() - start
        assert full.verified
        ev = full.evidence
        assert ev["points_scanned"] == 5**8 - 1
        # (a) plus/minus product form everywhere, exterior square nontrivial
        assert ev["pm_form_all"] is True
        assert ev["lambda2_nontrivial_all"] is True
        # (b) the consistent set is nonempty
        assert ev["s5_count"] > 0
        # (c) every consistent value is 1 - t^100 or (1 - t^100)^2, so the
        # coefficient at t^100 is -1 or -2 mod 5, never 0
        allowed = {
            (UPoly.one(5) - UPoly.monomial(5, 1, 100)).render(),
            ((UPoly.one(5) - UPoly.monomial(5, 1, 100)) ** 2).render(),
        }
        assert set(ev["s5_values"]) <= allowed
        assert set(ev["c100_coefficients"].values()) <= {4, 3}
        assert all(v != 0 for v in ev["c100_coefficients"].values())
        # single-worker runtime budget
        assert elapsed < 600.0
        # canonical mode is the reduced run; full mode is its oracle
        canonical = classify_e8_mod5(mode="canonical")
        assert canonical.verified
        assert canonical.evidence["s5_values"] == ev["s5_values"]
        assert (
            canonical.evidence["s5_value_occurrences"]
            == ev["s5_value_occurrences"]
        )


def test_criterion_6_property_suites():
    with criterion(6, "standalone property suites"):
        start = time.perf_counter()
        # Frobenius collapses
        assert (UPoly(3, (1, 0, -1)) ** 9) == UPoly.one(3) - UPoly.monomial(3, 1, 18)
        assert (UPoly(5, (1, 0, 0, 0, -1)) ** 25) == UPoly.one(5) - UPoly.monomial(5, 1, 100)
        # negation-closed multisets give even-exponent classes
        rng = random.Random(5)
        for p in (3, 5):
            for _ in range(50):
                half = [rng.randrange(p) for _ in range(rng.randrange(10))]
                poly = chern_of_exponents(p, half + [-a for a in half])
                assert all(c == 0 for k, c in enumerate(poly.coeffs) if k % 2)
        # mul / divexact round trips
        for p in (3, 5):
            for _ in range(60):
                a = UPoly(p, [rng.randrange(p) for _ in range(rng.randrange(20))])
                b = UPoly(p, [rng.randrange(p) for _ in range(1, 12)] + [1])
                assert (a * b).divexact(b) == a
        # pair factors match the closed quadratic-in-t^2 form, all pairs
        for p in (3, 5):
            for ai, aj in itertools.product(range(p), repeat=2):
                closed = UPoly(
                    p, (1, 0, -2 * (ai * ai + aj * aj), 0, (ai * ai - aj * aj) ** 2)
                )
                assert pair_factor(p, ai, aj) == closed
        # permutation equivariance of restricted total Chern classes
        for p, n in ((3, 4), (5, 8)):
            chars = (
                vector_weights(n),
                exterior_square_weights(n),
                half_spin_weights(n, "both"),
                half_spin_weights(n, "+"),
            )
            for _ in range(8):
                alpha = tuple(rng.randrange(p) for _ in range(n))
                perm = list(range(n))
                rng.shuffle(perm)
                pt = RestrictionPoint(p, alpha)
                for char in chars:
                    assert total_chern(char, pt) == total_chern(char, pt.permuted(perm))
        assert time.perf_counter() - start < 10.0


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "byte-identical certificates across worker counts"):
        # verify all --p 3 with two different worker counts
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["verify", "all", "--p", "3", "--out", str(out1), "--workers", "1"]) == 0
        assert main(["verify", "all", "--p", "3", "--out", str(out2), "--workers", "3"]) == 0
        files = sorted(p.name for p in out1.iterdir())
        assert files == sorted(p.name for p in out2.iterdir())
        for name in files:
            a = Certificate.load(out1 / name)
            b = Certificate.load(out2 / name)
            assert a.canonical_bytes() == b.canonical_bytes()
        # enumerate --p 5 --mode canonical with two different worker counts
        e1, e2 = tmp_path / "e1.json", tmp_path / "e2.json"
        assert main(
            ["enumerate", "--p", "5", "--mode", "canonical", "--workers", "1",
             "--out", str(e1)]
        ) == 0
        assert main(
            ["enumerate", "--p", "5", "--mode", "canonical", "--workers", "2",
             "--out", str(e2)]
        ) == 0
        assert Certificate.load(e1).canonical_bytes() == Certificate.load(e2).canonical_bytes()
