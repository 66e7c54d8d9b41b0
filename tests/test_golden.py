"""Golden hashes of the canonical certificate payloads.

Each entry is the SHA-256 of canonical_json(payload) with the toolchain
fingerprint left out, since that changes with the package and Python
versions and nothing else.  A refactor must leave every hash unchanged; a deliberate
change of evidence updates the entry and says so in CHANGES.md.
"""

import hashlib

import pytest

from chern_cert import classify, dickson
from chern_cert.certificates import STATEMENTS, canonical_json
from chern_cert.fppoly import MPoly, UPoly
from chern_cert.spinchar import Character
from chern_cert.verify import run_statement

GOLDEN = (
    ("theorem-1.1", {}, "8d0b7c3de8a0afd17bc74be0cc48706cc5868f38149e79291352d92be37d9e7d"),
    ("theorem-4.1", {}, "f822c2f3b3dcdc5b9f1e1e0a424ee7c879a2b02cd4d663132fdc95b6b046d983"),
    ("lemma-3.1-facts", {}, "f65c2df8cd2508209288610c41c6ba5a56b16b401be7bbdc270a0845e83a9cd9"),
    ("lemma-4.2-facts", {}, "725909ae7e0263a152990cdb1676d08c56461fb7e873d4a47050186c0f6c8e36"),
    ("prop-2.2-branching", {}, "04b8adca586b408ef33a0993cd5a2e75f834b0e143e6dddeb94730e558d509ab"),
    ("prop-3.2", {}, "f249a22db43175d68d13f892b15a61dfabf5f5f649a943b9e7e8e526c890eb00"),
    ("prop-3.3", {}, "aacf93bb1bbac271586d4fd0e793059c075c836401474cc1602f41b662a16f76"),
    ("prop-4.3", {}, "e8f3ef3110dced61b69286867e0bac494fc0a7d1ffc04eba086b0d2da13c6040"),
    ("prop-4.4", {}, "d6bb3afe374b104b49cb1204096c5c9dc62d34ea6be81f5a8c34ad8907c5a766"),
    ("theorem-4.1", {"mode": "full"}, "e23779f4b35c07ae8fcf9cadfbdc8075f0615dfdcc7d15d61ac6476bf4a6f140"),
    ("prop-4.3", {"mode": "full"}, "6747449ede92715e403d6c40f596317bcbafc7b8af93fec66a6d874d5033cc47"),
    ("prop-4.4", {"mode": "full"}, "42af808959b6f8315df096856a900d66ade9aef33824584031605c4f5bb480c4"),
    ("lemma-4.2-facts", {"full_dickson": True}, "478a5ad2b28b48be7f61edd9d60bfd75bcb572952d6554eabf29e7289a11880c"),
)


def _lambda2_without_sum_four_weights():
    """The mod-5 columns with lambda2 missing its 56 weights of coordinate
    sum +-4 (still closed under negation and coordinate permutations)."""
    lambda2, *rest = classify._mod5_chars()
    kept = {w: m for w, m in lambda2.weights.items() if abs(sum(w)) != 4}
    chars = (Character(8, kept), *rest)
    return [(classify, "_mod5_chars", lambda: chars)]


def _lambda1_delta_without_2000():
    """The mod-3 columns with lambda1+delta missing one copy of (2,0,0,0)."""
    chars = list(classify._mod3_chars())
    weights = dict(chars[0].weights)
    weights[(2, 0, 0, 0)] -= 1
    chars[0] = Character(4, weights)
    chars = tuple(chars)
    return [(classify, "_mod3_chars", lambda: chars)]


def _delta_plus_without_two_negatives():
    """The mod-5 columns with delta+ missing its 28 weights that have exactly
    two negative coordinates (still closed under coordinate permutations,
    no longer under negation)."""
    lambda2, delta_plus, lambda1 = classify._mod5_chars()
    kept = {w: m for w, m in delta_plus.weights.items() if sum(x < 0 for x in w) != 2}
    chars = (lambda2, Character(8, kept), lambda1)
    return [(classify, "_mod5_chars", lambda: chars)]


def _one_plus_t_d_expected():
    """1 + t^d, not 1 - t^d, as the value expected on the consistent set."""
    value = lambda p, d: UPoly.one(p) + UPoly.monomial(p, 1, d)
    return [(classify, "_consistent_value", value)]


def _flipped_orbit_coefficient():
    """The p = 5 orbit product with the coefficient of its last term (in
    sorted order) below X^125 doubled, as in test_dickson's mutations: c_{3,0}
    loses its invariance under all six transvections."""
    product = dickson.orbit_product(5)
    key = max(k for k in product.terms if k[3] != 125)
    flipped = MPoly(5, 4, {**product.terms, key: 2 * product.terms[key]})
    return [(dickson, "orbit_product", lambda p: flipped)]


# Falsified payloads under a fault injected into a swept character or into
# the Dickson orbit product: the witnesses and problems a falsified
# certificate records are pinned too.  Each fault returns the (module, name,
# value) attributes it replaces.
FALSIFIED_GOLDEN = (
    ("prop-4.3", {}, _lambda2_without_sum_four_weights, "5745fe36ce3239ddf41f8d0d4301c7fcec6a6a692d141802ecb2113c086d3a36"),
    ("theorem-1.1", {}, _lambda1_delta_without_2000, "a059bf01fee8e81ba7f6a29204663d71406d005f8d0af688f60f0c1cbb58f292"),
    ("prop-3.2", {}, _lambda1_delta_without_2000, "2579b215138d137a3dd4764bf154f647a9edcc4420196bbe9009759fc2fcc465"),
    ("prop-3.3", {}, _lambda1_delta_without_2000, "d6823881ce542e32e342357bb7f8cb623a869572d16b6b56d839628d14162b85"),
    ("theorem-4.1", {}, _lambda2_without_sum_four_weights, "21d6fd912e84f3e70a590296dffd97b72dabaef252a0142b749a08edaa9a8699"),
    ("prop-4.4", {}, _delta_plus_without_two_negatives, "ce8ba4914ccc563237ec0e8b9878d54258e638246434c1bbaf46e94fce3f80c5"),
    ("prop-4.4", {"mode": "full"}, _delta_plus_without_two_negatives, "5c2ed4bd8c8c580803c269ee64a3b8b0c1835169521dc6b1982c912296a52d89"),
    ("theorem-1.1", {}, _one_plus_t_d_expected, "68f56dce433d977e05ae33e8ee443b1f1ea625e724e4acf56bc9b5ab3b737241"),
    ("prop-3.2", {}, _one_plus_t_d_expected, "2d9db518d985c80df0f5345ebe41c40b96458a287bbeffe6543de5d25a5e3e05"),
    ("prop-3.3", {}, _one_plus_t_d_expected, "93671b6f2559bf68928f1ec7d7f6735a4e8ee0a50861a3eb853a1d85ca547d68"),
    ("theorem-4.1", {}, _one_plus_t_d_expected, "4857cf6e62c773e5f7891ffaea642248c85853d174d27950f5566f40dadb4fad"),
    (
        "lemma-4.2-facts",
        {"full_dickson": True},
        _flipped_orbit_coefficient,
        "f863eb2139d1f531987e4a096dec1f19b7a89ab92244293a70e106c12e6f2a80",
    ),
)


def _digest(certificate):
    payload = certificate.payload()
    del payload["toolchain"]
    return hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()


def test_every_statement_has_a_default_entry():
    assert [s for s, kwargs, _ in GOLDEN if not kwargs] == list(STATEMENTS)


@pytest.mark.parametrize(
    "statement, kwargs, digest",
    GOLDEN,
    ids=[s + "".join(f"-{k}={v}" for k, v in kw.items()) for s, kw, _ in GOLDEN],
)
def test_canonical_payload_hash_unchanged(statement, kwargs, digest):
    assert _digest(run_statement(statement, **kwargs)) == digest


@pytest.mark.parametrize(
    "statement, kwargs, fault, digest",
    FALSIFIED_GOLDEN,
    ids=[
        f"{s}-{fault.__name__.lstrip('_')}" + "".join(f"-mode={kw['mode']}" for _ in kw.keys() & {"mode"})
        for s, kw, fault, _ in FALSIFIED_GOLDEN
    ],
)
def test_falsified_payload_hash_unchanged(monkeypatch, statement, kwargs, fault, digest):
    for module, name, value in fault():
        monkeypatch.setattr(module, name, value)
    certificate = run_statement(statement, **kwargs)
    assert certificate.status == "Falsified"
    assert _digest(certificate) == digest
