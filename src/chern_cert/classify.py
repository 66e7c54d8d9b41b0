"""Exhaustive classification of total Chern classes over all restriction
points, reproducing the mod-3 and mod-5 headline identities.

A point's total Chern class for a character depends only on how often each
exponent value occurs among the restricted weights.  One kernel,
``count_table``, serves both primes, and it never restricts a point on its
own.  A point of (F_p)^n splits into a front half (its first n // 2
coordinates) and a back half, so the points form a grid of front rows and
back columns whose row-major order is the lexicographic point order.  A
weight's exponent at cell (f, b) is (w_f . f + w_b . b) / 2 mod p, so a
character's counts at the cell are a front histogram (weights with back
part 0) plus a back histogram (front part 0) plus, per group of the other
weights sharing a back part, a front histogram rolled by the group's back
exponent.  A front row enters the counts only through its front signature
(its front histogram and its unrolled group histograms) and a back column
only through its back signature (its back histogram and, per class of
groups with equal front parts, the histogram of their back exponents), so
one cell per pair of signatures stands for every cell: at p = 5, 400
cells stand for the 390625 points.  The kernel is pure Python and works in
bulk: each histogram is p planes of byte lanes built by bytes.translate,
laid into one record per row or column whose bytes are its signature, and a
cell's counts for every character are one int, a bilinear sum of
precomputed ints per pair of signatures.  The table holds counts only:
every class polynomial is expanded from counts by one memoized function,
_class_poly, once per (p, counts).  A class of one character or of a sum of
characters is expanded from its (summed) counts, and a negation-pair factor
P_v(a, b) = (1 + v*t)^a (1 - v*t)^b from the counts a of v and b of -v
alone; a class is expanded only where a predicate, a fallback or a
certificate reads it.  Each statement evaluates its predicates, mod 3 and
mod 5, once per class, and each point keeps only its class id, one
byte, laid out per front row by one C-level call, from which consistent
sets and witness lists are read back in point order.  All 390624 mod-5
points fall into 53 count classes, and the 80 mod-3 points into 3.

The six sweep statements are rows of data (_ROWS), and one judge, _judge,
builds every certificate from its row, evaluating only the predicates its
checks name, on their columns, and the readings (a column or a product of
columns) its filter and value checks name.  No judgement is memoized, only
the count tables and the class polynomials, so a changed predicate, bound,
expected value or _class_poly reaches the next statement with nothing to
clear.  Each check's witnesses are its first points by CountTable.first,
laid out per row: merged by point and check order mod 3, keyed by check
mod 5.  Tables are memoized per (p, characters, mode), and a canonical
table is a view of the full one (count_table) sharing its counts and class
ids, so both modes judge the same classes.  The sweep runs in one process.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from collections import Counter, namedtuple
from operator import itemgetter, mul

from .certificates import CheckResult
from .fppoly import (
    UPoly,
    _binomial_power,
    chern_of_counts,
    in_subring,
    inv2,
    pm_factorization,
    subring_bound,
)
from .spinchar import (
    REP_NAMES,
    Character,
    exterior_square_weights,
    half_spin_weights,
    registry,
    vector_weights,
)

__all__ = [
    "CountTable",
    "count_table",
    "classify_f4_mod3",
    "classify_e8_mod5",
    "check_prop32",
    "check_prop33",
    "check_prop43",
    "check_prop44",
    "sweep_mod5",
    "canonical_representatives",
    "orbit_size",
]

WITNESS_CAP = 32
FAIL_CAP = 8

P5, N5 = 5, 8
TOTAL_POINTS_5 = 5**N5 - 1
# the weakly increasing nonzero vectors: multisets of N5 digits, less zero
CANONICAL_POINTS_5 = math.comb(P5 + N5 - 1, N5) - 1

def _point(table: CountTable, i: int) -> str:
    """Point i of table's sweep order as text, e.g. "0,1,2,2"."""
    return ",".join(map(str, table.alpha(i)))


def canonical_representatives(p: int = P5, n: int = N5) -> list[tuple[int, ...]]:
    """One representative per coordinate-permutation class: the weakly
    increasing vectors (the zero vector excluded)."""
    return [
        alpha
        for alpha in itertools.combinations_with_replacement(range(p), n)
        if any(alpha)
    ]


def orbit_size(alpha) -> int:
    """Number of distinct coordinate permutations of alpha."""
    size = math.factorial(len(alpha))
    for v in set(alpha):
        size //= math.factorial(alpha.count(v))
    return size


# ---------------------------------------------------------------------------
# The count-class kernel.
# ---------------------------------------------------------------------------


class CountTable:
    """The count classes of one sweep.

    counts[k][j] is the number of restricted weights of character j taking
    each exponent value 0..p-1 in class k and weights[k] its orbit-weighted
    number of points; the class polynomials are expanded from the counts
    (_class_poly), not held here.
    class_of is a read-only view of each point's class id in sweep order
    (full mode: every nonzero point in lexicographic order, canonical mode:
    the weakly increasing representatives), one byte per point unless there
    are more than 256 classes.  Class ids are numbered by the first point of
    each class, the unswept zero point included.  Every class of a full
    table holds a swept point; a canonical view keeps the full table's
    classes, so a class no representative hits has weight 0 (only when a
    character is not permutation-invariant).  Immutable; equal only to itself.
    """

    __slots__ = ("p", "n", "mode", "counts", "weights", "class_of", "reps")

    def __init__(
        self,
        p: int,
        n: int,
        mode: str,
        counts: tuple,
        weights: tuple,
        class_of: memoryview,
        reps: "tuple | None",
    ):
        values = (p, n, mode, counts, weights, class_of, reps)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("CountTable is immutable")

    @property
    def points(self) -> int:
        return len(self.class_of)

    @property
    def weighted_points(self) -> int:
        return sum(self.weights)

    def alpha(self, i: int) -> tuple[int, ...]:
        if self.reps is not None:
            return self.reps[i]
        return tuple((i + 1) // self.p ** (self.n - 1 - k) % self.p for k in range(self.n))

    def first(self, classes, cap: int) -> list[int]:
        """The indices of the first cap points, in sweep order, whose class is
        in classes."""
        if not classes:
            return []
        classes = set(classes)
        if self.class_of.itemsize == 1:
            # the scan runs in C: mark each point's byte, then find the marks
            marks = self.class_of.obj.translate(bytes(k in classes for k in range(256)))
        else:
            marks = bytes(k in classes for k in self.class_of)
        found = []
        i = marks.find(1)
        while i >= 0 and len(found) < cap:
            found.append(i)
            i = marks.find(1, i + 1)
        return found


@functools.cache
def _exponents(p: int, half: tuple) -> bytes:
    """The exponent half . x / 2 mod p at every point x of (F_p)^len(half),
    one byte each (so p < 256) in lexicographic order.  It is built one
    coordinate at a time from the memoized exponents of half's leading
    coordinates: the points whose last coordinate is a take those exponents
    shifted by a * half[-1] / 2, one bytes.translate per a."""
    if not half:
        return b"\0"
    c = half[-1] * inv2(p) % p
    prev = _exponents(p, half[:-1])
    out = bytearray(len(prev) * p)
    for a in range(p):
        out[a::p] = prev.translate(_byte_tables(p)[0][c * a % p])
    return bytes(out)


@functools.cache
def _byte_tables(p: int) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
    """Translation tables per residue s: the one that adds s mod p to every
    byte below p, and the one that maps byte s to 1 and every other to 0."""
    return (
        tuple(bytes((b + s) % p for b in range(256)) for s in range(p)),
        tuple(bytes(b == s for b in range(256)) for s in range(p)),
    )


def _planes(p: int, pairs, slot: int) -> list[int]:
    """The histogram of the exponents of the (half-weight, multiplicity)
    pairs at every point x of (F_p)^k as p planes: plane v is one int whose
    lane x, slot bytes wide, counts the weights with exponent v at x.  A pair
    adds its multiplicity times the indicator string of exponent v, one
    bytes.translate of its exponents per value.  For lanes wider than a byte
    each exponent is padded with the byte 255, which no exponent takes."""
    planes = [0] * p
    for h, m in pairs:
        exps = _exponents(p, h)
        if slot > 1:
            exps = bytearray(b"\xff" * (len(exps) * slot))
            exps[::slot] = _exponents(p, h)
        for v, eq in enumerate(_byte_tables(p)[1]):
            planes[v] += m * int.from_bytes(exps.translate(eq), "little")
    return planes


def _signatures(planes: list[int], points: int, slot: int) -> tuple[list[int], list[bytes]]:
    """Lay planes side by side into one record per point, plane i at bytes
    i * slot onward, and group the points by record: the signature id of
    each point, numbered by first point, and each signature's record.  The
    records are one bytearray filled by a strided slice per plane lane."""
    rec = len(planes) * slot
    buf = bytearray(points * rec)
    for i, plane in enumerate(planes):
        lanes = plane.to_bytes(points * slot, "little")
        for k in range(slot):
            buf[i * slot + k :: rec] = lanes[k::slot]
    data, index = bytes(buf), {}
    ids = _group([data[i : i + rec] for i in range(0, len(data), rec)], index)
    return ids, list(index)


def _split(char: Character, nf: int, p: int):
    """Sort a character's weights by the halves they see mod p: front-only
    (back part 0), back-only (front part 0) and cross weights grouped by
    their back part.  Raises ValueError unless the kinds put back together
    give exactly the character's weight multiset."""
    front, back, cross = [], [], {}
    for w, m in char.sorted_weights():
        key = tuple([x % p for x in w[nf:]])
        if not any(key):
            front.append((w, m))
        elif not any([x % p for x in w[:nf]]):
            back.append((w, m))
        else:
            cross.setdefault(key, []).append((w, m))
    # each weight once, with its multiplicity
    kinds = [*front, *back, *itertools.chain(*cross.values())]
    if len(kinds) != len(char.weights) or dict(kinds) != char.weights:
        raise ValueError(f"the front/back split of {char!r} loses or repeats weights")
    return front, back, cross


# the split-coordinate terms of a count table per signature, see _grid
_Grid = namedtuple("_Grid", "p width row_sig col_sig hf rolled hb keys")


def _grid(p: int, n: int, chars: tuple) -> _Grid:
    """The terms of count_table's identity for chars over (F_p)^n, front
    half n // 2, per signature.

    A cell's counts are one int, character j's count of value v at bit
    (j * p + v) * width, width whole bytes enough for the largest character
    dimension.  A front row's record holds Hf and each class's U_c, a back
    column's Hb and each class's K_c, as planes (_planes) in lanes of that
    width, so its signature (row_sig[f], col_sig[b]) is its record's bytes,
    and ints are read only from each signature's record: hf[s] and hb[t],
    rolled[s] with U_c rolled by v at c's character's offset and keys[t]
    with the matching K_c[v], per class c and value v.  Histograms are
    memoized by their pairs: at p = 5 the 8 lambda2 cross groups share one
    U_c, the 16 delta+ groups two, and lambda2's front-only and back-only
    weights one histogram."""
    nf = n // 2
    slot = (max(c.dim for c in chars).bit_length() + 7) // 8
    width, cell = 8 * slot, len(chars) * p * slot
    planes = functools.cache(lambda pairs: _planes(p, pairs, slot))
    front, back = [], []
    classes: dict[tuple, list] = {}  # (front pairs, bit offset) -> back keys
    for j, char in enumerate(chars):
        ws_front, ws_back, cross = _split(char, nf, p)
        front += planes(tuple(sorted((w[:nf], m) for w, m in ws_front)))
        back += planes(tuple(sorted((w[nf:], m) for w, m in ws_back)))
        for key, weights in cross.items():
            pairs = tuple(sorted((w[:nf], m) for w, m in weights))
            classes.setdefault((pairs, j * p * width), []).append((key, 1))
    for (pairs, _), keys in classes.items():
        front += planes(pairs)
        back += _planes(p, keys, slot)
    row_sig, fronts = _signatures(front, p**nf, slot)
    col_sig, backs = _signatures(back, p ** (n - nf), slot)

    def lanes(rec: bytes, size: int) -> list[int]:
        """The ints in the lanes of size bytes that follow rec's histogram."""
        return [int.from_bytes(rec[i : i + size], "little") for i in range(cell, len(rec), size)]

    span, mask = p * width, (1 << p * width) - 1
    rolled = [
        [
            ((x << v * width | x >> span - v * width) & mask) << offset
            for x, (_, offset) in zip(lanes(rec, p * slot), classes)
            for v in range(p)
        ]
        for rec in fronts
    ]
    hf, hb = ([int.from_bytes(rec[:cell], "little") for rec in recs] for recs in (fronts, backs))
    return _Grid(p, width, row_sig, col_sig, hf, rolled, hb, [lanes(rec, slot) for rec in backs])


def _cell(grid: _Grid, s: int, t: int) -> int:
    """The packed counts of every cell of front signature s and back
    signature t: Hf + Hb plus, per class c and back-key exponent v,
    K_c[v] copies of U_c rolled by v, one bilinear sum."""
    return grid.hf[s] + grid.hb[t] + sum(map(mul, grid.keys[t], grid.rolled[s]))


def _group(keys: list, index: dict) -> list[int]:
    """The id of each key in keys (a packed count vector or a record),
    through index, which maps a key to its id.  A key not yet in index gets
    the next id, in the order of the key's first occurrence."""
    for key in dict.fromkeys(keys):
        index.setdefault(key, len(index))
    return list(map(index.__getitem__, keys))


_TABLES: dict[tuple, CountTable] = {}


def count_table(p: int, chars, mode: str = "full") -> CountTable:
    """Sweep the nonzero points of (F_p)^n, n the characters' common rank,
    and group them by the exponent counts of the characters.

    A point splits into a front half (its first n // 2 coordinates) and a
    back half, so it is the cell (f, b) of a p^(n//2) by p^(n - n//2) grid
    whose row-major order is the lexicographic point order; no point is
    restricted on its own.  Let U_g[f] be the front histogram of the cross
    weights of group g (those sharing one nonzero back part, the group's
    back key) and e_g[b] the key's exponent at b.  Then a cell's counts are

        Hf[f] + Hb[b] + sum over groups g of U_g[f] rolled by e_g[b]
          = Hf[f] + Hb[b] + sum over classes c, values v of
            K_c[b][v] * (U_c[f] rolled by v),

    where a class c gathers the groups of one character with equal front
    weights (so equal U_g = U_c) and K_c[b][v] counts its groups with
    e_g[b] = v.  The front row f enters the counts only through its front
    signature (Hf[f], U_c[f] for every c) and the back column b only
    through its back signature (Hb[b], K_c[b] for every c), so the counts
    are one function of the pair of signatures (_cell, called once per
    pair): with the p rolled copies of each U_c precomputed per front
    signature, a cell is Hf + Hb plus the dot product of the back
    signature's K_c[v] with them.  The identity rests only on the split,
    which _split checks, not on any symmetry.  At p = 5 the 625 front rows
    have 20 signatures and the 625 back columns 20.

    Mode "full" fills every pair of signatures, 400 cells at p = 5, and
    reads each point's class id off its pair: it uses no symmetry and is
    the oracle for canonical mode.  Mode "canonical" is a view of the full
    table (_canonical_view) over the weakly increasing representatives, 494
    at p = 5, each weighted by its orbit size.  That is sound exactly when
    the view's class weights equal the full table's, which sweep_mod5
    checks.  Exponents are one byte each, so p must be below 256.

    Classes are numbered by the first point they hold; a class that no
    swept point hits (at p = 5 the zero point's) is dropped, so it is
    never expanded or evaluated.
    """
    if mode not in ("full", "canonical"):
        raise ValueError(f"mode must be 'full' or 'canonical', got {mode!r}")
    if p >= 256:
        raise ValueError(
            f"count_table stores each exponent in one byte (_exponents), so p must be"
            f" below 256, got {p}"
        )
    chars = tuple(chars)
    ranks = sorted({c.rank for c in chars})
    if len(ranks) != 1:
        raise ValueError(f"count_table needs characters of one rank, got ranks {ranks}")
    n = ranks[0]
    key = (p, chars, mode)
    if key not in _TABLES:
        if mode == "full":
            _TABLES[key] = _build_table(p, n, chars)
        else:
            _TABLES[key] = _canonical_view(count_table(p, chars))
    return _TABLES[key]


def _canonical_view(full: CountTable) -> CountTable:
    """The weakly increasing representatives of full's points, each with
    its class id read off full (point index = base-p value - 1) and weighted
    by its orbit size, sharing full's classes and counts.  The least point
    of a permutation-closed class is sorted, so for permutation-invariant
    characters every class holds a representative and the weights are
    full's."""
    p, fmt = full.p, full.class_of.format
    reps = tuple(canonical_representatives(p, full.n))
    ids = [full.class_of[functools.reduce(lambda x, a: x * p + a, alpha) - 1] for alpha in reps]
    weight = [0] * len(full.counts)
    for k, alpha in zip(ids, reps):
        weight[k] += orbit_size(alpha)
    class_of = memoryview(array(fmt, ids).tobytes()).cast(fmt)
    return CountTable(p, full.n, "canonical", full.counts, tuple(weight), class_of, reps)


def _build_table(p: int, n: int, chars: tuple) -> CountTable:
    """The full count table of chars over (F_p)^n; see count_table."""
    grid = _grid(p, n, chars)
    # signatures are numbered by their first row and column, so a class
    # first met at signature pair (s, t) is first met at that pair's first
    # cell, and filling the pairs in order numbers the classes by first point
    index: dict[int, int] = {}
    weight: Counter = Counter()
    cols = range(len(grid.hb))
    rows = [_group([_cell(grid, s, t) for t in cols], index) for s in range(len(grid.hf))]
    rows_per, cols_per = Counter(grid.row_sig), Counter(grid.col_sig)
    for s, ids in enumerate(rows):
        for t, k in enumerate(ids):
            weight[k] += rows_per[s] * cols_per[t]
    weight[0] -= 1  # class 0 holds cell 0, the zero point, which is not swept

    kept = [k for k in range(len(index)) if weight[k] > 0]
    renumber = [0] * len(index)
    for new, k in enumerate(kept):
        renumber[k] = new
    # one byte per point unless there are more than 256 classes
    fmt = "B" if len(kept) <= 1 << 8 else "H" if len(kept) <= 1 << 16 else "I"
    # each front signature's row of class ids in one C-level call: the back
    # signature ids picked out of the row's class ids by itemgetter
    spread = itemgetter(*grid.col_sig)
    rows = [array(fmt, spread([renumber[k] for k in ids])).tobytes() for ids in rows]
    # point i is cell i + 1, so the first row drops its first cell
    head = rows[grid.row_sig[0]][array(fmt).itemsize :]
    data = b"".join([head, *map(rows.__getitem__, grid.row_sig[1:])])
    slot = (1 << grid.width) - 1
    counts = tuple(
        tuple(
            tuple(key >> (j * p + v) * grid.width & slot for v in range(p))
            for j in range(len(chars))
        )
        for key, k in index.items()
        if weight[k] > 0
    )
    weights = tuple(weight[k] for k in kept)
    return CountTable(p, n, "full", counts, weights, memoryview(data).cast(fmt), None)


def _consistent_value(p: int, d: int) -> UPoly:
    """1 - t^d, d = p^3 - p^2: the value expected on the consistent set."""
    return UPoly.one(p) - UPoly.monomial(p, 1, d)


@functools.cache
def _class_poly(p: int, m: tuple) -> UPoly:
    """The total Chern class mod p with m[v] weights of exponent v, expanded
    from the counts once per (p, m): every class polynomial of this module,
    a class's, a sum of classes' (the 53 mod-5 classes have 13 distinct
    rho8 count sums) or a negation-pair factor's (_factors)."""
    return chern_of_counts(p, enumerate(m))


def _factors(m: tuple) -> tuple[UPoly, ...]:
    """The negation-pair factors P_v = (1 + v*t)^m[v] (1 - v*t)^m[-v] of the
    class of the counts m mod p = len(m), for v = 1..(p-1)/2: each is the
    class of the counts kept at v and -v only, and their product is the
    class of m.  At p = 3 the one factor is that class.  The mod-5 judge
    calls this twice per class and column, so the kept counts are set into
    a list of zeros rather than filtered from m."""
    p = len(m)
    factors = []
    for v in range(1, (p + 1) // 2):
        kept = [0] * p
        kept[v], kept[-v] = m[v], m[-v]
        factors.append(_class_poly(p, tuple(kept)))
    return tuple(factors)


def _reading(table: CountTable, cols: tuple[int, ...], classes) -> list[UPoly]:
    """The total Chern class of the characters of columns cols together, in
    each of classes, expanded from their summed counts (one column is a
    one-term sum)."""
    sums = (tuple(map(sum, zip(*(table.counts[k][j] for j in cols)))) for k in classes)
    return [_class_poly(table.p, m) for m in sums]


# The per-column predicates by name, of a class's counts m mod p = len(m) in
# a swept column of the paper's constant size: "closure", the exponent list
# is not negation-closed (m[v] != m[-v mod p]) or misses the size, which a
# lost +- pair breaks; "trivial", every negation-pair factor is 1;
# "indivisible", the class is not divisible by 1 - t^2; "pm", it is not a
# product of 1 - t^2 and 1 + t^2 factors (_pm_form, mod 5 only).
_PREDICATES = {
    "closure": lambda m, size: sum(m) != size or any(m[v] != m[-v] for v in range(len(m))),
    "trivial": lambda m, size: all(f.is_one for f in _factors(m)),
    "indivisible": lambda m, size: _class_poly(len(m), m).divexact(
        UPoly._reduced(len(m), (1, 0, len(m) - 1))
    ) is None,
    "pm": lambda m, size: _pm_form(m) is None,
}

# A sweep: its prime, the sizes of its swept columns (the first
# len(sizes)) and the powers of the consistent value expected on the
# consistent set.
_Sweep = namedtuple("_Sweep", "p sizes powers")
_MOD3 = _Sweep(3, (24, 24), (1,))
_MOD5 = _Sweep(P5, (112, 128), (1, 2))


def _sweep(spec: _Sweep, table: CountTable, **found) -> dict:
    """A sweep: table, its column sizes, the current subring exponent and
    expected values, and what the sweep found (its problems, evidence and
    parameters)."""
    d = subring_bound(spec.p)
    expected = tuple(_consistent_value(spec.p, d) ** e for e in spec.powers)
    return {"table": table, "sizes": spec.sizes, "subring_exponent": d, "expected": expected,
            **found}


def _merged(table: CountTable, failing: dict) -> list[dict]:
    """The mod-3 witness list: each failed check's first WITNESS_CAP points,
    merged by point and, within a point, check order.  A witness carries its
    point, its check's key and each field's class polynomial, expanded from
    the counts of the witness's class."""
    hits = sorted(
        (i, n, check)
        for n, (check, classes) in enumerate(failing.items())
        for i in table.first(classes, WITNESS_CAP)
    )
    return [
        {"alpha": _point(table, i), "check": check.key}
        | {
            name: _class_poly(table.p, table.counts[table.class_of[i]][j]).render()
            for name, j in check.fields
        }
        for i, _, check in hits
    ]


def _keyed(table: CountTable, failing: dict) -> dict[str, list[str]]:
    """The mod-5 witnesses: each failed check's first FAIL_CAP points, keyed
    by the check's key."""
    return {
        check.key: [_point(table, i) for i in table.first(classes, FAIL_CAP)]
        for check, classes in failing.items()
    }


def _consistent_points(value_key: str, sweep: dict, consistent) -> tuple[dict, list]:
    """The consistent points, sorted, their number and, keyed value_key, the
    value expected on them."""
    table = sweep["table"]
    alphas = sorted(_point(table, i) for i in table.first(consistent, table.points))
    value = sweep["expected"][0].render()
    return {"consistent_alphas": alphas, "consistent_count": len(alphas), value_key: value}, []


def _registered(sweep: dict, consistent) -> tuple[dict, list]:
    """The five registered representations on the consistent set: each must
    be constant there and equal its closed power of the consistent value.
    The adjoint class factors as the product of the two swept classes, and
    the rank-4 rho8 class equals c(lambda1+delta)^8 * c(lambda2); both
    readings must agree with the registry computation."""
    table, target = sweep["table"], sweep["expected"][0]
    classes = [[_class_poly(table.p, m) for m in table.counts[k]] for k in sorted(consistent)]
    col = {name: j for j, name in enumerate(REP_NAMES, 2)}
    problems, named = [], {}
    for name in REP_NAMES:
        values = {c[col[name]].render() for c in classes}
        if len(values) > 1:
            problems.append(f"{name} is not constant on the consistent set")
        named[name] = sorted(values)[0] if values else None
    for name, e in {"rho4": 1, "rho6": 1, "rho7": 2, "rho4adj": 2, "rho8": 9}.items():
        if named[name] != (target**e).render():
            problems.append(f"{name} = {named[name]}, expected {(target**e).render()}")
    adj_ok = all(c[col["rho4adj"]] == c[0] * c[1] for c in classes)
    alt_ok = all(c[col["rho8"]] == (c[0] ** 8) * c[1] for c in classes)
    if not adj_ok:
        problems.append("rho4adj product identity fails on the consistent set")
    if not alt_ok:
        problems.append("rho8 alternate reading disagrees on the consistent set")
    evidence = {"rho4adj_product_identity": adj_ok, "rho8_alternate_reading_agrees": alt_ok}
    return {"polynomials": named, **evidence}, problems


_MIXED_NOTE = (
    "coordinate pairs with squares (1,-1) contribute"
    " 1 - t^4 = (1 - t^2)(1 + t^2); the product form is unaffected"
)


def _mixed(sweep: dict, consistent) -> tuple[dict, list]:
    """The orbit-weighted number of mod-5 points where some coordinate squares
    to 1 and another to -1 (lambda1's counts), and the note on them."""
    table = sweep["table"]
    weight = sum(w for w, (_, _, m1) in zip(table.weights, table.counts) if m1[1] and m1[2])
    return {"mixed_square_pair_points": weight, "notes": [_MIXED_NOTE]}, []


def _s5(sweep: dict, consistent) -> tuple[dict, list]:
    """The consistent set S5: its orbit-weighted size and first points, the
    values of its rho8 class c(lambda2) c(delta+) with their orbit-weighted
    occurrences and the coefficient of t^d in each expected value that
    occurs (-1 and -2 mod 5), and the mixed-square points (_mixed)."""
    table, d = sweep["table"], sweep["subring_exponent"]
    classes = sorted(consistent)
    occ: Counter = Counter()
    for k, value in zip(classes, _reading(table, (0, 1), classes)):
        occ[value.render()] += table.weights[k]
    coefficients = {v.render(): v.coefficient(d) for v in sweep["expected"]}
    evidence, _ = _mixed(sweep, consistent)
    evidence["notes"].append(
        "which of the two consistent values is realized by the geometric"
        " subgroup is not decided here; occurrences of both are reported"
    )
    return {
        **evidence,
        "s5_count": sum(table.weights[k] for k in consistent),
        "s5_values": sorted(occ),
        "s5_value_occurrences": dict(sorted(occ.items())),
        "c100_coefficients": {key: c for key, c in coefficients.items() if key in occ},
        "s5_witnesses_first": [_point(table, i) for i in table.first(consistent, WITNESS_CAP)],
        "witness_cap": WITNESS_CAP,
    }, []


# ---------------------------------------------------------------------------
# The six sweep statements: rows of data and one judge.
# ---------------------------------------------------------------------------

# A check: its key (a mod-3 witness's "check", a mod-5 witness list's key),
# its predicate (a _PREDICATES name, or "off": none of the expected values),
# the columns (readings, for "off") it unions its classes over, its witness
# fields (name, column), the evidence flag true when every check carrying
# it passes, and its problem text (its key if None).
_Check = namedtuple(
    "_Check", "key predicate columns fields flag problem", defaults=((), None, None)
)

# A row: its witness layout, the readings that must all lie in F_p[t^d] on
# the consistent set, the problem when that set is empty, its constant
# parameters and evidence, its reads, each (sweep, consistent classes) ->
# (evidence, problems) beyond the checks, and its checks in problem order.
_Row = namedtuple("_Row", "layout filter empty parameters evidence reads checks")

_DIV, _EMPTY = "divisible_by_1_minus_t2_all", "consistent set is empty"
_CLOSURE5, _PM5 = "negation closure fails", "plus/minus product form fails"
_TRIVIAL5 = "c(lambda2) is trivial somewhere"
_VALUE5 = "a consistent point has an unexpected value"
_ROWS = {
    "theorem-1.1": _Row(
        _merged, ((0,), (1,)), "joint-consistent set is empty", {"mode": "full", "points": 80}, {},
        (functools.partial(_consistent_points, "consistent_value"), _registered), (
            _Check("closure", "closure", (0, 1)),
            _Check("lambda1+delta divisibility", "indivisible", (0,), flag=_DIV),
            _Check("lambda2 divisibility", "indivisible", (1,), flag=_DIV),
            _Check("lambda2 nontriviality", "trivial", (1,), flag="lambda2_nontrivial_all"),
            _Check("consistent value", "off", ((0,), (1,)), (("lambda1+delta", 0), ("lambda2", 1))),
        )),
    "prop-3.2": _Row(
        _merged, ((0,),), _EMPTY, {"character": "lambda1+delta"},
        {"character": "lambda1+delta", "joint_filter": False},
        (functools.partial(_consistent_points, "value_on_consistent_set"),), (
            _Check("closure", "closure", (0,)),
            _Check("divisibility", "indivisible", (0,)),
            _Check("value", "off", ((0,),), (("value", 0),)),
        )),
    "prop-3.3": _Row(
        _merged, ((0,), (1,)), _EMPTY, {"character": "lambda2"},
        {"character": "lambda2", "joint_filter": True},
        (functools.partial(_consistent_points, "value_on_consistent_set"),), (
            _Check("closure", "closure", (0, 1)),
            _Check("divisibility", "indivisible", (1,)),
            _Check("nontriviality", "trivial", (1,)),
            _Check("value", "off", ((1,),), (("value", 1),)),
        )),
    "theorem-4.1": _Row(
        _keyed, ((0, 1),), _EMPTY, {"points": TOTAL_POINTS_5}, {}, (_s5,), (
            _Check("fail_closure", "closure", (0, 1), (), "even_exponent_closure_all", _CLOSURE5),
            _Check("fail_pm", "pm", (0, 1), (), "pm_form_all", _PM5),
            _Check("fail_nontrivial", "trivial", (0,), (), "lambda2_nontrivial_all", _TRIVIAL5),
            _Check("fail_value", "off", ((0, 1),), problem=_VALUE5),
        )),
    "prop-4.3": _Row(
        _keyed, (), None, {"character": "lambda2"}, {"character": "lambda2"}, (_mixed,), (
            _Check("fail_closure", "closure", (0,), problem=_CLOSURE5),
            _Check("fail_pm", "pm", (0,), (), "pm_form_all", _PM5),
            _Check("fail_nontrivial", "trivial", (0,), (), "nontrivial_all", _TRIVIAL5),
        )),
    "prop-4.4": _Row(
        _keyed, (), None, {"character": "delta+"}, {"character": "delta+"}, (), (
            _Check("fail_closure", "closure", (1,), problem=_CLOSURE5),
            _Check("fail_pm", "pm", (1,), (), "pm_form_all", _PM5),
        )),
}


def _judge(statement: str, sweep: dict) -> CheckResult:
    """The certificate of statement from its row and its sweep (_sweep plus
    its own problems, evidence and parameters), judged afresh.  The
    consistent set is the classes where every reading of the filter lies in
    F_p[t^d].  A check fails where its predicate holds in any of its
    columns, a value check ("off") only on consistent classes.  The problems
    are the sweep's, the failed checks', the row's own if it filters and the
    consistent set has no point, then the reads'."""
    row = _ROWS[statement]
    table, d, expected = sweep["table"], sweep["subring_exponent"], sweep["expected"]
    consistent = range(len(table.counts))
    for r in row.filter:
        values = _reading(table, r, consistent)
        consistent = [k for k, c in zip(consistent, values) if in_subring(c, d)]
    evidence, failing = {**sweep["evidence"], **row.evidence}, {}
    for check in row.checks:
        if check.predicate == "off":
            classes = {
                k
                for r in check.columns
                for k, c in zip(consistent, _reading(table, r, consistent))
                if c not in expected
            }
        else:
            test = _PREDICATES[check.predicate]
            classes = {
                k
                for j in check.columns
                for k, cls in enumerate(table.counts)
                if test(cls[j], sweep["sizes"][j])
            }
        if check.flag:
            evidence[check.flag] = evidence.get(check.flag, True) and not classes
        if classes:
            failing[check] = classes
    problems = [*sweep["problems"], *(check.problem or check.key for check in failing)]
    if row.filter:
        evidence["subring_exponent"] = d
        if not sum(table.weights[k] for k in consistent):
            problems.append(row.empty)
    for read in row.reads:
        found, more = read(sweep, consistent)
        evidence.update(found)
        problems += more
    parameters = {**sweep["parameters"], **row.parameters}
    return CheckResult.judge(statement, parameters, evidence, problems, row.layout(table, failing))


# ---------------------------------------------------------------------------
# Mod 3: the 80-point sweep at rank 4.
# ---------------------------------------------------------------------------


@functools.cache
def _mod3_chars() -> tuple[Character, ...]:
    """The swept characters lambda1+delta and lambda2, then the registered
    representations, whose classes theorem-1.1 reads off the same table."""
    return (
        vector_weights(4) + half_spin_weights(4, "both"),
        exterior_square_weights(4),
        *(registry(name, 4) for name in REP_NAMES),
    )


def _sweep_mod3() -> dict:
    """The rank-4 mod-3 sweep of all 80 nonzero points (_sweep)."""
    table = count_table(3, _mod3_chars())
    evidence, parameters = {"points_total": 80}, {"p": 3, "rank": 4}
    return _sweep(_MOD3, table, problems=[], evidence=evidence, parameters=parameters)


def classify_f4_mod3() -> CheckResult:
    """Sweep all 80 nonzero restriction points of the rank-4 torus mod 3.

    Checks, for every point: both swept classes c(lambda1+delta) and
    c(lambda2) come from negation-closed exponent lists of the full size 24
    and are divisible by 1 - t^2, and c(lambda2) != 1.  Collects the
    joint-consistent set S of points where both classes lie in F_3[t^18]; S
    must be nonempty and both classes must equal 1 - t^18 on it.  Finally
    checks the five registered restricted representations against the
    closed powers of 1 - t^18 (_registered).  Every predicate is evaluated
    once per count class (3 classes): a class fixes the exponent counts of
    every column, so each class polynomial is the value at every point of
    the class.
    """
    return _judge("theorem-1.1", _sweep_mod3())


def check_prop32() -> CheckResult:
    """c(lambda1+delta) mod 3: divisible by 1 - t^2 at every nonzero point,
    and equal to 1 - t^18 at every point where it lies in F_3[t^18]."""
    return _judge("prop-3.2", _sweep_mod3())


def check_prop33() -> CheckResult:
    """c(lambda2) mod 3: divisible by 1 - t^2 and nontrivial at every nonzero
    point, and equal to 1 - t^18 at every point where both swept classes lie
    in F_3[t^18] (the joint filter mirrors the route through the adjoint
    representation, whose class is the product of the two)."""
    return _judge("prop-3.3", _sweep_mod3())


# ---------------------------------------------------------------------------
# Mod 5: the 390624-point sweep at rank 8.
# ---------------------------------------------------------------------------


@functools.cache
def _square_binomial(sign: int, e: int) -> UPoly:
    """(1 + sign*t^2)^e mod 5 by the binomial theorem: the memoized
    coefficients of (1 + sign*u)^e spread onto the even powers of t."""
    coeffs = [0] * (2 * e + 1)
    coeffs[::2] = _binomial_power(P5, sign % P5, e)
    return UPoly._reduced(P5, coeffs)


def _pm_form(m) -> "tuple[int, int] | None":
    """(e_minus, e_plus) with (1-t^2)^e_minus (1+t^2)^e_plus the mod-5 class
    polynomial of the counts m, or None if it is not of that form.

    Mod 5 the class is P_1(m[1], m[4]) P_2(m[2], m[3]) (_factors), and
    (1+t)(1-t) = 1 - t^2, (1+2t)(1-2t) = 1 + t^2, so the counts predict
    (m[1], m[2]); the prediction is accepted only when P_1, expanded from
    the counts, equals (1 - t^2)^m[1] and P_2 equals (1 + t^2)^m[2], both
    from binomial coefficients.  The four linear factors are coprime, so
    that holds exactly when the class is the predicted product.  On
    disagreement the two factors are multiplied out and the greedy
    repeated-division routine decides."""
    a_cnt, b_cnt = m[1], m[2]
    p1, p2 = _factors(m)
    if p1 == _square_binomial(-1, a_cnt) and p2 == _square_binomial(1, b_cnt):
        return a_cnt, b_cnt
    return pm_factorization(p1 * p2)


@functools.cache
def _mod5_chars() -> tuple[Character, ...]:
    """lambda2, delta+ and lambda1, which restricts to +-alpha_i, so its
    counts record which squares occur."""
    return exterior_square_weights(N5), half_spin_weights(N5, "+"), vector_weights(N5)


def sweep_mod5(mode: str) -> dict:
    """The rank-8 mod-5 sweep of mode (_sweep: both modes judge the full
    table's classes), its point and orbit-weight totals, and its
    problems: a wrong point or orbit-weighted total, then class weights
    that differ from the full table's."""
    full = count_table(P5, _mod5_chars())
    table = count_table(P5, _mod5_chars(), mode)
    points, weighted = table.points, table.weighted_points
    expected = TOTAL_POINTS_5 if mode == "full" else CANONICAL_POINTS_5
    problems = []
    if points != expected:
        problems.append(f"scanned {points} points, expected {expected}")
    if weighted != TOTAL_POINTS_5:
        problems.append(f"orbit-weighted total {weighted}, expected {TOTAL_POINTS_5}")
    if table.weights != full.weights:
        problems.append("orbit-weighted class weights differ from the full sweep's")
    evidence = {"mode": mode, "points_scanned": points, "points_weighted": weighted}
    parameters = {"p": P5, "rank": N5, "mode": mode}
    return _sweep(_MOD5, table, points=points, weighted_points=weighted,
                  problems=problems, evidence=evidence, parameters=parameters)


def classify_e8_mod5(mode: str) -> CheckResult:
    """Sweep the rank-8 restriction points mod 5.

    For every point: the exponent lists of the exterior square and the
    positive half-spin character must be negation-closed of sizes 112 and
    128, and their expanded classes both products of 1 - t^2 and 1 + t^2
    factors, with the exterior square nontrivial.  Points whose product
    class lies in F_5[t^100] form the consistent set S5, which must be
    nonempty with every value equal to 1 - t^100 or (1 - t^100)^2; the
    certificate reports which of the two occur and how often (_s5).
    """
    return _judge("theorem-4.1", sweep_mod5(mode))


def check_prop43(mode: str) -> CheckResult:
    """c(lambda2) mod 5 comes from a negation-closed exponent list of size
    112, is a product of 1 - t^2 and 1 + t^2 factors and is nontrivial, at
    every nonzero point.  Reads column 0 (lambda2) only."""
    return _judge("prop-4.3", sweep_mod5(mode))


def check_prop44(mode: str) -> CheckResult:
    """c(delta+) mod 5 comes from a negation-closed exponent list of size 128
    and is a product of 1 - t^2 and 1 + t^2 factors, at every nonzero point.
    Reads column 1 (delta+) only."""
    return _judge("prop-4.4", sweep_mod5(mode))
