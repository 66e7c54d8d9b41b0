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
precomputed ints per pair of signatures.  A class's Chern class of one character is held as
its negation-pair factors P_v(a, b) = (1 + v*t)^a (1 - v*t)^b, one per
pair {v, -v} of nonzero residues, each expanded from the counts a of v and
b of -v once per (p, v, a, b); a column is multiplied out only where a
predicate, a fallback or a certificate reads it.  Every statement
predicate, mod 3 and mod 5, is evaluated once per class, and each point
keeps only its class id, one byte, laid out per front row by one C-level
call, from which consistent sets and witness lists are read back in point
order.  All 390624 mod-5 points fall into 53 count classes, and the 80
mod-3 points into 3.

Both primes judge their classes one way: per swept column j, a frozenset
of the classes where each named predicate holds, keyed name{j}
(_class_sets), and each statement reads only the sets of the columns it is
about.  Tables are memoized per (p, characters, mode), so the statements
that share a sweep share one table and a changed character gets a table of
its own; the class sets are memoized per (table, subring exponent), so a
changed bound is judged afresh against the same table.  A canonical table
is a view of the full one (count_table), so both modes judge one set of
classes.  The sweep runs in one process.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from collections import Counter, namedtuple
from operator import add, itemgetter, mul

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

def _render_alpha(alpha) -> str:
    return ",".join(str(a) for a in alpha)


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
    each exponent value 0..p-1 in class k, weights[k] its orbit-weighted
    number of points and column(j)[k] its total Chern class of character j,
    multiplied out from the factors on each read of column(j).
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

    def factors(self, j: int) -> tuple[tuple[UPoly, ...], ...]:
        """Each class's negation-pair factors of character j, in class order:
        P_v(m[v], m[-v]) for v = 1..(p-1)/2, m the class's counts (see
        _pair_factor).  Their product is the class's total Chern class; at
        p = 3 the one factor is that class."""
        p = self.p
        return tuple(
            tuple(_pair_factor(p, v, m[v], m[p - v]) for v in range(1, (p + 1) // 2))
            for m in (cls[j] for cls in self.counts)
        )

    def column(self, j: int) -> tuple[UPoly, ...]:
        """Each class's total Chern class of character j, in class order,
        its factors multiplied out on each read (no command reads a column
        twice).  The mod-5 predicates read only the factors and the counts,
        so a mod-5 column is multiplied out only for a certificate or a
        fallback that reads it."""
        return tuple(map(_multiply, self.factors(j)))

    @property
    def polys(self) -> tuple:
        """polys[k][j] is column(j)[k]; each read multiplies out every column."""
        return tuple(zip(*(self.column(j) for j in range(len(self.counts[0])))))

    def first(self, classes, cap: int) -> list[str]:
        """The first cap points, in sweep order, whose class is in classes."""
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
            found.append(_render_alpha(self.alpha(i)))
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
    are one memoized function of the pair of signatures (_cell, called once
    per pair): with the p rolled copies of each U_c precomputed per front
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
    cell = functools.cache(lambda s, t: _cell(grid, s, t))
    index: dict[int, int] = {}
    weight: Counter = Counter()
    rows = [_group([cell(s, t) for t in range(len(grid.hb))], index) for s in range(len(grid.hf))]
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


@functools.cache
def _pair_factor(p: int, v: int, a: int, b: int) -> UPoly:
    """P_v(a, b) = (1 + v*t)^a (1 - v*t)^b over F_p, the factor of a total
    Chern class from the a weights with exponent v and the b with exponent
    -v, expanded from those counts once per (p, v, a, b)."""
    return chern_of_counts(p, ((v, a), (p - v, b)))


def _multiply(factors) -> UPoly:
    """The product of a class's factors: the class polynomial."""
    return functools.reduce(mul, factors)


def _consistent_value(p: int, d: int) -> UPoly:
    """1 - t^d, d = p^3 - p^2: the value expected on the consistent set."""
    return UPoly.one(p) - UPoly.monomial(p, 1, d)


def _class_sets(table: CountTable, sizes: tuple[int, ...], predicates) -> dict[str, frozenset[int]]:
    """For each swept column j (the first len(sizes) columns) and each named
    predicate of (counts, negation-pair factors), the classes where it
    holds, keyed name{j}.  Two predicates are shared by both primes:
    "closure", the column's exponent list is not negation-closed
    (m[v] != m[-v mod p]) or misses the paper's constant size sizes[j],
    which a lost +- pair breaks, and "trivial", every factor is 1, so the
    class is 1."""
    p = table.p
    sets = {}
    for j, size in enumerate(sizes):
        tests = {
            "closure": lambda m, fs: sum(m) != size or any(m[v] != m[-v % p] for v in range(1, p)),
            "trivial": lambda m, fs: all(f.is_one for f in fs),
            **predicates,
        }
        column = tuple(zip((cls[j] for cls in table.counts), table.factors(j)))
        for name, test in tests.items():
            sets[f"{name}{j}"] = frozenset(k for k, (m, fs) in enumerate(column) if test(m, fs))
    return sets


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


_SWEPT3 = ("lambda1+delta", "lambda2")


@functools.cache
def _mod3_classes(table: CountTable, d: int) -> dict[str, frozenset[int]]:
    """The mod-3 class sets of _class_sets for the swept columns 0
    (lambda1+delta) and 1 (lambda2), both of size 24, memoized per table and
    subring exponent d: besides "closure{j}" and "trivial{j}", the classes
    where the column is not divisible by 1 - t^2 ("indivisible{j}"), lies in
    F_3[t^d] ("sub{j}") or differs from 1 - t^d ("off{j}")."""
    one_minus_t2 = UPoly(3, (1, 0, 2))
    target = _consistent_value(3, d)
    return _class_sets(
        table,
        (24, 24),
        {
            "indivisible": lambda m, fs: _multiply(fs).divexact(one_minus_t2) is None,
            "sub": lambda m, fs: in_subring(_multiply(fs), d),
            "off": lambda m, fs: _multiply(fs) != target,
        },
    )


def _mod3_walk(table: CountTable, consistent, checks) -> tuple[list[str], list[dict], list[str]]:
    """One walk over the 80 points in sweep order: the points whose class is
    in consistent, and a witness per failed check, in check order within a
    point.  A check is (label, failing classes, fields), and its witness
    carries the point, the label and, per field name, the class polynomial
    of that column; each check keeps its first WITNESS_CAP witnesses.  The
    problems are the labels of the failed checks."""
    alphas: list[str] = []
    witnesses: list[dict] = []
    kept: Counter = Counter()
    # a witness's columns are multiplied out once, and only if its check fails
    columns = {j: table.column(j) for _, failing, fs in checks if failing for j in fs.values()}
    for i, k in enumerate(table.class_of.tolist()):
        alpha = _render_alpha(table.alpha(i))
        if k in consistent:
            alphas.append(alpha)
        for label, failing, fields in checks:
            if k in failing and kept[label] < WITNESS_CAP:
                kept[label] += 1
                witness = {"alpha": alpha, "check": label}
                witness.update((name, columns[j][k].render()) for name, j in fields.items())
                witnesses.append(witness)
    return alphas, witnesses, [label for label, failing, _ in checks if failing]


def classify_f4_mod3() -> CheckResult:
    """Sweep all 80 nonzero restriction points of the rank-4 torus mod 3.

    Checks, for every point: both swept classes c(lambda1+delta) and
    c(lambda2) come from negation-closed exponent lists of the full size 24
    and are divisible by 1 - t^2, and c(lambda2) != 1.  Collects the
    joint-consistent set S of points where both classes lie in F_3[t^18]; S
    must be nonempty and both classes must equal 1 - t^18 on it.  Finally
    checks the five registered restricted representations against the
    closed powers of 1 - t^18.  Every predicate is evaluated once per count
    class (3 classes): the registered characters are columns of the same
    count table, and a class fixes the exponent counts of every column, so
    each class polynomial is the value at every point of the class.
    """
    p, n, d = 3, 4, subring_bound(3)
    target = _consistent_value(p, d)
    table = count_table(p, _mod3_chars())
    cls = _mod3_classes(table, d)
    polys = table.polys  # theorem-1.1 reads every column
    col = {name: j for j, name in enumerate(REP_NAMES, 2)}

    joint = cls["sub0"] & cls["sub1"]
    checks = (
        ("closure", cls["closure0"] | cls["closure1"], {}),
        ("lambda1+delta divisibility", cls["indivisible0"], {}),
        ("lambda2 divisibility", cls["indivisible1"], {}),
        ("lambda2 nontriviality", cls["trivial1"], {}),
        (
            "consistent value",
            joint & (cls["off0"] | cls["off1"]),
            {"lambda1+delta": 0, "lambda2": 1},
        ),
    )
    consistent, witnesses, problems = _mod3_walk(table, joint, checks)
    if not consistent:
        problems.append("joint-consistent set is empty")

    classes = [polys[k] for k in sorted(joint)]
    named: dict[str, "str | None"] = {}
    for name in REP_NAMES:
        values = {c[col[name]].render() for c in classes}
        if len(values) > 1:
            problems.append(f"{name} is not constant on the consistent set")
        named[name] = sorted(values)[0] if values else None

    expected = {
        "rho4": target,
        "rho6": target,
        "rho7": target**2,
        "rho4adj": target**2,
        "rho8": target**9,
    }
    for name, poly in expected.items():
        if named[name] != poly.render():
            problems.append(f"{name} = {named[name]}, expected {poly.render()}")

    # the adjoint class factors as the product of the two swept classes, and
    # the rank-4 rho8 class equals c(lambda1+delta)^8 * c(lambda2); both
    # readings of that line must agree with the registry computation
    adj_ok = all(c[col["rho4adj"]] == c[0] * c[1] for c in classes)
    alt_ok = all(c[col["rho8"]] == (c[0] ** 8) * c[1] for c in classes)
    if not adj_ok:
        problems.append("rho4adj product identity fails on the consistent set")
    if not alt_ok:
        problems.append("rho8 alternate reading disagrees on the consistent set")

    evidence = {
        "points_total": 3**n - 1,
        "subring_exponent": d,
        "divisible_by_1_minus_t2_all": not (cls["indivisible0"] | cls["indivisible1"]),
        "lambda2_nontrivial_all": not cls["trivial1"],
        "consistent_alphas": sorted(consistent),
        "consistent_count": len(consistent),
        "consistent_value": target.render(),
        "polynomials": named,
        "rho4adj_product_identity": adj_ok,
        "rho8_alternate_reading_agrees": alt_ok,
    }
    parameters = {"p": p, "rank": n, "mode": "full", "points": 3**n - 1}
    return CheckResult.judge("theorem-1.1", parameters, evidence, problems, witnesses)


def check_prop32() -> CheckResult:
    """c(lambda1+delta) mod 3: divisible by 1 - t^2 at every nonzero point,
    and equal to 1 - t^18 at every point where it lies in F_3[t^18]."""
    return _prop3_single(0, "prop-3.2")


def check_prop33() -> CheckResult:
    """c(lambda2) mod 3: divisible by 1 - t^2 and nontrivial at every nonzero
    point, and equal to 1 - t^18 at every point where both swept classes lie
    in F_3[t^18] (the joint filter mirrors the route through the adjoint
    representation, whose class is the product of the two)."""
    return _prop3_single(1, "prop-3.3")


def _prop3_single(j: int, statement: str) -> CheckResult:
    """The checks for the swept character in column j of the mod-3 table:
    lambda2 (j = 1) also must be nontrivial, and its consistent set is the
    joint one.  Closure covers the columns the statement reads."""
    p, n, d = 3, 4, subring_bound(3)
    table = count_table(p, _mod3_chars())
    cls = _mod3_classes(table, d)
    joint = j == 1
    consistent_classes = cls["sub0"] & cls["sub1"] if joint else cls["sub0"]
    closure = cls["closure0"] | cls["closure1"] if joint else cls["closure0"]
    checks = [("closure", closure, {}), ("divisibility", cls[f"indivisible{j}"], {})]
    if joint:
        checks.append(("nontriviality", cls["trivial1"], {}))
    checks.append(("value", consistent_classes & cls[f"off{j}"], {"value": j}))
    consistent, witnesses, problems = _mod3_walk(table, consistent_classes, checks)
    if not consistent:
        problems.append("consistent set is empty")
    evidence = {
        "character": _SWEPT3[j],
        "points_total": 3**n - 1,
        "subring_exponent": d,
        "joint_filter": joint,
        "consistent_count": len(consistent),
        "consistent_alphas": sorted(consistent),
        "value_on_consistent_set": _consistent_value(p, d).render(),
    }
    parameters = {"p": p, "rank": n, "character": _SWEPT3[j]}
    return CheckResult.judge(statement, parameters, evidence, problems, witnesses)


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

    Mod 5 the class is P_1(m[1], m[4]) P_2(m[2], m[3]) (_pair_factor), and
    (1+t)(1-t) = 1 - t^2, (1+2t)(1-2t) = 1 + t^2, so the counts predict
    (m[1], m[2]); the prediction is accepted only when P_1, expanded from
    the counts, equals (1 - t^2)^m[1] and P_2 equals (1 + t^2)^m[2], both
    from binomial coefficients.  The four linear factors are coprime, so
    that holds exactly when the class is the predicted product.  On
    disagreement the two factors are multiplied out and the greedy
    repeated-division routine decides."""
    a_cnt, b_cnt = m[1], m[2]
    p1, p2 = _pair_factor(P5, 1, a_cnt, m[4]), _pair_factor(P5, 2, b_cnt, m[3])
    if p1 == _square_binomial(-1, a_cnt) and p2 == _square_binomial(1, b_cnt):
        return a_cnt, b_cnt
    return pm_factorization(p1 * p2)


@functools.cache
def _mod5_chars() -> tuple[Character, ...]:
    """lambda2, delta+ and lambda1, which restricts to +-alpha_i, so its
    counts record which squares occur."""
    return exterior_square_weights(N5), half_spin_weights(N5, "+"), vector_weights(N5)


_MIXED_NOTE = (
    "coordinate pairs with squares (1,-1) contribute"
    " 1 - t^4 = (1 - t^2)(1 + t^2); the product form is unaffected"
)

_FAILURE_PROBLEMS = {
    "fail_closure": "negation closure fails",
    "fail_pm": "plus/minus product form fails",
    "fail_nontrivial": "c(lambda2) is trivial somewhere",
    "fail_value": "a consistent point has an unexpected value",
}


def _rho8(counts) -> UPoly:
    """The rho8 class c(lambda2) c(delta+) of a mod-5 count class, expanded
    from the two characters' summed counts (_summed_class)."""
    m2, mD, _ = counts
    return _summed_class(tuple(map(add, m2, mD)))


@functools.cache
def _summed_class(m: tuple) -> UPoly:
    """The total Chern class mod 5 with m[v] weights of exponent v, expanded
    from the counts once per m: the 53 classes of a sweep have 13 distinct
    rho8 count sums."""
    return chern_of_counts(P5, enumerate(m))


@functools.cache
def _mod5_classes(full: CountTable, d: int) -> dict[str, frozenset[int]]:
    """The mod-5 class sets, memoized per full table and subring exponent d,
    so both modes judge the classes once: the sets of _class_sets for the
    swept columns 0 (lambda2, size 112) and 1 (delta+, size 128), plus
    "pm{j}", where the column is not a product of 1 - t^2 and 1 + t^2
    factors (_pm_form, on the factors); and, from the rho8 class (_rho8),
    "s5", where it lies in F_5[t^d], "value", where it does with a value
    other than 1 - t^d and (1 - t^d)^2, and "mixed", where some coordinate
    squares to 1 and another to -1 (lambda1's counts)."""
    sets = _class_sets(full, (112, 128), {"pm": lambda m, fs: _pm_form(m) is None})
    v100 = _consistent_value(P5, d)
    allowed = (v100.render(), (v100**2).render())
    s5, value, mixed = [], [], []
    for k, counts in enumerate(full.counts):
        fr = _rho8(counts)
        if in_subring(fr, d):
            s5.append(k)
            if fr.render() not in allowed:
                value.append(k)
        _, _, m1 = counts
        if m1[1] and m1[2]:
            mixed.append(k)
    sets.update(s5=frozenset(s5), value=frozenset(value), mixed=frozenset(mixed))
    return sets


def sweep_mod5(mode: str) -> dict:
    """Run the rank-8 mod-5 sweep: the table of mode and the full table's
    class sets (both memoized, see _mod5_classes) under the current subring
    exponent, the point and orbit-weight totals, whether the class weights
    equal the full table's, the orbit-weighted size and first points of the
    consistent set S5, the occurrences of each S5 value and the
    orbit-weighted number of mixed-square points."""
    d = subring_bound(P5)
    full = count_table(P5, _mod5_chars())
    table = count_table(P5, _mod5_chars(), mode)
    sets = _mod5_classes(full, d)
    occ: dict[str, int] = {}
    for k in sorted(sets["s5"]):
        key = _rho8(table.counts[k]).render()
        occ[key] = occ.get(key, 0) + table.weights[k]
    return {
        "table": table,
        "sets": sets,
        "subring_exponent": d,
        "points": table.points,
        "weighted_points": table.weighted_points,
        "weights_agree": table.weights == full.weights,
        "s5_weight": sum(table.weights[k] for k in sets["s5"]),
        "s5_first": table.first(sets["s5"], WITNESS_CAP),
        "occ": occ,
        "mixed_weight": sum(table.weights[k] for k in sets["mixed"]),
    }


def _mod5_result(statement, sweep, failing, evidence, parameters, problems=()) -> CheckResult:
    """A mod-5 statement's result from failing, its checks' failing classes
    keyed by witness key.  Each failed check records the first FAIL_CAP
    points of its classes as witnesses and names its problem; the problems
    start with any wrong point or orbit-weight total, then any difference
    between the table's class weights and the full table's, and end with
    the statement's own."""
    table, mode = sweep["table"], sweep["table"].mode
    witnesses = {key: table.first(ks, FAIL_CAP) for key, ks in failing.items() if ks}
    expected = TOTAL_POINTS_5 if mode == "full" else CANONICAL_POINTS_5
    found = []
    if table.points != expected:
        found.append(f"scanned {table.points} points, expected {expected}")
    if table.weighted_points != TOTAL_POINTS_5:
        found.append(f"orbit-weighted total {table.weighted_points}, expected {TOTAL_POINTS_5}")
    if not sweep["weights_agree"]:
        found.append("orbit-weighted class weights differ from the full sweep's")
    found += [_FAILURE_PROBLEMS[key] for key in witnesses]
    found += problems
    evidence = {
        "mode": mode,
        "points_scanned": table.points,
        "points_weighted": table.weighted_points,
        **evidence,
    }
    parameters = {"p": P5, "rank": N5, "mode": mode, **parameters}
    return CheckResult.judge(statement, parameters, evidence, found, witnesses)


def classify_e8_mod5(mode: str) -> CheckResult:
    """Sweep the rank-8 restriction points mod 5.

    For every point: the exponent lists of the exterior square and the
    positive half-spin character must be negation-closed of sizes 112 and
    128, and their expanded classes both products of 1 - t^2 and 1 + t^2
    factors, with the exterior square nontrivial.  Points whose product
    class lies in F_5[t^100] form the consistent set S5, which must be
    nonempty with every value equal to 1 - t^100 or (1 - t^100)^2; the
    certificate reports which of the two occur and how often.
    """
    sweep = sweep_mod5(mode=mode)
    sets, occ, d = sweep["sets"], sweep["occ"], sweep["subring_exponent"]
    failing = {
        "fail_closure": sets["closure0"] | sets["closure1"],
        "fail_pm": sets["pm0"] | sets["pm1"],
        "fail_nontrivial": sets["trivial0"],
        "fail_value": sets["value"],
    }
    # the coefficient of t^100 in each consistent value: -1 and -2 mod 5
    v100 = _consistent_value(P5, d)
    values = {v.render(): v.coefficient(d) for v in (v100, v100**2)}
    evidence = {
        "pm_form_all": not failing["fail_pm"],
        "lambda2_nontrivial_all": not failing["fail_nontrivial"],
        "even_exponent_closure_all": not failing["fail_closure"],
        "subring_exponent": d,
        "s5_count": sweep["s5_weight"],
        "s5_values": sorted(occ),
        "s5_value_occurrences": dict(sorted(occ.items())),
        "c100_coefficients": {key: c for key, c in values.items() if key in occ},
        "s5_witnesses_first": sweep["s5_first"],
        "witness_cap": WITNESS_CAP,
        "mixed_square_pair_points": sweep["mixed_weight"],
        "notes": [
            _MIXED_NOTE,
            "which of the two consistent values is realized by the geometric"
            " subgroup is not decided here; occurrences of both are reported",
        ],
    }
    empty = [] if sweep["s5_weight"] else ["consistent set is empty"]
    return _mod5_result("theorem-4.1", sweep, failing, evidence, {"points": TOTAL_POINTS_5}, empty)


def check_prop43(mode: str) -> CheckResult:
    """c(lambda2) mod 5 comes from a negation-closed exponent list of size
    112, is a product of 1 - t^2 and 1 + t^2 factors and is nontrivial, at
    every nonzero point.  Reads column 0 (lambda2) only."""
    sweep = sweep_mod5(mode=mode)
    sets = sweep["sets"]
    failing = {
        "fail_closure": sets["closure0"],
        "fail_pm": sets["pm0"],
        "fail_nontrivial": sets["trivial0"],
    }
    evidence = {
        "character": "lambda2",
        "pm_form_all": not failing["fail_pm"],
        "nontrivial_all": not failing["fail_nontrivial"],
        "mixed_square_pair_points": sweep["mixed_weight"],
        "notes": [_MIXED_NOTE],
    }
    return _mod5_result("prop-4.3", sweep, failing, evidence, {"character": "lambda2"})


def check_prop44(mode: str) -> CheckResult:
    """c(delta+) mod 5 comes from a negation-closed exponent list of size 128
    and is a product of 1 - t^2 and 1 + t^2 factors, at every nonzero point.
    Reads column 1 (delta+) only."""
    sweep = sweep_mod5(mode=mode)
    failing = {"fail_closure": sweep["sets"]["closure1"], "fail_pm": sweep["sets"]["pm1"]}
    evidence = {"character": "delta+", "pm_form_all": not failing["fail_pm"]}
    return _mod5_result("prop-4.4", sweep, failing, evidence, {"character": "delta+"})
