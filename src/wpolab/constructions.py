"""Explicit countable witness posets with two-order realizers.

Each construction returns a LazyPoset: a LazyOrder (an enumerated vertex
universe with a decidable strict order, which is also what a term of
`terms` denotes) with a two-order realizer, the order types of its two
orders, and a length certificate recorded as an arithmetic derivation.
The order comes twice: `lt_rows` builds it on a vertex list as one
successor bitset per vertex, from the construction's defining data (ranks,
indices, blocks), and the pairwise comparator `lt` is its oracle.  The
batch ranks read an enumerated index as its block path (`Enumeration.key`),
a plain tuple that sorts in C, and so do the realizer keys, but for
mixing's, which hold the order key `_key` of the index's value, read once
per distinct index; the `lt` oracles compare the values `Enumeration.at`
gives, so checking one against the other also checks that the path order
is the value order.  `at` and `key` stop their walk at a shared memo of
values and of block paths, so an index that several enumerations or
levels meet is walked down once while the memo holds it.  Every
order here is a rank order or an intersection of rank orders, placed in
blocks, so its rows come out closed and acyclic with no closure pass: a
rank leaf sorts once by rank and keeps a running OR, and a sum hands each
part the bits of that part's own vertices; the sums and products of
closed orders that `terms` denotes are closed too, so `LazyOrder.poset`
takes every order's rows as built.  A realizer is two linear
orders whose intersection is the order (Dushnik & Miller), each given by a
per-vertex key: x comes before y when key(x) < key(y), and two vertices
with equal keys are incomparable, so a tie is how a non-linear order shows
up.  Certificates are claims about the infinite object; prefix_audit
verifies the finite structure (order axioms, realizer linearity, exact
intersection, and any checks the construction adds, such as the mixing
invariants) on enumerated prefixes, all on successor bitsets: the order
from `lt_rows`, and each realizer order built as rows from one sort of its
keys, so the intersection check compares separate code paths; an order
equal to that intersection is antisymmetric and transitive, so only a
mismatch searches the rows for those two witnesses.

Realizer keys are plain data, an int or a tuple of plain data: `<` on
them is lexicographic and transitive wherever it does not raise, so one
sort of a prefix's keys decides whether their order is linear.

Everything is built at the countable scale: uncountable cardinals exist
only symbolically in the theta calculus, since only countable structures
admit prefix audits.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import accumulate, chain
from operator import and_, lt, or_
from typing import Callable, NamedTuple, Optional

from .ordinals import (
    OMEGA,
    ZERO,
    CnfOrdinal,
    OrdinalError,
    add,
    as_ordinal,
    euclid_div,
    from_int,
    fund_seq,
    left_subtract,
    mul,
    nat_add,
    nat_mul,
    omega_pow,
)
from .posets import FinPoset, PosetError, _bits, _first_bit, _transpose


# -- canonical enumerations of countable ordinals --------------------------------


class Enumeration:
    """A fixed bijection between the naturals and {beta < alpha}.

    The coding is frozen for reproducibility: identity below omega;
    otherwise alpha is cut into unit blocks (one block per unit power
    omega^e of its normal form, the finite part as one block), blocks are
    visited anti-diagonally (within diagonal d, block index descending),
    and each omega^e block is enumerated the same way through its
    fundamental sequence.  `at` and `key` share one loop down the cached
    levels (`_layout`) and blocks (`_block`), `_descent`, each level placing
    an index in its block in closed form; `at` adds up the blocks' offsets
    into values, `key` keeps the block numbers as a tuple of ints whose
    order is the values' order.  Both memoize by (ordinal, index) in a
    bounded memo shared by every enumeration (`_VALUES`, `_PATHS`), which
    the walk stops at, so a sub-level met again is not walked again; `key`
    also keeps every index asked of it on its enumeration: the caller's
    prefix bounds that memo, and it lives as long as its enumeration.
    `index` walks the levels the other way.
    """

    def __init__(self, alpha: CnfOrdinal):
        alpha = as_ordinal(alpha)
        if alpha.is_zero:
            raise OrdinalError("cannot enumerate below 0")
        self.alpha = alpha
        self.size = alpha.as_int() if alpha.is_finite else None
        self._keys: dict = {}  # index -> key, every index asked for
        self._skip = math.inf
        if alpha.is_finite or alpha is OMEGA:
            self._kind = "range"
        elif len(alpha.terms) == 1 and alpha.terms[0][1] == 1:
            self._kind = "power"  # omega^e, e >= 2 or a limit exponent
            self._block_count = math.inf
            self._cell = _diagonal_cell(None, None)
        else:
            self._kind = "blocks"
            # per term w^e*c: its first block and the sum of the earlier
            # terms; the term has c blocks w^e, or one block if e = 0
            self._heads = [CnfOrdinal(alpha.terms[:t]) for t in range(len(alpha.terms))]
            self._firsts = [0, *accumulate(1 if e.is_zero else c for e, c in alpha.terms)]
            n = self._block_count = self._firsts.pop()
            self._cell = _diagonal_cell(None, n)
            if alpha.is_successor:
                # from this cell on the finite last block has run out, so
                # each diagonal's first cell is empty
                self._skip = n * (n + 1) // 2 + (alpha.terms[-1][1] - 1) * n

    def at(self, i: int) -> CnfOrdinal:
        steps, i, value = self._descent(i, _VALUES)
        if value is None:
            value = from_int(i)
        if len(_VALUES) + len(steps) > VALUE_MEMO_SIZE:
            _VALUES.clear()
        for level, i, _, offset in reversed(steps):
            value = _VALUES[level.alpha, i] = add(offset, value)
        return value

    def key(self, i: int) -> tuple:
        """The block path of at(i): the block numbers b0, ..., b_{k-1} that
        at's walk takes down the levels, then its index on the last level.
        Blocks ascend by offset and a block is its offset plus its
        sub-enumeration, so keys compare lexicographically as the values
        do, and no ordinal is built (a walk that stops at index 0 gives a
        prefix of every other key in its block, and 0 is below them).  A
        key is a tuple of ints, plain data as realizer keys must be.
        Memoized on this enumeration, one walk per index; the walk stops at
        a level whose (alpha, index) the shared path memo holds, the key of
        that index on that level, and fills it on the way back up."""
        key = self._keys.get(i)
        if key is None:
            steps, j, key = self._descent(i, _PATHS)
            if key is None:
                key = (j,)
            if len(_PATHS) + len(steps) > VALUE_MEMO_SIZE:
                _PATHS.clear()
            for level, k, b, _ in reversed(steps):
                key = _PATHS[level.alpha, k] = (b, *key)
            self._keys[i] = key
        return key

    def _descent(self, i: int, memo=None) -> tuple[list, int, Optional[CnfOrdinal]]:
        """The one walk down the levels that at and key share: on a level
        that is not a range, while i is not 0 (block 0 starts at 0 on every
        level), i is placed in its block b as index j in closed form and the
        walk steps into b's sub-level at j.  It stops early on a level whose
        (alpha, i) the given memo holds (at's values, key's paths).  Returns
        the steps (level, i, b, offset of b), the index it stopped at and
        the memo's entry there (None if it reached a range level or index
        0)."""
        if i < 0 or (self.size is not None and i >= self.size):
            raise OrdinalError("enumeration index %d out of range" % i)
        level, steps = self, []
        while level._kind != "range" and i:
            if memo and (value := memo.get((level.alpha, i))) is not None:
                return steps, i, value
            k = i
            if i >= level._skip:
                k += (i - level._skip) // (level._block_count - 1) + 1
            j, b = level._cell(k)
            offset, sub = _block(level.alpha, b)
            steps.append((level, i, b, offset))
            level, i = _layout(sub), j
        return steps, i, None

    def index(self, beta: CnfOrdinal) -> int:
        """Inverse of at (beta must lie below alpha), in closed form."""
        if not beta < self.alpha:
            raise OrdinalError("%s is not below %s" % (beta, self.alpha))
        level, steps = self, []  # (level, block) per level above
        while level._kind != "range" and beta is not ZERO:
            # beta's block: after the terms beta shares with alpha, its next
            # coefficient of w^e counts whole blocks; a limit power walks them
            b, e, rest = 0, level.alpha.leading_exp, ()
            if level._kind == "blocks":
                t = bisect.bisect_right(level._heads, beta) - 1
                b, e, rest = level._firsts[t], level.alpha.terms[t][0], beta.terms[t:]
            elif e.is_successor:
                e, rest = e.pred(), beta.terms
            else:
                while not beta < _block(level.alpha, b + 1)[0]:
                    b += 1
            if rest and rest[0][0] is e and not e.is_zero:
                b += rest[0][1]
            offset, sub = _block(level.alpha, b)
            steps.append((level, b))
            level, beta = _layout(sub), left_subtract(offset, beta)
        i = beta.as_int()
        for level, b in reversed(steps):
            # the cells of the diagonals before d, b's place in d, less the empty cells
            d = b + i
            top, last = min(d, level._block_count), min(d, level._block_count - 1)
            i = top * d - top * (top - 1) // 2 + last - b
            if i >= level._skip:
                i -= (i - level._skip) // level._block_count + 1
        return i


# Cache bounds: a tower such as w^(w^w) meets a new sub-ordinal at nearly
# every vertex, so every table of sub-ordinals is bounded, and the two
# memos shared by every enumeration, at's values and key's block paths by
# (ordinal, index), each hold at most VALUE_MEMO_SIZE entries and are
# emptied when full.  Each enumeration's own key memo holds only the
# indices its caller asked for.
LAYOUT_CACHE_SIZE = 1024
BLOCK_CACHE_SIZE = 4096
VALUE_MEMO_SIZE = 4096
_VALUES: dict = {}
_PATHS: dict = {}
_layout = lru_cache(maxsize=LAYOUT_CACHE_SIZE)(Enumeration)


@lru_cache(maxsize=BLOCK_CACHE_SIZE)
def _block(alpha: CnfOrdinal, b: int) -> tuple[CnfOrdinal, CnfOrdinal]:
    """Block b of alpha as (offset, sub): offset + beta for every beta < sub."""
    level = _layout(alpha)
    if level._kind == "blocks":
        t = bisect.bisect_right(level._firsts, b) - 1
        e, c = alpha.terms[t]
        if e.is_zero:
            return level._heads[t], from_int(c)
        return add(level._heads[t], omega_pow(e, b - level._firsts[t])), omega_pow(e)
    # a pure power omega^e: block b is the b-th step of its fundamental
    # sequence, and block 0 starts at 0 (for a limit e the sequence does not);
    # for a limit e the steps are powers, so block b is step b + 1 itself,
    # as w^a + w^c = w^c for a < c
    e = alpha.leading_exp
    if e.is_successor:
        step = omega_pow(e.pred())
        return mul(step, from_int(b)), step
    return ZERO if b == 0 else fund_seq(alpha, b), fund_seq(alpha, b + 1)


def enum_below(alpha) -> Enumeration:
    return Enumeration(alpha)


# -- lazy posets with realizers ----------------------------------------------------


@dataclass
class LazyOrder:
    """An enumerated strict order: `vertex(i)` is the i-th vertex, and
    `size` the number of vertices, None when infinite.  `lt_rows(vs,
    bits=None)` is the order on a list of distinct vertices as one
    successor bitset per vertex, written in target coordinates: bits[t] is
    the mask that stands for vs[t] (default 1 << t), and rows[s] is the OR
    of bits[t] over every t with vs[s] < vs[t].  It is built in one batch
    from the defining data (ranks, indices, blocks), comes out closed, and
    is what prefix_audit and `poset(n)`, the one way to a FinPoset, read; a
    sum hands each part its own vertices' bits, so a part writes straight
    into the sum's coordinates.  `lt` is the same order as a pairwise
    comparator, the oracle that tests and the suites compare `lt_rows`
    against."""

    vertex: Callable[[int], object]
    lt: Callable[[object, object], bool]
    lt_rows: Callable[..., list]
    size: Optional[int] = None

    def prefix(self, n: int) -> list:
        if n < 0:
            raise PosetError("vertex count %d is negative" % n)
        if self.size is not None and n > self.size:
            raise PosetError("a prefix of %d vertices was requested, but the "
                             "poset has only %d" % (n, self.size))
        return [self.vertex(i) for i in range(n)]

    def poset(self, n: int) -> FinPoset:
        """The FinPoset of the first n vertices, its rows from lt_rows as
        built, with no closure pass (see the module docstring)."""
        return FinPoset(n, tuple(self.lt_rows(self.prefix(n))))


@dataclass(kw_only=True)
class LazyPoset(LazyOrder):
    """An enumerated order with a two-order realizer.

    `lt_rows` never reads the realizer keys or the audit's key ranking.
    The realizer is `keys`, the pair (left key, right key) of per-vertex
    keys, each plain data (an int or a tuple of plain data): the left order
    puts x before y iff left_key(x) < left_key(y), and likewise on the
    right.  Where a key holds an enumerated index it holds its block path
    (`Enumeration.key`) or its value's order key `_key`, so keys are plain
    tuples and integers compared in C; `lt` compares the values themselves.
    Vertices with equal keys are incomparable in that order, so a tie makes
    it non-linear.  On every prefix, lt must be the intersection of the two
    orders, whose order types are `types`.  `certificate` is the length
    the construction certifies: a claim about the infinite object, which
    no prefix audit checks.
    """

    keys: tuple  # (left key, right key)
    types: tuple  # (left order type, right order type)
    certificate: CnfOrdinal
    # checks of the construction's own invariants that prefix_audit adds:
    # extra_checks(vs, lt, window, laps) -> {name: (ok, witness)}, with lt
    # the prefix's successor bitsets and one laps.lap per check
    extra_checks: Optional[Callable[..., dict]] = None
    # the vertex at a given rank of the right linear order, when that rank
    # is computable; used by extend_realizer
    nth_right: Optional[Callable[[int], object]] = None

    @property
    def type_left(self) -> CnfOrdinal:
        return self.types[0]

    @property
    def type_right(self) -> CnfOrdinal:
        return self.types[1]


def sierpinskisation(alpha) -> LazyPoset:
    """The poset on the naturals ordered by (numeric order) intersect
    (pullback of the alpha order along the canonical enumeration)."""
    alpha = as_ordinal(alpha)
    if alpha.is_finite:
        raise OrdinalError("sierpinskisation needs an infinite countable ordinal")
    enum = enum_below(alpha)
    return LazyPoset(
        vertex=lambda i: i,
        lt=lambda x, y: x < y and enum.at(x) < enum.at(y),
        # the index order is the vertices' own order, so it ranks them as they are
        lt_rows=lambda vs, bits=None: _rank_rows(bits, vs, _index_ranks(vs, enum.key)),
        keys=(lambda i: i, enum.key),
        types=(OMEGA, alpha),
        certificate=alpha,
        nth_right=lambda i: i if alpha == OMEGA else None,
    )


# -- the mixing bi-functional relation ----------------------------------------------


def mixing_poset(a, b) -> LazyPoset:
    """Intersection of two lexicographic orders of types omega*alpha and
    omega*beta over a mixing bi-functional relation.

    The naturals are partitioned by a fixed triple coding n = <u, v, w>,
    two steps of the anti-diagonal grid walk (_diagonal_cell(None, None)):
    K_a collects first-component matches, K^b second-component matches
    (indices folded modulo the size of a finite index ordinal), so every
    cell K_a intersect K^b is infinite (w is free).  Vertex n stands for
    the relation element ((k1, a), (k2, b)) with k1 the rank of n inside
    K_a and k2 its rank inside K^b; bi-functionality is then structural.
    The audit checks it, with the window and projection invariants, from
    the same row table (_mixing_checks).  The certificate
    w*(alpha (x) beta) is only a lower bound: the length is at least that.
    """
    alpha, beta = as_ordinal(a), as_ordinal(b)
    if alpha.is_zero or beta.is_zero:
        raise OrdinalError("mixing_poset needs nonzero index ordinals")
    ea, eb = enum_below(alpha), enum_below(beta)
    cell = _diagonal_cell(None, None)
    # vertex n -> (ai, bi, left key (a, k1), right key (b, k2)), with a and b
    # the order keys `_key` of the values ea.at(ai) and eb.at(bi), so keys
    # are plain tuples that compare as (value, k) pairs do; built in vertex
    # order: k1 (k2) counts the earlier vertices with the same ai (bi).
    # seen_a (seen_b) holds, per distinct index, the next row's key (a, k1),
    # so at runs once per distinct index and a row costs two lookups
    rows: list = []
    seen_a: dict = {}
    seen_b: dict = {}

    def row(n: int):
        while len(rows) <= n:
            _, uv = cell(len(rows))
            v, u = cell(uv)
            ai = u % ea.size if ea.size is not None else u
            bi = v % eb.size if eb.size is not None else v
            a, k1 = left = seen_a.get(ai) or (ea.at(ai)._key, 0)
            b, k2 = right = seen_b.get(bi) or (eb.at(bi)._key, 0)
            seen_a[ai], seen_b[bi] = (a, k1 + 1), (b, k2 + 1)
            rows.append((ai, bi, left, right))
        return rows[n]

    def lt(x, y):
        # at's values, compared by their order keys as CnfOrdinal's < does
        rx, ry = row(x), row(y)
        return rx[2] < ry[2] and rx[3] < ry[3]

    def lt_rows(vs, bits=None):
        rs = [row(v) for v in vs]
        ranks = []
        for side, key in ((0, ea.key), (1, eb.key)):
            # (index rank, k) lexicographically, as one integer
            ks = [r[2 + side][1] for r in rs]
            width = max(ks, default=0) + 1
            ranks.append([x * width + k for x, k in
                          zip(_index_ranks([r[side] for r in rs], key), ks)])
        return _rank_rows(bits, *ranks)

    def extra_checks(vs, lt, window, laps):
        return _mixing_checks([row(v) for v in vs], vs, lt, window, laps)

    return LazyPoset(
        vertex=lambda i: i,
        lt=lt,
        lt_rows=lt_rows,
        keys=(lambda n: row(n)[2], lambda n: row(n)[3]),
        types=(mul(OMEGA, alpha), mul(OMEGA, beta)),
        certificate=mul(OMEGA, nat_mul(alpha, beta)),
        extra_checks=extra_checks,
    )


def _mixing_checks(rows, vs, lt, window, laps) -> dict:
    """The mixing invariants on the vertex list vs, from its rows
    (ai, bi, (a, k1), (b, k2)) and its order lt, one successor bitset per
    vertex: bi_functional (no two vertices share (k1, a) or (k2, b)),
    window_sections (every cell (ai, bi) inside the window holds a vertex)
    and projection_monotone (lt lies inside the order of type
    w*(alpha x beta) on (k1, (a, b)))."""
    n = len(vs)
    checks = {}
    firsts, seconds = set(), set()
    clash = None
    for v, (_, _, (a, k1), (b, k2)) in zip(vs, rows):
        if (k1, a) in firsts or (k2, b) in seconds:
            clash = v
            break
        firsts.add((k1, a))
        seconds.add((k2, b))
    checks["bi_functional"] = (clash is None, clash)
    laps.lap("bi_functional", n)

    if window is not None:
        wa, wb = window
        seen = {r[:2] for r in rows}
        missing = [(x, y) for x in range(wa) for y in range(wb) if (x, y) not in seen]
        checks["window_sections"] = (not missing, missing or None)
        laps.lap("window_sections", n)

    # i lies below j in that order iff j is at or above i on both a and b,
    # and above it on a, on b or, in the same cell (a, b), on k1
    _, a, at = _ranks([r[2][0] for r in rows])
    _, b, bt = _ranks([r[3][0] for r in rows])
    _, k1, kt = _ranks([r[2][1] for r in rows])
    bad = _first_bit(row & ~(at[x] & bt[y] & (at[x + 1] | bt[y + 1] | kt[k + 1]))
                     for row, x, y, k in zip(lt, a, b, k1))
    checks["projection_monotone"] = (
        bad is None, None if bad is None else (vs[bad[0]], vs[bad[1]]))
    laps.lap("projection_monotone", n * (n - 1))
    return checks


# -- block decompositions -------------------------------------------------------------


def _aligned_block(alpha: CnfOrdinal) -> LazyPoset:
    """A chain of type alpha with both realizer orders equal."""
    enum = enum_below(alpha)
    at = key = lambda i: i  # a finite chain orders its indices as they are
    if not alpha.is_finite:
        at, key = enum.at, enum.key
    return LazyPoset(
        vertex=lambda i: i,
        lt=lambda x, y: at(x) < at(y),
        lt_rows=lambda vs, bits=None: _rank_rows(bits, _index_ranks(vs, key)),
        keys=(key, key),
        types=(alpha, alpha),
        certificate=alpha,
        size=enum.size,
    )


def _round_robin(sizes: list) -> Callable[[int], tuple[int, int]]:
    """locate(i) -> (part, index) for the i-th item of parts of the given
    sizes (None: infinite) merged in rounds: round d takes item d of each
    part in part order, skipping a finite part once it has run out.

    Closed form: between two consecutive finite sizes the parts in a round
    stay the same, so each such phase is laid out once, as its first item,
    its first round and its parts, and i is placed by one division in its
    phase.  Past the last item of all-finite parts, locate raises
    PosetError."""
    total = None if None in sizes else sum(sizes)
    phases = []
    first = start = 0
    for end in sorted(set(sizes) - {None}) + [None]:
        live = [k for k, n in enumerate(sizes) if n is None or start < n]
        phases.append((first, start, live))
        if end is not None:
            first, start = first + (end - start) * len(live), end
    phases.reverse()

    def locate(i: int) -> tuple[int, int]:
        if total is not None and i >= total:
            raise PosetError("vertex %d does not exist: the parts have %d "
                             "vertices in all" % (i, total))
        for first, start, live in phases:
            if i >= first:
                d, k = divmod(i - first, len(live))
                return live[k], start + d

    return locate


def _diagonal_cell(sa, sb) -> Callable[[int], tuple[int, int]]:
    """cell(k) -> (i, j), the k-th cell of the grid of sa x sb indices
    (None: infinite) walked by anti-diagonals, first index ascending.

    Closed form: the diagonals grow by one cell up to the shorter side p,
    keep p cells up to the longer side q, then shrink by one; the growing
    and the shrinking runs are triangular numbers, read from the end in the
    shrinking one."""
    p = sb if sa is None else sa if sb is None else min(sa, sb)
    grow = None if p is None else p * (p + 1) // 2
    flat = None if sa is None or sb is None else grow + (max(sa, sb) - p) * p

    def cell(k: int) -> tuple[int, int]:
        if grow is None or k < grow:
            d = (math.isqrt(8 * k + 1) - 1) // 2
            step = k - d * (d + 1) // 2
        elif flat is None or k < flat:
            d, step = divmod(k - grow, p)
            d += p
        else:
            r = flat + p * (p - 1) // 2 - 1 - k  # cells after this one
            t = (math.isqrt(8 * r + 1) - 1) // 2
            d = sa + sb - 2 - t
            step = t - (r - t * (t + 1) // 2)
        i = step + (0 if sb is None else max(0, d - sb + 1))
        return i, d - i

    return cell


def _sum(parts, ordered: bool) -> LazyOrder:
    """The sum of the orders parts, on vertices (k, v) with v a vertex of
    parts[k], merged round robin: each part keeps its own order, and lies
    below every later part iff ordered (otherwise parts are incomparable,
    their disjoint sum)."""
    sizes = [p.size for p in parts]
    locate = _round_robin(sizes)

    def vertex(i: int):
        k, d = locate(i)
        return k, parts[k].vertex(d)

    def lt(x, y):
        if x[0] == y[0]:
            return parts[x[0]].lt(x[1], y[1])
        return ordered and x[0] < y[0]

    return LazyOrder(
        vertex=vertex,
        lt=lt,
        lt_rows=lambda vs, bits=None: _place(vs, [p.lt_rows for p in parts], ordered, bits),
        size=None if None in sizes else sum(sizes),
    )


def _realizer_sum(parts, sign: int, certificate: CnfOrdinal) -> LazyPoset:
    """The sum of the realizers of parts, on the vertices of their _sum.

    The left order puts the parts one after another in part order, the
    right order in part order for sign 1 and in reverse for sign -1.  Keys
    of different parts never get past the part number, so for sign 1 each
    part lies below every later one (a chunk on top extends both orders)
    and for sign -1 the parts are incomparable (their disjoint sum)."""
    tl = tr = ZERO
    for p in parts:
        tl = add(tl, p.type_left)
        tr = add(tr, p.type_right) if sign == 1 else add(p.type_right, tr)
    return LazyPoset(
        **vars(_sum(parts, sign == 1)),
        keys=(lambda x: (x[0], parts[x[0]].keys[0](x[1])),
              lambda x: (sign * x[0], parts[x[0]].keys[1](x[1]))),
        types=(tl, tr),
        certificate=certificate,
    )


def decompinver_witness(blocks) -> LazyPoset:
    """Blockwise realizer with the right-hand block order reversed.

    Left realizer concatenates the blocks ascending (type a1+...+an); the
    right realizer concatenates them descending (type bn+...+b1); the
    intersection is the disjoint sum of the block intersections, with
    certificate the natural sum of the block certificates.
    """
    blocks = [(as_ordinal(x), as_ordinal(y)) for (x, y) in blocks]
    if not blocks:
        raise OrdinalError("decompinver needs at least one block")
    parts: list[LazyPoset] = []
    for alpha, beta in blocks:
        if alpha.is_finite != beta.is_finite:
            raise OrdinalError("block (%s, %s) is not equipotent" % (alpha, beta))
        qa, ra = euclid_div(alpha, OMEGA)
        qb, rb = euclid_div(beta, OMEGA)
        # multiples of omega mix (certifying w*(qa (x) qb), even on the
        # diagonal); anything else must be an aligned equal pair
        if ra.is_zero and rb.is_zero and not qa.is_zero and not qb.is_zero:
            parts.append(mixing_poset(qa, qb))
        elif alpha == beta:
            parts.append(_aligned_block(alpha))
        else:
            raise PosetError(
                "unsupported block kind (%s, %s): aligned or omega-multiple only"
                % (alpha, beta)
            )
    cert = ZERO
    for p in parts:
        cert = nat_add(cert, p.certificate)
    return _realizer_sum(parts, -1, cert)


def minoration_witness(alpha, beta) -> LazyPoset:
    """The three-block decomposition realizing types exactly (alpha, beta)
    whose intersection certifies r(beta) (+) w*(q(alpha) (x) q(beta)) (+)
    r(alpha) from below."""
    alpha = as_ordinal(alpha)
    beta = as_ordinal(beta)
    if alpha.is_finite or beta.is_finite:
        raise OrdinalError("minoration_witness needs infinite countable inputs")
    qa, ra = euclid_div(alpha, OMEGA)
    qb, rb = euclid_div(beta, OMEGA)
    blocks = []
    if not rb.is_zero:
        blocks.append((rb, rb))
    blocks.append((mul(OMEGA, qa), mul(OMEGA, qb)))
    if not ra.is_zero:
        blocks.append((ra, ra))
    return decompinver_witness(blocks)


# -- realizer extension ----------------------------------------------------------------


def extend_realizer(p: LazyPoset, targets) -> LazyPoset:
    """Grow a realizer to larger types while preserving the order on the
    original vertices (well-order padding case only)."""
    ta, tb = targets
    ta, tb = as_ordinal(ta), as_ordinal(tb)
    a, b = p.types
    if ta < a or tb < b or a.is_finite != ta.is_finite or b.is_finite != tb.is_finite:
        raise PosetError("targets (%s, %s) below or non-equipotent to (%s, %s)"
                         % (ta, tb, a, b))
    if ta == a and tb == b:
        return p
    ga, gb = left_subtract(a, ta), left_subtract(b, tb)

    if ga == gb:  # a common chunk of type ga on top of both orders
        return _realizer_sum([p, _aligned_block(ga)], 1, p.certificate)
    if tb == b:
        return _grow_left(p, ga)
    if ta == a:
        raise PosetError("growing the right type alone is not implemented; "
                         "swap the realizer and grow left")
    # stage: equalize with a common chunk first, then grow the remainder
    raise PosetError("unsupported extension (%s,%s) -> (%s,%s)" % (a, b, ta, tb))


def _grow_left(p: LazyPoset, g: CnfOrdinal) -> LazyPoset:
    """Add type-g padding above everything on the left while keeping the
    right type unchanged, by inserting the i-th new vertex immediately
    below the right-rank-i original (doubling preserves the right type
    when it is a multiple of omega)."""
    if g.is_finite:
        raise PosetError("left growth alternates old and new vertices forever, "
                         "so the padding type must be infinite (got %s)" % g)
    _, r = euclid_div(p.type_right, OMEGA)
    if not r.is_zero:
        raise PosetError("left growth needs a right type that is a multiple "
                         "of omega (doubled points change %s)" % p.type_right)
    if p.nth_right is None or p.nth_right(0) is None:
        raise PosetError("left growth needs the nth_right rank hook")
    enum = enum_below(g)
    rank_of = {}  # original vertex -> right rank, filled lazily in rank order

    def right_rank(v):
        while v not in rank_of:
            i = len(rank_of)
            rank_of[p.nth_right(i)] = i
        return rank_of[v]

    def vertex(i: int):
        return (0, p.vertex(i // 2)) if i % 2 == 0 else (1, i // 2)

    def left(x, new):  # new: the padding's own key, or its value for lt
        return x[0], (p.keys[0](x[1]) if x[0] == 0 else new(x[1]))

    # new_i sits immediately below the right-rank-i original
    @lru_cache(maxsize=None)
    def slot(x):
        return (right_rank(x[1]), 1) if x[0] == 0 else (x[1], 0)

    def lt(x, y):
        return left(x, enum.at) < left(y, enum.at) and slot(x) < slot(y)

    def new_new(new, bits):
        return _rank_rows(bits, _index_ranks(new, enum.key), new)

    def lt_rows(vs, bits=None):
        bits = _units(len(vs)) if bits is None else bits
        rows = _place(vs, [p.lt_rows, new_new], False, bits)
        # an original lies below new_i iff its right rank is below i: the
        # new vertices by index, each with the OR of the bits from it up
        new = sorted((i, bit) for (k, i), bit in zip(vs, bits) if k)
        ids = [i for i, _ in new]
        tails = list(accumulate([bit for _, bit in reversed(new)], or_, initial=0))[::-1]
        for s, (k, v) in enumerate(vs):
            if not k:
                rows[s] |= tails[bisect.bisect_right(ids, right_rank(v))]
        return rows

    return LazyPoset(
        vertex=vertex,
        lt=lt,
        lt_rows=lt_rows,
        keys=(lambda x: left(x, enum.key), slot),
        types=(add(p.type_left, g), p.type_right),
        certificate=p.certificate,
    )


# -- batch successor rows ----------------------------------------------------------------


def _units(n: int) -> list:
    """The default target bits: vertex t stands for 1 << t."""
    return [1 << t for t in range(n)]


def _index_ranks(indices, key) -> list:
    """Each index's rank by key(), from one sort of the distinct indices:
    key is an enumeration's block path (Enumeration.key), a plain tuple
    that sorts in C in the order of the values at() gives, or the index
    itself below a finite ordinal; it is injective, so indices never tie.  The audit ranks realizer keys with
    _ranks, so the two sides of its intersection check share no code."""
    rank = {ix: r for r, ix in enumerate(sorted(set(indices), key=key))}
    return list(map(rank.__getitem__, indices))


def _rank_rows(bits, *ranks) -> list:
    """rows[t]: the OR of bits[u] over every u that each rank vector puts
    strictly above t (bits None: the units), the intersection of the rank
    orders.  Each vector holds distinct ranks, so it is sorted once, from
    the top down, and a running OR gives every vertex the bits above it;
    the vectors' rows are ANDed."""
    n = len(ranks[0])
    bits = _units(n) if bits is None else bits
    rows = [-1] * n  # every bit, for the first AND
    for rank in ranks:
        above = 0
        for t in sorted(range(n), key=rank.__getitem__, reverse=True):
            rows[t] &= above
            above |= bits[t]
    return rows


def _place(part, orders, ordered: bool, bits=None) -> list:
    """The rows of a sum of blocks on vertices given as (block, label)
    pairs: the vertices of block k are ordered among themselves by
    orders[k](their labels, their bits), each in list order, and each lies
    below every vertex of a later block iff ordered (otherwise blocks are
    incomparable).  A block writes its rows straight into the sum's
    coordinates, so no bit is moved afterwards."""
    bits = _units(len(part)) if bits is None else bits
    members: list = [[] for _ in orders]
    for s, (k, _) in enumerate(part):
        members[k].append(s)
    rows = [0] * len(part)
    above = 0  # the bits of the later blocks, when ordered
    for k in reversed(range(len(orders))):
        mine = [bits[s] for s in members[k]]
        block = orders[k]([part[s][1] for s in members[k]], mine)
        for s, row in zip(members[k], block):
            rows[s] = row | above
        if ordered:
            above |= sum(mine)  # the vertices' bits are disjoint
    return rows


# -- prefix audits -----------------------------------------------------------------------


class CheckTiming(NamedTuple):
    cpu_s: float  # process CPU seconds spent in the step
    pairs: int  # ordered vertex pairs the step covers (vertices, for a per-vertex step)


@dataclass
class AuditReport:
    checks: dict  # name -> (passed, witness-or-None)
    # step name -> CheckTiming: every check, plus the shared steps it reads,
    # "vertices" (enumerating the prefix), "lt" (the lt_rows batch) and
    # "left_key"/"right_key" (computing the realizer keys; each *_linear
    # check ranks its keys into rows); the steps run one after another, so
    # their times add up to the audit's
    timings: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(ok for ok, _ in self.checks.values())

    def failures(self):
        return {k: w for k, (ok, w) in self.checks.items() if not ok}


class _Laps:
    """CPU seconds between successive lap() calls, by step name."""

    def __init__(self):
        self.timings: dict = {}
        self._last = time.process_time()

    def lap(self, name: str, pairs: int) -> None:
        now = time.process_time()
        self.timings[name] = CheckTiming(now - self._last, pairs)
        self._last = now


def relation_rows(vs, pred) -> list:
    """pred on every ordered pair of distinct vertices of vs, packed as one
    successor bitset per vertex: the pairwise oracle for LazyOrder.lt_rows,
    as relation_rows(vs, p.lt)."""
    return [sum(1 << j for j, y in enumerate(vs) if j != i and pred(x, y))
            for i, x in enumerate(vs)]


def _ranks(keys: list) -> tuple[list, list, list]:
    """From one sort of keys under <: the positions of keys in sorted order,
    each key's dense rank (equal keys share one), and tails, where tails[r]
    holds the bits of every key ranked r or above: tails[rank[i] + 1] is i's
    row in the rank order, where tied keys are incomparable.  The audit
    builds its key orders here, apart from _rank_rows, so the two sides of
    its intersection check share no code.  The sort is stable, so equal
    keys stay in list order, and on plain keys it raises TypeError exactly
    when some pair's comparison does (see _linear_witness)."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ks = [keys[i] for i in order]
    dense = list(accumulate(map(lt, ks, ks[1:]), initial=0))  # by place in order
    rank = [0] * len(keys)
    groups = [0] * (dense[-1] + 1)  # the bits of each rank
    for i, r in zip(order, dense):
        rank[i] = r
        groups[r] |= 1 << i
    return order, rank, list(accumulate(reversed(groups), or_, initial=0))[::-1]


def _transitivity_witness(rows: list):
    """None if the successor bitsets rows are transitive; else (i, k, j)
    with bit k of rows[i], bit j of rows[k] and not bit j of rows[i], (i, j)
    first in row-major order and k lowest, read off every successor's row
    in one walk."""
    gap = _first_bit(reduce(or_, [rows[k] for k in _bits(row)], 0) & ~row & ~(1 << i)
                     for i, row in enumerate(rows))
    if gap is None:
        return None
    i, j = gap
    return i, next(k for k in _bits(rows[i]) if rows[k] >> j & 1), j


def _plain(keys: list) -> bool:
    """Whether every key is plain data: an int, or a tuple of plain data.
    The walk goes one level of nesting at a time and reads each level's
    types in one pass, so no Python code runs per key."""
    while keys:
        kinds = set(map(type, keys))
        if not kinds <= {int, tuple}:
            return False
        if int in kinds:  # the ints end here, the tuples go on
            keys = filter(tuple.__instancecheck__, keys) if tuple in kinds else ()
        keys = list(chain.from_iterable(keys))
    return True


def _raises(x, y) -> bool:
    """Whether x < y raises TypeError."""
    try:
        x < y
    except TypeError:
        return True
    return False


def _linear_witness(keys: list) -> tuple[object, Optional[tuple]]:
    """(witness, ranks): None and _ranks(keys) if keys are linear under
    their own <; else the first position i whose key is not plain data, or
    the first pair (i, j) row-major whose comparison raises TypeError (with
    ranks None: such keys do not sort), or the first tie (i, j) row-major,
    the least pair of equal neighbours in the stable sort.

    Plain data compares lexicographically, and < raises where an int meets
    a tuple at the first place two keys differ.  Ranking a tuple above an
    int there makes the order total, and between any raising pair lie two
    neighbours that raise; a sort that returns has compared all neighbours
    (up to equal keys), so plain keys sort exactly when no pair raises."""
    if not _plain(keys):
        return next(i for i, key in enumerate(keys) if not _plain([key])), None
    try:
        ranks = _ranks(keys)
    except TypeError:
        return next((i, j) for i, x in enumerate(keys) for j in range(i + 1, len(keys))
                    if _raises(x, keys[j])), None
    order, rank, _ = ranks
    if not keys or rank[order[-1]] == len(keys) - 1:  # n keys, n ranks
        return None, ranks
    return min((i, j) for i, j in zip(order, order[1:]) if rank[i] == rank[j]), ranks


def prefix_audit(p: LazyPoset, n: int, window=None) -> AuditReport:
    """Check the structural invariants of p on its first n vertices.

    Every check reads successor bitsets: the order from p.lt_rows, and each
    realizer order built from one sort of its keys, compared row by row.
    Two rank orders are strict orders, so an order equal to their
    intersection is antisymmetric and transitive: only when the
    intersection fails do those two checks search the rows for a witness,
    antisymmetry by ANDing the rows with their transpose."""
    laps = _Laps()
    pairs = n * (n - 1)
    vs = p.prefix(n)
    laps.lap("vertices", n)
    rows = p.lt_rows(vs)
    laps.lap("lt", pairs)
    checks: dict = {"antisymmetry": None}  # first in the report, decided by the intersection

    def record(name, witness):
        checks[name] = (witness is None, witness)
        laps.lap(name, pairs)

    key_rows = []
    for name, key in zip(("left", "right"), p.keys, strict=True):
        keys = [key(v) for v in vs]
        laps.lap("%s_key" % name, n)
        witness, ranks = _linear_witness(keys)
        # keys that do not sort give no order, which fails the intersection
        key_rows.append([0] * n if ranks is None else [ranks[2][r + 1] for r in ranks[1]])
        record("%s_linear" % name, witness)
    w = _first_bit(row ^ (x & y) for row, x, y in zip(rows, *key_rows))
    record("intersection", w)
    if w is not None:  # a bit past the prefix fails the intersection alone
        rows = [row & ((1 << n) - 1) for row in rows]
    record("antisymmetry", None if w is None else _first_bit(map(and_, rows, _transpose(rows))))
    record("transitivity", None if w is None else _transitivity_witness(rows))

    if p.extra_checks is not None:
        checks.update(p.extra_checks(vs, rows, window, laps))
    return AuditReport(checks, laps.timings)
