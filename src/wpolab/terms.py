"""Symbolic well-partial-order terms with exact length computation.

A term denotes a WPO built from ordinals and finite posets by disjoint
union, ordinal (lexicographic) sum, and cartesian product.  Lengths follow
the de Jongh-Parikh rules: disjoint union takes the natural sum, cartesian
product the natural product, ordinal sum the (ordinary) ordinal sum.

A denotation is a constructions.LazyOrder, the same enumerated order that
the witness constructions build on.  Its canonical enumeration, used by
denote_prefix and frozen for reproducibility: an Ord leaf is the aligned
chain of its type (vertex i stands for the i-th ordinal of enum_below), a
Fin leaf enumerates its vertex labels; DSum and LexSum are the round-robin
sum constructions._sum (alternating factors, continuing with the survivor
once a finite factor is exhausted); Prod walks anti-diagonals of
the index grid, first index ascending, and places cell k in closed form.

denote_prefix builds the order of a prefix in one batch: each node's
lt_rows(vs, bits) on a vertex list writes one successor bitset per vertex
in the target coordinates `bits` (see constructions.LazyOrder).  An Ord
leaf ranks its ordinals with one sort and keeps a running OR, a Fin leaf
reads its poset's covers in a cached topological order, sums hand each
part the bits of its own vertices, and a product hands each factor, for
each distinct coordinate, the mask of the vertices that share it, then
ANDs the two reflexive rows.  The rows are closed, as every sum and
product of closed orders is; denote_prefix still runs posets._close over
them, which checks that and costs little on a closed order.  The pairwise
lt stays as the oracle that tests and the finite_poset_oracle suite
compare lt_rows against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .constructions import LazyOrder, _aligned_block, _diagonal_cell, _sum, _units
from .io import MAX_VERTICES, read_poset_file
from .ordinals import (
    MAX_NESTING,
    CnfOrdinal,
    OrdinalError,
    _Scan,
    add,
    clip,
    from_int,
    nat_add,
    nat_mul,
    parse_ordinal,
    render_ordinal,
)
from .posets import FinPoset, PosetError, _close, antichain, chain, length_fin


@dataclass(frozen=True)
class Ord:
    alpha: CnfOrdinal


@dataclass(frozen=True)
class Fin:
    poset: FinPoset


@dataclass(frozen=True)
class DSum:
    left: "PosetTerm"
    right: "PosetTerm"


@dataclass(frozen=True)
class LexSum:
    left: "PosetTerm"
    right: "PosetTerm"


@dataclass(frozen=True)
class Prod:
    left: "PosetTerm"
    right: "PosetTerm"


PosetTerm = Union[Ord, Fin, DSum, LexSum, Prod]


def length_term(t: PosetTerm) -> CnfOrdinal:
    if isinstance(t, Ord):
        return t.alpha
    if isinstance(t, Fin):
        return from_int(length_fin(t.poset))
    if isinstance(t, DSum):
        return nat_add(length_term(t.left), length_term(t.right))
    if isinstance(t, LexSum):
        return add(length_term(t.left), length_term(t.right))
    if isinstance(t, Prod):
        return nat_mul(length_term(t.left), length_term(t.right))
    raise OrdinalError("not a poset term: %r" % (t,))


def term_size(t: PosetTerm):
    """Number of elements of the denotation, or None when infinite."""
    return _denote(t).size


# -- canonical enumerations ----------------------------------------------------------


def _fin(p: FinPoset) -> LazyOrder:
    """A Fin leaf: its vertex labels in order."""
    return LazyOrder(vertex=lambda i: i, lt=p.lt,
                     lt_rows=lambda vs, bits=None: _leaf_rows(p, vs, bits), size=p.n)


def _leaf_rows(p: FinPoset, vs, bits) -> list:
    """The rows of p on the labels vs, in the target coordinates bits:
    every vertex, taken top down in p's topological order, ORs the bits
    above each of its covers, so each cover pair costs one OR."""
    target = [0] * p.n
    for v, bit in zip(vs, _units(len(vs)) if bits is None else bits):
        target[v] = bit
    up = [0] * p.n  # up[v]: the bits of every vertex above v
    covers = p.covers
    for v in reversed(p.topological):
        acc, rest = 0, covers[v]
        while rest:  # a low-bit loop: _bits would write out all n digits
            low = rest & -rest
            c = low.bit_length() - 1
            acc |= up[c] | target[c]
            rest ^= low
        up[v] = acc
    return [up[v] for v in vs]


_EMPTY = _fin(antichain(0))


def _denote(t: PosetTerm) -> LazyOrder:
    if isinstance(t, Ord):
        return _EMPTY if t.alpha.is_zero else _aligned_block(t.alpha)
    if isinstance(t, Fin):
        return _fin(t.poset)
    a, b = _denote(t.left), _denote(t.right)
    if isinstance(t, Prod):
        return _product(a, b)
    return _sum([a, b], ordered=isinstance(t, LexSum))


def _product(a: LazyOrder, b: LazyOrder) -> LazyOrder:
    if a.size == 0 or b.size == 0:
        return _EMPTY
    total = None if a.size is None or b.size is None else a.size * b.size
    cell = _diagonal_cell(a.size, b.size)

    def vertex(k: int):
        if k < 0 or (total is not None and k >= total):
            raise OrdinalError("enumeration index %d out of range" % k)
        i, j = cell(k)
        return a.vertex(i), b.vertex(j)

    def lt(x, y):
        xa, xb = x
        ya, yb = y
        below_a = a.lt(xa, ya) or xa == ya
        below_b = b.lt(xb, yb) or xb == yb
        return below_a and below_b and x != y

    def lt_rows(vs, bits=None):
        bits = _units(len(vs)) if bits is None else bits
        # each factor's rows on its distinct coordinates, a coordinate's
        # bits the OR of its vertices', and each made reflexive
        les = []
        for factor, coords in ((a, [x for x, _ in vs]), (b, [y for _, y in vs])):
            place: dict = {}  # distinct coordinate -> its place, in first-seen order
            masks, ix = [], []
            for c, bit in zip(coords, bits):
                k = place.get(c)
                if k is None:
                    k = place[c] = len(masks)
                    masks.append(bit)
                else:
                    masks[k] |= bit
                ix.append(k)
            rows = factor.lt_rows(list(place), masks)
            le = [row | mask for row, mask in zip(rows, masks)]
            les.append([le[k] for k in ix])
        return [x & y & ~bit for x, y, bit in zip(*les, bits)]

    return LazyOrder(vertex=vertex, lt=lt, lt_rows=lt_rows, size=total)


def denote_prefix(t: PosetTerm, budget: int) -> FinPoset:
    """The finite poset induced on the first `budget` vertices of the
    canonical enumeration of t's denotation."""
    d = _denote(t)
    return _prefix_poset(d, budget if d.size is None else min(budget, d.size))


def _prefix_poset(d: LazyOrder, n: int) -> FinPoset:
    """The poset on the first n vertices of the denotation d, from its
    rows through posets._close."""
    return _close(n, d.lt_rows(d.prefix(n)))


# -- term grammar --------------------------------------------------------------------
# Any whitespace may stand around a term and its comma.  A node ends at the
# ')' that ordinals._Scan pairs with its '('.


_HEAD = re.compile(r"(ord|fin|dsum|lexsum|prod)\(")
_INLINE_FIN = re.compile(r"(chain|antichain)([0-9]+)$")


def parse_term(text: str) -> PosetTerm:
    """Parse a term.  The whole text is checked before any finite poset is
    built or any fin(@file) is read."""
    scan = _Scan(text)
    build, k = _parse(scan, 0)
    if scan.toks[k]:
        pos = scan.offs[k]
        raise OrdinalError("trailing input at position %d: %r" % (pos, clip(text[pos:])))
    return build()


def _parse(scan: _Scan, k: int, nested: int = 0):
    """A function that builds the term at token k, below `nested` enclosing
    dsum/lexsum/prod nodes, and the first non-blank token after the term."""
    text, toks, offs = scan.text, scan.toks, scan.offs
    while toks[k].isspace():
        k += 1
    pos = offs[k]
    head = _HEAD.match(text, pos)
    if not head:
        raise OrdinalError("expected a term at position %d: %r" % (pos, text[pos:pos + 20]))
    kind = head.group(1)
    open_ = k + len(kind)  # every letter of a head is one token
    close = scan.close.get(open_)
    if close is None:
        raise OrdinalError("unbalanced parentheses at position %d" % offs[open_])
    end = close + 1
    while toks[end].isspace():
        end += 1
    if kind == "ord":
        alpha = parse_ordinal(scan.window(open_ + 1, close).strip())
        return (lambda: Ord(alpha)), end
    if kind == "fin":
        return _parse_fin(scan.window(open_ + 1, close).strip()), end
    if nested == MAX_NESTING:
        raise OrdinalError("terms nested deeper than %d at position %d" % (MAX_NESTING, pos))
    left, after = _parse(scan, open_ + 1, nested + 1)
    if toks[after] != ",":
        raise OrdinalError("expected ',' at position %d in %s(...)" % (offs[after], kind))
    right, after = _parse(scan, after + 1, nested + 1)
    if after != close:
        raise OrdinalError("trailing input at position %d in %s(...)" % (offs[after], kind))
    node = {"dsum": DSum, "lexsum": LexSum, "prod": Prod}[kind]
    return (lambda: node(left(), right())), end


def _parse_fin(body: str):
    """A function that builds the Fin leaf fin(body): it reads the file of
    fin(@file), or makes the chain or antichain of an inline leaf."""
    if body.startswith("@"):
        return lambda: Fin(read_poset_file(body[1:]))
    m = _INLINE_FIN.match(body)
    if not m:
        raise OrdinalError(
            "fin(...) takes chainN, antichainN, or @file, got %r" % clip(body)
        )
    digits = m.group(2).lstrip("0") or "0"
    if len(digits) > len(str(MAX_VERTICES)) or int(digits) > MAX_VERTICES:
        raise PosetError("inline fin(%s...) takes at most %d vertices; put a "
                         "larger poset in a file and use fin(@file)"
                         % (m.group(1), MAX_VERTICES))
    make = chain if m.group(1) == "chain" else antichain
    return lambda: Fin(make(int(digits)))


def render_term(t: PosetTerm) -> str:
    if isinstance(t, Ord):
        return "ord(%s)" % render_ordinal(t.alpha)
    if isinstance(t, Fin):
        p = t.poset
        if p == chain(p.n):
            return "fin(chain%d)" % p.n
        if p == antichain(p.n):
            return "fin(antichain%d)" % p.n
        raise PosetError("no inline rendering for %r; export it to a file" % p)
    name = {DSum: "dsum", LexSum: "lexsum", Prod: "prod"}[type(t)]
    return "%s(%s, %s)" % (name, render_term(t.left), render_term(t.right))
