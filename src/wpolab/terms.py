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
lt_matrix(vs) on a vertex list is composed from its children's as numpy
bool matrices (an Ord leaf ranks its ordinals with one sort, a Fin leaf
unpacks its successor bitsets, sums place their parts as blocks, a product
indexes each factor's reflexive order on its distinct coordinates), and
posets.poset_of_matrix packs the result.  The pairwise lt stays as the
oracle that tests and the finite_poset_oracle suite compare lt_matrix
against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .constructions import LazyOrder, _aligned_block, _diagonal_cell, _sum
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
from .posets import FinPoset, PosetError, _unpack, antichain, chain, length_fin, poset_of_matrix


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

    def lt_matrix(vs) -> np.ndarray:
        m = _unpack([p.successors[v] for v in vs], p.n)
        # the leading labels, which every prefix of a denotation gives a
        # leaf, need no gather
        return m[:, :len(vs)] if vs == list(range(len(vs))) else m[:, vs]

    return LazyOrder(vertex=lambda i: i, lt=p.lt, lt_matrix=lt_matrix, size=p.n)


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

    def lt_matrix(vs) -> np.ndarray:
        # each factor's reflexive order on its distinct coordinates, indexed
        # by every vertex's coordinate
        m = np.ones((len(vs), len(vs)), dtype=bool)
        for factor, coords in ((a, [x for x, _ in vs]), (b, [y for _, y in vs])):
            place: dict = {}  # distinct coordinate -> its place, in first-seen order
            ix = np.array([place.setdefault(v, len(place)) for v in coords], dtype=np.int64)
            le = factor.lt_matrix(list(place)) | np.eye(len(place), dtype=bool)
            m &= le[np.ix_(ix, ix)]
        np.fill_diagonal(m, False)
        return m

    return LazyOrder(vertex=vertex, lt=lt, lt_matrix=lt_matrix, size=total)


def denote_prefix(t: PosetTerm, budget: int) -> FinPoset:
    """The finite poset induced on the first `budget` vertices of the
    canonical enumeration of t's denotation."""
    d = _denote(t)
    n = budget if d.size is None else min(budget, d.size)
    return poset_of_matrix(d.lt_matrix(d.prefix(n)))


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
