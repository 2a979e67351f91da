"""Exact finite-poset engine.

A poset stores its strict order once, transitively closed, as one
Python-int successor bitset per vertex, so order queries test a bit and
the intersection of two orders ANDs their rows.  Closure (`make_poset`
from pairs, `poset_of_matrix` from rows of bools, both through one checked
depth-first closure that skips what it has already reached, so a chain
that comes in closed costs O(n) big-int operations) and transitive
reduction (`FinPoset.covers`, one cover bitset per vertex) work on the
same bitsets; `FinPoset.pairs` and `FinPoset.hasse` list the pairs for
callers that need them.  Rows that are closed by construction skip the
closure: `intersect` ANDs two closed orders, and `wpolab construct` builds
its prefixes from rank orders (`_of_closed_rows`).  Predecessor rows come
from the covers in a topological order (`_predecessors`); only the error
path `_cycle_error` transposes pair by pair.
The length engines and enumerators (`length_recursive`, `bad_tree_height`,
`all_posets`, `linear_extensions`) stay brute force on purpose: they are
the oracles the symbolic layers are checked against.  `embeds` is a query
of the CLI, not an oracle; the tests check it against a search by its
definition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, cached_property

from .ordinals import PosetError, clip


@dataclass(frozen=True)
class FinPoset:
    """A finite strict partial order on vertices 0..n-1, stored closed as
    one successor bitset per vertex: bit j of successors[i] is set iff
    i < j.  Build one with `make_poset` or `poset_of_matrix`, which close
    and check."""

    n: int
    successors: tuple

    def lt(self, i: int, j: int) -> bool:
        return self.successors[i] >> j & 1 == 1

    def leq(self, i: int, j: int) -> bool:
        return i == j or self.successors[i] >> j & 1 == 1

    def pairs(self):
        """The strict pairs (i, j), row by row, so in sorted order."""
        return _pairs(self.successors)

    @cached_property
    def le(self) -> frozenset:
        """The strict pairs as a set."""
        return frozenset(self.pairs())

    @cached_property
    def covers(self) -> tuple:
        """Transitive reduction, one bitset per vertex: bit j of covers[i]
        is set iff j covers i.  The covers of i are its successors minus
        everything above a successor."""
        rows = self.successors
        covers = []
        for row in rows:
            above = 0
            rest = row
            while rest:
                low = rest & -rest
                above |= rows[low.bit_length() - 1]
                rest &= ~(above | low)
            covers.append(row & ~above)
        return tuple(covers)

    @cached_property
    def topological(self) -> tuple:
        """The vertices in a linear extension of the order: a vertex has
        more successors than any vertex above it, so by descending
        successor count, ties by label."""
        counts = [row.bit_count() for row in self.successors]
        return tuple(sorted(range(self.n), key=counts.__getitem__, reverse=True))

    @cached_property
    def hasse(self) -> frozenset:
        """The covering pairs, read from `covers`."""
        return frozenset(_pairs(self.covers))

    def restrict(self, vertices) -> "FinPoset":
        """Induced subposet, relabelled order-preservingly to 0..k-1."""
        vs = sorted(vertices)
        index = {v: i for i, v in enumerate(vs)}
        return make_poset(len(vs), [(index[i], index[j]) for (i, j) in self.pairs()
                                    if i in index and j in index])

    def minimal(self):
        below = 0
        for row in self.successors:
            below |= row
        return [v for v in range(self.n) if not below >> v & 1]

    def __repr__(self) -> str:
        return "FinPoset(%d, %s)" % (self.n, list(self.pairs()))


_BIT_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _bits(x: int, labels=None):
    """The positions of the set bits of x >= 0, ascending, or the items of
    labels at those positions."""
    return itertools.compress(itertools.count() if labels is None else labels,
                              bin(x)[:1:-1].encode().translate(_BIT_DIGITS))


def _pairs(rows):
    """The pairs (i, j) with bit j of rows[i] set, row by row, so sorted."""
    return itertools.chain.from_iterable(
        zip(itertools.repeat(i), _bits(row)) for i, row in enumerate(rows))


def _first_bit(rows):
    """The first set bit of the bitsets rows, row-major, as (row, bit), or None."""
    for i, row in enumerate(rows):
        if row:
            return i, (row & -row).bit_length() - 1
    return None


def _transpose(rows: list) -> list:
    """The bitsets with bit i of cols[j] iff bit j of rows[i], pair by pair."""
    cols = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in _bits(row):
            cols[j] |= 1 << i
    return cols


def make_poset(n: int, pairs) -> FinPoset:
    """Build a FinPoset from generating strict pairs; closes transitively
    (depth first on successor bitsets, see `_close`) and rejects cycles."""
    if n < 0:
        raise PosetError("vertex count %d is negative" % n)
    rows = [0] * n
    for (i, j) in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise PosetError("vertex pair (%d, %d) out of range 0..%d" % (i, j, n - 1))
        rows[i] |= 1 << j
    return _close(n, rows)


_ROW_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def poset_of_matrix(m) -> FinPoset:
    """Build a FinPoset from a square sequence of bool rows of generating
    strict pairs (m[i][j] iff i < j), such as lists of bools or a 2-D
    numpy bool array; closes and rejects cycles like make_poset."""
    n = len(m)
    rows = []
    for row in m:
        try:
            view = memoryview(row)  # a buffer of bools: its bytes are 0 and 1
        except TypeError:
            view = None
        digits = view.tobytes() if view is not None and view.format == "?" \
            else bytes(map(bool, row))
        if len(digits) != n:
            raise PosetError("a relation matrix must be square, got a row of %d "
                             "entries in %d rows" % (len(digits), n))
        rows.append(int(b"0" + digits[::-1].translate(_ROW_DIGITS), 2))
    return _close(n, rows)


def _of_closed_rows(rows: list) -> FinPoset:
    """The FinPoset of successor bitsets that are closed and acyclic by
    construction, such as the rows of a rank order or of an intersection of
    rank orders; nothing is checked."""
    return FinPoset(len(rows), tuple(rows))


def _predecessors(p: FinPoset) -> list:
    """The predecessor bitsets of p: bit i of below[j] iff i < j.  Each
    vertex, in topological order, hands itself and its own predecessors to
    its covers, so each cover pair costs one OR."""
    below = [0] * p.n
    covers = p.covers
    for v in p.topological:
        mine, rest = below[v] | 1 << v, covers[v]
        while rest:
            low = rest & -rest
            below[low.bit_length() - 1] |= mine
            rest ^= low
    return below


def _close(n: int, rows: list) -> FinPoset:
    """The FinPoset of successor bitsets rows, closed transitively, or
    PosetError naming a cycle.

    Depth-first closure of a DAG (Purdom 1970; Goralčíková and Koubek
    1979), iterative so that no n reaches the recursion limit: a vertex is
    closed once all its successors are, as the union of their closures, and
    a successor already inside that union is skipped, like a non-cover in
    `FinPoset.covers`.  On an order that is already closed a vertex visits
    only successors that no earlier visit reached (its covers, when the
    labels follow the order), so a chain costs O(n) big-int operations.
    Reaching a vertex still on the depth-first path means a cycle."""
    closed = [-1] * n  # -1: not reached; -2: on the depth-first path
    path = []
    for root in range(n):
        if closed[root] != -1:
            continue
        v = root
        acc = rest = rows[v]
        closed[v] = -2
        while True:
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                done = closed[j]
                if done < 0:
                    if done == -2:
                        raise _cycle_error(rows)
                    path.append((v, acc, rest))
                    v = j
                    acc = rest = rows[v]
                    closed[v] = -2
                    continue
                acc |= done
                rest &= ~(done | low)
            closed[v] = acc
            if not path:
                break
            v, acc, rest = path.pop()
    return FinPoset(n, tuple(closed))


def _cycle_error(rows: list) -> PosetError:
    """The PosetError naming a shortest cycle through the lowest-numbered
    vertex on a cycle of rows, which must hold one.  The vertices on cycles
    are those of the strongly connected components with two or more
    vertices or a loop, found by Kosaraju's two searches (the second over
    the transposed bitsets, built pair by pair) in O(n) big-int
    operations.  The message clips the witness like an echoed input, so a
    long cycle still gives a one-line message; the error's `cycle` holds
    all of it."""
    # (i, j) and (j, i) make a cycle of two, so this also reports
    # antisymmetry violations
    n = len(rows)
    order, seen = [], 0
    for v in range(n):
        if not seen >> v & 1:
            tree, seen = _search(rows, v, seen)
            order += tree
    below = _transpose(rows)
    first, seen = n, 0
    for v in reversed(order):
        if not seen >> v & 1:
            component, seen = _search(below, v, seen)
            if len(component) > 1 or rows[v] >> v & 1:
                first = min(first, *component)
    cycle = _cycle(rows, first)
    err = PosetError("le is not antisymmetric; cycle witness %s" % clip(str(cycle)))
    err.cycle = cycle
    return err


def _search(rows: list, root: int, seen: int) -> tuple:
    """The vertices that root reaches along rows without entering the
    bitset seen, in depth-first post-order, and seen with them added."""
    seen |= 1 << root
    stack, order = [root], []
    while stack:
        todo = rows[stack[-1]] & ~seen
        if todo:
            low = todo & -todo
            seen |= low
            stack.append(low.bit_length() - 1)
        else:
            order.append(stack.pop())
    return order, seen


def _cycle(rows: list, i: int) -> list | None:
    """A shortest cycle from i back to i along the generating bitsets rows,
    found breadth first, or None when i lies on no cycle."""
    parent = {}
    frontier = [i]
    while frontier:
        step = []
        for u in frontier:
            for v in _bits(rows[u]):
                if v == i:
                    path = [u]
                    while path[-1] != i:
                        path.append(parent[path[-1]])
                    return path[::-1] + [i]
                if v not in parent:
                    parent[v] = u
                    step.append(v)
        frontier = step
    return None


def chain(n: int) -> FinPoset:
    """0 < 1 < ... < n-1: row i holds the bits above i, built closed."""
    if n < 0:
        raise PosetError("vertex count %d is negative" % n)
    full = (1 << n) - 1
    return FinPoset(n, tuple(full ^ ((2 << i) - 1) for i in range(n)))


def antichain(n: int) -> FinPoset:
    return make_poset(n, [])


def intersect(p: FinPoset, q: FinPoset) -> FinPoset:
    if p.n != q.n:
        raise PosetError("intersect needs equal vertex counts (%d vs %d)" % (p.n, q.n))
    # the intersection of two closed strict orders is closed
    return _of_closed_rows([a & b for a, b in zip(p.successors, q.successors)])


def linear_extensions(p: FinPoset):
    """Yield every vertex permutation whose positional order extends p,
    in lexicographic order."""

    def walk(prefix, remaining):
        if not remaining:
            yield tuple(prefix)
            return
        for v in sorted(remaining):
            if not any(p.lt(u, v) for u in remaining if u != v):
                prefix.append(v)
                remaining.remove(v)
                yield from walk(prefix, remaining)
                remaining.add(v)
                prefix.pop()

    yield from walk([], set(range(p.n)))


def length_fin(p: FinPoset) -> int:
    # every linear extension of a finite poset has order type n
    return p.n


def length_recursive(p: FinPoset) -> int:
    """ell(p) = sup+ over x of ell({y : y not >= x}), computed by memoized
    recursion; agrees with length_fin on every finite poset."""

    @lru_cache(maxsize=None)
    def ell(vertices: frozenset) -> int:
        best = 0
        for x in vertices:
            row = p.successors[x]
            rest = frozenset(
                y for y in vertices if y != x and not row >> y & 1
            )
            best = max(best, ell(rest) + 1)
        return best

    return ell(frozenset(range(p.n)))


def bad_sequences(p: FinPoset):
    """Iterate the nodes of Bad(p): sequences with no i<j, x_i <= x_j."""
    stack = [()]
    while stack:
        seq = stack.pop()
        yield seq
        used = set(seq)
        for v in range(p.n):
            if v in used:
                continue
            if all(not p.leq(u, v) for u in seq):
                stack.append(seq + (v,))


def bad_tree_height(p: FinPoset) -> int:
    return max(len(seq) for seq in bad_sequences(p))


def embeds(p: FinPoset, q: FinPoset) -> bool:
    """True iff an order-embedding p -> q exists (<= and incomparability
    both preserved); exhaustive backtracking without recursion.  Vertex v
    of p may go to any unused w of q whose relation to every image so far
    matches v's in p, an AND of q's successor or predecessor bitsets."""
    if p.n > q.n:
        return False
    if not p.n:
        return True
    rows, above = p.successors, q.successors
    below = _predecessors(q)
    full = (1 << q.n) - 1
    image, todo, used = [], [full], 0  # todo[v]: the untried images of vertex v
    while todo:
        rest = todo[-1]
        if not rest:
            todo.pop()
            if image:
                used ^= 1 << image.pop()
            continue
        low = rest & -rest
        todo[-1] = rest ^ low
        used |= low
        image.append(low.bit_length() - 1)
        v = len(image)
        if v == p.n:
            return True
        up, allowed = rows[v], full & ~used
        for u, x in enumerate(image):
            if rows[u] >> v & 1:
                allowed &= above[x]
            elif up >> u & 1:
                allowed &= below[x]
            else:
                allowed &= ~(above[x] | below[x])
            if not allowed:
                break
        todo.append(allowed)
    return False


def longcut_fin(p: FinPoset, a1: int, a2: int):
    """The lexicographically least downward-closed vertex set of size a1,
    with its complement; the two restrictions have lengths a1 and a2.

    The cut is built vertex by vertex.  A prefix x1 < ... < xk extends to
    a cut exactly when its down-closure D adds no vertex below xk and
    |D| <= a1 <= |M|, where M is the largest down-set inside the prefix
    and the vertices above xk.  M only shrinks as the candidate xk grows,
    and at the vertex that the least cut takes next it still holds that
    cut, so the third check holds for every candidate up to that one and
    the search takes the first that passes the other two.  Candidates
    only grow, so each vertex is tried once: O(n) big-int operations
    after the predecessor rows are read from the covers."""
    for size in (a1, a2):
        if size < 0:
            raise PosetError("cut size %d is negative" % size)
    if a1 + a2 != p.n:
        raise PosetError("cut sizes %d+%d do not partition %d vertices" % (a1, a2, p.n))
    below = _predecessors(p)  # bit i of below[j] iff i < j
    cut = down = 0
    x = 0
    for _ in range(a1):
        while x < p.n:
            bit = 1 << x
            closure = down | below[x] | bit
            if closure & (2 * bit - 1) == cut | bit and closure.bit_count() <= a1:
                break
            x += 1
        else:
            # unreachable: the first a1 vertices of a linear extension are a cut
            raise PosetError("no downward-closed cut of size %d" % a1)
        cut |= bit
        down = closure
        x += 1
    return tuple(_bits(cut)), tuple(_bits(cut ^ ((1 << p.n) - 1)))


def all_posets(n: int):
    """Every labeled strict partial order on n vertices (219 for n=4)."""
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    for mask in range(1 << len(slots)):
        rel = {slots[k] for k in range(len(slots)) if mask >> k & 1}
        if any((j, i) in rel for (i, j) in rel):
            continue
        if any(
            (i, l) not in rel
            for (i, j) in rel
            for (k, l) in rel
            if j == k
        ):
            continue
        yield make_poset(n, rel)
