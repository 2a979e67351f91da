"""Independent reference arithmetic used to check wpolab's outputs.

Nothing here imports wpolab.  Library results reach this module only as
text (``render_ordinal`` / ``render_k`` / CLI documents), so every check
runs on a separate code path from the function it checks.

Representation:

* a countable ordinal below epsilon_0 is a tuple of ``(exponent, coeff)``
  pairs with strictly decreasing exponents, each exponent itself such a
  tuple; ``()`` is 0.  Python's tuple order *is* the ordinal order on this
  representation (lexicographic on terms, a proper prefix is smaller).
* a tower ``W9*c9 + ... + W1*c1 + c0`` is a tuple of ten ordinals indexed
  by scale level (``t[k]`` is the coefficient of omega_k); its order is the
  tuple order of ``t[::-1]``.
"""

from __future__ import annotations

import numpy as np

ZERO = ()
ONE = (((), 1),)
OMEGA = ((ONE, 1),)
LEVELS = 10


def nat(n: int) -> tuple:
    return ((ZERO, n),) if n else ZERO


def is_finite(a) -> bool:
    return not a or (len(a) == 1 and a[0][0] == ZERO)


def as_int(a) -> int:
    return a[0][1] if a else 0


def is_successor(a) -> bool:
    return bool(a) and a[-1][0] == ZERO


def pred(a):
    exp, c = a[-1]
    return a[:-1] + (((exp, c - 1),) if c > 1 else ())


def term(exp, coeff: int = 1):
    return ((exp, coeff),) if coeff else ZERO


# -- countable arithmetic ------------------------------------------------------


def add(a, b):
    if not b:
        return a
    e, c = b[0]
    kept = tuple(t for t in a if t[0] >= e)
    if kept and kept[-1][0] == e:
        return kept[:-1] + ((e, kept[-1][1] + c),) + b[1:]
    return kept + b


def nat_add(a, b):
    merged = {}
    for exp, c in a + b:
        merged[exp] = merged.get(exp, 0) + c
    return tuple(sorted(merged.items(), reverse=True))


def mul(a, b):
    """Ordinal product: a * (sum of w^f*d) summed term by term."""
    if not a or not b:
        return ZERO
    lead, lc = a[0]
    out = ZERO
    for f, d in b:
        if f == ZERO:
            out = add(out, ((lead, lc * d),) + a[1:])
        else:
            out = add(out, term(add(lead, f), d))
    return out


def nat_mul(a, b):
    out = ZERO
    for ea, ca in a:
        for eb, cb in b:
            out = nat_add(out, term(nat_add(ea, eb), ca * cb))
    return out


def div_omega(a):
    """(q, r) with a = w*q + r and r finite."""
    q = []
    for exp, c in a:
        if exp == ZERO:
            continue
        # the x with 1 + x = exp
        q.append((pred(exp) if is_finite(exp) else exp, c))
    return tuple(q), (a[-1:] if is_successor(a) else ZERO)


def last_exp(a):
    return a[-1][0]


def minus_last(a):
    exp, c = a[-1]
    return a[:-1] + (((exp, c - 1),) if c > 1 else ())


def trunc_ge(a, exp):
    return tuple(t for t in a if t[0] >= exp)


# -- towers over the cardinal scale --------------------------------------------


def tower(c0=ZERO):
    return (c0,) + (ZERO,) * (LEVELS - 1)


def t_key(t):
    return t[::-1]


def t_lt(x, y) -> bool:
    return t_key(x) < t_key(y)


def level(t) -> int:
    for k in range(LEVELS - 1, 0, -1):
        if t[k]:
            return k
    return 0


def t_is_zero(t) -> bool:
    return not any(t)


def t_is_finite(t) -> bool:
    return level(t) == 0 and is_finite(t[0])


def t_is_successor(t) -> bool:
    return is_successor(t[0])


def t_succ(t):
    return (add(t[0], ONE),) + t[1:]


def t_pred(t):
    return (pred(t[0]),) + t[1:]


def omega_level(k: int):
    if k == 0:
        return tower(OMEGA)
    if k >= LEVELS:
        raise OverflowError("omega_%d is outside the scale" % k)
    return tuple(ONE if j == k else ZERO for j in range(LEVELS))


def k_add(x, y):
    if t_is_zero(y):
        return x
    k = level(y)
    return tuple(y[j] if j < k else add(x[j], y[j]) if j == k else x[j]
                 for j in range(LEVELS))


def k_nat_add(x, y):
    return tuple(nat_add(a, b) for a, b in zip(x, y))


def _last_piece(t):
    for k in range(LEVELS):
        if t[k]:
            return k, last_exp(t[k])
    raise ValueError("0 has no last term")


def _t_minus_last(t):
    k, _ = _last_piece(t)
    return tuple(minus_last(c) if j == k else c for j, c in enumerate(t))


def _t_trunc_ge(t, piece):
    k, e = piece
    return tuple(ZERO if j < k else trunc_ge(c, e) if j == k else c
                 for j, c in enumerate(t))


def _piece_pow(piece):
    k, e = piece
    return tuple(term(e) if j == k else ZERO for j in range(LEVELS))


def k_ul_nat_add(x, y):
    """sup+{ x' (+) y' : x' < x, y' < y } by the successor/limit case split."""
    if t_is_zero(x) or t_is_zero(y):
        return tower()
    if t_is_successor(x) and t_is_successor(y):
        return t_succ(k_nat_add(t_pred(x), t_pred(y)))
    if t_is_successor(y):
        x, y = y, x
    if t_is_successor(x):
        g = _last_piece(y)
        base = k_nat_add(t_pred(x), _t_minus_last(y))
    else:
        g = max(_last_piece(x), _last_piece(y))
        base = k_nat_add(_t_minus_last(x), _t_minus_last(y))
    return k_add(_t_trunc_ge(base, g), _piece_pow(g))


def cardinality(t):
    if t_is_finite(t):
        return t
    return omega_level(level(t))


def hartog(t):
    if t_is_finite(t):
        return t_succ(t)
    return omega_level(level(t) + 1)


def theta_plus(*args):
    """kappa*(q_1 (x) ... (x) q_n) + |r_1 + ... + r_n|^+ on equipotent
    tuples, 0 off the gate, a+1 at arity one and on equal finite tuples."""
    if len(args) == 1:
        return t_succ(args[0])
    card = cardinality(args[0])
    if any(cardinality(a) != card for a in args[1:]):
        return tower()
    if t_is_finite(args[0]):
        return t_succ(args[0])
    k = level(args[0])
    prod = ONE
    rems = []
    for a in args:
        if k == 0:
            q, r = div_omega(a[0])
            r = tower(r)
        else:
            q, r = a[k], a[:k] + (ZERO,) * (LEVELS - k)
        prod = nat_mul(prod, q)
        rems.append(r)
    if all(t_is_finite(r) for r in rems):
        tail = tower(nat(sum(as_int(r[0]) for r in rems) + 1))
    else:
        tail = omega_level(max(level(r) for r in rems if not t_is_finite(r)) + 1)
    head = tower(mul(OMEGA, prod)) if k == 0 else tuple(
        prod if j == k else ZERO for j in range(LEVELS))
    return k_add(head, tail)


def theta_len(*args):
    v = theta_plus(*args)
    return t_pred(v) if t_is_successor(v) else v


# -- text ------------------------------------------------------------------------


class _Reader:
    def __init__(self, text: str):
        self.s, self.i = text.replace(" ", ""), 0

    def peek(self) -> str:
        return self.s[self.i] if self.i < len(self.s) else ""

    def take(self, tok: str) -> None:
        if not self.s.startswith(tok, self.i):
            raise ValueError("expected %r at %d in %r" % (tok, self.i, self.s))
        self.i += len(tok)

    def number(self) -> int:
        j = self.i
        while self.peek().isdigit():
            self.i += 1
        if j == self.i:
            raise ValueError("expected a number at %d in %r" % (j, self.s))
        return int(self.s[j:self.i])

    def ordinal(self):
        terms = []
        while True:
            if self.peek() == "w":
                self.take("w")
                exp = ONE
                if self.peek() == "^":
                    self.take("^")
                    if self.peek() == "(":
                        self.take("(")
                        exp = self.ordinal()
                        self.take(")")
                    elif self.peek() == "w":
                        self.take("w")
                        exp = OMEGA
                    else:
                        exp = nat(self.number())
                c = 1
                if self.peek() == "*":
                    self.take("*")
                    c = self.number()
                terms.append((exp, c))
            else:
                n = self.number()
                if n:
                    terms.append((ZERO, n))
            if self.peek() != "+":
                break
            self.take("+")
        out = tuple(terms)
        if any(not x[0] > y[0] for x, y in zip(out, out[1:])):
            raise ValueError("non-canonical ordinal %r" % self.s)
        return out


def parse(text: str):
    r = _Reader(text)
    out = r.ordinal()
    if r.i != len(r.s):
        raise ValueError("trailing input in %r" % text)
    return out


def parse_tower(text: str):
    """Plain CNF (level 0) or the scaled form W<k>*(q)+(rest)."""
    text = text.replace(" ", "")
    if not text.startswith("W"):
        return tower(parse(text))
    k_end = 1
    while text[k_end].isdigit():
        k_end += 1
    k = int(text[1:k_end])
    depth, j = 1, k_end + 2
    while depth:
        depth += {"(": 1, ")": -1}.get(text[j], 0)
        j += 1
    q = parse(text[k_end + 2:j - 1])
    rest = parse_tower(text[j + 2:-1])
    return tuple(q if i == k else c for i, c in enumerate(rest))


def render(a) -> str:
    if not a:
        return "0"
    parts = []
    for exp, c in a:
        if exp == ZERO:
            parts.append(str(c))
            continue
        if exp == ONE:
            base = "w"
        elif exp == OMEGA or is_finite(exp):
            base = "w^" + render(exp)
        else:
            base = "w^(%s)" % render(exp)
        parts.append(base if c == 1 else "%s*%d" % (base, c))
    return "+".join(parts)


def render_tower(t) -> str:
    k = level(t)
    if k == 0:
        return render(t[0])
    rest = t[:k] + (ZERO,) * (LEVELS - k)
    return "W%d*(%s)+(%s)" % (k, render(t[k]), render_tower(rest))


# -- finite relations ------------------------------------------------------------


def closure(n: int, pairs) -> np.ndarray:
    """Transitive closure of a strict relation as a boolean matrix
    (Warshall's algorithm, row-vectorised)."""
    m = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        m[i, j] = True
    for k in range(n):
        m |= np.outer(m[:, k], m[k])
    return m


def is_strict_order(m: np.ndarray) -> bool:
    """Irreflexive, antisymmetric and transitively closed."""
    if m.diagonal().any() or (m & m.T).any():
        return False
    mi = m.astype(np.int64)
    return not ((mi @ mi > 0) & ~m).any()


def cover_pairs(m: np.ndarray) -> set:
    """Covering pairs (transitive reduction) of a closed strict order."""
    mi = m.astype(np.int64)
    cover = m & ~(mi @ mi > 0)
    return {(int(i), int(j)) for i, j in np.argwhere(cover)}


def pairs_of(m: np.ndarray) -> list:
    return sorted([int(i), int(j)] for i, j in np.argwhere(m))
