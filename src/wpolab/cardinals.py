"""Ordinals relative to the symbolic cardinal scale omega_0 .. omega_9.

A `KOrdinal` stores the base-omega_k expansion of an ordinal:

    omega_9*c9 + ... + omega_1*c1 + c0

where every c_k is a countable CNF ordinal (c0 is the full countable
tail).  This is closed under everything the theta calculus produces: the
canonical euclidean decomposition a = omega_level*q + r is recovered as
level = highest nonzero scale, q = c_level and r = the tower below it.

MAX_LEVEL is 9; hartog past omega_9 raises LevelOverflowError.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .ordinals import (
    DIGITS,
    MAX_NESTING,
    ZERO,
    ONE,
    OMEGA,
    CnfOrdinal,
    OrdinalError,
    add,
    euclid_div,
    from_int,
    parse_ordinal,
    render_ordinal,
)

MAX_LEVEL = 9


class LevelOverflowError(OrdinalError):
    pass


def _coerce_cnf(x) -> CnfOrdinal:
    if isinstance(x, CnfOrdinal):
        return x
    if isinstance(x, int):
        return from_int(x)
    raise OrdinalError("cannot interpret %r as a countable ordinal" % (x,))


@functools.total_ordering
@dataclass(frozen=True)
class KOrdinal:
    # coeffs[k] is the coefficient of omega_k; coeffs[0] is the countable tail
    coeffs: tuple[CnfOrdinal, ...] = field(default=(ZERO,) * (MAX_LEVEL + 1))

    def __post_init__(self) -> None:
        if len(self.coeffs) != MAX_LEVEL + 1:
            raise OrdinalError("expected %d scale coefficients" % (MAX_LEVEL + 1))

    @staticmethod
    def of(x) -> "KOrdinal":
        if isinstance(x, KOrdinal):
            return x
        return KOrdinal((_coerce_cnf(x),) + (ZERO,) * MAX_LEVEL)

    @staticmethod
    def at_level(level: int, q, r: "KOrdinal | CnfOrdinal | int" = 0) -> "KOrdinal":
        """omega_level * q + r, with r below omega_level."""
        q = _coerce_cnf(q)
        if level == 0:
            r = _coerce_cnf(r if not isinstance(r, KOrdinal) else r.countable())
            if not r.is_finite:
                raise OrdinalError("level-0 remainder must be finite")
            return KOrdinal.of(add(mul_omega(q), r))
        r = KOrdinal.of(r)
        if r.level >= level and not r.is_zero:
            raise OrdinalError("remainder %s is not below omega_%d" % (r, level))
        coeffs = list(r.coeffs)
        if not q.is_zero:
            coeffs[level] = q
        return KOrdinal(tuple(coeffs))

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    @property
    def is_finite(self) -> bool:
        return self.coeffs[0].is_finite and all(c.is_zero for c in self.coeffs[1:])

    @property
    def level(self) -> int:
        """Cardinality level: highest k with a nonzero omega_k coefficient."""
        for k in range(MAX_LEVEL, 0, -1):
            if not self.coeffs[k].is_zero:
                return k
        return 0

    @property
    def q(self) -> CnfOrdinal:
        """Euclidean quotient by omega_level (by omega itself at level 0)."""
        k = self.level
        if k:
            return self.coeffs[k]
        return euclid_div(self.coeffs[0], OMEGA)[0]

    @property
    def r(self) -> "KOrdinal":
        """Euclidean remainder below omega_level."""
        k = self.level
        if k:
            return KOrdinal(self.coeffs[:k] + (ZERO,) * (MAX_LEVEL + 1 - k))
        return KOrdinal.of(euclid_div(self.coeffs[0], OMEGA)[1])

    def countable(self) -> CnfOrdinal:
        if self.level:
            raise OrdinalError("%s is uncountable" % self)
        return self.coeffs[0]

    @property
    def is_successor(self) -> bool:
        return self.coeffs[0].is_successor

    @property
    def is_limit(self) -> bool:
        return not self.is_zero and not self.coeffs[0].is_successor

    def succ(self) -> "KOrdinal":
        return KOrdinal((add(self.coeffs[0], ONE),) + self.coeffs[1:])

    def pred(self) -> "KOrdinal":
        if not self.is_successor:
            raise OrdinalError("%s is not a successor" % self)
        return KOrdinal((self.coeffs[0].pred(),) + self.coeffs[1:])

    # -- comparison / display -------------------------------------------------

    def _key(self):
        return tuple(reversed(self.coeffs))

    def __lt__(self, other) -> bool:
        other = KOrdinal.of(other)
        return self._key() < other._key()

    def __eq__(self, other) -> bool:
        if isinstance(other, (KOrdinal, CnfOrdinal, int)):
            return self.coeffs == KOrdinal.of(other).coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __str__(self) -> str:
        return render_k(self)

    def __repr__(self) -> str:
        return "KOrdinal(%s)" % render_k(self)


def omega_level(k: int) -> KOrdinal:
    if k == 0:
        return KOrdinal.of(OMEGA)
    if not 0 < k <= MAX_LEVEL:
        raise LevelOverflowError("omega_%d is outside the modelled scale" % k)
    return KOrdinal.at_level(k, ONE)


def mul_omega(q: CnfOrdinal) -> CnfOrdinal:
    from .ordinals import mul

    return mul(OMEGA, q)


def cardinality(a) -> KOrdinal:
    """|a|: a itself when finite, otherwise the omega_k of its level."""
    a = KOrdinal.of(a)
    if a.is_finite:
        return a
    if a.level == 0:
        return KOrdinal.of(OMEGA)
    return omega_level(a.level)


def hartog(a) -> KOrdinal:
    """Least initial ordinal strictly greater than a."""
    a = KOrdinal.of(a)
    if a.is_finite:
        return a.succ()
    k = a.level + 1
    if k > MAX_LEVEL:
        raise LevelOverflowError(
            "hartog of a level-%d ordinal exceeds omega_%d" % (a.level, MAX_LEVEL)
        )
    return omega_level(k)


def k_add(a, b) -> KOrdinal:
    """Ordinal sum of towers (the low part of a below b's scale is absorbed)."""
    a, b = KOrdinal.of(a), KOrdinal.of(b)
    if b.is_zero:
        return a
    k = b.level
    if k == 0 and b.coeffs[0].is_zero:
        return a
    coeffs = list(a.coeffs)
    top = b.coeffs[k] if k else b.coeffs[0]
    coeffs[k] = add(coeffs[k], top) if k else add(coeffs[0], b.coeffs[0])
    for j in range(k):
        coeffs[j] = b.coeffs[j]
    return KOrdinal(tuple(coeffs))


def k_nat_add(a, b) -> KOrdinal:
    """Hessenberg sum of towers is scale-wise Hessenberg."""
    from .ordinals import nat_add

    a, b = KOrdinal.of(a), KOrdinal.of(b)
    return KOrdinal(tuple(nat_add(x, y) for x, y in zip(a.coeffs, b.coeffs)))


# -- underlined natural sum at tower level -----------------------------------
#
# Same case split as ordinals.ul_nat_add, but the "last term" of a tower may
# live at a cardinal scale: its exponent is modelled as the pair (scale,
# countable exponent), ordered lexicographically.


def _last_piece(a: KOrdinal) -> tuple[int, CnfOrdinal]:
    if a.is_zero:
        raise OrdinalError("0 has no last term")
    for k in range(MAX_LEVEL + 1):
        if not a.coeffs[k].is_zero:
            return k, a.coeffs[k].last_exp
    raise AssertionError


def _minus_last(a: KOrdinal) -> KOrdinal:
    k, _ = _last_piece(a)
    coeffs = list(a.coeffs)
    coeffs[k] = coeffs[k].minus_last()
    return KOrdinal(tuple(coeffs))


def _trunc_ge(a: KOrdinal, piece: tuple[int, CnfOrdinal]) -> KOrdinal:
    k, e = piece
    coeffs = [ZERO] * (MAX_LEVEL + 1)
    for j in range(k, MAX_LEVEL + 1):
        coeffs[j] = a.coeffs[j].trunc_ge(e) if j == k else a.coeffs[j]
    return KOrdinal(tuple(coeffs))


def _piece_pow(piece: tuple[int, CnfOrdinal]) -> KOrdinal:
    from .ordinals import omega_pow

    k, e = piece
    if k == 0:
        return KOrdinal.of(omega_pow(e))
    return KOrdinal.at_level(k, omega_pow(e))


def k_ul_nat_add(a, b) -> KOrdinal:
    a, b = KOrdinal.of(a), KOrdinal.of(b)
    if a.is_zero or b.is_zero:
        return KOrdinal.of(0)
    if a.is_successor and b.is_successor:
        return k_nat_add(a.pred(), b.pred()).succ()
    if a.is_successor:
        g = _last_piece(b)
        return k_add(_trunc_ge(k_nat_add(a.pred(), _minus_last(b)), g), _piece_pow(g))
    if b.is_successor:
        return k_ul_nat_add(b, a)
    g = max(_last_piece(a), _last_piece(b), key=lambda p: (p[0], p[1]))
    return k_add(
        _trunc_ge(k_nat_add(_minus_last(a), _minus_last(b)), g), _piece_pow(g)
    )


# -- textual form -------------------------------------------------------------
#
# Scaled grammar: "W<k>*(" ordinal ")+(" rest ")" with the rest itself either
# a plain ordinal or a nested scaled form; plain ordinals denote countable
# values.


def render_k(a: KOrdinal) -> str:
    a = KOrdinal.of(a)
    k = a.level
    if k == 0:
        return render_ordinal(a.coeffs[0])
    rest = KOrdinal(a.coeffs[:k] + (ZERO,) * (MAX_LEVEL + 1 - k))
    return "W%d*(%s)+(%s)" % (k, render_ordinal(a.coeffs[k]), render_k(rest))


def parse_k(text: str) -> KOrdinal:
    return _parse_k(text.replace(" ", ""), 0)


def _parse_k(text: str, nested: int) -> KOrdinal:
    """parse_k below `nested` enclosing scaled forms."""
    if not text.startswith("W"):
        return KOrdinal.of(parse_ordinal(text))
    if nested == MAX_NESTING:
        raise OrdinalError("scaled forms nested deeper than %d" % MAX_NESTING)
    # W<k>*( q )+( rest )
    i = 1
    while i < len(text) and text[i] in DIGITS:
        i += 1
    if i == 1 or not text.startswith("*(", i):
        raise OrdinalError("malformed scaled ordinal %r (expected W<k>*(q)+(r))" % text)
    # compare by length first: int() rejects digit runs over 4300 long
    digits = text[1:i].lstrip("0") or "0"
    if len(digits) > len(str(MAX_LEVEL)) or not 1 <= int(digits) <= MAX_LEVEL:
        raise LevelOverflowError("scale W%s is outside 1..%d" % (digits, MAX_LEVEL))
    k = int(digits)
    j = i + 2
    depth = 1
    while j < len(text) and depth:
        depth += {"(": 1, ")": -1}.get(text[j], 0)
        j += 1
    if depth or not text.startswith("+(", j) or not text.endswith(")"):
        raise OrdinalError("malformed scaled ordinal %r (expected W<k>*(q)+(r))" % text)
    q = parse_ordinal(text[i + 2 : j - 1])
    rest = _parse_k(text[j + 2 : -1], nested + 1)
    if q.is_zero:
        raise OrdinalError("scaled form needs a nonzero quotient")
    return KOrdinal.at_level(k, q, rest)
