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
    MAX_NESTING,
    ZERO,
    ONE,
    OMEGA,
    CnfOrdinal,
    OrdinalError,
    _Parser,
    _Scan,
    add,
    as_ordinal,
    clip,
    euclid_div,
    mul,
    nat_add,
    render_ordinal,
    ul_nat_add,
)

MAX_LEVEL = 9
_NO_SCALES = (ZERO,) * MAX_LEVEL  # the coefficients above omega_0 of a countable value


class LevelOverflowError(OrdinalError):
    pass


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
        return KOrdinal((as_ordinal(x),) + (ZERO,) * MAX_LEVEL)

    @staticmethod
    def at_level(level: int, q, r: "KOrdinal | CnfOrdinal | int" = 0) -> "KOrdinal":
        """omega_level * q + r, with r below omega_level."""
        q = as_ordinal(q)
        if level == 0:
            r = as_ordinal(r if not isinstance(r, KOrdinal) else r.countable())
            if not r.is_finite:
                raise OrdinalError("level-0 remainder must be finite")
            return KOrdinal.of(add(mul(OMEGA, q), r))
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

    def euclid(self) -> tuple[CnfOrdinal, "KOrdinal"]:
        """(q, r) with self = omega_level*q + r and r below omega_level
        (omega itself at level 0)."""
        k = self.level
        if k:
            return self.coeffs[k], KOrdinal(self.coeffs[:k] + (ZERO,) * (MAX_LEVEL + 1 - k))
        q, r = euclid_div(self.coeffs[0], OMEGA)
        return q, KOrdinal.of(r)

    @property
    def q(self) -> CnfOrdinal:
        """Euclidean quotient by omega_level (by omega itself at level 0)."""
        return self.euclid()[0]

    @property
    def r(self) -> "KOrdinal":
        """Euclidean remainder below omega_level."""
        return self.euclid()[1]

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
        # a countable value equals its CnfOrdinal, so it hashes as one
        return hash(self.coeffs[0] if self.coeffs[1:] == _NO_SCALES else self.coeffs)

    def __str__(self) -> str:
        return render_k(self)

    def __repr__(self) -> str:
        return "KOrdinal(%s)" % render_k(self)


# omega_0 = omega, omega_1, ..., omega_MAX_LEVEL
_OMEGA_LEVELS = (KOrdinal.of(OMEGA),) + tuple(
    KOrdinal.at_level(k, ONE) for k in range(1, MAX_LEVEL + 1))


def omega_level(k: int) -> KOrdinal:
    if not 0 <= k <= MAX_LEVEL:
        raise LevelOverflowError("omega_%d is outside the modelled scale" % k)
    return _OMEGA_LEVELS[k]


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
    coeffs = list(a.coeffs)
    coeffs[k] = add(a.coeffs[k], b.coeffs[k])
    for j in range(k):
        coeffs[j] = b.coeffs[j]
    return KOrdinal(tuple(coeffs))


def k_nat_add(a, b) -> KOrdinal:
    """Hessenberg sum of towers is scale-wise Hessenberg."""
    a, b = KOrdinal.of(a), KOrdinal.of(b)
    return KOrdinal(tuple(nat_add(x, y) for x, y in zip(a.coeffs, b.coeffs)))


def k_ul_nat_add(a, b) -> KOrdinal:
    """Underlined natural sum of towers: sup_plus{a' (+) b' : a' < a, b' < b}.

    Scale by scale, with k the larger of the two lowest nonzero scales:
    every scale above k is the natural sum of the two coefficients, scale
    k is ordinals.ul_nat_add of the two scale-k coefficients, and every
    scale below k is 0.  A tower whose lowest nonzero scale lies below k
    takes its scale-k coefficient plus one: taking its last unit off
    leaves that coefficient whole, and the exponent 0 of the extra unit
    never wins ul_nat_add's largest last exponent.  0 if a or b is 0.
    """
    a, b = KOrdinal.of(a), KOrdinal.of(b)
    if a.is_zero or b.is_zero:
        return KOrdinal.of(0)
    lows = [min(j for j, c in enumerate(x.coeffs) if not c.is_zero) for x in (a, b)]
    k = max(lows)
    at_k = [add(x.coeffs[k], ONE) if low < k else x.coeffs[k] for x, low in zip((a, b), lows)]
    return KOrdinal((ZERO,) * k + (ul_nat_add(*at_k),)
                    + tuple(map(nat_add, a.coeffs[k + 1:], b.coeffs[k + 1:])))


# -- textual form -------------------------------------------------------------
#
# Scaled grammar: "W<k>*(" ordinal ")+(" rest ")" with the rest itself either
# a plain ordinal or a nested scaled form; plain ordinals denote countable
# values.  q and a plain rest are read in place from the ordinals._Scan
# tokens, with error positions counted from their start.


def render_k(a: KOrdinal) -> str:
    a = KOrdinal.of(a)
    k = a.level
    if k == 0:
        return render_ordinal(a.coeffs[0])
    rest = KOrdinal(a.coeffs[:k] + (ZERO,) * (MAX_LEVEL + 1 - k))
    return "W%d*(%s)+(%s)" % (k, render_ordinal(a.coeffs[k]), render_k(rest))


def parse_k(text: str) -> KOrdinal:
    scan = _Scan(text.replace(" ", ""))
    return _parse_k(scan, 0, len(scan.toks) - 1, 0)


def _parse_k(scan: _Scan, k0: int, k1: int, nested: int) -> KOrdinal:
    """parse_k of tokens k0 .. k1 - 1, below `nested` enclosing scaled forms."""
    toks = scan.toks
    if k0 == k1 or toks[k0] != "W":
        return KOrdinal.of(_Parser(scan, k0, k1).parse())
    if nested == MAX_NESTING:
        raise OrdinalError("scaled forms nested deeper than %d" % MAX_NESTING)
    # W<k>*( q )+( rest ): tokens W, k, *, ( and q up to the matching )
    scale = toks[k0 + 1]
    if k0 + 3 >= k1 or not "0" <= scale[:1] <= "9" or toks[k0 + 2 : k0 + 4] != ["*", "("]:
        raise OrdinalError("malformed scaled ordinal %r (expected W<k>*(q)+(r))"
                           % clip(scan.window(k0, k1)))
    # compare by length first: int() rejects digit runs over 4300 long
    digits = scale.lstrip("0") or "0"
    if len(digits) > len(str(MAX_LEVEL)) or not 1 <= int(digits) <= MAX_LEVEL:
        raise LevelOverflowError("scale W%s is outside 1..%d" % (clip(digits), MAX_LEVEL))
    close = scan.close.get(k0 + 3)
    if (close is None or close + 2 >= k1 or toks[close + 1 : close + 3] != ["+", "("]
            or toks[k1 - 1] != ")"):
        raise OrdinalError("malformed scaled ordinal %r (expected W<k>*(q)+(r))"
                           % clip(scan.window(k0, k1)))
    q = _Parser(scan, k0 + 4, close).parse()
    rest = _parse_k(scan, close + 3, k1 - 1, nested + 1)
    if q.is_zero:
        raise OrdinalError("scaled form needs a nonzero quotient")
    return KOrdinal.at_level(int(digits), q, rest)
