"""Ordinals relative to the symbolic cardinal scale omega_0 .. omega_9.

A `KOrdinal` stores the base-omega_k expansion of an ordinal:

    omega_9*c9 + ... + omega_1*c1 + c0

where every c_k is a countable CNF ordinal (c0 is the full countable
tail).  This is closed under everything the theta calculus produces: the
canonical euclidean decomposition a = omega_level*q + r is recovered as
level = highest nonzero scale, q = c_level and r = the tower below it.

A `KOrdinal` is a slotted value that cannot be changed.  Its `level` and
its order key `_k` are stored when it is built: `_k` is the flat tuple of
the coefficients' own CNF order keys `_key`, from omega_9 down to omega_0,
so Python's lexicographic tuple order on `_k` is the order of towers and
every comparison is one tuple comparison in C.  A countable value equals
its `CnfOrdinal` and hashes as it; other operands are not comparable.  The
public constructor checks its coefficients and finds the level; the scale
arithmetic builds its results through the unchecked `_kmk`, which is given
the level (and, where it is known from the parts, the key).

MAX_LEVEL is 9; hartog past omega_9 raises LevelOverflowError.
"""

from __future__ import annotations

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
_ZEROS = (ZERO,) * (MAX_LEVEL + 1)
_NO_SCALES = _ZEROS[1:]  # the coefficients above omega_0 of a countable value
_NO_SCALE_KEYS = (ZERO._key,) * MAX_LEVEL  # their part of the order key


class LevelOverflowError(OrdinalError):
    pass


class KOrdinal:
    """omega_9*c9 + ... + omega_1*c1 + c0, with coeffs[k] = c_k.

    `KOrdinal(coeffs)` checks its argument: a tuple or list of MAX_LEVEL + 1
    coefficients, each a `CnfOrdinal`; it raises OrdinalError otherwise.
    """

    # coeffs[k] is the coefficient of omega_k; coeffs[0] is the countable tail.
    # level is the cardinality level, the highest k >= 1 with a nonzero
    # coefficient (0 if none); _k is the order key of the module docstring.
    __slots__ = ("coeffs", "level", "_k")
    coeffs: tuple[CnfOrdinal, ...]
    level: int

    def __new__(cls, coeffs: tuple = _ZEROS) -> "KOrdinal":
        if not isinstance(coeffs, (tuple, list)) or len(coeffs) != MAX_LEVEL + 1:
            raise OrdinalError("expected %d scale coefficients" % (MAX_LEVEL + 1))
        coeffs = tuple(coeffs)
        for c in coeffs:
            if not isinstance(c, CnfOrdinal):
                raise OrdinalError("scale coefficient %r is not a CNF ordinal" % (c,))
        return _kmk(coeffs, _top(coeffs, MAX_LEVEL))

    def __setattr__(self, name, value):
        raise AttributeError("KOrdinal values are immutable")

    def __delattr__(self, name):
        raise AttributeError("KOrdinal values are immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the checking constructor
        return KOrdinal, (self.coeffs,)

    @staticmethod
    def of(x) -> "KOrdinal":
        if isinstance(x, KOrdinal):
            return x
        return _countable(as_ordinal(x))

    @staticmethod
    def at_level(level: int, q, r: "KOrdinal | CnfOrdinal | int" = 0) -> "KOrdinal":
        """omega_level * q + r, with r below omega_level."""
        q = as_ordinal(q)
        if level == 0:
            r = as_ordinal(r if not isinstance(r, KOrdinal) else r.countable())
            if not r.is_finite:
                raise OrdinalError("level-0 remainder must be finite")
            return _countable(add(mul(OMEGA, q), r))
        if not 0 < level <= MAX_LEVEL:
            raise LevelOverflowError("omega_%d is outside the modelled scale" % level)
        r = KOrdinal.of(r)
        if r.level >= level and not r.is_zero:
            raise OrdinalError("remainder %s is not below omega_%d" % (r, level))
        if q is ZERO:
            return r
        i = MAX_LEVEL - level
        return _kmk(r.coeffs[:level] + (q,) + r.coeffs[level + 1:], level,
                    r._k[:i] + (q._key,) + r._k[i + 1:])

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.level == 0 and self.coeffs[0] is ZERO

    @property
    def is_finite(self) -> bool:
        return self.level == 0 and self.coeffs[0].is_finite

    def euclid(self) -> tuple[CnfOrdinal, "KOrdinal"]:
        """(q, r) with self = omega_level*q + r and r below omega_level
        (omega itself at level 0)."""
        k = self.level
        if k:
            return self.coeffs[k], _below(self, k)
        q, r = euclid_div(self.coeffs[0], OMEGA)
        return q, _countable(r)

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
        return _with_tail(self, add(self.coeffs[0], ONE))

    def pred(self) -> "KOrdinal":
        if not self.is_successor:
            raise OrdinalError("%s is not a successor" % self)
        return _with_tail(self, self.coeffs[0].pred())

    # -- equality, hashing, comparison, display ------------------------------
    #
    # A countable value is also compared with a `CnfOrdinal`, through the key
    # of its lift; any other operand gets NotImplemented, as from CnfOrdinal.

    def __eq__(self, other) -> bool:
        if isinstance(other, KOrdinal):
            return self._k == other._k
        if isinstance(other, CnfOrdinal):
            return self.level == 0 and self.coeffs[0] is other
        return NotImplemented

    def __hash__(self) -> int:
        # a countable value equals its CnfOrdinal, so it hashes as one
        return hash(self.coeffs if self.level else self.coeffs[0])

    # all four orders spelled out: total_ordering's derived ones cost a
    # second call per comparison
    def __lt__(self, other) -> bool:
        if isinstance(other, KOrdinal):
            return self._k < other._k
        if isinstance(other, CnfOrdinal):
            return self._k < _NO_SCALE_KEYS + (other._key,)
        return NotImplemented

    def __gt__(self, other) -> bool:
        if isinstance(other, KOrdinal):
            return self._k > other._k
        if isinstance(other, CnfOrdinal):
            return self._k > _NO_SCALE_KEYS + (other._key,)
        return NotImplemented

    def __le__(self, other) -> bool:
        if isinstance(other, KOrdinal):
            return self._k <= other._k
        if isinstance(other, CnfOrdinal):
            return self._k <= _NO_SCALE_KEYS + (other._key,)
        return NotImplemented

    def __ge__(self, other) -> bool:
        if isinstance(other, KOrdinal):
            return self._k >= other._k
        if isinstance(other, CnfOrdinal):
            return self._k >= _NO_SCALE_KEYS + (other._key,)
        return NotImplemented

    def __str__(self) -> str:
        return render_k(self)

    def __repr__(self) -> str:
        return "KOrdinal(%s)" % render_k(self)


_knew = object.__new__
_set_coeffs = KOrdinal.coeffs.__set__
_set_level = KOrdinal.level.__set__
_set_k = KOrdinal._k.__set__


def _kmk(coeffs: tuple, level: int, k: tuple | None = None) -> KOrdinal:
    """The tower of `coeffs`, unchecked: for results that the scale
    arithmetic builds from known parts.  `level` must be the tower's level
    and `k`, when given, its order key."""
    v = _knew(KOrdinal)
    _set_coeffs(v, coeffs)
    _set_level(v, level)
    _set_k(v, k if k is not None else tuple([c._key for c in reversed(coeffs)]))
    return v


def _top(coeffs: tuple, k: int) -> int:
    """The highest scale j in 1..k with a nonzero coefficient, else 0."""
    while k and coeffs[k] is ZERO:
        k -= 1
    return k


def _countable(c: CnfOrdinal) -> KOrdinal:
    """The countable c as a tower: no level to find."""
    return _kmk((c,) + _NO_SCALES, 0, _NO_SCALE_KEYS + (c._key,))


def _with_tail(a: KOrdinal, c: CnfOrdinal) -> KOrdinal:
    """a with its countable tail replaced by c: a's level, a's key above omega_0."""
    return _kmk((c,) + a.coeffs[1:], a.level, a._k[:MAX_LEVEL] + (c._key,))


def _below(a: KOrdinal, k: int) -> KOrdinal:
    """The tower of a's coefficients below scale k >= 1."""
    coeffs = a.coeffs[:k] + _ZEROS[k:]
    return _kmk(coeffs, _top(coeffs, k - 1), _NO_SCALE_KEYS[k - 1:] + a._k[MAX_LEVEL + 1 - k:])


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
    return a if a.is_finite else _OMEGA_LEVELS[a.level]


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
    c = add(a.coeffs[k], b.coeffs[k])
    i = MAX_LEVEL - k
    return _kmk(b.coeffs[:k] + (c,) + a.coeffs[k + 1:], max(a.level, k),
                a._k[:i] + (c._key,) + b._k[i + 1:])


def k_nat_add(a, b) -> KOrdinal:
    """Hessenberg sum of towers is scale-wise Hessenberg."""
    a, b = KOrdinal.of(a), KOrdinal.of(b)
    return _kmk(tuple(map(nat_add, a.coeffs, b.coeffs)), max(a.level, b.level))


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
        return _countable(ZERO)
    lows = [min(j for j, c in enumerate(x.coeffs) if not c.is_zero) for x in (a, b)]
    k = max(lows)
    at_k = [add(x.coeffs[k], ONE) if low < k else x.coeffs[k] for x, low in zip((a, b), lows)]
    return _kmk(_ZEROS[:k] + (ul_nat_add(*at_k),)
                + tuple(map(nat_add, a.coeffs[k + 1:], b.coeffs[k + 1:])), max(a.level, b.level))


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
    return "W%d*(%s)+(%s)" % (k, render_ordinal(a.coeffs[k]), render_k(_below(a, k)))


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
