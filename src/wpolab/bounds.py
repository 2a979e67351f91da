"""The length-bound operator calculus.

theta_plus is the closed-form value of the maximal-order-type operator on
equipotent tuples: writing each argument as kappa*q_i + r_i for the common
infinite cardinality kappa,

    theta_plus(a_1, .., a_n) = kappa*(q_1 (x) .. (x) q_n) + |r_1 + .. + r_n|^+

with 0 on non-equipotent tuples, k+1 on all-equal finite tuples and a+1 at
arity one.

theta_tilde is its strict-box supremum  sup{ theta_plus(x) : x_i < a_i }.
It is computed by a stratified closed form: tuples are grouped by their
common cardinality, the top stratum is analysed through the euclidean
corner decomposition of each bound, and the non-attained directions reduce
to underlined natural sum/product box suprema.  Every closed-form branch is
validated by fund_seq sampling in the test suite, and the whole function is
cross-checked against the generic bracket_tilde combinator.

Every box supremum is computed as one ordinal, the box's least strict upper
bound S = sup+ of its values (0 for an empty box).  The supremum is attained
exactly when S is a successor, at S - 1; otherwise it is S itself, a limit.
theta_tilde reads its value off S, and so does theta_sharp, the sup+ of the
attained-length operator theta_len.

bracket_plus / bracket_tilde are the generic combinators over black-box
operators; bracket_tilde treats its operand purely as a value oracle
(successor corners, plus cofinal sampling with structural limit
extrapolation on countable arguments).  An omega-indexed sample can never
be cofinal below an uncountable-cofinality limit, so those arguments are
refused unless the operand declares the two stratum facts
(`at_least_cardinality`, `stratum_bounded`) that make the lower strata
dominated; theta_plus declares both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .cardinals import MAX_LEVEL, KOrdinal, cardinality, k_add, omega_level
from .ordinals import (
    OMEGA,
    ONE,
    ZERO,
    CnfOrdinal,
    OrdinalError,
    add,
    fund_seq,
    nat_mul,
    omega_pow,
    ul_nat_add,
)

K_ZERO = KOrdinal.of(0)


class UnsupportedSupremum(OrdinalError):
    """The generic combinator cannot evaluate this supremum exactly."""


def equipotent(args: Sequence) -> bool:
    args = [KOrdinal.of(a) for a in args]
    return all(cardinality(a) == cardinality(args[0]) for a in args[1:])


# -- theta_plus ----------------------------------------------------------------


def theta_plus(*args) -> KOrdinal:
    args = [KOrdinal.of(a) for a in args]
    if not args:
        raise OrdinalError("theta_plus needs at least one argument")
    if len(args) == 1:
        return args[0].succ()
    if not equipotent(args):
        return K_ZERO
    if args[0].is_finite:
        return args[0].succ()  # all arguments are the same finite value
    level = args[0].level
    prod = ONE
    rems: list[KOrdinal] = []
    for a in args:
        q, r = a.euclid()
        prod = nat_mul(prod, q)
        rems.append(r)
    return k_add(KOrdinal.at_level(level, prod), _hartog_of_sum(rems))


def _hartog_of_sum(rems: Sequence[KOrdinal]) -> KOrdinal:
    """hartog(r_1 + ... + r_n) without materializing the sum."""
    if all(r.is_finite for r in rems):
        total = sum(r.countable().as_int() for r in rems)
        return KOrdinal.of(total + 1)
    top = max(r.level for r in rems if not r.is_finite)
    return omega_level(top + 1)


# -- box suprema over theta ------------------------------------------------------
#
# Each function here returns a sup+, as the module docstring sets out.


def nat_mul_box_sup(fixed: CnfOrdinal, qs: Sequence[CnfOrdinal]) -> CnfOrdinal:
    """sup+{ fixed (x) Q_1 (x) ... (x) Q_m : 1 <= Q_i < q_i } for fixed >= 1."""
    if fixed.is_zero:
        raise OrdinalError("fixed factor must be positive")
    limits = []
    for q in qs:
        if q.is_zero or q == ONE:
            raise OrdinalError("empty product box")
        if q.is_successor:
            fixed = nat_mul(fixed, q.pred())
        else:
            limits.append(q)
    if not limits:
        return add(fixed, ONE)
    t0 = fixed
    for lam in limits:
        t0 = nat_mul(t0, lam.minus_last())
    forced = [i for i, lam in enumerate(limits) if lam.minus_last().is_zero]
    subsets = [forced] if forced else [[i] for i in range(len(limits))]
    best = None
    for sub in subsets:
        g = fixed
        for i, lam in enumerate(limits):
            if i not in sub:
                g = nat_mul(g, lam.minus_last())
        # d = sup+{ e(g) (+) y_1 (+) ... : y_i < last_exp(limit_i) }, a
        # half-underlined natural sum: the fixed slot is attained at e(g).
        d = ul_nat_add(add(g.leading_exp, ONE), *[limits[i].last_exp for i in sub])
        if best is None or best < d:
            best = d
    # the ordinal sum drops t0's terms below best
    return add(t0, omega_pow(best))


def _chi(s: KOrdinal) -> KOrdinal:
    """sup+ of the remainder value over rho < s."""
    if s.is_finite:
        return s.succ()
    if s.level == 0:
        if s == KOrdinal.of(OMEGA):
            return s
        return omega_level(1).succ()
    if s == omega_level(s.level):
        return s.succ()
    return omega_level(s.level + 1).succ()


def _remainder_box_sup(ss: list[KOrdinal]) -> KOrdinal:
    """sup+{ remainder-value(rho_1 + .. + rho_n) : rho_i < s_i }."""
    if all(s.is_finite for s in ss):
        return KOrdinal.of(sum(s.countable().as_int() - 1 for s in ss) + 2)
    return max(_chi(s) for s in ss)


def _top_stratum(lo: KOrdinal) -> int:
    """The largest k with omega_k < lo, for lo past omega_0: lo's level,
    less one when lo is omega_level itself (then the level is at least 1)."""
    return lo.level - (lo == omega_level(lo.level))


def theta_box_sup(bounds: Sequence) -> KOrdinal:
    """sup+{ theta_plus(x) : x_i < b_i }."""
    bounds = [KOrdinal.of(b) for b in bounds]
    if not bounds:
        raise OrdinalError("empty bound tuple")
    if any(b.is_zero for b in bounds):
        return K_ZERO
    if len(bounds) == 1:
        b = bounds[0]
        return b.succ() if b.is_successor else b

    lo, hi = min(bounds), max(bounds)
    if not omega_level(0) < lo:
        # some bound is at most omega, so only the finite stratum, tuples
        # (t, .., t) below every bound, passes the gate.  With every bound
        # past omega, that stratum's sup+ omega is dominated by the top one.
        return KOrdinal.of(lo.succ() if lo.is_finite else OMEGA)
    j = _top_stratum(lo)
    if j < MAX_LEVEL and not hi < omega_level(j + 1):
        return omega_level(j + 1)
    prod = ONE
    rbars: list[KOrdinal] = []
    limit_qs: list[CnfOrdinal] = []
    for b in bounds:
        qbar, rbar = b.euclid()  # every bound has level j here
        if rbar.is_zero:
            limit_qs.append(qbar)
        else:
            prod = nat_mul(prod, qbar)
            rbars.append(rbar)
    w = nat_mul_box_sup(prod, limit_qs)
    if not w.is_successor:
        return KOrdinal.at_level(j, w)
    # each limit quotient leaves its remainder free below omega_j
    t = _remainder_box_sup(rbars + [omega_level(j)] * len(limit_qs))
    return k_add(KOrdinal.at_level(j, w.pred()), t)


def theta_tilde(*args) -> KOrdinal:
    s = theta_box_sup(args)
    return s.pred() if s.is_successor else s


def theta_sharp(alpha, beta, under_first: bool = False, under_second: bool = False) -> KOrdinal:
    """sup_plus of the attained-length operator over the (half-)open box
    { (x, y) : x <(=) alpha, y <(=) beta }, underlined slots being strict.

    theta_len is theta_plus less one on successors, so it moves the
    sup_plus of theta_plus down by one exactly when the largest value is
    itself a successor."""
    b1 = KOrdinal.of(alpha) if under_first else KOrdinal.of(alpha).succ()
    b2 = KOrdinal.of(beta) if under_second else KOrdinal.of(beta).succ()
    s = theta_box_sup([b1, b2])
    return s.pred() if s.is_successor and s.pred().is_successor else s


def theta_len(*args) -> KOrdinal:
    """Attained-length version of theta_plus (its predecessor on successors)."""
    v = theta_plus(*args)
    return v.pred() if v.is_successor else v


# -- generic combinators -----------------------------------------------------------
#
# The independent oracle the closed forms above are tested against: they
# read operators only as value oracles.  _k is their coercion to KOrdinal.

_k = KOrdinal.of


@dataclass(frozen=True)
class BoundOp:
    """A named ordinal operator with the structural facts the combinators
    are allowed to rely on.  The evaluator is otherwise a black box."""

    name: str
    fn: Callable[..., KOrdinal]
    monotone: bool = False  # monotone in every argument, unconditionally
    equipotence_gated: bool = False  # 0 off-gate, monotone on each stratum
    at_least_cardinality: bool = False  # value >= kappa on a kappa stratum
    stratum_bounded: bool = False  # value < hartog(kappa) on a kappa stratum

    def __call__(self, *args) -> KOrdinal:
        return self.fn(*args)


THETA_PLUS = BoundOp(
    "theta_plus",
    theta_plus,
    equipotence_gated=True,
    at_least_cardinality=True,
    stratum_bounded=True,
)


def bracket_plus(f) -> BoundOp:
    """[f]^+ : apply f at the successor-shifted tuple, gated on equipotence."""
    fn = f if isinstance(f, BoundOp) else BoundOp("f", f)

    def g(*args) -> KOrdinal:
        args = [_k(a) for a in args]
        if len(args) > 1 and not equipotent(args):
            return K_ZERO
        return _k(fn(*[a.succ() for a in args]))

    return BoundOp("[%s]+" % fn.name, g, monotone=fn.monotone, equipotence_gated=True)


def _cnf_limit(values: list[CnfOrdinal]) -> CnfOrdinal:
    """Exact limit of a sampled increasing CNF sequence by shape analysis."""
    if all(v == values[-1] for v in values):
        return values[-1]
    if any(not a < b for a, b in zip(values, values[1:])):
        raise UnsupportedSupremum("sampled values are not increasing")
    prefix: list[tuple[CnfOrdinal, int]] = []
    tails = [list(v.terms) for v in values]
    while True:
        if any(not t for t in tails):
            raise UnsupportedSupremum("sampled shapes did not stabilize")
        heads = [t[0] for t in tails]
        exps = [e for e, _ in heads]
        coeffs = [c for _, c in heads]
        if all(e == exps[0] for e in exps):
            if all(c == coeffs[0] for c in coeffs):
                prefix.append(heads[0])
                tails = [t[1:] for t in tails]
                continue
            if all(a < b for a, b in zip(coeffs, coeffs[1:])):
                limit = omega_pow(add(exps[0], ONE))
            else:
                raise UnsupportedSupremum("coefficient pattern did not stabilize")
        elif all(a < b for a, b in zip(exps, exps[1:])):
            limit = omega_pow(_cnf_limit(exps))
        else:
            raise UnsupportedSupremum("exponent pattern did not stabilize")
        out = ZERO
        for term in prefix:
            out = add(out, CnfOrdinal((term,)))
        return add(out, limit)


_SAMPLE_INDICES = range(3, 12)


def _sampled_sup(sample: Callable[[int], KOrdinal]) -> KOrdinal:
    vals = [sample(n) for n in _SAMPLE_INDICES]
    if any(v.level != 0 for v in vals):
        raise UnsupportedSupremum("cannot extrapolate uncountable sample values")
    return KOrdinal.of(_cnf_limit([v.countable() for v in vals]))


def _corner_sup(fn: BoundOp, bounds: list[KOrdinal]) -> KOrdinal:
    """Strict-box sup of a genuinely monotone operator: the diagonal corner
    (each coordinate approaching its own bound) is cofinal in the box."""
    if all(b.is_successor for b in bounds):
        return _k(fn(*[b.pred() for b in bounds]))
    if any(b.level != 0 and not b.is_successor for b in bounds):
        raise UnsupportedSupremum(
            "omega-indexed sampling is not cofinal below an uncountable limit"
        )

    def corner(n: int) -> KOrdinal:
        xs = []
        for b in bounds:
            if b.is_successor:
                xs.append(b.pred())
            else:
                xs.append(KOrdinal.of(fund_seq(b.countable(), n)))
        return _k(fn(*xs))

    return _sampled_sup(corner)


def _gated_sup(fn: BoundOp, bounds: list[KOrdinal]) -> KOrdinal:
    """Strict-box sup of an equipotence-gated operator, stratified by the
    common cardinality of the tuples actually passing the gate."""
    candidates: list[KOrdinal] = []

    # finite stratum: only equal finite tuples pass the gate
    fin = [b.countable().as_int() for b in bounds if b.is_finite]
    if fin:
        t = min(fin) - 1
        candidates.append(_k(fn(*[KOrdinal.of(t)] * len(bounds))))
    else:
        candidates.append(
            _sampled_sup(lambda n: _k(fn(*[KOrdinal.of(n)] * len(bounds))))
        )

    top = [j for j in range(MAX_LEVEL + 1) if all(omega_level(j) < b for b in bounds)]
    if top:
        j = max(top)
        if j == 0 and all(b.level == 0 for b in bounds):
            candidates.append(_corner_sup(fn, bounds))
        else:
            if not (fn.at_least_cardinality and fn.stratum_bounded):
                raise UnsupportedSupremum(
                    "uncountable strata need declared stratum facts"
                )
            preds = []
            for b in bounds:
                if not b.is_successor:
                    raise UnsupportedSupremum(
                        "omega-indexed sampling is not cofinal below %s" % b
                    )
                preds.append(b.pred())
            if not all(cardinality(p) == omega_level(j) for p in preds):
                raise UnsupportedSupremum(
                    "non-equipotent uncountable corner at %s" % (bounds,)
                )
            # lower strata are dominated: their values sit below
            # hartog(kappa') <= omega_j <= the corner value.
            candidates.append(_k(fn(*preds)))
    return max(candidates)


def bracket_tilde(f) -> BoundOp:
    """[f]~ : the strict-box supremum of an operator.

    The operand must be monotone, either outright or on each equipotence
    stratum (`equipotence_gated`).  Exact on successor corners and, via
    fund_seq cofinal sampling with CNF limit extrapolation, on countable
    limit bounds.  Uncountable strata of gated operators are handled only
    under declared `at_least_cardinality` and `stratum_bounded` facts
    (which make every lower stratum dominated by the attained top corner);
    anything else raises UnsupportedSupremum.
    """
    fn = f if isinstance(f, BoundOp) else BoundOp("f", f, monotone=True)
    if not (fn.monotone or fn.equipotence_gated):
        raise UnsupportedSupremum("bracket_tilde needs a monotone operand")

    def g(*args) -> KOrdinal:
        bounds = [_k(a) for a in args]
        if any(b.is_zero for b in bounds):
            return K_ZERO
        if fn.equipotence_gated and len(bounds) > 1:
            return _gated_sup(fn, bounds)
        return _corner_sup(fn, bounds)

    return BoundOp("[%s]~" % fn.name, g, monotone=fn.monotone)


def reduction_identity_sides(args) -> tuple[KOrdinal, KOrdinal]:
    """Both sides of [theta_tilde_2(theta_tilde_n, id)]^+ vs theta_plus at
    arity n+1, evaluated independently."""
    args = [KOrdinal.of(a) for a in args]
    if len(args) < 3:
        raise OrdinalError("the reduction identity needs arity >= 3")
    rhs = theta_plus(*args)
    if not equipotent(args):
        return K_ZERO, rhs
    shifted = [a.succ() for a in args]
    inner = theta_tilde(*shifted[:-1])
    lhs = theta_tilde(inner, shifted[-1])
    return lhs, rhs


def reduction_identity_check(n: int, args) -> bool:
    """True iff the arity-(n+1) reduction identity holds at args."""
    args = list(args)
    if not 2 <= n <= 4:
        raise OrdinalError("reduction arity n must be in 2..4")
    if len(args) != n + 1:
        raise OrdinalError("expected %d arguments, got %d" % (n + 1, len(args)))
    lhs, rhs = reduction_identity_sides(args)
    return lhs == rhs
