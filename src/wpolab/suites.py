"""Deterministic, seeded verification suites behind `wpolab verify`.

Each suite replays the algebraic and structural invariants of one part of
the library against independent checks (the brute-force oracles of
`oracles`, exhaustive small cases from `ordinals.iter_below`, prefix
audits).  Reports are reproducible: a fixed (suite,
cases, seed) triple always produces the same failures in the same order,
and the canonical serialization omits wall-clock time.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from . import oracles
from .bounds import (
    bracket_plus,
    reduction_identity_check,
    theta_len,
    theta_plus,
    theta_sharp,
    theta_tilde,
)
from .cardinals import KOrdinal, k_add, k_ul_nat_add, render_k
from .constructions import (
    minoration_witness,
    mixing_poset,
    prefix_audit,
    sierpinskisation,
)
from .ordinals import (
    ONE,
    ZERO,
    CnfOrdinal,
    add,
    euclid_div,
    from_int,
    iter_below,
    left_subtract,
    mul,
    nat_add,
    nat_mul,
    omega_pow,
    parse_ordinal,
    render_ordinal,
    ul_nat_add,
)
from .posets import (
    all_posets,
    bad_tree_height,
    length_fin,
    length_recursive,
)
from .terms import DSum, Fin, Prod, denote_prefix

OMEGA = parse_ordinal("w")


@dataclass
class SuiteReport:
    suite: str
    cases: int
    seed: int
    failures: list = field(default_factory=list)  # (input, expected, actual)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        doc = {
            "suite": self.suite,
            "cases": self.cases,
            "seed": self.seed,
            "passed": self.passed,
            "failures": [list(f) for f in sorted(self.failures)],
        }
        return json.dumps(doc, sort_keys=True)


# -- seeded generators ---------------------------------------------------------------


def random_ordinal(rng, depth: int = 3) -> CnfOrdinal:
    """Random CNF ordinal: exponent depth <= 3, coefficients <= 9, at most
    4 terms, biased toward boundary shapes (pure powers, successors,
    multiples of omega)."""
    shape = rng.randrange(6)
    if depth == 0 or shape == 0:
        return from_int(rng.randrange(10))
    if shape == 1:  # pure power
        return omega_pow(random_ordinal(rng, depth - 1), rng.randrange(1, 10))
    out = ZERO
    for _ in range(rng.randrange(1, 5)):
        term = omega_pow(random_ordinal(rng, depth - 1), rng.randrange(1, 10))
        out = nat_add(out, term)
    if shape == 2:  # multiple of omega
        return mul(OMEGA, out)
    if shape == 3:  # successor
        return add(out, from_int(rng.randrange(1, 10)))
    return out


def random_countable_infinite(rng) -> CnfOrdinal:
    a = random_ordinal(rng)
    return a if not a.is_finite else add(OMEGA, a)


# -- suites ---------------------------------------------------------------------------


def _suite_ordinal_laws(report, cases, rng):
    small = list(iter_below(2, 2)) if cases else []

    def check(label, lhs, rhs):
        if lhs != rhs:
            report.failures.append((label, render_ordinal(rhs), render_ordinal(lhs)))

    def laws(a, b, c):
        check("nat_add assoc %s,%s,%s" % (a, b, c),
              nat_add(nat_add(a, b), c), nat_add(a, nat_add(b, c)))
        check("nat_add comm %s,%s" % (a, b), nat_add(a, b), nat_add(b, a))
        check("nat_mul assoc %s,%s,%s" % (a, b, c),
              nat_mul(nat_mul(a, b), c), nat_mul(a, nat_mul(b, c)))
        check("nat_mul comm %s,%s" % (a, b), nat_mul(a, b), nat_mul(b, a))
        check("distrib %s,%s,%s" % (a, b, c),
              nat_mul(a, nat_add(b, c)), nat_add(nat_mul(a, b), nat_mul(a, c)))
        d = omega_pow(c)  # indecomposable: ordinal mul distributes over (+)
        assert ul_nat_add(d, d) == d
        check("indec-distrib %s,%s,%s" % (d, a, b),
              mul(d, nat_add(a, b)), nat_add(mul(d, a), mul(d, b)))
        if not b.is_zero:
            q, r = euclid_div(a, b)
            if not (r < b and add(mul(b, q), r) == a):
                report.failures.append(
                    ("euclid_div %s by %s" % (a, b), render_ordinal(a),
                     "%s*%s+%s" % (b, q, r)))
        lo, hi = (a, b) if a <= b else (b, a)
        check("left_subtract %s,%s" % (lo, hi),
              add(lo, left_subtract(lo, hi)), hi)

    for i in range(min(cases, len(small) // 3)):
        step = rng.randrange(1, len(small))
        laws(small[(i * step) % len(small)],
             small[(i * step + step) % len(small)],
             small[(i * step + 2 * step) % len(small)])
    for _ in range(cases):
        laws(random_ordinal(rng), random_ordinal(rng), random_ordinal(rng))


def _suite_oracle_agreement(report, cases, rng):
    for _ in range(cases):
        a, b = random_ordinal(rng, depth=2), random_ordinal(rng, depth=2)
        got, want = nat_add(a, b), oracles.nat_add_oracle(a, b)
        if got != want:
            report.failures.append(("nat_add %s,%s" % (a, b),
                                    render_ordinal(want), render_ordinal(got)))
        got, want = nat_mul(a, b), oracles.nat_mul_oracle(a, b)
        if got != want:
            report.failures.append(("nat_mul %s,%s" % (a, b),
                                    render_ordinal(want), render_ordinal(got)))


def _suite_theta_laws(report, cases, rng):
    for k in range(10):
        kappa = KOrdinal.at_level(k, ONE)
        got = theta_plus(kappa, kappa)
        if got != kappa.succ():
            report.failures.append(("theta_plus(%s,%s)" % (kappa, kappa),
                                    render_k(kappa.succ()), render_k(got)))
    for _ in range(cases):
        a = random_countable_infinite(rng)
        got = theta_plus(OMEGA, a)
        if got != KOrdinal.of(add(a, ONE)):
            report.failures.append(("theta_plus(w,%s)" % a,
                                    render_ordinal(add(a, ONE)), render_k(got)))
        b = random_countable_infinite(rng)
        ka, kb = KOrdinal.of(a), KOrdinal.of(b)
        t = theta_plus(ka, kb)
        if not (t > ka and t > kb):
            report.failures.append(("theta_plus(%s,%s) > max" % (a, b),
                                    "> both", render_k(t)))
        if theta_plus(ka, kb) != theta_plus(kb, ka):
            report.failures.append(("theta_plus symmetry %s,%s" % (a, b),
                                    render_k(t), render_k(theta_plus(kb, ka))))
        fin = KOrdinal.of(from_int(rng.randrange(1, 9)))
        if not theta_plus(fin, ka).is_zero:
            report.failures.append(("gate %s,%s" % (fin, a), "0",
                                    render_k(theta_plus(fin, ka))))


def _suite_reduction_identities(report, cases, rng):
    for _ in range(cases):
        n = rng.choice([2, 3])
        args = [random_countable_infinite(rng) for _ in range(n + 1)]
        ok = reduction_identity_check(n, args)
        if not ok:
            report.failures.append(
                ("reduction n=%d %s" % (n, [render_ordinal(a) for a in args]),
                 "equal sides", "mismatch"))
        tup = tuple(random_countable_infinite(rng) for _ in range(rng.choice([2, 3])))
        shifted, tp = bracket_plus(theta_tilde)(*tup), theta_plus(*tup)
        if shifted != tp:
            report.failures.append(
                ("[theta_tilde]+ %s" % ([render_ordinal(a) for a in tup],),
                 render_k(tp), render_k(shifted)))


def _suite_majoration_shadow(report, cases, rng):
    for _ in range(cases):
        a1 = KOrdinal.of(random_countable_infinite(rng))
        a2 = KOrdinal.of(random_countable_infinite(rng))
        b = KOrdinal.of(random_countable_infinite(rng))
        # split: theta_plus(a' + a'', b) <= theta_sharp(a', b) ul(+) theta_sharp(a'', b)
        lhs = theta_plus(k_add(a1, a2), b)
        rhs = k_ul_nat_add(theta_sharp(a1, b), theta_sharp(a2, b))
        if rhs < lhs:
            report.failures.append(("split %s,%s,%s" % (a1, a2, b),
                                    "<= %s" % render_k(rhs), render_k(lhs)))
        # underlined: theta_len(a, b) <= theta_sharp(a_, b) ul(+) theta_sharp(a, b_)
        lhs = theta_len(a1, b)
        rhs = k_ul_nat_add(theta_sharp(a1, b, under_first=True),
                           theta_sharp(a1, b, under_second=True))
        if rhs < lhs:
            report.failures.append(("underlined %s,%s" % (a1, b),
                                    "<= %s" % render_k(rhs), render_k(lhs)))


def _suite_finite_poset_oracle(report, cases, rng):
    budget = cases
    for n in range(5):
        for p in all_posets(n):
            if budget <= 0:
                return
            budget -= 1
            lengths = (length_fin(p), length_recursive(p), bad_tree_height(p))
            if lengths != (n, n, n):
                report.failures.append(("trio %r" % p, str(n), str(lengths)))
    for n, m in [(a, b) for a in range(4) for b in range(4)]:
        for p in all_posets(n):
            for q in all_posets(m):
                if budget <= 0:
                    return
                budget -= 1
                ds = length_recursive(denote_prefix(DSum(Fin(p), Fin(q)), p.n + q.n))
                if ds != p.n + q.n:
                    report.failures.append(("dsum %r,%r" % (p, q),
                                            str(p.n + q.n), str(ds)))
                pr = length_recursive(denote_prefix(Prod(Fin(p), Fin(q)), p.n * q.n))
                if pr != p.n * q.n:
                    report.failures.append(("prod %r,%r" % (p, q),
                                            str(p.n * q.n), str(pr)))


def _suite_constructions_prefix(report, cases, rng):
    # vertex 10 is the first in mixing cell (1, 1), so the (2, 2) windows
    # below need a prefix of at least 11 vertices
    prefix = max(11, min(cases, 400))
    for text in ("w", "w*2", "w^2+w*3+5"):
        rep = prefix_audit(sierpinskisation(parse_ordinal(text)), prefix)
        for name, witness in rep.failures().items():
            report.failures.append(("sierp(%s) %s" % (text, name), "pass",
                                    repr(witness)))
    for a, b, window in (("1", "1", (1, 1)), ("w", "w", (2, 2)),
                         ("w*2", "w*3", (2, 2))):
        rep = prefix_audit(mixing_poset(parse_ordinal(a), parse_ordinal(b)),
                           prefix, window=window)
        for name, witness in rep.failures().items():
            report.failures.append(("mixing(%s,%s) %s" % (a, b, name), "pass",
                                    repr(witness)))


def _suite_minoration_meets_theta(report, cases, rng):
    for _ in range(cases):
        a = random_countable_infinite(rng)
        b = random_countable_infinite(rng)
        w = minoration_witness(a, b)
        got = KOrdinal.of(add(w.certificate, ONE))
        want = theta_plus(a, b)
        if got != want:
            report.failures.append(
                ("minoration %s,%s" % (render_ordinal(a), render_ordinal(b)),
                 render_k(want), render_k(got)))


SUITES = {
    "ordinal_laws": _suite_ordinal_laws,
    "oracle_agreement": _suite_oracle_agreement,
    "theta_laws": _suite_theta_laws,
    "reduction_identities": _suite_reduction_identities,
    "majoration_shadow": _suite_majoration_shadow,
    "finite_poset_oracle": _suite_finite_poset_oracle,
    "constructions_prefix": _suite_constructions_prefix,
    "minoration_meets_theta": _suite_minoration_meets_theta,
}


def run_suite(name: str, cases: int, seed: int) -> SuiteReport:
    """Run one named suite; deterministic for fixed (name, cases, seed)."""
    if name not in SUITES:
        raise KeyError("unknown suite %r; pick one of %s"
                       % (name, ", ".join(sorted(SUITES))))
    report = SuiteReport(suite=name, cases=cases, seed=seed)
    rng = random.Random(seed)
    start = time.monotonic()
    if cases > 0:
        SUITES[name](report, cases, rng)
    report.failures.sort()
    report.elapsed = time.monotonic() - start
    return report
