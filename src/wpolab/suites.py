"""Deterministic, seeded verification suites behind `wpolab verify`.

Each suite replays the algebraic and structural invariants of one part of
the library against independent checks (the brute-force oracles of
`oracles`, exhaustive small cases from `ordinals.iter_below`, prefix
audits), on random cases from the arithmetic-free generators of `oracles`.
Reports are reproducible: a fixed (suite, cases, seed) triple always
produces the same failures in the same order, and the canonical
serialization omits wall-clock time.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from operator import xor

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
    enum_below,
    minoration_witness,
    mixing_poset,
    prefix_audit,
    relation_rows,
    sierpinskisation,
)
from .oracles import random_countable_infinite, random_ordinal
from .ordinals import (
    OMEGA,
    ONE,
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
    FinPoset,
    _first_bit,
    all_posets,
    bad_tree_height,
    length_fin,
    length_recursive,
)
from .terms import DSum, Fin, Prod, _denote


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


# -- suites ---------------------------------------------------------------------------


def _suite_ordinal_laws(report, cases, rng):
    small = list(iter_below(2, 2)) if cases else []

    def check(lhs, rhs, label, *args):
        # the label is formatted only on failure: it renders the arguments
        if lhs != rhs:
            report.failures.append((label % args, render_ordinal(rhs), render_ordinal(lhs)))

    def laws(a, b, c):
        check(nat_add(nat_add(a, b), c), nat_add(a, nat_add(b, c)),
              "nat_add assoc %s,%s,%s", a, b, c)
        check(nat_add(a, b), nat_add(b, a), "nat_add comm %s,%s", a, b)
        check(nat_mul(nat_mul(a, b), c), nat_mul(a, nat_mul(b, c)),
              "nat_mul assoc %s,%s,%s", a, b, c)
        check(nat_mul(a, b), nat_mul(b, a), "nat_mul comm %s,%s", a, b)
        check(nat_mul(a, nat_add(b, c)), nat_add(nat_mul(a, b), nat_mul(a, c)),
              "distrib %s,%s,%s", a, b, c)
        d = omega_pow(c)  # indecomposable: ordinal mul distributes over (+)
        check(ul_nat_add(d, d), d, "ul_nat_add idem %s", d)
        check(mul(d, nat_add(a, b)), nat_add(mul(d, a), mul(d, b)),
              "indec-distrib %s,%s,%s", d, a, b)
        if not b.is_zero:
            q, r = euclid_div(a, b)
            if not (r < b and add(oracles.mul_oracle(b, q), r) == a):
                report.failures.append(
                    ("euclid_div %s by %s" % (a, b), render_ordinal(a),
                     "%s*%s+%s" % (b, q, r)))
        lo, hi = (a, b) if a <= b else (b, a)
        check(add(lo, left_subtract(lo, hi)), hi, "left_subtract %s,%s", lo, hi)

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
        if t != theta_plus(kb, ka):
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


def _checked_lt_rows(report, label, p, vs):
    """p's batch order on vs, checked against the pairwise oracle: a
    mismatch adds a "<label> lt_rows" failure naming its first cell (i, j)
    in row-major order.  The batch ranks enumeration indices by their block
    paths (Enumeration.key) and the oracle compares at's values, so this
    also checks that the path order is the value order on vs."""
    batch = p.lt_rows(vs)
    cell = _first_bit(map(xor, batch, relation_rows(vs, p.lt)))
    if cell is not None:
        report.failures.append(("%s lt_rows" % label, "pass", repr(cell)))
    return batch


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
                for name, node, size in (("dsum", DSum, p.n + q.n), ("prod", Prod, p.n * q.n)):
                    label = "%s %r,%r" % (name, p, q)
                    d = _denote(node(Fin(p), Fin(q)))
                    # the batch order denote_prefix reads
                    batch = _checked_lt_rows(report, label, d, d.prefix(size))
                    got = length_recursive(FinPoset(size, tuple(batch)))
                    if got != size:
                        report.failures.append((label, str(size), str(got)))


def _suite_constructions_prefix(report, cases, rng):
    # vertex 10 is the first in mixing cell (1, 1), so the (2, 2) windows
    # below need a prefix of at least 11 vertices
    prefix = max(11, min(cases, 400))

    def audit(label, p, window=None):
        rep = prefix_audit(p, prefix, window=window)
        for name, witness in rep.failures().items():
            report.failures.append(("%s %s" % (label, name), "pass", repr(witness)))
        # the batch order the audit reads
        _checked_lt_rows(report, label, p, p.prefix(prefix))

    for text in ("w", "w*2", "w^2+w*3+5"):
        alpha = parse_ordinal(text)
        s = sierpinskisation(alpha)
        audit("sierp(%s)" % text, s)
        # sierp's lt reads its enumeration's at, and its lt_rows and right
        # key the block paths of the same walk, so only index, a separate
        # algorithm, can catch an at that is not a bijection; the right key
        # is that enumeration's bound key, whose __self__ is the enumeration
        index, at = enum_below(alpha).index, s.keys[1].__self__.at
        bad = next((i for i in range(prefix) if index(at(i)) != i), None)
        if bad is not None:
            report.failures.append(("sierp(%s) enumeration_bijective" % text,
                                    str(bad), str(index(at(bad)))))
    for a, b, window in (("1", "1", (1, 1)), ("w", "w", (2, 2)),
                         ("w*2", "w*3", (2, 2))):
        audit("mixing(%s,%s)" % (a, b),
              mixing_poset(parse_ordinal(a), parse_ordinal(b)), window)


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
