"""Command-line surface: ordinal arithmetic, theta bounds, poset queries,
construction export, and the seeded verification suites.

Exit codes: 0 all requested checks pass, 1 a check failed, 2 usage or
parse error.
"""

from __future__ import annotations

import argparse
import sys

from .bounds import theta_plus
from .cardinals import KOrdinal, hartog, k_nat_add, k_ul_nat_add, parse_k, render_k
from .constructions import (
    decompinver_witness,
    extend_realizer,
    minoration_witness,
    mixing_poset,
    sierpinskisation,
)
from .io import export_poset, read_poset_file
from .ordinals import (
    OrdinalError,
    add,
    euclid_div,
    left_subtract,
    mul,
    nat_add,
    nat_mul,
    parse_ordinal,
    render_ordinal,
)
from .posets import PosetError, bad_tree_height, embeds, intersect, length_fin, make_poset
from .suites import SUITES, run_suite
from .terms import denote_prefix, length_term, parse_term, term_size


def _parse_any(text: str):
    """An ordinal in either plain CNF or scaled W<k> form."""
    if text.lstrip().startswith("W"):
        return parse_k(text)
    return parse_ordinal(text)


def _show(value) -> str:
    if isinstance(value, KOrdinal):
        return render_ordinal(value.countable()) if value.level == 0 else render_k(value)
    return render_ordinal(value)


def _cmd_ord(args) -> int:
    a = _parse_any(args.a)
    if args.op == "hartog":
        print(_show(hartog(KOrdinal.of(a))))
        return 0
    if args.b is None:
        raise OrdinalError("ord %s needs two arguments" % args.op)
    b = _parse_any(args.b)
    if args.op == "cmp":
        ka, kb = KOrdinal.of(a), KOrdinal.of(b)
        print("<=>"[(ka > kb) - (ka < kb) + 1])
        return 0
    scaled = isinstance(a, KOrdinal) or isinstance(b, KOrdinal)
    if scaled:
        ka, kb = KOrdinal.of(a), KOrdinal.of(b)
        from .cardinals import k_add

        fns = {"add": k_add, "nadd": k_nat_add}
        if args.op not in fns:
            raise OrdinalError("ord %s supports countable arguments only" % args.op)
        print(_show(fns[args.op](ka, kb)))
        return 0
    if args.op == "div":
        q, r = euclid_div(a, b)
        print(render_ordinal(q), render_ordinal(r))
        return 0
    fns = {"add": add, "mul": mul, "nadd": nat_add, "nmul": nat_mul,
           "sub": left_subtract}  # sub A B: the x with A + x = B
    print(render_ordinal(fns[args.op](a, b)))
    return 0


def _cmd_theta(args) -> int:
    vals = [KOrdinal.of(_parse_any(t)) for t in args.ordinals]
    print(_show(theta_plus(*vals)))
    return 0


def _load_poset_arg(text: str):
    """A poset argument: @file (JSON poset file) or a poset term."""
    if text.startswith("@"):
        return read_poset_file(text[1:])
    t = parse_term(text)
    size = term_size(t)
    if size is None:
        raise PosetError("poset commands need a finite denotation; "
                         "%r is infinite" % text)
    return denote_prefix(t, size)


def _cmd_poset(args) -> int:
    if args.op == "len":
        if args.args[0].startswith("@"):
            print(length_fin(_load_poset_arg(args.args[0])))
        else:
            print(render_ordinal(length_term(parse_term(args.args[0]))))
        return 0
    if args.op == "badtree":
        print(bad_tree_height(_load_poset_arg(args.args[0])))
        return 0
    if len(args.args) != 2:
        raise OrdinalError("poset %s takes two poset arguments" % args.op)
    p, q = map(_load_poset_arg, args.args)
    if args.op == "intersect":
        if p.n != q.n:
            raise PosetError("intersect needs posets on the same vertex set")
        print(export_poset(intersect(p, q), args.format))
        return 0
    # embeds: an order-embedding of p into q exists?
    found = embeds(p, q)
    print("yes" if found else "no")
    return 0 if found else 1


def _cmd_construct(args) -> int:
    if args.prefix < 1:
        raise PosetError("--prefix must be at least 1, got %d" % args.prefix)
    ords = [_parse_any(t) for t in args.ordinals]
    if args.kind == "sierp":
        lazy = sierpinskisation(*ords)
    elif args.kind == "mixing":
        lazy = mixing_poset(*ords)
    elif args.kind == "minoration":
        lazy = minoration_witness(*ords)
    elif args.kind == "decompinver":
        if len(ords) % 2:
            raise OrdinalError("decompinver takes ordinals in pairs QA QB ...")
        lazy = decompinver_witness(list(zip(ords[::2], ords[1::2])))
    else:  # extend: ALPHA TARGET_LEFT TARGET_RIGHT, over a sierpinskisation
        if len(ords) != 3:
            raise OrdinalError("extend takes ALPHA TARGET_LEFT TARGET_RIGHT")
        lazy = extend_realizer(sierpinskisation(ords[0]), (ords[1], ords[2]))
    n = args.prefix
    vs = lazy.prefix(n)
    p = make_poset(n, [(i, j) for i in range(n) for j in range(n)
                       if lazy.lt(vs[i], vs[j])])
    meta = {"construction": args.kind,
            "parameters": [render_ordinal(o) for o in ords],
            "prefix": n,
            "type_left": render_ordinal(lazy.type_left),
            "type_right": render_ordinal(lazy.type_right),
            "certificate": render_ordinal(lazy.certificate)}
    text = export_poset(p, args.format, meta=meta if args.format == "json" else None)
    if args.out and args.out != "-":
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)
    return 0


def _cmd_verify(args) -> int:
    if args.cases < 0:
        raise OrdinalError("--cases must be at least 0, got %d" % args.cases)
    report = run_suite(args.suite, args.cases, args.seed)
    print(report.to_json())
    for inp, want, got in report.failures:
        print("FAIL %s: expected %s, got %s" % (inp, want, got), file=sys.stderr)
    if args.timing:
        print("elapsed %.3f s" % report.elapsed, file=sys.stderr)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="wpolab",
        description="ordinal arithmetic and well-partial-order lengths",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ord", help="ordinal arithmetic")
    p.add_argument("op", choices=["add", "mul", "nadd", "nmul", "div", "sub",
                                  "hartog", "cmp"])
    p.add_argument("a")
    p.add_argument("b", nargs="?")
    p.set_defaults(fn=_cmd_ord)

    p = sub.add_parser("theta", help="theta_plus of two or more ordinals")
    p.add_argument("ordinals", nargs="+", metavar="ORDINAL")
    p.set_defaults(fn=_cmd_theta)

    p = sub.add_parser("poset", help="finite poset queries")
    p.add_argument("op", choices=["len", "badtree", "intersect", "embeds"])
    p.add_argument("args", nargs="+", metavar="TERM_OR_@FILE")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(fn=_cmd_poset)

    p = sub.add_parser("construct", help="export a construction prefix")
    p.add_argument("kind", choices=["sierp", "mixing", "decompinver",
                                    "minoration", "extend"])
    p.add_argument("ordinals", nargs="+", metavar="ORDINAL")
    p.add_argument("--prefix", type=int, default=32, metavar="N")
    p.add_argument("--out", default="-", metavar="FILE")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("verify", help="run a seeded verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--cases", type=int, default=200, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument("--timing", action="store_true",
                   help="write the suite's wall time to stderr")
    p.set_defaults(fn=_cmd_verify)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (OrdinalError, PosetError, OSError, KeyError) as exc:
        print("wpolab: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
