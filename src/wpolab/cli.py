"""Command-line surface: ordinal arithmetic, theta bounds, poset queries,
construction export, and the seeded verification suites.

Exit codes: 0 all requested checks pass, 1 a check failed, 2 usage or
parse error.

Only the algebra layers (`ordinals`, `cardinals`, `bounds`) are imported
at the top, so `ord` and `theta` start quickly.  The poset, construct and
verify commands import `posets`, `constructions`, `terms`, `io` and
`suites` inside the functions that use them, and the parser takes its
choices from tables here (`CONSTRUCTIONS`, `SUITE_NAMES`).

The argument parser is built once per process (`build_parser` is cached):
parse_args leaves it unchanged, so every `main` call reuses it.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from .bounds import theta_plus
from .cardinals import hartog, k_add, k_nat_add, parse_k, render_k
from .ordinals import (
    MAX_ECHO,
    OrdinalError,
    PosetError,
    add,
    clip,
    euclid_div,
    left_subtract,
    mul,
    nat_add,
    nat_mul,
    render_ordinal,
)

# the keys of suites.SUITES, which a test checks; verify imports suites
# only when it runs one
SUITE_NAMES = (
    "constructions_prefix",
    "finite_poset_oracle",
    "majoration_shadow",
    "minoration_meets_theta",
    "oracle_agreement",
    "ordinal_laws",
    "reduction_identities",
    "theta_laws",
)


def _cmd_ord(args) -> int:
    a = parse_k(args.a)
    if args.op == "hartog":
        if args.b is not None:
            raise OrdinalError("ord hartog takes one argument")
        print(render_k(hartog(a)))
        return 0
    if args.b is None:
        raise OrdinalError("ord %s needs two arguments" % args.op)
    b = parse_k(args.b)
    if args.op == "cmp":
        print("<=>"[(a > b) - (a < b) + 1])
        return 0
    if a.level or b.level:
        fns = {"add": k_add, "nadd": k_nat_add}
        if args.op not in fns:
            raise OrdinalError("ord %s supports countable arguments only" % args.op)
        print(render_k(fns[args.op](a, b)))
        return 0
    a, b = a.countable(), b.countable()
    if args.op == "div":
        q, r = euclid_div(a, b)
        print(render_ordinal(q), render_ordinal(r))
        return 0
    fns = {"add": add, "mul": mul, "nadd": nat_add, "nmul": nat_mul,
           "sub": left_subtract}  # sub A B: the x with A + x = B
    print(render_ordinal(fns[args.op](a, b)))
    return 0


def _cmd_theta(args) -> int:
    print(render_k(theta_plus(*map(parse_k, args.ordinals))))
    return 0


def _poset_term(text: str):
    """A poset argument as a term; @path is the leaf fin(@path)."""
    from .io import read_poset_file
    from .terms import Fin, parse_term

    if text.startswith("@"):
        return Fin(read_poset_file(text[1:]))
    return parse_term(text)


def _load_poset_arg(text: str):
    """A Fin leaf holds its poset closed and bounded; any other term is
    denoted once, which gives both its size and its poset."""
    from .io import MAX_VERTICES
    from .terms import Fin, _denote, _prefix_poset

    t = _poset_term(text)
    if isinstance(t, Fin):
        return t.poset
    d = _denote(t)
    if d.size is None:
        raise PosetError("poset commands need a finite denotation; "
                         "%r is infinite" % clip(text))
    if d.size > MAX_VERTICES:
        raise PosetError("poset commands take at most %d vertices; %s has %s"
                         % (MAX_VERTICES, clip(text), clip(str(d.size))))
    return _prefix_poset(d, d.size)


# The brute-force bad_tree_height lists every bad sequence, so its cost
# grows about eightfold per vertex: fin(antichain8) takes 0.7 s, 9 takes
# 3.6 s, 10 takes 29 s and 11 did not finish in a minute (2-vCPU x86).  The
# CLI fuzz and the export benchmark ask for at most 5 vertices; 8 keeps
# every command under a second.  The engine itself stays unbounded, as the
# oracle it is.
MAX_BADTREE_VERTICES = 8


def _cmd_poset(args) -> int:
    from .io import export_poset
    from .posets import bad_tree_height, embeds, intersect
    from .terms import length_term

    if args.op in ("len", "badtree") and len(args.args) != 1:
        raise OrdinalError("poset %s takes one poset argument" % args.op)
    if args.op == "len":
        print(render_ordinal(length_term(_poset_term(args.args[0]))))
        return 0
    if args.op == "badtree":
        p = _load_poset_arg(args.args[0])
        if p.n > MAX_BADTREE_VERTICES:
            raise PosetError("poset badtree lists every bad sequence, so it takes at "
                             "most %d vertices; got %d" % (MAX_BADTREE_VERTICES, p.n))
        print(bad_tree_height(p))
        return 0
    if len(args.args) != 2:
        raise OrdinalError("poset %s takes two poset arguments" % args.op)
    p, q = map(_load_poset_arg, args.args)
    if args.op == "intersect":
        print(export_poset(intersect(p, q), args.format))
        return 0
    # embeds: an order-embedding of p into q exists?
    found = embeds(p, q)
    print("yes" if found else "no")
    return 0 if found else 1


def _built_by(name: str):
    """The builder constructions.<name>, imported when it is first called."""
    def build(*ords):
        from . import constructions

        return getattr(constructions, name)(*ords)
    return build


def _decompinver(*ords):
    from .constructions import decompinver_witness

    if len(ords) % 2:
        raise OrdinalError("decompinver takes ordinals in pairs QA QB ...")
    return decompinver_witness(list(zip(ords[::2], ords[1::2])))


def _extend(alpha, ta, tb):
    from .constructions import extend_realizer, sierpinskisation

    return extend_realizer(sierpinskisation(alpha), (ta, tb))


# kind -> (number of ordinals, None for any; the builder of the construction)
CONSTRUCTIONS = {
    "sierp": (1, _built_by("sierpinskisation")),
    "mixing": (2, _built_by("mixing_poset")),
    "decompinver": (None, _decompinver),
    "minoration": (2, _built_by("minoration_witness")),
    # ALPHA TARGET_LEFT TARGET_RIGHT, over a sierpinskisation
    "extend": (3, _extend),
}


def _cmd_construct(args) -> int:
    from .io import MAX_VERTICES, export_poset
    from .posets import _of_closed_rows

    if not 1 <= args.prefix <= MAX_VERTICES:
        raise PosetError("--prefix must be from 1 to %d, got %s"
                         % (MAX_VERTICES, clip(str(args.prefix))))
    ks = [parse_k(t) for t in args.ordinals]
    for text, k in zip(args.ordinals, ks):
        if k.level:
            raise OrdinalError("constructions take countable ordinals; %s is scaled"
                               % clip(text))
    ords = [k.countable() for k in ks]
    arity, build = CONSTRUCTIONS[args.kind]
    if arity is not None and len(ords) != arity:
        raise OrdinalError("construct %s takes %d ordinals, got %d"
                           % (args.kind, arity, len(ords)))
    lazy = build(*ords)
    n = args.prefix
    # every construction is an intersection of rank orders placed in
    # blocks, so its rows are closed and acyclic: no closure pass
    p = _of_closed_rows(lazy.lt_rows(lazy.prefix(n)))
    meta = {"construction": args.kind,
            "parameters": [render_ordinal(o) for o in ords],
            "prefix": n,
            "type_left": render_ordinal(lazy.types[0]),
            "type_right": render_ordinal(lazy.types[1]),
            "certificate": render_ordinal(lazy.certificate)}
    text = export_poset(p, args.format, meta=meta if args.format == "json" else None)
    if args.out and args.out != "-":
        # text, then its line end: text + "\n" would copy the whole document
        with open(args.out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)
    return 0


def _cmd_verify(args) -> int:
    from .suites import run_suite

    if args.cases < 0:
        raise OrdinalError("--cases must be at least 0, got %d" % args.cases)
    report = run_suite(args.suite, args.cases, args.seed)
    print(report.to_json())
    for inp, want, got in report.failures:
        print("FAIL %s: expected %s, got %s" % (inp, want, got), file=sys.stderr)
    if args.timing:
        print("elapsed %.3f s" % report.elapsed, file=sys.stderr)
    return 0 if report.passed else 1


class UsageError(Exception):
    """A command line that argparse rejects."""


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports a usage error as an exception, which main
    prints as one line, instead of printing the usage and exiting."""

    def error(self, message):
        # argparse echoes the offending argument; clip it like the grammars do
        message = re.sub(r"\S{%d,}" % (MAX_ECHO + 1), lambda m: clip(m.group()), message)
        raise UsageError("%s (see %s -h)" % (message, self.prog))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = _ArgumentParser(
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
    p.add_argument("kind", choices=list(CONSTRUCTIONS))
    p.add_argument("ordinals", nargs="+", metavar="ORDINAL")
    p.add_argument("--prefix", type=int, default=32, metavar="N")
    p.add_argument("--out", default="-", metavar="FILE")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("verify", help="run a seeded verification suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--cases", type=int, default=200, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument("--timing", action="store_true",
                   help="write the suite's wall time to stderr")
    p.set_defaults(fn=_cmd_verify)
    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit:  # -h and --help exit 0 after printing the help
        return 0
    except UsageError as exc:
        print("wpolab: %s" % exc, file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (OrdinalError, OSError) as exc:  # a PosetError is an OrdinalError
        print("wpolab: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
