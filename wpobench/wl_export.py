"""export: CLI commands run in-process through ``wpolab.cli.main``.

One item is one command with stdout and stderr captured: ``construct`` of
each construction as JSON or DOT, ``poset intersect`` of chains, poset
files written at set-up, and sum/product terms, and small ``poset len``,
``embeds`` and ``badtree`` commands.  The check parses the document and
compares it with an independent model: numpy closure and cover
relations, the canonical enumeration of finite terms re-implemented
here, and the arithmetic of ``oracle.py`` for lengths and certificates.

The traced run replays each command stage by stage through the public
functions the CLI composes (parse, build, close, export); the replayed
document must be byte-identical to the one ``cli.main`` printed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re

import numpy as np

import oracle as O
import wl_audit
from wpolab import cardinals, cli, constructions, ordinals, posets, terms
from wpolab import io as wio

CONSTRUCTS = ("sierp", "mixing", "minoration", "decompinver", "extend")
# Every round: each construction in both formats, intersections and small
# queries, with prefix sizes drawn from fixed strata.
ROUND = (
    [("construct", k, fmt, (20, 45)) for k in CONSTRUCTS for fmt in ("json", "dot")]
    + [("construct", k, "json", (60, 90)) for k in CONSTRUCTS]
    + [("intersect_file", None, "json", (25, 45)), ("intersect_file", None, "dot", (50, 60)),
       ("intersect_at", None, "json", (30, 50)), ("intersect_chain", None, "json", (56, 62)),
       ("intersect_chain", None, "json", (56, 62)),
       ("intersect_sum", None, "json", (30, 50)), ("intersect_prod", None, "dot", (20, 40))]
    + [("len", None, None, None), ("embeds", None, None, None), ("badtree", None, None, None)]
)
# poset files written at set-up: this many per size stratum
FILE_STRATA = {(25, 45): 12, (50, 60): 12, (30, 50): 12}


def _file_path(workdir, stratum, k) -> str:
    return os.path.join(workdir, "poset-%d-%d-%d.json" % (stratum[0], stratum[1], k))


def _file_poset(seed: int, stratum, k) -> tuple:
    """(n, generating pairs) of set-up file k of a stratum: a random DAG."""
    rng = random.Random("%d/%d/%d/%d" % (seed, stratum[0], stratum[1], k))
    n = rng.randrange(stratum[0], stratum[1] + 1)
    p = 4.0 / n
    return n, [[i, j] for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def prepare(seed: int, workdir: str) -> None:
    """Write the poset files the intersect items read."""
    for stratum, count in FILE_STRATA.items():
        for k in range(count):
            n, pairs = _file_poset(seed, stratum, k)
            with open(_file_path(workdir, stratum, k), "w") as fh:
                json.dump({"n": n, "le": pairs}, fh)


def _ordinal_args(item) -> list:
    kind = item["kind"]
    if kind == "sierp":
        return [item["alpha"]]
    if kind == "mixing":
        return [item["a"], item["b"]]
    if kind == "minoration":
        return [item["alpha"], item["beta"]]
    if kind == "decompinver":
        return [x for pair in item["blocks"] for x in pair]
    return [item["alpha"]] + item["targets"]


def _random_term(rng, depth: int) -> str:
    if depth == 0 or rng.randrange(3) == 0:
        if rng.randrange(2):
            return "ord(%s)" % O.render(wl_audit.enumerable(rng))
        return "fin(%s%d)" % (rng.choice(["chain", "antichain"]), rng.randrange(1, 6))
    op = rng.choice(["dsum", "lexsum", "prod"])
    return "%s(%s, %s)" % (op, _random_term(rng, depth - 1), _random_term(rng, depth - 1))


def make_item(rng, workdir, kind, sub, fmt, stratum) -> dict:
    if kind == "construct":
        # ordinals with finite exponents: enumeration stays cheap, so the
        # closure in make_poset sets the cost
        item = wl_audit.make_item(rng, sub, stratum, wl_audit.finite_exponents)
        item.pop("window", None)
        argv = ["construct", sub] + _ordinal_args(item) + ["--prefix", str(item["n"]),
                                                           "--format", fmt]
        return dict(item, cmd="construct", fmt=fmt, argv=argv)
    if kind in ("intersect_file", "intersect_at"):
        path = _file_path(workdir, stratum, rng.randrange(FILE_STRATA[stratum]))
        with open(path) as fh:
            n = json.load(fh)["n"]
        ref = "fin(@%s)" % path if kind == "intersect_file" else "@" + path
        return {"cmd": "intersect", "fmt": fmt,
                "argv": ["poset", "intersect", "fin(chain%d)" % n, ref, "--format", fmt]}
    if kind == "intersect_chain":
        n = rng.randrange(stratum[0], stratum[1] + 1)
        left = "fin(chain%d)" % n
        right = "lexsum(fin(chain%d), fin(chain%d))" % (n // 2, n - n // 2)
        return {"cmd": "intersect", "fmt": fmt,
                "argv": ["poset", "intersect", left, right, "--format", fmt]}
    if kind == "intersect_sum":
        n = rng.randrange(stratum[0], stratum[1] + 1)
        a, c = rng.randrange(1, n), rng.randrange(1, n)
        left = "lexsum(fin(chain%d), fin(antichain%d))" % (a, n - a)
        right = "dsum(fin(chain%d), fin(chain%d))" % (c, n - c)
        return {"cmd": "intersect", "fmt": fmt,
                "argv": ["poset", "intersect", left, right, "--format", fmt]}
    if kind == "intersect_prod":
        a = rng.randrange(4, 8)
        b = rng.randrange(stratum[0], stratum[1] + 1) // a
        left = "prod(fin(chain%d), fin(chain%d))" % (a, b)
        right = "prod(fin(antichain%d), fin(chain%d))" % (b, a) if rng.randrange(2) else (
            "fin(chain%d)" % (a * b))
        return {"cmd": "intersect", "fmt": fmt,
                "argv": ["poset", "intersect", left, right, "--format", fmt]}
    if kind == "len":
        return {"cmd": "len", "argv": ["poset", "len", _random_term(rng, 3)]}
    if kind == "embeds":
        shapes = [(rng.choice(["chain", "antichain"]), rng.randrange(1, 5)) for _ in range(2)]
        return {"cmd": "embeds", "shapes": shapes,
                "argv": ["poset", "embeds"] + ["fin(%s%d)" % s for s in shapes]}
    shape = (rng.choice(["chain", "antichain"]), rng.randrange(1, 6))
    return {"cmd": "badtree", "shape": shape, "argv": ["poset", "badtree", "fin(%s%d)" % shape]}


def make_round(rng, workdir, r: int) -> list:
    return [make_item(rng, workdir, *spec) for spec in ROUND]


def warmup_items(rng, workdir) -> list:
    return [make_item(rng, workdir, kind, sub, fmt, (8, 12) if stratum else None)
            for kind, sub, fmt, stratum in ROUND
            if kind not in ("intersect_file", "intersect_at")]


# -- the command, as users run it ---------------------------------------------------


def run(item: dict, call) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(item["argv"])
    return code, out.getvalue()


# -- the same command, stage by stage -------------------------------------------------


def _parse_any(text: str, call):
    if text.lstrip().startswith("W"):
        return call("cardinals.parse_k", cardinals.parse_k, text)
    return call("ordinals.parse_ordinal", ordinals.parse_ordinal, text)


def _poset_arg(text: str, call):
    if text.startswith("@"):
        with open(text[1:]) as fh:
            p = call("io.load_poset", wio.load_poset, fh)
    else:
        t = call("terms.parse_term", terms.parse_term, text)
        p = call("terms.denote_prefix", terms.denote_prefix, t, terms.term_size(t))
    call.count("posets.closed_pairs", len(p.le))
    return p


def _export(p, fmt, meta, call) -> str:
    if fmt == "dot":
        call("posets.hasse", lambda: p.hasse)
    text = call("io.export_poset", wio.export_poset, p, fmt, meta=meta)
    call.count("io.bytes_out", len(text.encode()) + 1)
    return text + "\n"


def run_traced(item: dict, call) -> tuple:
    argv, cmd = item["argv"], item["cmd"]
    if cmd == "construct":
        kind, fmt = argv[1], item["fmt"]
        ords = [_parse_any(t, call) for t in argv[2:-4]]
        n = item["n"]
        if kind == "sierp":
            lazy = call("constructions.sierpinskisation", constructions.sierpinskisation, *ords)
        elif kind == "mixing":
            lazy = call("constructions.mixing_poset", constructions.mixing_poset, *ords)
        elif kind == "minoration":
            lazy = call("constructions.minoration_witness", constructions.minoration_witness, *ords)
        elif kind == "decompinver":
            lazy = call("constructions.decompinver_witness", constructions.decompinver_witness,
                        list(zip(ords[::2], ords[1::2])))
        else:
            base = call("constructions.sierpinskisation", constructions.sierpinskisation, ords[0])
            lazy = call("constructions.extend_realizer", constructions.extend_realizer,
                        base, (ords[1], ords[2]))
        vs = call("constructions.prefix", lazy.prefix, n)
        pairs = call("constructions.lt", lambda: [(i, j) for i in range(n) for j in range(n)
                                                  if lazy.lt(vs[i], vs[j])])
        p = call("posets.make_poset", posets.make_poset, n, pairs)
        call.count("posets.closed_pairs", len(p.le))
        r = ordinals.render_ordinal
        meta = {"construction": kind, "parameters": [r(o) for o in ords], "prefix": n,
                "type_left": r(lazy.type_left), "type_right": r(lazy.type_right),
                "certificate": r(lazy.certificate)}
        return 0, _export(p, fmt, meta if fmt == "json" else None, call)
    if cmd == "intersect":
        p, q = (_poset_arg(a, call) for a in argv[2:4])
        both = call("posets.intersect", posets.intersect, p, q)
        return 0, _export(both, item["fmt"], None, call)
    if cmd == "len":
        t = call("terms.parse_term", terms.parse_term, argv[2])
        return 0, call("ordinals.render_ordinal", ordinals.render_ordinal,
                       call("terms.length_term", terms.length_term, t)) + "\n"
    if cmd == "embeds":
        p, q = (_poset_arg(a, call) for a in argv[2:4])
        found = call("posets.embeds", posets.embeds, p, q)
        return (0 if found else 1), ("yes" if found else "no") + "\n"
    p = _poset_arg(argv[2], call)
    return 0, "%d\n" % call("posets.bad_tree_height", posets.bad_tree_height, p)


# -- independent model of the expected documents ----------------------------------------


def _leaf(text: str):
    """(size, strict-order matrix) of a finite term leaf."""
    body = text[4:-1]
    if body.startswith("@"):
        with open(body[1:]) as fh:
            doc = json.load(fh)
        return doc["n"], O.closure(doc["n"], doc["le"])
    n = int(re.fullmatch(r"(?:anti)?chain([0-9]+)", body).group(1))
    m = np.zeros((n, n), dtype=bool)
    if body.startswith("chain"):
        m = np.triu(np.ones((n, n), dtype=bool), 1)
    return n, m


def _split(body: str) -> tuple:
    depth = 0
    for i, ch in enumerate(body):
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if ch == "," and depth == 0:
            return body[:i].strip(), body[i + 1:].strip()
    raise ValueError("no top-level comma in %r" % body)


def model(text: str):
    """(size, order matrix) of a finite term in the canonical enumeration:
    sums alternate sides until the smaller is used up, products walk
    anti-diagonals with the first index ascending."""
    if text.startswith("@"):
        return _leaf("fin(%s)" % text)
    if text.startswith("fin("):
        return _leaf(text)
    op, body = text.split("(", 1)
    (na, ma), (nb, mb) = (model(s) for s in _split(body[:-1]))
    if op == "prod":
        cells = [(i, d - i) for d in range(na + nb) for i in range(d + 1)
                 if i < na and d - i < nb]
        ea, eb = ma | np.eye(na, dtype=bool), mb | np.eye(nb, dtype=bool)
        ia, ib = np.array([c[0] for c in cells]), np.array([c[1] for c in cells])
        m = ea[np.ix_(ia, ia)] & eb[np.ix_(ib, ib)]
        np.fill_diagonal(m, False)
        return len(cells), m
    small = min(na, nb)
    order = [(i % 2, i // 2) for i in range(2 * small)]
    order += [(0 if na > nb else 1, k) for k in range(small, max(na, nb))]
    n = na + nb
    m = np.zeros((n, n), dtype=bool)
    for x, (sx, kx) in enumerate(order):
        for y, (sy, ky) in enumerate(order):
            if sx == sy:
                m[x, y] = (ma if sx == 0 else mb)[kx, ky]
            else:
                m[x, y] = op == "lexsum" and sx == 0
    return n, m


def _length(text: str):
    if text.startswith("ord("):
        return O.parse(text[4:-1])
    if text.startswith("fin("):
        return O.nat(_leaf(text)[0])
    op, body = text.split("(", 1)
    a, b = (_length(s) for s in _split(body[:-1]))
    return {"dsum": O.nat_add, "lexsum": O.add, "prod": O.nat_mul}[op](a, b)


def _dot_edges(text: str, n: int):
    lines = text.rstrip("\n").split("\n")
    if lines[0] != "digraph poset {" or lines[-1] != "}":
        return None
    if lines[1:n + 1] != ["  %d;" % v for v in range(n)]:
        return None
    edges = set()
    for line in lines[n + 1:-1]:
        a, b = line.strip().rstrip(";").split(" -> ")
        edges.add((int(a), int(b)))
    return edges


def _check_document(item, text, n, m) -> list:
    """The document encodes exactly the strict order m on n vertices."""
    if item["fmt"] == "dot":
        edges = _dot_edges(text, n)
        return [] if edges == O.cover_pairs(m) else ["dot edges are not the cover relation"]
    doc = json.loads(text)
    if doc["n"] != n or doc["le"] != O.pairs_of(m):
        return ["json relation"]
    return []


def check(item: dict, out: tuple) -> list:
    code, text = out
    cmd, argv = item["cmd"], item["argv"]
    if cmd == "len":
        ok = code == 0 and O.parse(text.strip()) == _length(argv[2])
        return [] if ok else ["poset len"]
    if cmd == "embeds":
        (ka, na), (kb, nb) = item["shapes"]
        # chains embed in chains and antichains in antichains by size;
        # across kinds only single points embed
        yes = na <= nb if ka == kb else na == 1
        return [] if (code, text) == ((0, "yes\n") if yes else (1, "no\n")) else ["embeds"]
    if cmd == "badtree":
        return [] if (code, text) == (0, "%d\n" % item["shape"][1]) else ["badtree"]
    if code != 0:
        return ["exit code %d" % code]
    if cmd == "intersect":
        (na, ma), (nb, mb) = model(argv[2]), model(argv[3])
        return _check_document(item, text, na, ma & mb)
    return _check_construct(item, text)


def _check_construct(item, text) -> list:
    n = item["n"]
    if item["fmt"] == "dot":
        # the relation itself is checked on the JSON form of the same command
        code, doc = run(dict(item, argv=item["argv"][:-1] + ["json"]), None)
        m = np.zeros((n, n), dtype=bool)
        for i, j in json.loads(doc)["le"]:
            m[i, j] = True
        bad = _check_document(item, text, n, m)
        return bad + _check_json_construct(item, doc)
    return _check_json_construct(item, text)


def _check_json_construct(item, text) -> list:
    n = item["n"]
    doc = json.loads(text)
    left, right, cert = wl_audit.expected_types(item)
    want_meta = {"construction": item["kind"],
                 "parameters": [O.render(O.parse(t)) for t in _ordinal_args(item)],
                 "prefix": n, "type_left": O.render(left), "type_right": O.render(right),
                 "certificate": O.render(cert)}
    bad = []
    if doc.get("meta") != want_meta or doc.get("n") != n or set(doc) != {"n", "le", "meta"}:
        bad.append("meta")
    m = np.zeros((n, n), dtype=bool)
    for i, j in doc["le"]:
        m[i, j] = True
    if not O.is_strict_order(m):
        bad.append("relation is not a strict order")
    if item["kind"] == "sierp" and np.tril(m).any():
        bad.append("sierpinskisation relation leaves the numeric order")
    return bad
