"""Poset file formats: JSON round-tripping and DOT (Hasse diagram) export.

A poset file is a single JSON object {"n": int, "le": [[i, j], ...]}.  It
may carry other fields, such as the "meta" that `wpolab construct` writes;
the loader ignores them, so a loaded poset does not keep them.  The loader
refuses more than MAX_VERTICES vertices before it builds anything, closes
`le` transitively and rejects antisymmetry violations with a cycle witness
(make_poset names one).
"""

from __future__ import annotations

import json

from .ordinals import clip
from .posets import FinPoset, PosetError, _bits, make_poset

# A poset file, an inline fin leaf, a denoted term and a construct prefix
# have at most this many vertices, counted before anything is built: a
# poset on n vertices lists up to n(n-1)/2 pairs, `construct sierp w
# --prefix 2000` takes 0.24-0.27 s of CPU, 115 MB (also with --out) and
# prints 26 MB (4000: 0.77 s, 327 MB), and "n": 10**10 would ask make_poset
# for 80 GB of rows (2-vCPU x86, Python 3.11.7)
MAX_VERTICES = 2000


def load_poset(source) -> FinPoset:
    """Parse a poset file (a JSON text, dict, or readable file object)."""
    try:
        if hasattr(source, "read"):
            source = source.read()
        data = json.loads(source) if isinstance(source, (str, bytes)) else source
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise PosetError("poset file is not JSON: %s" % exc) from None
    if not isinstance(data, dict) or "n" not in data or "le" not in data:
        raise PosetError('poset file must be an object with "n" and "le"')
    n, le = data["n"], data["le"]
    if not (type(n) is int and n >= 0 and isinstance(le, (list, tuple)) and all(
            isinstance(p, (list, tuple)) and len(p) == 2
            and all(type(v) is int for v in p) for p in le)):
        raise PosetError('poset file needs a vertex count "n" >= 0 and "le" '
                         'as a list of [i, j] integer pairs')
    if n > MAX_VERTICES:
        raise PosetError("a poset file takes at most %d vertices; got %s"
                         % (MAX_VERTICES, clip(str(n))))
    return make_poset(n, le)


def read_poset_file(path: str) -> FinPoset:
    """Load the poset file at path; a file that cannot be read is a
    PosetError, like one that does not parse."""
    try:
        with open(path, "r") as fh:
            return load_poset(fh)
    except OSError as exc:
        raise PosetError("cannot read poset file %r: %s"
                         % (path, exc.strerror or exc)) from exc


def export_poset(p: FinPoset, fmt: str = "json", meta=None) -> str:
    """The JSON document {"le", "meta", "n"}, byte for byte as
    json.dumps(doc, sort_keys=True) writes it, or the DOT Hasse diagram;
    both are written row by row from the bitsets (successors for JSON,
    covers for DOT), with no list of pairs."""
    names = [str(v) for v in range(p.n)]
    if fmt == "json":
        text = '{"le": [' + _json_pairs(p.successors, names) + "]"
        if meta is not None:
            text += ', "meta": ' + json.dumps(meta, sort_keys=True)
        return text + ', "n": %d}' % p.n
    if fmt == "dot":
        lines = ["digraph poset {", *("  %s;" % v for v in names)]
        for i, row in enumerate(p.covers):
            head = "  " + names[i] + " -> "
            while row:  # a low-bit loop: _bits would write out all n digits
                low = row & -row
                lines.append(head + names[low.bit_length() - 1] + ";")
                row ^= low
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError("unknown format %r (expected json or dot)" % fmt)


def _json_pairs(rows, names) -> str:
    """Each pair (i, j) with bit j of rows[i] set, written [i, j], in
    sorted order and joined by ", ".  A row is one str.join over the names
    of its bits, so no pair is formatted in Python; successor rows are
    dense, so _bits suits them."""
    texts = []
    for i, row in enumerate(rows):
        if row:
            head = "[" + names[i] + ", "
            texts.append(head + ("], " + head).join(_bits(row, names)) + "]")
    return ", ".join(texts)
