"""wpolab: symbolic ordinal arithmetic and well-partial-order lengths.

Ordinals below epsilon_0 in Cantor normal form (`CnfOrdinal`), a ten-level
scale of uncountable initial ordinals (`KOrdinal`), the theta calculus of
strict upper bounds for intersection lengths, finite-poset length engines,
lazy countable realizer constructions with prefix audits, a symbolic WPO
term algebra, and a seeded verification harness with a CLI (`wpolab`).

The package is layered.  `ordinals`, `cardinals`, `bounds` and `oracles`
are the algebra; `posets`, `constructions`, `terms`, `io` and `suites`
build on it.  Importing `wpolab` imports none of the submodules:
`_EXPORTS` maps each public name to its submodule, and the module
`__getattr__` (PEP 562) imports that submodule the first time the name is
read and keeps the value in this module's globals.  So `from wpolab import
theta_plus` loads the algebra layers only, and every name is the same
object as in its submodule.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it gives the package
_EXPORTS = {
    "bounds": (
        "BoundOp", "THETA_PLUS", "UnsupportedSupremum", "bracket_plus", "bracket_tilde",
        "reduction_identity_check", "reduction_identity_sides", "theta_box_sup",
        "theta_len", "theta_plus", "theta_sharp", "theta_tilde",
    ),
    "cardinals": (
        "MAX_LEVEL", "KOrdinal", "LevelOverflowError", "cardinality", "hartog", "k_add",
        "k_nat_add", "k_ul_nat_add", "omega_level", "parse_k", "render_k",
    ),
    "constructions": (
        "AuditReport", "Enumeration", "LazyOrder", "LazyPoset", "decompinver_witness",
        "enum_below", "extend_realizer", "minoration_witness", "mixing_poset",
        "prefix_audit", "relation_rows", "sierpinskisation",
    ),
    "io": ("export_poset", "load_poset"),
    "oracles": (),
    "ordinals": (
        "OMEGA", "ONE", "ZERO", "CnfOrdinal", "OrdinalError", "PosetError", "add", "cmp",
        "euclid_div", "from_int", "fund_seq", "is_indecomposable", "iter_below",
        "left_subtract", "mul", "nat_add", "nat_mul", "omega_pow", "parse_ordinal",
        "render_ordinal", "sup_plus", "ul_nat_add",
    ),
    "posets": (
        "FinPoset", "all_posets", "antichain", "bad_sequences", "bad_tree_height",
        "chain", "embeds", "intersect", "length_fin", "length_recursive",
        "linear_extensions", "longcut_fin", "make_poset", "poset_of_matrix",
    ),
    "suites": ("SUITES", "SuiteReport", "run_suite"),
    "terms": (
        "DSum", "Fin", "LexSum", "Ord", "PosetTerm", "Prod", "denote_prefix",
        "length_term", "parse_term", "render_term", "term_size",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# the submodules are public names too, as they were when the package
# imported them all
__all__ = sorted(_EXPORTS) + sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        value = importlib.import_module("." + name, __name__)
    elif name in _HOME:
        value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
