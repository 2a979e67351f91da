"""wpolab: symbolic ordinal arithmetic and well-partial-order lengths.

Ordinals below epsilon_0 in Cantor normal form (`CnfOrdinal`), a ten-level
scale of uncountable initial ordinals (`KOrdinal`), the theta calculus of
strict upper bounds for intersection lengths, finite-poset length engines,
lazy countable realizer constructions with prefix audits, a symbolic WPO
term algebra, and a seeded verification harness with a CLI (`wpolab`).
"""

from .bounds import (
    BoundOp,
    THETA_PLUS,
    UnsupportedSupremum,
    bracket_plus,
    bracket_tilde,
    reduction_identity_check,
    reduction_identity_sides,
    theta_box_sup,
    theta_len,
    theta_plus,
    theta_sharp,
    theta_tilde,
)
from .cardinals import (
    MAX_LEVEL,
    KOrdinal,
    LevelOverflowError,
    cardinality,
    hartog,
    k_add,
    k_nat_add,
    k_ul_nat_add,
    omega_level,
    parse_k,
    render_k,
)
from .constructions import (
    AuditReport,
    Enumeration,
    LazyOrder,
    LazyPoset,
    decompinver_witness,
    enum_below,
    extend_realizer,
    minoration_witness,
    mixing_poset,
    prefix_audit,
    relation_matrix,
    sierpinskisation,
)
from .io import export_poset, load_poset
from .ordinals import (
    OMEGA,
    ONE,
    ZERO,
    CnfOrdinal,
    OrdinalError,
    add,
    cmp,
    euclid_div,
    from_int,
    fund_seq,
    is_indecomposable,
    iter_below,
    left_subtract,
    mul,
    nat_add,
    nat_mul,
    omega_pow,
    parse_ordinal,
    render_ordinal,
    sup_plus,
    ul_nat_add,
)
from .posets import (
    FinPoset,
    PosetError,
    all_posets,
    antichain,
    bad_sequences,
    bad_tree_height,
    chain,
    embeds,
    intersect,
    length_fin,
    length_recursive,
    linear_extensions,
    longcut_fin,
    make_poset,
    poset_of_matrix,
)
from .suites import SUITES, SuiteReport, run_suite
from .terms import (
    DSum,
    Fin,
    LexSum,
    Ord,
    PosetTerm,
    Prod,
    denote_prefix,
    length_term,
    parse_term,
    render_term,
    term_size,
)

__version__ = "0.1.0"
