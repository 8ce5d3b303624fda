"""Exact polynomials of Boolean constraint formulas.

The package classifies finite relation sets as easy or hard, evaluates the
multilinear polynomial summing one monomial per satisfying assignment
(fast factored path for easy sets, one exact weighted model count
otherwise), builds the graph and poset polynomials those formulas encode,
and carries a complete many-one counting reduction from the 0/1 permanent
to unweighted vertex-cover counting.
"""

from .easy_eval import FactoredPoly, easy_evaluate, easy_factor, evaluate_factored
from .errors import BoundExceeded, ParseError, SatPolyError
from .formulas import (
    Formula,
    count_sat,
    eval_assignment,
    eval_formula_poly,
    formula,
    poly_of_formula,
)
from .graphs import (
    Var,
    WeightedGraph,
    bipartize,
    build_partial_perm_graph,
    incidence_transform,
    ip,
    partial_permanent,
    permanent,
    vcp,
    weighted_graph,
)
from .implement import (
    Implementation,
    NotFound,
    check_perfect_faithful,
    eliminate_false,
    search_implementation,
    substitute,
)
from .polynomial import MultilinearPoly, homogeneous_component, linear_coefficient
from .posets import (
    Poset,
    antichain_ideal_bijection,
    antichain_poly,
    ideal_poly,
    maximal_elements,
    poset,
    poset_from_bipartite,
    weighted_bijection,
)
from .reductions import (
    ReductionInstance,
    UnweightedGraph,
    count_vertex_covers,
    eliminate_zero_weights,
    emit_instance,
    ideal_to_implicative2sat,
    is_to_negative2sat,
    partial_perm_to_vc,
    perm_to_partial_perm,
    perm_via_vc,
    simulate_neg_weights,
    vc_to_positive2sat,
)
from .relations import (
    BUILTIN_RELATIONS,
    Classification,
    Relation,
    classify,
    implied_width2_constraints,
    is_affine,
    relation,
    xor_relation,
)

__version__ = "0.1.0"
