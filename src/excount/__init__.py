"""Exact subgraph counting and edge-budget extremal graph experiments."""

from .graphs import (
    Bipartition,
    FerrersDiagram,
    Graph,
    GraphError,
    are_isomorphic,
    bipartition_of,
    complement,
    complete_bipartite,
    complete_graph,
    conjugate,
    cycle_graph,
    diagram_of,
    disjoint_union,
    empty_graph,
    is_triangle_free,
    make_graph,
    nested_violation,
    path_graph,
    realize_diagram,
    star_graph,
)
from .constructions import (
    BipartiteShape,
    CliqueDecomposition,
    bipartite_shape,
    clique_decomposition,
    quasi_clique,
    quasi_complete_bipartite,
    quasi_star,
)
from .counting import (
    PatternCounter,
    automorphism_count,
    count_copies,
    count_star_matching_pairs,
    count_stars,
    inj_homs,
)
from .transform import (
    Trace,
    TraceEntry,
    cell_weight,
    durfee_fold,
    run_transformation,
    shift_to_nested,
    top_row_pack,
    total_weight,
)
from .decomposition import (
    EdgeStarCover,
    StarPartition,
    edge_star_cover,
    spanning_tree,
    star_factor_profile,
    star_partition,
)
from .oracle import (
    DEFAULT_BUDGET,
    EnumerationBudgetError,
    ExtremalRecord,
    ex_bip_oracle,
    ex_oracle,
    ex_trifree_oracle,
    nonmonotonicity_demo,
)
from .asymptotics import (
    DensityScan,
    crossover_scan,
    disjoint_star_tuple_bound,
    max_small_side,
    star_factor_upper_bound,
    star_matching_pair_bound,
)
from .edgelist import format_edgelist, parse_edgelist, read_edgelist, write_edgelist
from .reporting import emit_report

__version__ = "0.1.0"
