"""Graph substrate: weighted graphs, generators, weight models, IO, checks."""

from repro.graphs.graph import WeightedGraph, canonical_edges
from repro.graphs.generators import (
    complete_bipartite,
    complete_graph,
    cycle,
    disjoint_edges,
    double_star,
    gnm,
    gnp,
    gnp_average_degree,
    grid_2d,
    planted_cover,
    power_law,
    random_tree,
    star,
)
from repro.graphs.weights import (
    WEIGHT_MODELS,
    adversarial_spread_weights,
    constant_weights,
    degree_correlated_weights,
    exponential_weights,
    make_weights,
    planted_cover_weights,
    uniform_weights,
)
from repro.graphs.generators_extra import (
    hypercube,
    preferential_attachment,
    random_geometric,
    stochastic_block_model,
)
from repro.graphs.components import component_labels, largest_component, split_components
from repro.graphs.io import load_edgelist, load_npz, save_edgelist, save_npz
from repro.graphs.checks import GraphInvariantError, validate_graph
from repro.graphs.streams import (
    CHURN_MODELS,
    hub_churn_stream,
    make_update_stream,
    sliding_window_stream,
    uniform_churn_stream,
)
from repro.graphs.updates import (
    EdgeDelete,
    EdgeInsert,
    GraphUpdate,
    UpdateBatch,
    WeightChange,
    load_update_stream,
    save_update_stream,
)

__all__ = [
    "WeightedGraph",
    "canonical_edges",
    # generators
    "gnp",
    "gnm",
    "gnp_average_degree",
    "power_law",
    "star",
    "double_star",
    "complete_graph",
    "complete_bipartite",
    "grid_2d",
    "cycle",
    "random_tree",
    "disjoint_edges",
    "planted_cover",
    "stochastic_block_model",
    "random_geometric",
    "hypercube",
    "preferential_attachment",
    # update events + streams
    "EdgeInsert",
    "EdgeDelete",
    "WeightChange",
    "GraphUpdate",
    "UpdateBatch",
    "load_update_stream",
    "save_update_stream",
    "CHURN_MODELS",
    "make_update_stream",
    "uniform_churn_stream",
    "hub_churn_stream",
    "sliding_window_stream",
    # components
    "component_labels",
    "split_components",
    "largest_component",
    # weights
    "WEIGHT_MODELS",
    "make_weights",
    "constant_weights",
    "uniform_weights",
    "exponential_weights",
    "adversarial_spread_weights",
    "degree_correlated_weights",
    "planted_cover_weights",
    # io
    "save_npz",
    "load_npz",
    "save_edgelist",
    "load_edgelist",
    # checks
    "validate_graph",
    "GraphInvariantError",
]
