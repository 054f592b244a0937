"""Traffic matrices, flow-size distributions, and workload generators.

The paper's evaluation consumes three kinds of traffic input: structured
demand matrices with a known intra-clique locality ratio ``x`` (Fig 2f),
pFabric-style empirical flow-size distributions ("real-world traffic [2]"),
and aggregate statistics from a production datacenter trace (56 % locality,
75 % short-flow share — Roy et al. [23]).  This package synthesizes all
three.
"""

from .matrix import TrafficMatrix
from .generators import (
    uniform_matrix,
    permutation_matrix,
    clustered_matrix,
    gravity_matrix,
    hotspot_matrix,
    skewed_matrix,
)
from .flowsize import FlowSizeDistribution, WEB_SEARCH, DATA_MINING
from .workload import Workload, FlowSpec, FlowTable
from .facebook import (
    FACEBOOK_LOCALITY_RATIO,
    FACEBOOK_SHORT_FLOW_SHARE,
    facebook_cluster_matrix,
    ServiceRole,
)
from .diurnal import DiurnalPattern
from .ml import (
    hierarchical_allreduce_matrix,
    ring_allreduce_matrix,
    training_cluster_matrix,
)
from .io import load_flows_csv, load_matrix_csv, save_flows_csv, save_matrix_csv

__all__ = [
    "TrafficMatrix",
    "uniform_matrix",
    "permutation_matrix",
    "clustered_matrix",
    "gravity_matrix",
    "hotspot_matrix",
    "skewed_matrix",
    "FlowSizeDistribution",
    "WEB_SEARCH",
    "DATA_MINING",
    "Workload",
    "FlowSpec",
    "FlowTable",
    "FACEBOOK_LOCALITY_RATIO",
    "FACEBOOK_SHORT_FLOW_SHARE",
    "facebook_cluster_matrix",
    "ServiceRole",
    "DiurnalPattern",
    "ring_allreduce_matrix",
    "hierarchical_allreduce_matrix",
    "training_cluster_matrix",
    "save_matrix_csv",
    "load_matrix_csv",
    "save_flows_csv",
    "load_flows_csv",
]
