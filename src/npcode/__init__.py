"""Erasure protection codes over GF(2^m) plus the graph machinery
(disjoint paths, connectivity, optimal constructions) that decides
where they can be deployed."""

from .codec import (
    CapacityExceededError,
    CodecError,
    Codeword,
    DataBlock,
    InconsistentSymbolsError,
    NpcCode,
    build_code,
    encode,
    encode_blocks,
    recover,
    recover_blocks,
    verify_mds,
)
from .connectivity import (
    CutReport,
    SearchBudgetExceeded,
    edge_connectivity,
    find_disjoint_paths_multi,
    is_k_edge_connected,
    max_edge_disjoint_paths,
    node_connectivity,
)
from .construction import (
    build_minimal_witness,
    harary,
    harary_lower_bound,
    min_edges_arbitrary,
    min_edges_predetermined,
    min_edges_single_source,
)
from .feasibility import (
    FeasibilityReport,
    InfeasibleInstanceError,
    ProtectionInstance,
    build_fig2_fixture,
    check_feasibility,
    check_single_source,
    verify_report,
)
from .galois import DEFAULT_POLY, FieldContext, FieldElement, FieldMismatchError
from .graph import DisjointPathSet, Graph, GraphError, GraphFormatError, Path, load, save
from .simulator import (
    BatchStats,
    ExplicitFailures,
    RandomFailures,
    Scenario,
    TrialReport,
    batch,
    run,
    run_node_failure,
)

__version__ = "0.1.0"
