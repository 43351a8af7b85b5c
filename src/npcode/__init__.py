"""Erasure protection codes over GF(2^m) plus the graph machinery
(disjoint paths, connectivity, optimal constructions) that decides
where they can be deployed.

Submodules load on first attribute access.  `import npcode` puts every
library submodule in `sys.modules` and binds it here without running
it, so code that uses only `graph`, `connectivity`, `feasibility` and
`construction` never imports numpy, which only `galois`, `kernels`,
`codec` and `simulator` import.  The re-exported names below resolve
through their home module.  CPython's `importlib.util.LazyLoader` takes
no lock on 3.10 and 3.11 (gh-114763): import the names you need before
you start threads.
"""

import importlib.util
import sys

# home submodule -> the names re-exported from it
_HOMES = {
    "codec": (
        "CapacityExceededError",
        "CodecError",
        "Codeword",
        "DataBlock",
        "InconsistentSymbolsError",
        "NpcCode",
        "build_code",
        "encode",
        "encode_blocks",
        "recover",
        "recover_blocks",
        "verify_mds",
    ),
    "connectivity": (
        "CutReport",
        "SearchBudgetExceeded",
        "edge_connectivity",
        "find_disjoint_paths_multi",
        "is_k_edge_connected",
        "max_edge_disjoint_paths",
        "node_connectivity",
    ),
    "construction": (
        "build_minimal_witness",
        "harary",
        "harary_lower_bound",
        "min_edges_arbitrary",
        "min_edges_predetermined",
        "min_edges_single_source",
    ),
    "feasibility": (
        "FeasibilityReport",
        "InfeasibleInstanceError",
        "ProtectionInstance",
        "build_fig2_fixture",
        "check_feasibility",
        "check_single_source",
        "verify_report",
    ),
    "galois": ("DEFAULT_POLY", "FieldContext", "FieldElement", "FieldMismatchError"),
    "graph": ("DisjointPathSet", "Graph", "GraphError", "GraphFormatError", "Path", "load", "save"),
    "simulator": (
        "BatchStats",
        "ExplicitFailures",
        "RandomFailures",
        "Scenario",
        "TrialReport",
        "batch",
        "run",
        "run_node_failure",
    ),
}
# re-exported name -> home submodule
_EXPORTS = {name: home for home, names in _HOMES.items() for name in names}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def _lazy(name: str):
    """The submodule `name`, in sys.modules, to be run on its first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


galois = _lazy("galois")
kernels = _lazy("kernels")
codec = _lazy("codec")
graph = _lazy("graph")
connectivity = _lazy("connectivity")
feasibility = _lazy("feasibility")
construction = _lazy("construction")
simulator = _lazy("simulator")


def __getattr__(name: str):
    try:
        home = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[home], name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
