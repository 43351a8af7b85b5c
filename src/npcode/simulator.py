"""End-to-end protection drills: provision, encode, fail paths, recover.

A scenario couples a deployable instance with a code whose k matches the
provisioned path count.  It drills the paths it is given, such as a
verified report's witness; without them the instance is solved strict and
its witness drilled.  Each payload block maps one field symbol onto
each working path; failing a path erases its symbol position in every
block.  With at most t failures and an MDS code every block must come
back exactly; more than t failures is reported as expected-unrecoverable
rather than raised.  Every field runs the block codec: the payload is
encoded in one `encode_blocks` call, its failed positions are erased in
place, and one `recover_blocks` call brings the data back.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .codec import DataBlock, NpcCode, _as_symbol_matrix, encode_blocks, recover_blocks
from .feasibility import InfeasibleInstanceError, ProtectionInstance, check_feasibility
from .graph import DisjointPathSet

__all__ = [
    "ExplicitFailures",
    "RandomFailures",
    "Scenario",
    "TrialReport",
    "path_labels",
    "run",
    "run_node_failure",
]


@dataclass(frozen=True)
class ExplicitFailures:
    paths: tuple[str, ...]


@dataclass(frozen=True)
class RandomFailures:
    count: int
    seed: int = 0


@dataclass(frozen=True)
class Scenario:
    instance: ProtectionInstance
    code: NpcCode
    payload: np.ndarray
    failure_model: ExplicitFailures | RandomFailures
    provisioned: DisjointPathSet | None = None


@dataclass(frozen=True)
class TrialReport:
    provisioned: DisjointPathSet
    failed_paths: tuple[str, ...]
    recovered: bool
    mismatches: int
    capacity_exceeded: bool = False

    @property
    def status(self) -> str:
        if self.recovered:
            return "recovered"
        return "capacity exceeded" if self.capacity_exceeded else "mismatch"


def path_labels(k: int) -> list[str]:
    """Working paths are labelled L1..Lk, matching codeword positions 1..k."""
    return [f"L{i + 1}" for i in range(k)]


def _payload_matrix(payload, code: NpcCode) -> np.ndarray:
    """The payload as (blocks, k-t) symbols; CodecError, a ValueError, if it is not."""
    if not isinstance(payload, np.ndarray):
        rows = [block.values() if isinstance(block, DataBlock) else list(block) for block in payload]
        payload = np.asarray(rows, dtype=np.int64)
    mat = _as_symbol_matrix(payload, code.data_len, code.field)
    if mat.shape[0] == 0:
        raise ValueError("payload must contain at least one block")
    return mat


def _provision(sc: Scenario) -> DisjointPathSet:
    """The scenario's own paths, or a strict solve's witness when it has none."""
    paths = sc.provisioned
    if paths is None:
        report = check_feasibility(sc.instance)
        if not report.feasible:
            raise InfeasibleInstanceError(report)
        paths = report.paths
    if len(paths) != sc.code.k:
        raise ValueError(
            f"code protects k={sc.code.k} paths but instance provisions {len(paths)}"
        )
    return paths


def _failed_labels(sc: Scenario, labels: list[str]) -> tuple[str, ...]:
    model = sc.failure_model
    if isinstance(model, ExplicitFailures):
        unknown = set(model.paths) - set(labels)
        if unknown:
            raise ValueError(f"unknown path labels {sorted(unknown)}")
        return tuple(l for l in labels if l in set(model.paths))
    if isinstance(model, RandomFailures):
        if model.count < 0:
            raise ValueError(f"cannot fail a negative number of paths, got {model.count}")
        if model.count > len(labels):
            raise ValueError("cannot fail more paths than provisioned")
        rng = random.Random(model.seed)
        picked = rng.sample(labels, model.count)
        return tuple(l for l in labels if l in set(picked))
    raise TypeError(f"unknown failure model {model!r}")


def _execute(sc: Scenario, provisioned: DisjointPathSet, failed: tuple[str, ...]) -> TrialReport:
    code = sc.code
    labels = path_labels(code.k)
    positions = [labels.index(l) for l in failed]
    data = _payload_matrix(sc.payload, code)
    if len(failed) > code.t:
        return TrialReport(provisioned, failed, False, data.shape[0], capacity_exceeded=True)
    # The block codec returns column-major views: erase the sent words in
    # place, and compare the data as contiguous (k-t, n) rows.
    received = encode_blocks(code, data)
    expect = received[:, : code.data_len].T.copy()
    received[:, positions] = 0
    got = recover_blocks(code, received, positions).T
    mismatches = 0
    if not np.array_equal(got, expect):
        mismatches = int(np.count_nonzero((got != expect).any(axis=0)))
    return TrialReport(provisioned, failed, mismatches == 0, mismatches)


def run(sc: Scenario) -> TrialReport:
    """Provision, inject path failures, recover every payload block."""
    provisioned = _provision(sc)
    failed = _failed_labels(sc, path_labels(sc.code.k))
    return _execute(sc, provisioned, failed)


def run_node_failure(sc: Scenario, node: str) -> TrialReport:
    """Model a relay failure as the failure of every path crossing it."""
    inst = sc.instance
    inst.graph._require_node(node)
    if node in inst.sources or node in inst.receivers:
        raise ValueError(f"{node!r} is a terminal; node failures model relays only")
    provisioned = _provision(sc)
    labels = path_labels(sc.code.k)
    failed = tuple(
        label for label, p in zip(labels, provisioned) if node in p.nodes
    )
    return _execute(sc, provisioned, failed)
