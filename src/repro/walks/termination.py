"""Query termination conditions — Algorithm 2.1's ``Q.is_end()``.

The paper's pseudocode abstracts the walk's stopping rule as a per-query
predicate ("a specific termination condition, such as a target length
being reached").  The evaluation only uses fixed lengths, but the
abstraction matters for applications: random walk with restart stops on a
visit budget, link-prediction samplers stop at a target vertex, MetaPath
mining stops when the schema completes.

:func:`apply_termination` post-processes a walked session: the stepper
always walks to the maximum length (cheap, vectorized), and the condition
then truncates each path to its logical end — equivalent to the hardware's
Query Controller retiring the query at that step, and exactly how a
fixed-function accelerator with host-side filtering would be used.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import QueryError
from repro.walks.stepper import WalkSession


class TerminationCondition:
    """Base: decides, per query, the last step index to keep."""

    name = "none"

    def cutoff_steps(self, session: WalkSession) -> np.ndarray:
        """Steps to keep per query (values in ``[0, lengths]``)."""
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


@dataclass(frozen=True)
class FixedLength(TerminationCondition):
    """Stop after ``n_steps`` steps (the paper's evaluation setting)."""

    n_steps: int
    name = "fixed-length"

    def __post_init__(self) -> None:
        if self.n_steps < 0:
            raise QueryError(f"n_steps must be non-negative, got {self.n_steps}")

    def cutoff_steps(self, session: WalkSession) -> np.ndarray:
        return np.minimum(session.lengths, self.n_steps)

    def describe(self) -> str:
        return f"length == {self.n_steps}"


@dataclass(frozen=True)
class TargetVertex(TerminationCondition):
    """Stop as soon as any vertex in ``targets`` is reached."""

    targets: tuple[int, ...]
    name = "target-vertex"

    def __post_init__(self) -> None:
        if not self.targets:
            raise QueryError("targets must be non-empty")

    def cutoff_steps(self, session: WalkSession) -> np.ndarray:
        target_set = np.asarray(self.targets, dtype=np.int64)
        hits = np.isin(session.paths, target_set) & (session.paths >= 0)
        # Exclude the start position: a query *starting* on a target still
        # takes its first step (matching restart-walk semantics).
        hits[:, 0] = False
        cutoffs = session.lengths.copy()
        rows, cols = np.nonzero(hits)
        if rows.size:
            # First hit per row.
            order = np.argsort(rows * session.paths.shape[1] + cols)
            rows, cols = rows[order], cols[order]
            first_rows, first_idx = np.unique(rows, return_index=True)
            cutoffs[first_rows] = np.minimum(
                cutoffs[first_rows], cols[first_idx]
            )
        return cutoffs

    def describe(self) -> str:
        return f"reach any of {len(self.targets)} target vertices"


@dataclass(frozen=True)
class TargetLabel(TerminationCondition):
    """Stop on reaching a vertex with the given label (MetaPath mining)."""

    label: int
    name = "target-label"

    def cutoff_steps(self, session: WalkSession) -> np.ndarray:
        labels = session.graph.vertex_labels
        if labels is None:
            raise QueryError("graph has no vertex labels")
        targets = np.nonzero(labels == self.label)[0]
        if targets.size == 0:
            return session.lengths.copy()
        return TargetVertex(tuple(targets.tolist())).cutoff_steps(session)

    def describe(self) -> str:
        return f"reach label {self.label}"


def apply_termination(
    session: WalkSession, condition: TerminationCondition
) -> WalkSession:
    """Truncate a session's paths at each query's termination point.

    Returns a new session sharing the graph; paths beyond the cutoff are
    re-padded with -1 and lengths updated.  Trace records are kept intact
    (the hardware did execute those steps; the model should still charge
    them — truncation is a host-side concern).
    """
    cutoffs = condition.cutoff_steps(session)
    if np.any(cutoffs < 0) or np.any(cutoffs > session.lengths):
        raise QueryError("termination cutoffs out of range")
    paths = session.paths.copy()
    columns = np.arange(paths.shape[1])
    paths[columns[None, :] > cutoffs[:, None]] = -1
    return replace(session, paths=paths, lengths=cutoffs)
