"""Output checks for the benchmark's walk workloads.

Every timed call's walks are checked against the input graph (each step
follows an edge, a walk stops early only where it must, MetaPath steps land
on the schema's labels) and reduced to a digest.  A run compares every
call's digest with its first call's, and at the pinned seed with the
digest recorded in ``pins.json``.
"""

from __future__ import annotations

import hashlib

import numpy as np


class WalkCheckError(AssertionError):
    """A walk batch that the input graph or the pinned digest rejects."""


def walk_digest(paths: np.ndarray, lengths: np.ndarray) -> str:
    """SHA-256 over the lengths and the unpadded path of every query.

    Padding is excluded, so backends that pad paths to different widths
    digest identically when they walk identically.
    """
    paths = np.asarray(paths, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    valid = np.arange(paths.shape[1])[None, :] <= lengths[:, None]
    h = hashlib.sha256()
    h.update(lengths.astype("<i8").tobytes())
    h.update(paths[valid].astype("<i8").tobytes())
    return h.hexdigest()


class WalkChecker:
    """Checks walk batches over one graph (edge keys are built once)."""

    def __init__(self, graph) -> None:
        self.graph = graph
        self.n = int(graph.num_vertices)
        self.degrees = np.asarray(graph.degrees, dtype=np.int64)
        self.row_index = np.asarray(graph.row_index, dtype=np.int64)
        self.col_index = np.asarray(graph.col_index, dtype=np.int64)
        sources = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        self.edge_keys = np.sort(sources * self.n + self.col_index)
        labels = graph.vertex_labels
        self.labels = None if labels is None else np.asarray(labels, dtype=np.int64)

    def _has_edges(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        keys = u * self.n + v
        pos = np.searchsorted(self.edge_keys, keys)
        pos = np.minimum(pos, self.edge_keys.size - 1)
        return self.edge_keys[pos] == keys

    def check(
        self,
        starts: np.ndarray,
        paths: np.ndarray,
        lengths: np.ndarray,
        n_steps: int,
        schema: np.ndarray | None = None,
    ) -> None:
        """Raise :class:`WalkCheckError` unless the batch is a valid walk.

        ``schema`` is a vertex-label MetaPath schema: the vertex reached
        by step ``t`` must carry label ``schema[(t + 1) % len(schema)]``.
        Without it any out-edge is a legal step, so a walk may end early
        only on a vertex without out-edges; with it, only on a vertex
        with no out-neighbour of the next required label.
        """
        starts = np.asarray(starts, dtype=np.int64)
        paths = np.asarray(paths, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        q = starts.size
        if paths.ndim != 2 or paths.shape[0] != q or lengths.shape != (q,):
            raise WalkCheckError(
                f"shape mismatch: {q} starts, paths {paths.shape}, lengths {lengths.shape}"
            )
        if q == 0:
            raise WalkCheckError("empty batch")
        if lengths.min() < 0 or lengths.max() > n_steps or lengths.max() >= paths.shape[1]:
            raise WalkCheckError("walk length outside [0, n_steps] or the path width")
        if not np.array_equal(paths[:, 0], starts):
            raise WalkCheckError("a path does not begin at its start vertex")
        cols = np.arange(paths.shape[1])[None, :]
        valid = cols <= lengths[:, None]
        if np.any(paths[~valid] != -1):
            raise WalkCheckError("a path has vertices past its length")
        if np.any((paths[valid] < 0) | (paths[valid] >= self.n)):
            raise WalkCheckError("a path holds an out-of-range vertex")

        step = (cols[:, 1:] <= lengths[:, None])
        u = paths[:, :-1][step]
        v = paths[:, 1:][step]
        if not np.all(self._has_edges(u, v)):
            raise WalkCheckError("a step does not follow a graph edge")

        last = paths[np.arange(q), lengths]
        short = lengths < n_steps
        if schema is None:
            if np.any(self.degrees[last[short]] > 0):
                raise WalkCheckError("a walk stopped on a vertex with out-edges")
            return

        if self.labels is None:
            raise WalkCheckError("MetaPath check needs vertex labels")
        schema = np.asarray(schema, dtype=np.int64)
        hop = np.nonzero(step)
        want = schema[(hop[1] + 1) % schema.size]
        if np.any(self.labels[v] != want):
            raise WalkCheckError("a MetaPath step reached a vertex of the wrong label")
        # An early stop is legal only when no out-neighbour carries the
        # label the next step requires.
        ends = last[short]
        need = schema[(lengths[short] + 1) % schema.size]
        deg = self.degrees[ends]
        owner = np.repeat(np.arange(ends.size), deg)
        offsets = np.arange(int(deg.sum())) - np.repeat(np.cumsum(deg) - deg, deg)
        nbrs = self.col_index[np.repeat(self.row_index[ends], deg) + offsets]
        match = self.labels[nbrs] == need[owner]
        if np.any(np.bincount(owner[match], minlength=ends.size) > 0):
            raise WalkCheckError("a MetaPath walk stopped with a matching neighbour")
