"""Run manifests: provenance for every :class:`~repro.core.api.RunResult`.

A manifest answers "what exactly produced these numbers?" — the seed,
backend, plan shape, a stable fingerprint of the accelerator
configuration, the package version and the host — so a metrics record
written today can be compared against one written on another machine six
months from now.  Manifests are cheap (a handful of scalars) and are
attached to every result, observed or not.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.plan import ExecutionPlan
    from repro.runtime.scheduler import ShardFailure

__all__ = ["RunManifest", "build_manifest", "config_fingerprint"]


def _jsonable(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def config_fingerprint(config: Any) -> str:
    """Short stable hash of a configuration dataclass.

    Two runs share a fingerprint iff every config field (including nested
    dataclasses such as the burst strategy and DRAM timings) is equal.
    """
    payload = json.dumps(_jsonable(config), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one executed query batch."""

    backend: str
    algorithm: str
    n_steps: int
    num_queries: int
    sampled_queries: int
    shards: int
    seed: int
    graph: str
    config_hash: str
    package_version: str
    host: str
    python_version: str
    created_unix: float = field(default_factory=time.time)
    #: Shard failures of a degraded run, as JSON-ready dicts (shard index,
    #: query-id range, error type, attempts); empty for healthy runs.
    failures: tuple = ()
    #: Which functional walk implementation ran: ``"c"`` (the fused step
    #: kernel) or ``"numpy"``; ``None`` when the backend does not run the
    #: functional stepper (the cycle simulator).
    walk_kernel: str | None = None
    #: Why the numpy walk ran instead of the C kernel (empty otherwise).
    walk_kernel_fallback: str = ""

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def build_manifest(
    plan: "ExecutionPlan",
    *,
    seed: int,
    config: Any,
    graph_name: str,
    failures: "Sequence[ShardFailure]" = (),
    walk_kernel: str | None = None,
    walk_kernel_fallback: str = "",
) -> RunManifest:
    """Assemble the manifest for one planned run."""
    from repro import __version__

    return RunManifest(
        backend=plan.backend,
        algorithm=plan.algorithm.name,
        n_steps=plan.n_steps,
        num_queries=plan.total_queries,
        sampled_queries=plan.num_sampled,
        shards=plan.shard_count,
        seed=int(seed),
        graph=graph_name,
        config_hash=config_fingerprint(config),
        package_version=__version__,
        host=platform.node(),
        python_version=platform.python_version(),
        failures=tuple(f.as_dict() for f in failures),
        walk_kernel=walk_kernel,
        walk_kernel_fallback=walk_kernel_fallback,
    )
