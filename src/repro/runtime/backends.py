"""Backend registry and the built-in execution backends.

A *backend* is one way of executing (and costing) a planned query batch:
the analytic FPGA model, the cycle-accurate simulator, or the modeled
ThunderRW CPU baseline.  Each is a class with

* a ``name`` (the string users pass to :class:`repro.core.api.LightRW`),
* declared :class:`BackendCapabilities` the query planner validates
  against, and
* an ``execute(plan, shard) -> BackendReport`` method the batch scheduler
  calls once per shard.

New backends register with the :func:`register_backend` decorator and are
immediately visible to the facade, the CLI (``--backend``) and the bench
runner — no ``if/elif`` chain to extend::

    from repro.runtime import Backend, BackendCapabilities, register_backend

    @register_backend
    class MyBackend(Backend):
        name = "my-backend"
        capabilities = BackendCapabilities(description="...", system_label="Mine")

        def execute(self, plan, shard):
            ...

All built-in backends share the same per-query RNG derivation keyed by
*global* query id, so identical seeds produce identical walks regardless
of backend or shard layout — the repo's core invariant.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.cpu.costmodel import CPUSpec
from repro.errors import ConfigError
from repro.fpga.config import LightRWConfig
from repro.obs import span
from repro.graph.csr import CSRGraph
from repro.runtime.timing import (
    CPUBaselineBreakdown,
    FPGACycleBreakdown,
    FPGAModelBreakdown,
    TimingBreakdown,
)
from repro.walks.stepper import WalkSession

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.plan import ExecutionPlan, QueryShard


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can do; the query planner enforces these limits."""

    #: One-line human description (shown by the CLI and the bench runner).
    description: str = ""
    #: System name used when benchmarks compare engines ("LightRW", ...).
    system_label: str = ""
    #: May the planner run a uniform query subsample and extrapolate?
    supports_query_sampling: bool = True
    #: Does the backend execute random walks with restart (PPR)?
    supports_restart: bool = False
    #: Can the backend report per-query latencies?
    supports_latency: bool = True
    #: Identical walks regardless of how the batch is sharded?
    deterministic_across_shards: bool = True
    #: Safe to execute shards concurrently from a thread pool?
    thread_safe: bool = True
    #: Safe to execute shards in worker *processes*?  Requires the
    #: backend, the plan and the shard reports to round-trip through
    #: pickle; opt-in because custom backends may hold live handles.
    process_safe: bool = False
    #: Does this backend pay the host<->device PCIe transfer?
    uses_pcie: bool = True
    #: Appear in engine-comparison benchmarks (fig14/15/16/17 style)?
    compare_in_benchmarks: bool = False
    #: Hard cap on the functional batch size (None = unlimited).
    max_batch_queries: int | None = None
    #: Can the backend model the table-based sampler ablation
    #: (``LightRWConfig.use_wrs=False``)?
    supports_table_sampler: bool = True


@dataclass(frozen=True)
class RuntimeContext:
    """Immutable per-engine state shared by every backend instance."""

    graph: CSRGraph
    config: LightRWConfig
    cpu_spec: CPUSpec
    seed: int = 0


@dataclass
class BackendReport:
    """One backend execution (a shard, or a merged batch)."""

    backend: str
    paths: np.ndarray
    lengths: np.ndarray
    total_steps: int
    kernel_s: float
    breakdown: TimingBreakdown
    setup_s: float = 0.0
    query_latency_s: np.ndarray | None = None
    session: WalkSession | None = None
    notes: dict = field(default_factory=dict)
    #: Functional walk implementation, ``"c"`` or ``"numpy"`` (from the
    #: session; kept when a checkpoint drops the session), or ``None``.
    walk_kernel: str | None = None
    walk_kernel_fallback: str = ""


class Backend(abc.ABC):
    """Protocol every execution backend implements."""

    #: Registry key; also the ``backend=`` string of the public API.
    name: str = ""
    capabilities: BackendCapabilities = BackendCapabilities()

    def __init__(self, context: RuntimeContext) -> None:
        self.context = context

    @abc.abstractmethod
    def execute(self, plan: "ExecutionPlan", shard: "QueryShard") -> BackendReport:
        """Walk and cost one shard of the planned batch."""

    def merge(
        self, plan: "ExecutionPlan", reports: Sequence[BackendReport]
    ) -> BackendReport:
        """Combine per-shard reports into the batch-level report.

        Paths and latencies concatenate in shard order (= global query-id
        order); timing merges through the :class:`TimingBreakdown`
        hierarchy.  Single-shard plans pass through untouched.
        """
        if len(reports) == 1:
            return reports[0]
        width = max(r.paths.shape[1] for r in reports)
        paths = np.full(
            (sum(r.paths.shape[0] for r in reports), width), -1, dtype=np.int64
        )
        row = 0
        for report in reports:
            n, w = report.paths.shape
            paths[row : row + n, :w] = report.paths
            row += n
        latencies = [r.query_latency_s for r in reports]
        breakdown = type(reports[0].breakdown).merged([r.breakdown for r in reports])
        return BackendReport(
            backend=self.name,
            paths=paths,
            lengths=np.concatenate([r.lengths for r in reports]),
            total_steps=sum(r.total_steps for r in reports),
            kernel_s=sum(r.kernel_s for r in reports),
            setup_s=sum(r.setup_s for r in reports),
            breakdown=breakdown,
            query_latency_s=(
                np.concatenate(latencies)
                if all(x is not None for x in latencies)
                else None
            ),
            session=_merge_sessions([r.session for r in reports]),
            walk_kernel=reports[0].walk_kernel,
            walk_kernel_fallback=reports[0].walk_kernel_fallback,
        )


def _merge_sessions(sessions: Sequence[WalkSession | None]) -> WalkSession | None:
    """Concatenate shard sessions, re-basing record query ids globally."""
    if any(s is None for s in sessions):
        return None
    parts = [s for s in sessions if s is not None]
    if len(parts) == 1:
        return parts[0]
    width = max(s.paths.shape[1] for s in parts)
    paths = np.full((sum(s.num_queries for s in parts), width), -1, dtype=np.int64)
    records = []
    row = 0
    for session in parts:
        n, w = session.paths.shape
        paths[row : row + n, :w] = session.paths
        for record in session.records:
            from dataclasses import replace

            records.append(replace(record, query_ids=record.query_ids + row))
        row += n
    return WalkSession(
        graph=parts[0].graph,
        algorithm=parts[0].algorithm,
        sampler=parts[0].sampler,
        starts=np.concatenate([s.starts for s in parts]),
        paths=paths,
        lengths=np.concatenate([s.lengths for s in parts]),
        records=records,
        kernel=parts[0].kernel,
        kernel_fallback=parts[0].kernel_fallback,
    )


# -- registry ----------------------------------------------------------------

_REGISTRY: dict[str, type[Backend]] = {}


def register_backend(cls: type[Backend]) -> type[Backend]:
    """Class decorator adding a backend to the global registry."""
    if not cls.name:
        raise ConfigError(f"backend class {cls.__name__} must set a name")
    if cls.name in _REGISTRY:
        raise ConfigError(f"backend {cls.name!r} is already registered")
    _REGISTRY[cls.name] = cls
    return cls


def unregister_backend(name: str) -> None:
    """Remove a backend (primarily for tests of custom registrations)."""
    _REGISTRY.pop(name, None)


def backend_names() -> tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_REGISTRY)


def resolve_backend(name: str) -> type[Backend]:
    """Look up a backend class; unknown names get an actionable error."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"backend must be one of {backend_names()}, got {name!r}"
        ) from None


def backend_capabilities(name: str) -> BackendCapabilities:
    return resolve_backend(name).capabilities


def create_backend(name: str, context: RuntimeContext) -> Backend:
    return resolve_backend(name)(context)


def describe_backends() -> list[tuple[str, str]]:
    """(name, one-line description) rows for help text and ``--list``."""
    return [(name, cls.capabilities.description) for name, cls in _REGISTRY.items()]


def comparison_backends() -> list[tuple[str, str]]:
    """(backend, system label) pairs for engine-comparison experiments."""
    return [
        (name, cls.capabilities.system_label or name)
        for name, cls in _REGISTRY.items()
        if cls.capabilities.compare_in_benchmarks
    ]


# -- built-in backends -------------------------------------------------------


@register_backend
class FPGAModelBackend(Backend):
    """Analytic performance model over functionally exact walks."""

    name = "fpga-model"
    capabilities = BackendCapabilities(
        description=(
            "analytic FPGA performance model over exact walks; "
            "graph-scale batches with query-sampled extrapolation (default)"
        ),
        system_label="LightRW",
        supports_query_sampling=True,
        supports_restart=True,
        supports_latency=True,
        deterministic_across_shards=True,
        thread_safe=True,
        process_safe=True,
        uses_pcie=True,
        compare_in_benchmarks=True,
    )

    def execute(self, plan: "ExecutionPlan", shard: "QueryShard") -> BackendReport:
        from repro.fpga.perfmodel import FPGAPerfModel
        from repro.walks.stepper import PWRSSampler, run_walks

        ctx = self.context
        with span("walk", backend=self.name):
            if plan.restart_alpha is not None:
                from repro.walks.ppr import run_restart_walks

                session = run_restart_walks(
                    ctx.graph,
                    shard.starts,
                    plan.n_steps,
                    alpha=plan.restart_alpha,
                    k=ctx.config.k,
                    seed=ctx.seed,
                    query_ids=shard.query_ids(),
                )
            else:
                sampler = PWRSSampler(k=ctx.config.k, seed=ctx.seed)
                session = run_walks(
                    ctx.graph,
                    shard.starts,
                    plan.n_steps,
                    plan.algorithm,
                    sampler,
                    query_ids=shard.query_ids(),
                )
        with span("perf-model", backend=self.name):
            model = FPGAPerfModel(ctx.config, plan.algorithm)
            native = model.evaluate(
                session,
                total_queries=shard.total_queries,
                record_latency=plan.record_latency,
            )
        return BackendReport(
            backend=self.name,
            paths=session.paths,
            lengths=session.lengths,
            total_steps=native.total_steps,
            kernel_s=native.kernel_s,
            breakdown=FPGAModelBreakdown(
                backend=self.name,
                kernel_s=native.kernel_s,
                total_steps=native.total_steps,
                num_queries=native.num_queries,
                detail=native,
            ),
            query_latency_s=(
                native.query_latency_seconds() if plan.record_latency else None
            ),
            session=session,
            walk_kernel=session.kernel,
            walk_kernel_fallback=session.kernel_fallback,
        )


@register_backend
class FPGACycleBackend(Backend):
    """Cycle-accurate simulator of the full accelerator pipeline."""

    name = "fpga-cycle"
    capabilities = BackendCapabilities(
        description=(
            "cycle-accurate pipeline simulator; ground truth, walks every "
            "query it is given (small batches only)"
        ),
        system_label="LightRW (cycle)",
        supports_query_sampling=False,
        supports_restart=False,
        supports_latency=True,
        deterministic_across_shards=True,
        # Fresh module/FIFO objects per run, but keep shard execution
        # sequential: simulated shards share no wall-clock benefit anyway.
        thread_safe=False,
        uses_pcie=True,
        max_batch_queries=4096,
        # The simulator models the streaming WRS pipeline only.
        supports_table_sampler=False,
    )

    def execute(self, plan: "ExecutionPlan", shard: "QueryShard") -> BackendReport:
        from repro.fpga.accelerator import LightRWAcceleratorSim

        ctx = self.context
        with span("cycle-sim", backend=self.name):
            sim = LightRWAcceleratorSim(
                ctx.graph, ctx.config, plan.algorithm, seed=ctx.seed
            )
            result = sim.run(
                shard.starts,
                plan.n_steps,
                max_cycles=plan.max_cycles,
                trace=plan.trace,
                query_ids=shard.query_ids(),
            )
        n_queries = shard.num_queries
        max_len = max((len(p) for p in result.paths.values()), default=1)
        paths = np.full((n_queries, max_len), -1, dtype=np.int64)
        lengths = np.zeros(n_queries, dtype=np.int64)
        for qid, path in result.paths.items():
            row = qid - shard.offset
            paths[row, : len(path)] = path
            lengths[row] = len(path) - 1
        latencies = np.array(
            [
                result.query_latency_cycles.get(shard.offset + row, 0)
                for row in range(n_queries)
            ],
            dtype=np.float64,
        ) / ctx.config.frequency_hz
        return BackendReport(
            backend=self.name,
            paths=paths,
            lengths=lengths,
            total_steps=result.total_steps,
            kernel_s=result.kernel_s,
            breakdown=FPGACycleBreakdown(
                backend=self.name,
                kernel_s=result.kernel_s,
                total_steps=result.total_steps,
                num_queries=n_queries,
                detail=result,
            ),
            query_latency_s=latencies,
        )


@register_backend
class CPUBaselineBackend(Backend):
    """Modeled ThunderRW staged-execution engine (the paper's baseline)."""

    name = "cpu-baseline"
    capabilities = BackendCapabilities(
        description=(
            "modeled ThunderRW CPU engine (staged execution, "
            "inverse-transform sampling); for comparisons"
        ),
        system_label="ThunderRW",
        supports_query_sampling=True,
        supports_restart=False,
        supports_latency=True,
        # The inverse-transform sampler also derives per-query lanes from
        # global ids, so CPU walks are shard-invariant too.
        deterministic_across_shards=True,
        thread_safe=True,
        process_safe=True,
        uses_pcie=False,
        compare_in_benchmarks=True,
    )

    def execute(self, plan: "ExecutionPlan", shard: "QueryShard") -> BackendReport:
        from repro.cpu.engine import ThunderRWEngine

        ctx = self.context
        with span("cpu-engine", backend=self.name):
            engine = ThunderRWEngine(ctx.graph, spec=ctx.cpu_spec, seed=ctx.seed)
            result = engine.run(
                shard.starts,
                plan.n_steps,
                plan.algorithm,
                total_queries=shard.total_queries,
                query_ids=shard.query_ids(),
            )
        timing = result.timing
        session = result.session
        return BackendReport(
            backend=self.name,
            paths=session.paths,
            lengths=session.lengths,
            total_steps=timing.total_steps,
            kernel_s=timing.exec_s,
            setup_s=timing.init_time_s,
            breakdown=CPUBaselineBreakdown(
                backend=self.name,
                kernel_s=timing.exec_s,
                total_steps=timing.total_steps,
                num_queries=timing.num_queries,
                setup_s=timing.init_time_s,
                detail=timing,
            ),
            query_latency_s=(
                timing.query_latency_s * ctx.cpu_spec.interleave_width
                if timing.query_latency_s is not None
                else None
            ),
            session=session,
            walk_kernel=session.kernel,
            walk_kernel_fallback=session.kernel_fallback,
        )
