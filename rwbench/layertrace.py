"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public functions and methods at each layer
boundary of ``repro`` (the names :func:`targets` lists) for the duration of a
``with`` block and restores the originals on exit, so untraced calls pay
nothing.  Each wrapped call records a span; a layer's self time is its span
minus the spans nested inside it on the same thread.

Shards that run on pool threads are attributed to the call's wall clock in
proportion: each of ``n`` worker threads owns ``1/n`` of the scheduler's
wall time, and the scheduler keeps what the workers leave idle.  The
attributed self times of one call then sum to its wall time.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

#: Layer names whose self time is reported as ``<layer>.share``, with the
#: metric name used for it.
SHARE_METRICS = {
    "runtime.plan": "runtime.plan.share",
    "runtime.scheduler": "runtime.scheduler.share",
    "runtime.backends": "runtime.backends.share",
    "runtime.backends.merge": "runtime.backends.merge_share",
    "walks.stepper": "walks.stepper.expand_share",
    "walks.weights": "walks.weights_share",
    "walks.membership": "walks.membership_share",
    "walks.select": "walks.select_share",
    "fpga.perfmodel": "fpga.perfmodel.share",
    "fpga.cache": "fpga.cache.share",
    "fpga.burst": "fpga.burst.share",
    "fpga.sweep": "fpga.sweep.share",
    "fpga.resources": "fpga.resources.share",
    "cpu.costmodel": "cpu.costmodel.share",
    "fpga.sim": "fpga.sim.share",
}


@dataclass
class Span:
    layer: str
    start: float
    end: float
    self_s: float
    thread: int
    root: bool


def _count_walk(counts, args, kwargs, out) -> None:
    n_steps = args[2] if len(args) > 2 else kwargs["n_steps"]
    counts["walks.stepper.steps"] += int(out.lengths.sum())
    counts["walks.stepper.slots"] += int(out.starts.size) * int(n_steps)


def _count_weights(counts, args, kwargs, out) -> None:
    counts["walks.stepper.candidate_edges"] += int(np.size(out))


def _count_membership(counts, args, kwargs, out) -> None:
    counts["walks.membership_probes"] += int(np.size(out))


def _count_pwrs(counts, args, kwargs, out) -> None:
    counts["walks.rng_draws"] += int(np.size(args[2]))  # one lane draw per edge


def _count_inverse(counts, args, kwargs, out) -> None:
    counts["walks.rng_draws"] += int(np.size(out))  # one draw per query


def _count_perfmodel(counts, args, kwargs, out) -> None:
    session = args[1] if len(args) > 1 else kwargs["session"]
    counts["fpga.perfmodel.calls"] += 1
    counts["fpga.perfmodel.events"] += sum(r.n_queries for r in session.records)


def _count_cache(counts, args, kwargs, out) -> None:
    counts["fpga.cache.accesses"] += int(out.size)
    counts["fpga.cache.hits"] += int(np.count_nonzero(out))


def _count_burst(counts, args, kwargs, out) -> None:
    counts["fpga.burst.valid_bytes"] += int(out.valid_bytes.sum())
    counts["fpga.burst.loaded_bytes"] += int(out.loaded_bytes.sum())


def targets() -> list[tuple[str, object, str, object]]:
    """``(layer, owner, attribute, counter)`` for every wrapped boundary.

    ``owner`` is a class (the method is wrapped) or a function object
    (every ``repro`` module binding that name to it is wrapped, which
    covers ``from module import name`` copies).
    """
    from repro.core.api import LightRW
    from repro.cpu import costmodel
    from repro.fpga import burst, cache, perfmodel, resources, sweep
    from repro.fpga.accelerator import LightRWAcceleratorSim
    from repro.runtime import backends, plan, scheduler
    from repro.walks import base, stepper

    algorithms = []
    pending = [base.WalkAlgorithm]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "dynamic_weights" in cls.__dict__:
            algorithms.append(cls)

    out = [
        ("core.api", LightRW, "run", None),
        ("runtime.plan", plan.plan_run, "plan_run", None),
        ("runtime.scheduler", scheduler.BatchScheduler, "execute", None),
        ("runtime.backends.merge", backends.Backend, "merge", None),
        ("walks.stepper", stepper.run_walks, "run_walks", _count_walk),
        ("walks.membership", base.StepContext, "edges_exist", _count_membership),
        ("walks.select", stepper.PWRSSampler, "select", _count_pwrs),
        ("walks.select", stepper.InverseTransformSampler, "select", _count_inverse),
        ("fpga.perfmodel", perfmodel.FPGAPerfModel, "evaluate", _count_perfmodel),
        ("fpga.burst", burst.plan_bursts, "plan_bursts", _count_burst),
        ("fpga.sweep", sweep.sweep_design_space, "sweep_design_space", None),
        ("fpga.resources", resources.ResourceModel, "estimate", None),
        ("cpu.costmodel", costmodel.cpu_time_for_session, "cpu_time_for_session", None),
        ("fpga.sim", LightRWAcceleratorSim, "run", None),
    ]
    for name in ("fpga-model", "fpga-cycle", "cpu-baseline"):
        out.append(("runtime.backends", backends.resolve_backend(name), "execute", None))
    for fn in ("simulate_degree_aware", "simulate_direct_mapped", "simulate_lru",
               "simulate_fifo"):
        out.append(("fpga.cache", getattr(cache, fn), fn, _count_cache))
    for cls in algorithms:
        out.append(("walks.weights", cls, "dynamic_weights", _count_weights))
    return out


class LayerTracer:
    """Wraps the layer boundaries while active; collects spans and counts."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.caller = threading.get_ident()

    # -- install / restore ---------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        self.spans = []
        self.counts = defaultdict(float)
        self.caller = threading.get_ident()
        for layer, owner, attr, counter in targets():
            if isinstance(owner, type):
                self._patch(owner, attr, self._wrap(layer, owner.__dict__[attr], counter))
                continue
            wrapper = self._wrap(layer, owner, counter)
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "") or ""
                if name.split(".")[0] == "repro" and module.__dict__.get(attr) is owner:
                    self._patch(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, layer: str, func, counter):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [time.perf_counter(), 0.0]  # start, time of nested spans
            stack.append(frame)
            try:
                out = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                tracer.spans.append(
                    Span(layer, frame[0], end, dur - frame[1], threading.get_ident(),
                         not stack)
                )
            if counter is not None:
                with tracer._lock:
                    counter(tracer.counts, args, kwargs, out)
            return out

        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- one call ------------------------------------------------------------

    def attribute(self) -> tuple[dict[str, float], int]:
        """Wall-attributed self seconds per layer, and the pool width seen.

        Spans on threads other than the caller's are pool work: each of
        the ``n`` worker threads seen owns ``1/n`` of the wall clock, and
        the scheduler's self time is what its span has left after the
        workers' share.
        """
        own: defaultdict[str, float] = defaultdict(float)
        pooled: defaultdict[str, float] = defaultdict(float)
        workers = set()
        busy = 0.0
        for s in self.spans:
            if s.thread == self.caller:
                own[s.layer] += s.self_s
            else:
                workers.add(s.thread)
                pooled[s.layer] += s.self_s
                if s.root:
                    busy += s.end - s.start
        n = max(len(workers), 1)
        for layer, seconds in pooled.items():
            own[layer] += seconds / n
        if workers:
            own["runtime.scheduler"] -= busy / n
        return dict(own), n

    def inclusive(self, layer: str, workers: int = 1) -> float:
        """Wall-attributed seconds inside ``layer``'s spans."""
        return sum(
            (s.end - s.start) / (1 if s.thread == self.caller else workers)
            for s in self.spans
            if s.layer == layer
        )

    def figures(self, obs, wall: float) -> dict:
        """Per-layer figures of the last traced call of ``wall`` seconds.

        ``obs`` is the :class:`repro.obs.Observer` the call ran under; its
        counters supply retries, failed shards and FIFO stalls.
        """
        attributed, workers = self.attribute()
        out: dict = {
            metric: attributed.get(layer, 0.0) / wall for layer, metric in SHARE_METRICS.items()
        }
        run_s = self.inclusive("core.api")
        sched_s = self.inclusive("runtime.scheduler")
        busy = sum(s.end - s.start for s in self.spans if s.layer == "runtime.backends")
        c = self.counts
        out.update({
            "core.api.overhead_share": (run_s - sched_s) / wall if run_s else 0.0,
            "runtime.scheduler.shard_busy_share": busy / wall,
            "runtime.scheduler.parallel_eff": busy / (workers * sched_s) if sched_s else 0.0,
            "runtime.scheduler.retries": obs.metrics.total("run.retries"),
            "runtime.scheduler.failed_shards": obs.metrics.total("run.failed_shards"),
            "walks.stepper.share": self.inclusive("walks.stepper", workers) / wall,
            "walks.stepper.steps": c["walks.stepper.steps"],
            "walks.stepper.candidate_edges": c["walks.stepper.candidate_edges"],
            "walks.stepper.completion_ratio": _ratio(
                c["walks.stepper.steps"], c["walks.stepper.slots"]
            ),
            "walks.membership_probes": c["walks.membership_probes"],
            "walks.rng_draws": c["walks.rng_draws"],
            "fpga.perfmodel.calls": c["fpga.perfmodel.calls"],
            "fpga.perfmodel.events": c["fpga.perfmodel.events"],
            "fpga.cache.accesses": c["fpga.cache.accesses"],
            "fpga.cache.hit_ratio": _ratio(c["fpga.cache.hits"], c["fpga.cache.accesses"]),
            "fpga.burst.valid_ratio": _ratio(
                c["fpga.burst.valid_bytes"], c["fpga.burst.loaded_bytes"]
            ),
            "fpga.sim.fifo_stall_cycles": obs.metrics.total("pipeline.fifo_stall_cycles"),
            "fpga.sim.host_s": self.inclusive("fpga.sim"),
            "obs.accounted_frac": sum(attributed.values()) / wall,
        })
        groups: dict[str, float] = {}
        for layer, seconds in attributed.items():
            head = layer.split(".")[0]
            key = head if head in ("walks", "runtime") else layer
            groups[key] = groups.get(key, 0.0) + seconds / wall
        out["groups"] = groups
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
