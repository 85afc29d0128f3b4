"""The benchmark's four workloads.

Each workload builds its inputs from the seed (a graph and the query
starts), makes one user call per :meth:`Workload.call`, and checks that
call's output.  The program receives only the generated graph and starts.
Sizes are chosen so that one call takes about a second or more on a 2-core
host: shorter calls were dominated by run-to-run host noise.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from walkcheck import WalkChecker, WalkCheckError, walk_digest


def _starts(graph, count: int, seed: int) -> np.ndarray:
    """``count`` distinct start vertices with out-edges, drawn from ``seed``."""
    walkable = np.flatnonzero(np.asarray(graph.degrees) > 0)
    rng = np.random.default_rng([seed, 0x5EED])
    return np.sort(rng.choice(walkable, size=min(count, walkable.size), replace=False))


class Workload:
    """One set of inputs and the user call the benchmark times on them."""

    name = ""
    why = ""

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def build_inputs(self) -> None:
        """Generate the graph and the starts (part of set-up)."""
        raise NotImplementedError

    def build_engine(self) -> None:
        """Construct the engine the calls go through (part of set-up)."""

    def prepare_checks(self) -> None:
        """Build what :meth:`check` needs; untimed, after set-up."""

    def call(self):
        """One closed-loop user call; returns its output."""
        raise NotImplementedError

    def steps(self, out) -> int:
        """Functional walk steps the call actually walked."""
        raise NotImplementedError

    def check(self, out) -> str:
        """Raise :class:`WalkCheckError` on a wrong output; return its digest."""
        raise NotImplementedError

    def pin_digest(self, out, digest: str) -> str:
        """The digest ``pins.json`` pins: by default, the call's walk digest."""
        return digest

    def exact_metrics(self, out) -> dict[str, float]:
        """Per-layer figures read exactly from one call's output."""
        return {}


class _FacadeWalk(Workload):
    """A ``LightRW.run`` call over an RMAT graph."""

    backend = ""
    scale = 16
    queries = 0
    n_steps = 0
    run_kwargs: dict = {}

    def algorithm(self):
        raise NotImplementedError

    def build_inputs(self) -> None:
        from repro import rmat_graph

        self.graph = rmat_graph(self.scale, edge_factor=8, seed=self.seed)
        self.starts = _starts(self.graph, self.queries, self.seed)

    def build_engine(self) -> None:
        from repro import LightRW

        self.engine = LightRW(self.graph, backend=self.backend, seed=self.seed)

    def call(self):
        return self.engine.run(
            self.algorithm(), self.n_steps, starts=self.starts, **self.run_kwargs
        )

    def steps(self, out) -> int:
        return int(np.asarray(out.lengths).sum())

    def prepare_checks(self) -> None:
        self.checker = WalkChecker(self.graph)

    def check(self, out) -> str:
        if out.failures:
            raise WalkCheckError(f"{len(out.failures)} shard(s) failed")
        self.checker.check(self.starts, out.paths, out.lengths, self.n_steps)
        return walk_digest(out.paths, out.lengths)


class Node2VecModel(_FacadeWalk):
    name = "n2v-rmat16"
    why = (
        "fpga-model Node2Vec on RMAT-16: the functional walk (membership and PWRS "
        "select) dominates, and the only row whose scheduler runs shards in parallel"
    )
    backend = "fpga-model"
    queries = 2048
    n_steps = 80
    run_kwargs = {"shards": 4, "mode": "thread", "workers": 2}

    def algorithm(self):
        from repro import Node2VecWalk

        return Node2VecWalk(p=2.0, q=0.5)

    def exact_metrics(self, out) -> dict[str, float]:
        return {"fpga.perfmodel.modeled_steps_per_s": out.steps_per_second}


class Node2VecCPU(Node2VecModel):
    name = "cpu-n2v-rmat16"
    why = (
        "cpu-baseline (ThunderRW) Node2Vec on the same graph: the same walk layer "
        "with inverse-transform sampling and the CPU cost model, sequential"
    )
    backend = "cpu-baseline"
    queries = 1024
    run_kwargs = {}

    def exact_metrics(self, out) -> dict[str, float]:
        return {"cpu.costmodel.modeled_steps_per_s": out.steps_per_second}


class CycleUniform(_FacadeWalk):
    name = "cycle-rmat12"
    why = (
        "fpga-cycle uniform walk on RMAT-12: the call is the cycle simulator "
        "ticking its modules, a layer no other row measures"
    )
    backend = "fpga-cycle"
    scale = 12
    queries = 128
    n_steps = 16

    def algorithm(self):
        from repro import UniformWalk

        return UniformWalk()

    def exact_metrics(self, out) -> dict[str, float]:
        """Cycle counts, and the analytic model's kernel cycles relative to them.

        The ratio compares the two in-repo models only; the repo holds no
        U250 measurements, so neither is validated against hardware.
        """
        from repro import LightRW

        model = LightRW(self.graph, backend="fpga-model", seed=self.seed).run(
            self.algorithm(), self.n_steps, starts=self.starts
        )
        if walk_digest(model.paths, model.lengths) != walk_digest(out.paths, out.lengths):
            raise WalkCheckError("fpga-model and fpga-cycle walked different paths")
        return {
            "fpga.sim.cycles": float(out.breakdown.detail.cycles),
            "fpga.perfmodel.cycle_ratio": model.kernel_s / out.kernel_s,
        }


class DesignSweep(Workload):
    name = "dse-youtube"
    why = (
        "design-space sweep (96 configs) over MetaPath walks on the youtube stand-in: "
        "the cost model and cache simulation dominate, with no membership probes"
    )
    divisor = 64
    queries = 8192
    n_steps = 5
    schema = (0, 1, 2, 3)

    def build_inputs(self) -> None:
        """The repo's youtube stand-in graph (fixed), with seeded starts.

        Chung-Lu stand-ins drawn from other seeds differ in their hubs
        enough to move the walk's peak memory by 15%; the named stand-in
        keeps the graph one dataset and lets the seed pick the queries.
        """
        from repro import load_dataset

        self.graph = load_dataset("youtube", scale_divisor=self.divisor)
        self.starts = _starts(self.graph, self.queries, self.seed)

    def algorithm(self):
        from repro import MetaPathWalk

        return MetaPathWalk(list(self.schema))

    def call(self):
        from repro.fpga import sweep

        points, _frontier = sweep.sweep_design_space(
            self.graph,
            self.algorithm(),
            "metapath",
            self.n_steps,
            self.starts,
            hardware_scale=self.divisor,
            seed=self.seed,
        )
        return points

    def prepare_checks(self) -> None:
        """Re-walk, check and digest the sessions the sweep evaluates.

        The sweep walks once per grid ``k`` and returns only design
        points, so its walks are repeated here, once per run, with the
        sweep's own arguments; only their step count and digest are kept.
        """
        from repro.fpga.sweep import default_grid
        from repro.walks.stepper import PWRSSampler, run_walks

        checker = WalkChecker(self.graph)
        self.walked_steps = 0
        digests = []
        for k in default_grid()["k"]:
            session = run_walks(
                self.graph, self.starts, self.n_steps, self.algorithm(),
                PWRSSampler(k=k, seed=self.seed),
            )
            checker.check(
                self.starts, session.paths, session.lengths, self.n_steps,
                schema=np.asarray(self.schema),
            )
            self.walked_steps += session.total_steps
            digests.append(f"{k}:{walk_digest(session.paths, session.lengths)}")
        self.walk_digest = hashlib.sha256(",".join(digests).encode()).hexdigest()

    def steps(self, out) -> int:
        return self.walked_steps

    def check(self, out) -> str:
        """Points cover the grid once each with finite figures; digest them."""
        from repro.fpga.sweep import default_grid

        grid = default_grid()
        expected = math.prod(len(v) for v in grid.values())
        labels = {p.label for p in out}
        if len(out) != expected or len(labels) != expected:
            raise WalkCheckError(f"{len(out)} points for a {expected}-point grid")
        for p in out:
            ok = (
                math.isfinite(p.steps_per_second)
                and p.steps_per_second > 0
                and math.isfinite(p.peak_utilization)
                and p.fits == (p.peak_utilization <= 1.0)
            )
            if not ok:
                raise WalkCheckError(f"bad design point {p.label}")
        rows = sorted(
            (p.label, repr(p.steps_per_second), p.bottleneck, repr(p.peak_utilization))
            for p in out
        )
        return hashlib.sha256(repr(rows).encode()).hexdigest()

    def pin_digest(self, out, digest: str) -> str:
        """The swept walks' digest, in ``k`` order.

        Modeled figures are left out of the pin so that a fix to the cost
        model is not read as a wrong output.
        """
        return self.walk_digest

    def exact_metrics(self, out) -> dict[str, float]:
        return {
            "fpga.sweep.points": float(len(out)),
            "fpga.perfmodel.modeled_steps_per_s": max(p.steps_per_second for p in out),
        }


WORKLOADS = {w.name: w for w in (Node2VecModel, Node2VecCPU, DesignSweep, CycleUniform)}
