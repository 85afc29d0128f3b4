"""LightRW reproduction benchmark: one workload, one closed-loop caller.

Run from the root of a source checkout::

    python3 rwbench/run.py --workload n2v-rmat16 --seed 1 --seconds 25 --trace 0

The workload's inputs (graph and query starts) are generated from
``--seed``.  After set-up and one untimed warm-up call, the benchmark makes
one call at a time for ``--seconds`` seconds, checks every call's output
(see ``walkcheck.py``) and prints, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` from
untraced calls.  Their call timings are scaled to a reference host speed:
a fixed calibration kernel is timed after every call, and the run's median
call time is multiplied by ``CALIB_REF_S`` over the kernel's median time
(see :class:`Calibration`).  ``--trace 1`` alternates untraced and traced
calls and reports the per-layer metrics: each layer's self time as a share
of the traced call, work counts, and exact modeled figures
(``predictions.json`` says which end-to-end metric each should move).
Lines before the JSON start with ``#`` and are diagnostics.

Set-up is timed from a fresh interpreter: ``import repro``, building the
inputs and constructing the engine.  It is sampled in this process and in
``SETUP_SAMPLES - 1`` child interpreters, and the median is reported.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: Seed at which ``pins.json`` pins each workload's walk digest.
PIN_SEED = 1
#: Fresh-interpreter set-up samples per untraced run (this process included).
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 60
#: Median time of one :class:`Calibration` sample on an idle host: a
#: 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest, Python 3.11, numpy 2.4.
CALIB_REF_S = 0.0125


def _setup(workload: str, seed: int):
    """Import the program, build the inputs and the engine; time each part."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import repro

    t1 = time.perf_counter()
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: repro was imported from {repro.__file__}, not {SRC}")
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed)
    t2 = time.perf_counter()
    wl.build_inputs()
    t3 = time.perf_counter()
    wl.build_engine()
    t4 = time.perf_counter()
    return wl, {"import_s": t1 - t0, "inputs_s": t3 - t2, "setup_s": t4 - t0}


def _probe_setup(args) -> float:
    """Set-up seconds measured in a child interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class Calibration:
    """A fixed numpy gather-and-sort kernel; its time tracks host speed.

    On a shared host, other tenants slow every call by up to 2x for
    minutes at a time, far beyond the benchmark's bounds; the kernel slows
    with them.  The end-to-end call timings are scaled by ``CALIB_REF_S``
    over the kernel's median time in the same run, which cancels most of
    that.  The kernel is independent of the program, so a change to the
    program moves the scaled timings exactly as it moves the raw ones.

    It works in preallocated buffers so that its time does not depend on
    the allocator state the workload left behind.
    """

    def __init__(self) -> None:
        # Imported here: at module level it would leave the timed set-up.
        import numpy as np

        rng = np.random.default_rng(20231017)
        self.np = np
        self.values = rng.random(1 << 18)
        self.index = rng.integers(0, self.values.size, self.values.size)
        self.buffer = np.empty_like(self.values)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(4):
            self.np.take(self.values, self.index, out=self.buffer)
            self.buffer.sort()
        return time.perf_counter() - t0


class Runner:
    """Makes and checks the calls of one run."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.first_digest: str | None = None
        #: Why every call's output is wrong, when the first call shows it.
        self.wrong: str | None = None

    def warm_up(self):
        """The untimed first call: ``(out, wall_s)``.

        Its digest is the run's reference, checked against ``pins.json`` at
        the pinned seed.  If it fails, every later call fails too.
        """
        t0 = time.perf_counter()
        try:
            self.wl.prepare_checks()
            t0 = time.perf_counter()
            out = self.wl.call()
            wall = time.perf_counter() - t0
            self.first_digest = self.wl.check(out)
            pinned = self.wl.pin_digest(out, self.first_digest)
        except Exception:  # noqa: BLE001 - reported as an incorrect run
            traceback.print_exc()
            self.correct = False
            self.wrong = "the warm-up call failed"
            return None, time.perf_counter() - t0
        if self.wl.seed == PIN_SEED:
            pins = json.loads((HERE / "pins.json").read_text())
            if pins.get(self.wl.name) != pinned:
                self.correct = False
                self.wrong = f"walk digest {pinned} differs from pins.json"
                print(f"# {self.wrong}")
        return out, wall

    def timed_call(self, scope=contextlib.nullcontext):
        """One checked call inside ``scope()``: ``(out, wall_s, cpu_s)``, or
        ``None`` when it raised or failed its check."""
        self.attempted += 1
        try:
            with scope():
                c0 = time.process_time()
                t0 = time.perf_counter()
                out = self.wl.call()
                wall = time.perf_counter() - t0
                cpu = time.process_time() - c0
            if self.wl.check(out) != self.first_digest:
                raise AssertionError("output digest differs from the first call's")
            if self.wrong:
                raise AssertionError(self.wrong)
        except Exception:  # noqa: BLE001 - a failed call is counted, not fatal
            traceback.print_exc()
            self.failed += 1
            self.correct = False
            return None
        return out, wall, cpu


class Budget:
    """Spends about ``seconds`` on a run's loop.

    Another iteration starts only if, at the pace of the last one, it ends
    less than half an iteration past the budget; the first always starts.
    """

    def __init__(self, seconds: float) -> None:
        self.mark = time.perf_counter()
        self.end = self.mark + seconds
        self.started = False

    def more(self) -> bool:
        now = time.perf_counter()
        step, self.mark = now - self.mark, now
        if not self.started:
            self.started = True
            return True
        return now + step / 2 < self.end


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def run_untraced(args, wl, setup) -> tuple[Runner, dict[str, float]]:
    setups = [setup["setup_s"]] + [_probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    runner = Runner(wl)
    runner.warm_up()
    calib = Calibration()
    walls, rates, cpus, calibs = [], [], [], []
    budget = Budget(args.seconds)
    while budget.more():
        done = runner.timed_call()
        calibs.append(calib())
        if done is None:
            continue
        out, wall, cpu = done
        walls.append(wall)
        cpus.append(cpu)
        rates.append(wl.steps(out) / wall)
    # Host speed relative to the reference: below 1 in a slow phase.
    speed = CALIB_REF_S / _median(calibs)
    print(
        f"# {wl.name} seed={wl.seed}: {len(walls)} timed calls, run_s "
        f"p50={_median(walls):.4f} min={min(walls, default=0):.4f} "
        f"max={max(walls, default=0):.4f}; host_steps_per_s p50={_median(rates):.1f}; "
        f"cpu_s p50={_median(cpus):.4f}; host.calib_s p50={_median(calibs):.5f} "
        f"(speed {speed:.3f}); setup_s samples="
        + ",".join(f"{s:.3f}" for s in setups)
    )
    return runner, {
        "host_steps_per_s_norm": _median(rates) / speed,
        "run_s_p50_norm": _median(walls) * speed,
        "setup_s": _median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
    }


def run_traced(args, wl, setup) -> tuple[Runner, dict[str, float]]:
    from layertrace import LayerTracer
    from repro.obs import Observer, use_observer

    runner = Runner(wl)
    first, warm_s = runner.warm_up()
    exact = {}
    try:
        exact = wl.exact_metrics(first) if first is not None else {}
    except Exception:  # noqa: BLE001 - reported as an incorrect run
        traceback.print_exc()
        runner.correct = False
    calib = Calibration()
    tracer = LayerTracer()
    untraced, traced, cpu_ratio, calibs, per_call, groups = [], [], [], [], [], []

    @contextlib.contextmanager
    def traced_scope(obs):
        with tracer, use_observer(obs):
            yield

    budget = Budget(args.seconds)
    while budget.more():
        done = runner.timed_call()
        if done is not None:
            untraced.append(done[1])
            cpu_ratio.append(done[2] / done[1])
        calibs.append(calib())
        obs = Observer()
        done = runner.timed_call(lambda: traced_scope(obs))
        if done is not None:
            traced.append(done[1])
            figures = tracer.figures(obs, done[1])
            groups.append(figures.pop("groups"))
            per_call.append(figures)

    metrics = {
        name: _median([f[name] for f in per_call]) for name in (per_call[0] if per_call else {})
    }
    sim_s = metrics.pop("fpga.sim.host_s", 0.0)
    metrics.update(exact)
    metrics.update({
        "setup.import_s": setup["import_s"],
        "setup.warmup_s": warm_s,
        "graph.build_s": setup["inputs_s"],
        "graph.edges": float(wl.graph.num_edges),
        "fpga.sim.cycles_per_s": exact.get("fpga.sim.cycles", 0.0) / sim_s if sim_s else 0.0,
        "obs.trace_overhead_frac": (
            _median(traced) / _median(untraced) - 1.0 if untraced and traced else 0.0
        ),
        "obs.traced_call_s": _median(traced),
        "host.calib_s": _median(calibs),
        "host.cpu_per_wall": _median(cpu_ratio),
    })
    groups = {key: _median([g.get(key, 0.0) for g in groups]) for key in set().union(*groups)}
    _report_dominance(wl.name, groups)
    print(f"# {wl.name}: {len(per_call)} traced calls; accounted share per call "
          + ",".join(f"{f['obs.accounted_frac']:.3f}" for f in per_call))
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{wl.name}-seed{wl.seed}-trace.json").write_text(json.dumps(
        {"groups": groups, "last_call_spans": [s.__dict__ for s in tracer.spans]}, indent=1
    ))
    return runner, metrics


def _report_dominance(workload: str, shares: dict[str, float]) -> None:
    """Print the self-time share of each layer group against the prediction."""
    predicted = json.loads((HERE / "predictions.json").read_text())["dominant"][workload]
    for key, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"#   {key:24s} {share:7.1%}")
    together = sum(shares.get(k, 0.0) for k in predicted)
    others = max((v for k, v in shares.items() if k not in predicted), default=0.0)
    verdict = "as predicted" if together > others else "NOT as predicted"
    print(f"# dominant: {' + '.join(predicted)} at {together:.1%} "
          f"(largest other {others:.1%}): {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))

    wl, setup = _setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps(setup))
        return 0
    runner, metrics = (run_traced if args.trace else run_untraced)(args, wl, setup)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
