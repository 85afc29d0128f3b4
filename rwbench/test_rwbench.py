"""Tests of the benchmark's own checks and tracer.

Run from the root of the checkout::

    python3 -m pytest rwbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from layertrace import LayerTracer, targets  # noqa: E402
from walkcheck import WalkChecker, WalkCheckError, walk_digest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro import LightRW, MetaPathWalk, Node2VecWalk, load_dataset, rmat_graph  # noqa: E402
from repro.walks.stepper import PWRSSampler, run_walks  # noqa: E402


def _retarget_last_step(graph, paths, lengths, n_steps):
    """Copy of ``paths`` where one full-length walk takes another legal last step."""
    paths = paths.copy()
    for q in np.flatnonzero(lengths == n_steps):
        before = paths[q, n_steps - 1]
        nbrs = np.unique(graph.neighbors(before))
        others = nbrs[nbrs != paths[q, n_steps]]
        if others.size:
            paths[q, n_steps] = others[0]
            return paths
    raise AssertionError("no walk can be retargeted")


@pytest.fixture(scope="module")
def rmat():
    return rmat_graph(10, edge_factor=8, seed=3)


@pytest.fixture(scope="module")
def n2v_batch(rmat):
    starts = np.flatnonzero(rmat.degrees > 0)[:64]
    session = run_walks(rmat, starts, 12, Node2VecWalk(2.0, 0.5), PWRSSampler(k=16, seed=5))
    return starts, session.paths, session.lengths


def test_digest_ignores_padding(n2v_batch):
    _, paths, lengths = n2v_batch
    padded = np.hstack([paths, np.full((paths.shape[0], 3), -1)])
    assert walk_digest(padded, lengths) == walk_digest(paths, lengths)


def test_checker_accepts_real_walks(rmat, n2v_batch):
    starts, paths, lengths = n2v_batch
    WalkChecker(rmat).check(starts, paths, lengths, 12)


@pytest.mark.parametrize("mutate", ["off_edge", "past_length", "early_stop", "bad_start"])
def test_checker_rejects_broken_walks(rmat, n2v_batch, mutate):
    starts, paths, lengths = n2v_batch
    paths, lengths = paths.copy(), lengths.copy()
    q = int(np.flatnonzero(lengths == 12)[0])
    if mutate == "off_edge":
        nbrs = set(rmat.neighbors(paths[q, 4]).tolist())
        paths[q, 5] = next(v for v in range(rmat.num_vertices) if v not in nbrs)
    elif mutate == "past_length":
        lengths[q] = 11
    elif mutate == "early_stop":
        paths[q, 12] = -1
        lengths[q] = 11
    else:
        paths[q, 0] = (paths[q, 0] + 1) % rmat.num_vertices
    with pytest.raises(WalkCheckError):
        WalkChecker(rmat).check(starts, paths, lengths, 12)


def test_checker_enforces_metapath_labels():
    graph = load_dataset("youtube", scale_divisor=1024, seed=2)
    schema = np.array([0, 1, 2, 3])
    starts = np.flatnonzero(graph.degrees > 0)[:128]
    session = run_walks(graph, starts, 5, MetaPathWalk(list(schema)), PWRSSampler(16, seed=2))
    checker = WalkChecker(graph)
    checker.check(starts, session.paths, session.lengths, 5, schema=schema)
    bad = session.paths.copy()
    q = int(np.flatnonzero(session.lengths >= 1)[0])
    wrong = np.flatnonzero(graph.vertex_labels != schema[1])
    bad[q, 1] = wrong[0]
    with pytest.raises(WalkCheckError):
        checker.check(starts, bad, session.lengths, 5, schema=schema)


def test_pinned_digest_rejects_a_perturbed_path():
    """A retargeted last step passes the graph checks; only the pin catches it."""
    wl = WORKLOADS["cycle-rmat12"](run.PIN_SEED)
    wl.build_inputs()
    wl.build_engine()
    wl.prepare_checks()
    out = wl.call()
    runner = run.Runner(wl)
    wl.call = lambda: out
    runner.warm_up()
    assert runner.correct

    out.paths = _retarget_last_step(wl.graph, out.paths, out.lengths, wl.n_steps)
    wl.check(out)  # still a legal walk
    runner = run.Runner(wl)
    runner.warm_up()
    assert not runner.correct
    assert runner.timed_call() is None and runner.failed == 1


def test_a_call_that_differs_from_the_first_counts_as_failed(rmat, n2v_batch):
    starts, paths, lengths = n2v_batch
    engine = LightRW(rmat, seed=5)
    wl = WORKLOADS["n2v-rmat16"](5)
    wl.graph, wl.starts, wl.engine, wl.n_steps = rmat, starts, engine, 12
    wl.prepare_checks()
    runner = run.Runner(wl)
    out = wl.call()
    wl.call = lambda: out
    runner.first_digest = wl.check(out)
    assert runner.timed_call() is not None
    out.paths = _retarget_last_step(rmat, out.paths, out.lengths, 12)
    assert runner.timed_call() is None
    assert (runner.attempted, runner.failed, runner.correct) == (2, 1, False)


def _originals() -> dict:
    """Every binding the tracer may patch: class attributes and module names."""
    out = {}
    for _, owner, attr, _ in targets():
        if isinstance(owner, type):
            out[owner, attr] = owner.__dict__[attr]
            continue
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "repro" and attr in vars(module):
                out[name, attr] = vars(module)[attr]
    return out


def test_tracer_accounts_for_the_call_and_restores_everything(rmat):
    from repro.obs import Observer, use_observer

    before = _originals()
    engine = LightRW(rmat, seed=1)
    starts = np.flatnonzero(rmat.degrees > 0)[:256]
    tracer = LayerTracer()
    obs = Observer()
    with tracer, use_observer(obs):
        t0 = run.time.perf_counter()
        engine.run(Node2VecWalk(2.0, 0.5), 20, starts=starts, shards=4, mode="thread",
                   workers=2)
        wall = run.time.perf_counter() - t0
    assert _originals() == before
    figures = tracer.figures(obs, wall)
    assert figures["obs.accounted_frac"] == pytest.approx(1.0, abs=0.03)
    assert figures["walks.membership_probes"] > 0
    assert figures["fpga.perfmodel.calls"] == 4
    layers = {s.layer for s in tracer.spans}
    assert {"core.api", "runtime.scheduler", "walks.stepper", "walks.select"} <= layers


def test_spec_names_every_metric_once_and_predicts_each():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert len(per_layer) == len(set(per_layer))
    predictions = json.loads((HERE / "predictions.json").read_text())
    predicted = [m for layer in predictions["layers"] for m in layer["metrics"]]
    assert sorted(predicted) == sorted(per_layer)
    assert set(predictions["dominant"]) == set(WORKLOADS)
