"""The fused C step kernel against the numpy walk path it must reproduce bit for bit.

The numpy path (the vectorized expand / weights / select passes) is the
oracle: every test here walks the same inputs through both and requires
identical paths, lengths, sampler counters and step records.  The numpy
path is forced by swapping the kernel loader for one that never loads.
"""

from __future__ import annotations

import contextlib
import logging
import os
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import LightRW
from repro.artifacts import checksum_hex
from repro.graph.builders import from_edge_list
from repro.walks import (
    MetaPathWalk,
    Node2VecWalk,
    PWRSSampler,
    RestartWalk,
    StaticWalk,
    UniformWalk,
    kernel,
    quantize_weights,
    run_restart_walks,
    run_walks,
    walk_single_query,
)
from repro.walks.base import StepContext
from tests import test_golden as golden_tests
from tests import test_stepper as stepper_tests

RECORD_FIELDS = ("step", "query_ids", "curr", "degrees", "prev", "prev_degrees", "next_vertex")


class _NoKernel:
    """A loader that never loads: walks take the numpy path."""

    fallback_reason = "numpy path forced"

    def load(self):
        return None


@contextlib.contextmanager
def _numpy_path():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "_LOADER", _NoKernel())
        yield


@pytest.fixture
def numpy_walks():
    with _numpy_path():
        yield


@pytest.fixture(scope="module", autouse=True)
def c_kernel():
    if kernel.load_kernel() is None:
        pytest.skip(f"C step kernel unavailable: {kernel.fallback_reason()}")


def _walk(graph, starts, n_steps, algorithm, k, seed, query_ids=None):
    sampler = PWRSSampler(k=k, seed=seed)
    session = run_walks(graph, starts, n_steps, algorithm, sampler, query_ids=query_ids)
    return session, sampler


def _assert_same_walks(graph, starts, n_steps, algorithm, k, seed, query_ids=None):
    c, c_sampler = _walk(graph, starts, n_steps, algorithm, k, seed, query_ids)
    with _numpy_path():
        ref, ref_sampler = _walk(graph, starts, n_steps, algorithm, k, seed, query_ids)
    assert (c.kernel, ref.kernel) == ("c", "numpy")
    np.testing.assert_array_equal(c.paths, ref.paths)
    np.testing.assert_array_equal(c.lengths, ref.lengths)
    np.testing.assert_array_equal(c_sampler._counters, ref_sampler._counters)
    assert len(c.records) == len(ref.records)
    for a, b in zip(c.records, ref.records):
        for name in RECORD_FIELDS:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
    return c


@st.composite
def graphs(draw):
    """Small multigraphs with sinks, optional weights (zeros included) and labels."""
    n = draw(st.integers(2, 20))
    m = draw(st.integers(1, 70))
    edges = np.array(
        draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                      min_size=m, max_size=m)),
        dtype=np.int64,
    )
    weights = None
    if draw(st.booleans()):
        weights = np.array(
            draw(st.lists(
                st.one_of(st.sampled_from([0.0, 0.001, 1.0, 3.5]),
                          st.floats(0.0, 8.0, width=32)),
                min_size=m, max_size=m,
            )),
            dtype=np.float32,
        )
    vertex_labels = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    edge_labels = np.array(draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)))
    return from_edge_list(
        edges, num_vertices=n, weights=weights,
        edge_labels=edge_labels, vertex_labels=vertex_labels,
    )


ALGORITHMS = st.one_of(
    st.just(UniformWalk()),
    st.just(StaticWalk()),
    st.just(RestartWalk(0.3)),
    st.builds(Node2VecWalk, p=st.floats(0.05, 5.0), q=st.floats(0.05, 5.0)),
    st.builds(
        MetaPathWalk,
        schema=st.lists(st.integers(0, 2), min_size=1, max_size=4),
        match=st.sampled_from(["vertex", "edge"]),
        weighted=st.booleans(),
    ),
)
K_VALUES = st.sampled_from([1, 2, 3, 16, 32])


class TestDifferential:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graph=graphs(), algorithm=ALGORITHMS, k=K_VALUES,
           seed=st.integers(0, 2**64 - 1), n_steps=st.integers(0, 7))
    def test_every_builtin_algorithm(self, graph, algorithm, k, seed, n_steps):
        assume(not (algorithm.requires_edge_weights and graph.edge_weights is None))
        starts = np.arange(graph.num_vertices, dtype=np.int64)
        _assert_same_walks(graph, starts, n_steps, algorithm, k, seed)

    @settings(max_examples=40, deadline=None)
    @given(graph=graphs(), k=K_VALUES, offset=st.integers(0, 10**6))
    def test_global_query_ids(self, graph, k, offset):
        starts = np.arange(graph.num_vertices, dtype=np.int64)[::-1].copy()
        query_ids = offset + np.arange(starts.size, dtype=np.int64) * 7
        _assert_same_walks(graph, starts, 5, Node2VecWalk(0.5, 2.0), k, 9, query_ids)

    def test_all_zero_weight_dead_ends_and_sinks(self):
        # 0 -> {1, 2} weigh zero (a dead end); 3 is a sink; 4 -> 3 is live.
        edges = np.array([[0, 1], [0, 2], [1, 0], [2, 4], [4, 3]])
        weights = np.array([0.0, 0.0, 1.0, 2.0, 1.0], dtype=np.float32)
        graph = from_edge_list(edges, num_vertices=5, weights=weights)
        starts = np.array([0, 1, 2, 3, 4])
        session = _assert_same_walks(graph, starts, 4, StaticWalk(), 2, 5)
        assert session.lengths.tolist() == [0, 1, 2, 0, 1]

    @pytest.mark.parametrize("algorithm", [StaticWalk(), Node2VecWalk(0.5, 0.25)],
                             ids=["static", "node2vec"])
    def test_running_sum_beyond_32_bits(self, algorithm):
        # A 96-edge hub with weights of 2e6 (5.1e8 in fixed point): the
        # running sum passes 2^32 by the ninth edge.
        n = 100
        edges = np.array([[0, v] for v in range(1, 97)] + [[v, 0] for v in range(1, 97)]
                         + [[v, v % 96 + 1] for v in range(1, 97)])
        weights = np.full(len(edges), 2.0e6, dtype=np.float32)
        graph = from_edge_list(edges, num_vertices=n, weights=weights)
        assert int(quantize_weights(graph.neighbor_weights(0)).sum()) > 2**32
        starts = np.array([0, 0, 0, 5, 17, 0, 0, 0])
        session = _assert_same_walks(graph, starts, 6, algorithm, 16, 77)
        for q in (0, 3):
            expected = walk_single_query(graph, int(starts[q]), 6, algorithm, k=16,
                                         seed=77, query_id=q)
            np.testing.assert_array_equal(session.path(q), expected)

    @settings(max_examples=40, deadline=None)
    @given(graph=graphs(), alpha=st.sampled_from([0.0, 0.2, 0.7]), k=K_VALUES)
    def test_restart_walks(self, graph, alpha, k):
        starts = np.arange(graph.num_vertices, dtype=np.int64)
        c = run_restart_walks(graph, starts, 6, alpha=alpha, k=k, seed=3)
        with _numpy_path():
            ref = run_restart_walks(graph, starts, 6, alpha=alpha, k=k, seed=3)
        assert (c.kernel, ref.kernel) == ("c", "numpy")
        np.testing.assert_array_equal(c.paths, ref.paths)
        for a, b in zip(c.records, ref.records):
            np.testing.assert_array_equal(a.next_vertex, b.next_vertex)

    def test_subclass_takes_the_numpy_path(self, labeled_graph):
        class Doubled(UniformWalk):
            def dynamic_weights(self, ctx):
                return 2.0 * super().dynamic_weights(ctx)

        session, _ = _walk(labeled_graph, np.arange(8), 3, Doubled(), 4, 1)
        assert session.kernel == "numpy"
        assert "Doubled" in session.kernel_fallback


class TestEdgesExist:
    @settings(max_examples=80, deadline=None)
    @given(graph=graphs(), data=st.data())
    def test_matches_the_global_search(self, graph, data):
        n = graph.num_vertices
        # Out-of-range endpoints too: u * n + v must not alias another row's edge.
        endpoint = st.one_of(st.integers(0, n - 1), st.integers(-3 * n, 3 * n))
        pairs = data.draw(st.lists(st.tuples(endpoint, endpoint), max_size=60))
        sources = np.array([u for u, _ in pairs], dtype=np.int64)
        targets = np.array([v for _, v in pairs], dtype=np.int64)
        ctx = StepContext(
            graph=graph, step=0, curr=np.zeros(0), prev=np.zeros(0), degrees=np.zeros(0),
            seg_starts=np.zeros(0), edge_query=np.zeros(0), dst=np.zeros(0),
            static_weights=np.zeros(0), edge_positions=np.zeros(0),
            edge_keys_sorted=graph.edge_keys(),
        )
        found = ctx.edges_exist(sources, targets)
        with _numpy_path():
            expected = ctx.edges_exist(sources, targets)
        np.testing.assert_array_equal(found, expected)
        assert found.tolist() == [
            0 <= u < n and 0 <= v < n and graph.has_edge(u, v) for u, v in pairs
        ]


class TestParity:
    @pytest.mark.parametrize("backend", ["fpga-model", "cpu-baseline"])
    def test_shard_layouts_modes_and_paths_agree(self, labeled_graph, backend):
        engine = LightRW(labeled_graph, backend=backend, seed=21)
        starts = labeled_graph.nonzero_degree_vertices()[:96]
        algorithm = Node2VecWalk(2.0, 0.5)
        one = engine.run(algorithm, 10, starts=starts)
        threaded = engine.run(algorithm, 10, starts=starts, shards=5, mode="thread",
                              workers=3)
        with _numpy_path():
            reference = engine.run(algorithm, 10, starts=starts, shards=5, mode="thread",
                                   workers=3)
        expected = "c" if backend == "fpga-model" else "numpy"
        assert one.manifest.walk_kernel == threaded.manifest.walk_kernel == expected
        assert reference.manifest.walk_kernel == "numpy"
        for result in (threaded, reference):
            np.testing.assert_array_equal(result.paths, one.paths)
            np.testing.assert_array_equal(result.lengths, one.lengths)
        # Same walks and the same shard layout: the same modeled time.
        assert reference.kernel_s == threaded.kernel_s


@pytest.mark.usefixtures("numpy_walks")
class TestGoldenWalksNumpy(golden_tests.TestGoldenWalks):
    """The pinned golden walks, on the numpy path."""


golden_graph = golden_tests.golden_graph


@pytest.mark.usefixtures("numpy_walks")
class TestGoldenEquivalenceNumpy(stepper_tests.TestGoldenEquivalence):
    """run_walks against walk_single_query, on the numpy path."""


class TestKernelCache:
    def test_racing_first_builds_compile_once(self, tmp_path, monkeypatch):
        loaders = [kernel.KernelLoader(cache_dirs=(tmp_path,)) for _ in range(2)]
        builds = []
        real_build = kernel.KernelLoader._build

        def counting_build(self, path):
            builds.append(path)
            real_build(self, path)

        monkeypatch.setattr(kernel.KernelLoader, "_build", counting_build)
        barrier = threading.Barrier(4)
        results = []

        def first_walk(loader):
            barrier.wait(timeout=30)
            results.append(loader.load())

        threads = [threading.Thread(target=first_walk, args=(loaders[i % 2],))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert len(results) == 4 and all(lib is not None for lib in results)
        assert len(builds) == 1
        assert sorted(p.name for p in tmp_path.iterdir() if not p.name.startswith(".")) == [
            builds[0].name, builds[0].name + ".sha256"
        ]

    def test_truncated_library_is_rebuilt(self, tmp_path):
        first = kernel.KernelLoader(cache_dirs=(tmp_path,))
        assert first.load() is not None and first.build_s > 0
        library = first.path
        intact = library.read_bytes()
        # Replace (not truncate in place): this process still maps the original.
        damaged = tmp_path / "damaged"
        damaged.write_bytes(intact[: len(intact) // 2])
        damaged.replace(library)

        second = kernel.KernelLoader(cache_dirs=(tmp_path,))
        assert second.load() is not None
        assert second.build_s > 0, "the damaged library was loaded instead of rebuilt"
        assert library.stat().st_size == len(intact)
        assert (library.with_name(library.name + ".sha256").read_text().strip()
                == checksum_hex(library.read_bytes()))

        third = kernel.KernelLoader(cache_dirs=(tmp_path,))
        assert third.load() is not None and third.build_s == 0

    def test_unwritable_first_directory_falls_through(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        loader = kernel.KernelLoader(cache_dirs=(blocker / "cache", tmp_path / "ok"))
        assert loader.load() is not None
        assert loader.path.parent == tmp_path / "ok"

    @pytest.mark.parametrize("plant", ["group_writable", "symlink", "foreign_owner"])
    def test_directory_others_could_write_is_skipped(self, tmp_path, monkeypatch, plant):
        shared = tmp_path / "shared"
        if plant == "group_writable":
            shared.mkdir()
            shared.chmod(0o777)
        elif plant == "symlink":
            (tmp_path / "elsewhere").mkdir()
            shared.symlink_to(tmp_path / "elsewhere")
        else:
            shared.mkdir()
            uid = os.geteuid()
            monkeypatch.setattr(kernel.os, "geteuid", lambda: uid + 1)
        loader = kernel.KernelLoader(cache_dirs=(shared,))
        assert loader.load() is None
        assert "not a private directory" in loader.fallback_reason
        assert not any(p.suffix == ".so" for p in tmp_path.rglob("*"))

    def test_fresh_cache_directory_is_private(self, tmp_path):
        loader = kernel.KernelLoader(cache_dirs=(tmp_path / "fresh",))
        assert loader.load() is not None
        assert (tmp_path / "fresh").stat().st_mode & 0o077 == 0


class TestFailedBuild:
    def test_numpy_fallback_is_identical_and_named(self, labeled_graph, tmp_path,
                                                   monkeypatch, caplog):
        engine = LightRW(labeled_graph, seed=4)
        starts = labeled_graph.nonzero_degree_vertices()[:40]
        with_c = engine.run(Node2VecWalk(), 6, starts=starts, shards=2)
        assert with_c.manifest.walk_kernel == "c"

        broken = tmp_path / "broken.c"
        broken.write_text("int lrw_broken(void) { return 1 }\n")
        monkeypatch.setattr(kernel, "_LOADER",
                            kernel.KernelLoader(source=broken, cache_dirs=(tmp_path,)))
        with caplog.at_level(logging.WARNING, logger="repro.walks.kernel"):
            fallback = engine.run(Node2VecWalk(), 6, starts=starts, shards=2)
            again = engine.run(Node2VecWalk(), 6, starts=starts, shards=2,
                               mode="thread")
        warnings = [r for r in caplog.records if r.name == "repro.walks.kernel"]
        assert len(warnings) == 1
        assert "error" in warnings[0].getMessage()
        for result in (fallback, again):
            assert result.manifest.walk_kernel == "numpy"
            assert "exited with" in result.manifest.walk_kernel_fallback
            np.testing.assert_array_equal(result.paths, with_c.paths)
            np.testing.assert_array_equal(result.lengths, with_c.lengths)

    def test_missing_compiler(self, tmp_path):
        loader = kernel.KernelLoader(cache_dirs=(tmp_path,), compiler="no-such-cc")
        assert loader.load() is None
        assert "no-such-cc not found" in loader.fallback_reason
