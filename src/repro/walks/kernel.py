"""The fused C step kernel for the functional walk, built lazily and loaded with ctypes.

:func:`repro.walks.stepper.run_walks` spends almost all of its time in the
per-edge work of a step: expanding the current vertex's row, computing the
dynamic weights (Node2Vec's ``(a_{t-1}, b) in E`` membership test), and the
PWRS lane draws and Equation 8 acceptance.  The numpy path does that as
about ten whole-batch passes.  ``_step_kernel.c`` does it in one loop per
query, and the two are bit-identical (the numpy path is the test oracle).

The kernel covers the built-in algorithms (uniform, static, restart,
Node2Vec, vertex- and edge-matched MetaPath) under the
:class:`~repro.walks.stepper.PWRSSampler`.  Everything else, and every host
where the kernel cannot be built, takes the numpy path.

Build and cache
---------------
Nothing is compiled at import.  The first walk that wants the kernel runs
``gcc -O2 -fPIC -shared -ffp-contract=off`` once and caches the library
under a name keyed by the SHA-256 of the source, the flags and the
platform, in ``_kernel_cache/`` beside the source or, when that is not
writable, in a per-user directory under the system temp dir.  A cache
directory is used only when it is private: created with mode ``0o700``,
owned by this user, not a symlink and not writable by group or others (the
temp-dir path is guessable, so another user could otherwise create it
first and plant a library there).  A build writes a temporary file and
renames it into place under a file lock, and a checksum file beside the
library guards later loads: a damaged cached library is rebuilt, never
loaded.  A failed build logs one warning with
the tail of the compiler's output, and the process then stays on numpy.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import logging
import os
import platform
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.artifacts import atomic_write_text, checksum_hex
from repro.graph.csr import CSRGraph
from repro.walks.base import WalkAlgorithm
from repro.walks.metapath import MetaPathWalk
from repro.walks.node2vec import Node2VecWalk
from repro.walks.static import StaticWalk
from repro.walks.uniform import UniformWalk

try:  # POSIX only; elsewhere the in-process lock and the atomic rename suffice
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX hosts
    fcntl = None

logger = logging.getLogger(__name__)

__all__ = [
    "FusedStep",
    "KernelLoader",
    "KernelUnavailable",
    "bind_step",
    "edges_exist",
    "fallback_reason",
    "load_kernel",
]

SOURCE = Path(__file__).with_name("_step_kernel.c")
COMPILER = "gcc"
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_BUILD_TIMEOUT_S = 120
_STDERR_TAIL_CHARS = 2000

# Algorithm codes of the C kernel's ``alg`` argument.
_ALG_UNIFORM, _ALG_STATIC, _ALG_NODE2VEC, _ALG_METAPATH_VERTEX, _ALG_METAPATH_EDGE = range(5)

_PTR = ctypes.c_void_p
_I32 = ctypes.c_int32
_I64 = ctypes.c_int64
_F64 = ctypes.c_double


class KernelUnavailable(Exception):
    """The C kernel cannot be built or loaded on this host (the reason)."""


def _default_cache_dirs(source: Path) -> tuple[Path, ...]:
    user = os.geteuid() if hasattr(os, "geteuid") else os.environ.get("USERNAME", "user")
    return (
        source.parent / "_kernel_cache",
        Path(tempfile.gettempdir()) / f"repro-kernel-{user}",
    )


def _private_dir(directory: Path) -> None:
    """Create ``directory`` if needed; raise unless only this user can write it."""
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    if not hasattr(os, "geteuid"):  # pragma: no cover - non-POSIX hosts
        return
    info = os.lstat(directory)
    if (
        not stat.S_ISDIR(info.st_mode)
        or info.st_uid != os.geteuid()
        or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    ):
        raise PermissionError(
            f"not a private directory of this user (owner uid {info.st_uid}, "
            f"mode {stat.filemode(info.st_mode)})"
        )


@contextlib.contextmanager
def _file_lock(path: Path):
    """Exclusive advisory lock on ``path`` (other processes building too)."""
    with open(path, "a+b") as handle:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def _declare(lib: ctypes.CDLL) -> None:
    """Full signatures: an undeclared int64 argument would be passed as a C int."""
    lib.lrw_edges_exist.argtypes = [_PTR, _PTR, _I64, _I64, _PTR, _PTR, _PTR]
    lib.lrw_edges_exist.restype = None
    lib.lrw_pwrs_step.argtypes = [
        _PTR, _PTR, _PTR, _PTR,  # row_index, col_index, edge_weights, labels
        _I32, _I32, _F64, _F64, _I64,  # alg, weighted, inv_p, inv_q, label
        _PTR, _PTR, _I64,  # lane_keys, counters, k
        _I64, _PTR, _PTR, _PTR, _PTR,  # n, active, curr, prev, next_out
    ]
    lib.lrw_pwrs_step.restype = None


class KernelLoader:
    """Builds (once) and loads the step kernel; thread safe.

    :meth:`load` returns the loaded library, or ``None`` once a build or
    load has failed, in which case :attr:`fallback_reason` says why.  The
    outcome is sticky for the loader's lifetime, so a failure warns once.
    """

    def __init__(
        self,
        source: str | Path = SOURCE,
        cache_dirs: tuple[str | Path, ...] | None = None,
        compiler: str = COMPILER,
    ) -> None:
        self.source = Path(source)
        self.cache_dirs = (
            tuple(Path(d) for d in cache_dirs)
            if cache_dirs is not None
            else _default_cache_dirs(self.source)
        )
        self.compiler = compiler
        self.fallback_reason = ""
        #: Wall seconds this loader spent compiling (0 on a cache hit).
        self.build_s = 0.0
        self.path: Path | None = None
        self._lib: ctypes.CDLL | None = None
        self._done = False
        self._lock = threading.Lock()

    def load(self) -> ctypes.CDLL | None:
        if not self._done:
            with self._lock:
                if not self._done:
                    try:
                        self._lib = self._load()
                    except KernelUnavailable as exc:
                        self.fallback_reason = str(exc)
                        logger.warning(
                            "C step kernel unavailable, walks use the numpy path: %s", exc
                        )
                    self._done = True
        return self._lib

    # -- internals -------------------------------------------------------------

    def _library_name(self, source: bytes) -> str:
        key = hashlib.sha256(source)
        key.update("\0".join(CFLAGS).encode())
        key.update(f"\0{sys.platform}\0{platform.machine()}".encode())
        suffix = ".dll" if sys.platform == "win32" else ".so"
        return f"{self.source.stem}-{key.hexdigest()[:16]}{suffix}"

    def _load(self) -> ctypes.CDLL:
        try:
            source = self.source.read_bytes()
        except OSError as exc:
            raise KernelUnavailable(f"cannot read {self.source.name}: {exc}") from None
        name = self._library_name(source)
        problems = []
        for directory in self.cache_dirs:
            try:
                return self._load_from(directory / name)
            except OSError as exc:  # directory not creatable, writable or private
                problems.append(f"{directory}: {exc}")
        raise KernelUnavailable("no usable kernel cache directory: " + "; ".join(problems))

    def _load_from(self, path: Path) -> ctypes.CDLL:
        _private_dir(path.parent)
        lib = self._open_verified(path)
        if lib is None:
            with _file_lock(path.parent / ".build.lock"):
                lib = self._open_verified(path)  # another process may have built it
                if lib is None:
                    self._build(path)
                    lib = self._open_verified(path)
        if lib is None:
            raise KernelUnavailable(f"freshly built {path.name} failed to load")
        self.path = path
        return lib

    @staticmethod
    def _open_verified(path: Path) -> ctypes.CDLL | None:
        """The cached library if it matches its checksum file, else ``None``."""
        try:
            data = path.read_bytes()
            recorded = path.with_name(path.name + ".sha256").read_text().strip()
        except FileNotFoundError:
            return None
        if checksum_hex(data) != recorded:
            logger.info("cached step kernel %s fails its checksum; rebuilding", path)
            return None
        try:
            lib = ctypes.CDLL(str(path))
            _declare(lib)
        except (OSError, AttributeError) as exc:
            logger.info("cached step kernel %s does not load (%s); rebuilding", path, exc)
            return None
        return lib

    def _build(self, path: Path) -> None:
        compiler = shutil.which(self.compiler)
        if compiler is None:
            raise KernelUnavailable(f"{self.compiler} not found on PATH")
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp")
        os.close(fd)
        command = [compiler, *CFLAGS, "-o", tmp, str(self.source)]
        start = time.perf_counter()
        try:
            try:
                proc = subprocess.run(
                    command, capture_output=True, text=True, errors="replace",
                    timeout=_BUILD_TIMEOUT_S,
                )
            except (OSError, subprocess.TimeoutExpired) as exc:
                raise KernelUnavailable(f"{self.compiler} did not run: {exc}") from None
            if proc.returncode != 0:
                tail = (proc.stderr or proc.stdout).strip()[-_STDERR_TAIL_CHARS:]
                raise KernelUnavailable(
                    f"{self.compiler} exited with {proc.returncode}: {tail}"
                )
            digest = checksum_hex(Path(tmp).read_bytes())
            os.replace(tmp, path)
            atomic_write_text(path.with_name(path.name + ".sha256"), digest)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        self.build_s = time.perf_counter() - start
        logger.info("built C step kernel %s in %.2f s", path, self.build_s)


_LOADER = KernelLoader()


def load_kernel() -> ctypes.CDLL | None:
    """The process-wide step kernel, building it on first use; ``None`` if unavailable."""
    return _LOADER.load()


def fallback_reason() -> str:
    """Why :func:`load_kernel` returned ``None`` (empty while it has not)."""
    return _LOADER.fallback_reason


def _ptr(array: np.ndarray | None) -> int | None:
    return None if array is None else array.ctypes.data


def _csr(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """The graph's row and column arrays in the kernel's dtypes, checked to agree."""
    row_index = np.ascontiguousarray(graph.row_index, dtype=np.int64)
    col_index = np.ascontiguousarray(graph.col_index, dtype=np.uint32)
    if row_index.size != graph.num_vertices + 1 or row_index[-1] != col_index.size:
        raise ValueError("graph row_index does not match its col_index")
    return row_index, col_index


def edges_exist(graph: CSRGraph, sources: np.ndarray, targets: np.ndarray) -> np.ndarray | None:
    """``(u, v) in E`` by a search bounded to ``u``'s row; ``None`` without the kernel."""
    lib = load_kernel()
    if lib is None:
        return None
    src, dst = np.broadcast_arrays(
        np.asarray(sources, dtype=np.int64), np.asarray(targets, dtype=np.int64)
    )
    src = np.ascontiguousarray(src)
    dst = np.ascontiguousarray(dst)
    row_index, col_index = _csr(graph)
    out = np.empty(src.shape, dtype=bool)
    lib.lrw_edges_exist(
        _ptr(row_index), _ptr(col_index), graph.num_vertices, src.size,
        _ptr(src), _ptr(dst), _ptr(out),
    )
    return out


class FusedStep:
    """One run's binding of the kernel to a graph, an algorithm and PWRS lane state.

    Calling it advances the given active queries one step, updating the
    sampler's ``counters`` in place, and returns each query's next vertex
    (``-1`` on a dead end) — what the numpy path's expand, weights and
    select passes produce together.
    """

    def __init__(
        self,
        lib: ctypes.CDLL,
        graph: CSRGraph,
        algorithm: WalkAlgorithm,
        code: int,
        lane_keys: np.ndarray,
        counters: np.ndarray,
        k: int,
    ) -> None:
        self._lib = lib
        self._code = code
        self._algorithm = algorithm
        # Keep references: the kernel reads these buffers on every call.
        self._row, self._col = _csr(graph)
        self._weights = None
        if graph.edge_weights is not None and code != _ALG_UNIFORM:
            self._weights = np.ascontiguousarray(graph.edge_weights, dtype=np.float32)
            if self._weights.size != self._col.size:
                raise ValueError("edge_weights does not match col_index")
        self._labels = None
        if code == _ALG_METAPATH_VERTEX:
            self._labels = np.ascontiguousarray(graph.vertex_labels, dtype=np.int16)
            expected = graph.num_vertices
        elif code == _ALG_METAPATH_EDGE:
            self._labels = np.ascontiguousarray(graph.edge_labels, dtype=np.int16)
            expected = self._col.size
        if self._labels is not None and self._labels.size != expected:
            raise ValueError("label array does not match the graph")
        if lane_keys.dtype != np.uint64 or not lane_keys.flags.c_contiguous:
            raise ValueError("lane_keys must be C-contiguous uint64")
        if counters.dtype != np.uint64 or not counters.flags.c_contiguous:
            raise ValueError("counters must be C-contiguous uint64")
        if lane_keys.shape != (counters.size, k):
            raise ValueError("lane_keys must have one row of k keys per counter")
        self._keys = lane_keys
        self._counters = counters
        self._k = int(k)
        self._inv_p = 1.0 / algorithm.p if code == _ALG_NODE2VEC else 1.0
        self._inv_q = 1.0 / algorithm.q if code == _ALG_NODE2VEC else 1.0
        self._weighted = int(getattr(algorithm, "weighted", True))

    def __call__(
        self,
        step: int,
        active: np.ndarray,
        curr: np.ndarray,
        prev: np.ndarray | None = None,
    ) -> np.ndarray:
        active = np.ascontiguousarray(active, dtype=np.int64)
        curr = np.ascontiguousarray(curr, dtype=np.int64)
        if prev is not None:
            prev = np.ascontiguousarray(prev, dtype=np.int64)
        label = (
            self._algorithm._required_label(step)
            if self._code in (_ALG_METAPATH_VERTEX, _ALG_METAPATH_EDGE)
            else 0
        )
        out = np.empty(active.size, dtype=np.int64)
        self._lib.lrw_pwrs_step(
            _ptr(self._row), _ptr(self._col), _ptr(self._weights), _ptr(self._labels),
            self._code, self._weighted, self._inv_p, self._inv_q, label,
            _ptr(self._keys), _ptr(self._counters), self._k,
            active.size, _ptr(active), _ptr(curr), _ptr(prev), _ptr(out),
        )
        return out


def _algorithm_code(algorithm: WalkAlgorithm) -> int | None:
    """Kernel code of a built-in algorithm; ``None`` for anything else.

    Exact type matches only: a subclass may override ``dynamic_weights``.
    """
    from repro.walks.ppr import RestartWalk  # ppr imports the stepper

    kind = type(algorithm)
    if kind is UniformWalk:
        return _ALG_UNIFORM
    if kind is StaticWalk or kind is RestartWalk:
        return _ALG_STATIC
    if kind is Node2VecWalk:
        return _ALG_NODE2VEC
    if kind is MetaPathWalk:
        return _ALG_METAPATH_VERTEX if algorithm.match == "vertex" else _ALG_METAPATH_EDGE
    return None


def bind_step(
    graph: CSRGraph,
    algorithm: WalkAlgorithm,
    lane_keys: np.ndarray,
    counters: np.ndarray,
    k: int,
) -> tuple[FusedStep | None, str]:
    """The fused step for this run, or ``(None, reason)`` for the numpy path."""
    code = _algorithm_code(algorithm)
    if code is None:
        return None, f"{type(algorithm).__name__} has no fused kernel"
    lib = load_kernel()
    if lib is None:
        return None, fallback_reason()
    return FusedStep(lib, graph, algorithm, code, lane_keys, counters, k), ""
