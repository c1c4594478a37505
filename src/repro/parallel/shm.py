"""Zero-copy graph publication via POSIX shared memory.

Fanning K subgraph solves across worker processes with a naive
``ProcessPoolExecutor`` pickles the whole global graph into every task
— tens of megabytes per solve for a 50k-node web graph, dwarfing the
per-subgraph work the paper's cost model promises is *local* (§IV-B).
:class:`SharedGraphStore` removes that tax: the parent copies the CSR
arrays (``indptr``/``indices``/``data`` plus optional named per-node
metadata arrays) into **one** ``multiprocessing.shared_memory``
segment, and workers receive only a small picklable
:class:`SharedGraphHandle` naming the segment and describing the
array layout.  :func:`attach_shared_graph` then maps the segment and
rebuilds the graph through the trusted
:meth:`~repro.graph.digraph.CSRGraph.from_shared` constructor —
no copy, no re-canonicalisation, read-only views.

Lifecycle
---------
The store owns the segment.  ``close()`` (or leaving the context
manager, or garbage collection, or interpreter exit via the module's
``atexit`` leak guard) unmaps *and unlinks* it; workers that are still
attached keep valid mappings until they drop them — POSIX shared
memory only disappears once the last mapping goes away — so an owner
crash or early close never corrupts in-flight tasks, and a worker
crash never leaks the segment (the owner still unlinks it).

Workers additionally unregister attached segments from the
``multiprocessing.resource_tracker``: the tracker would otherwise
treat an attach as an ownership claim and try to unlink the segment a
second time at worker exit (cpython issue bpo-38119), spamming
warnings about segments the parent already manages.
"""

from __future__ import annotations

import atexit
import itertools
import os
import weakref
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.exceptions import ParallelError
from repro.graph.digraph import CSRGraph
from repro.resilience import faults

try:  # pragma: no cover - import succeeds on every supported python
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - py<3.8 / exotic platforms
    _shared_memory = None

#: Byte alignment of each array inside the segment (cache-line sized,
#: and a multiple of every numpy itemsize we store).
_ALIGN = 64

#: Prefix identifying this library's segments (useful when inspecting
#: /dev/shm after a crash, and what the leak tests scan for).
_SEGMENT_PREFIX = "repro_graph_"

#: Per-process counter making segment names unique without randomness.
_SEGMENT_COUNTER = itertools.count()


def _create_segment(size: int):
    """Create a fresh segment named ``repro_graph_<pid>_<n>``.

    Naming (rather than letting the stdlib pick a ``psm_`` token) makes
    the library's segments identifiable in ``/dev/shm`` listings; the
    pid+counter pair is unique within a boot unless a previous process
    with the same pid leaked — in which case we skip to the next
    counter value.
    """
    while True:
        name = f"{_SEGMENT_PREFIX}{os.getpid()}_{next(_SEGMENT_COUNTER)}"
        try:
            return _shared_memory.SharedMemory(
                name=name, create=True, size=size
            )
        except FileExistsError:  # pragma: no cover - stale leak
            continue


@dataclass(frozen=True)
class _FieldSpec:
    """Layout of one array inside the shared segment (picklable)."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class SharedGraphHandle:
    """Everything a worker needs to attach a published graph.

    A small picklable descriptor: the shared-memory segment name, the
    node count, and the per-array layout.  Pickling a handle costs a
    few hundred bytes regardless of graph size — that is the whole
    point of the store.
    """

    segment_name: str
    num_nodes: int
    fields: tuple[_FieldSpec, ...]


def shared_memory_available() -> bool:
    """Whether POSIX shared memory actually works on this platform.

    Probes by creating (and immediately destroying) a tiny segment;
    the result is cached.  ``rank_many`` falls back to its serial path
    when this returns False.
    """
    global _SHM_AVAILABLE
    if _SHM_AVAILABLE is None:
        if _shared_memory is None:
            _SHM_AVAILABLE = False
        else:
            try:
                probe = _shared_memory.SharedMemory(create=True, size=8)
                probe.close()
                probe.unlink()
                _SHM_AVAILABLE = True
            except OSError:
                _SHM_AVAILABLE = False
    return _SHM_AVAILABLE


_SHM_AVAILABLE: bool | None = None

#: Live stores, for the atexit leak guard.  Weak so that the guard
#: never extends a store's lifetime.
_LIVE_STORES: "weakref.WeakSet[SharedGraphStore]" = weakref.WeakSet()


@atexit.register
def _cleanup_leaked_stores() -> None:
    """Unlink any segment whose owner forgot to ``close()``.

    Registered at import; makes "forgot the context manager" a
    warning-grade bug instead of a /dev/shm leak that survives the
    process.
    """
    for store in list(_LIVE_STORES):
        store.close()


class SharedGraphStore:
    """Publish one graph's CSR arrays in a shared-memory segment.

    Parameters
    ----------
    graph:
        The graph to publish.
    metadata:
        Optional named per-node arrays (domain ids, topic ids, ...)
        published alongside the CSR arrays, mirroring
        :func:`repro.graph.io.save_npz`'s convention.

    Examples
    --------
    >>> with SharedGraphStore(graph) as store:
    ...     pool.submit(worker, store.handle, task)   # handle pickles small
    """

    def __init__(
        self,
        graph: CSRGraph,
        metadata: Mapping[str, np.ndarray] | None = None,
    ):
        if _shared_memory is None or not shared_memory_available():
            raise ParallelError(
                "multiprocessing.shared_memory is unavailable on this "
                "platform; use the serial path (workers=1)"
            )
        adj = graph.adjacency
        arrays: dict[str, np.ndarray] = {
            "indptr": adj.indptr,
            "indices": adj.indices,
            "data": adj.data,
        }
        for key, value in (metadata or {}).items():
            arrays[f"meta_{key}"] = np.ascontiguousarray(value)

        fields: list[_FieldSpec] = []
        offset = 0
        for name, array in arrays.items():
            offset = -(-offset // _ALIGN) * _ALIGN  # round up
            fields.append(
                _FieldSpec(
                    name=name,
                    dtype=array.dtype.str,
                    shape=array.shape,
                    offset=offset,
                )
            )
            offset += array.nbytes
        total = max(offset, 1)

        self._shm = _create_segment(total)
        for spec, array in zip(fields, arrays.values()):
            view = np.ndarray(
                spec.shape,
                dtype=np.dtype(spec.dtype),
                buffer=self._shm.buf,
                offset=spec.offset,
            )
            view[...] = array
        self.handle = SharedGraphHandle(
            segment_name=self._shm.name,
            num_nodes=graph.num_nodes,
            fields=tuple(fields),
        )
        self._closed = False
        _LIVE_STORES.add(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def segment_name(self) -> str:
        """OS-level name of the shared segment (``/dev/shm/<name>``)."""
        return self.handle.segment_name

    @property
    def closed(self) -> bool:
        """Whether the segment has been released."""
        return self._closed

    def close(self) -> None:
        """Unmap and unlink the segment (idempotent).

        Workers still attached keep their mappings; the name just
        disappears, so nothing new can attach and the memory is freed
        once the last worker lets go.
        """
        if self._closed:
            return
        self._closed = True
        _LIVE_STORES.discard(self)
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink race
            pass

    def __enter__(self) -> "SharedGraphStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"SharedGraphStore(name={self.segment_name!r}, "
            f"num_nodes={self.handle.num_nodes}, {state})"
        )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Per-process attach cache: segment name -> (SharedMemory, graph,
#: metadata).  Keeping the SharedMemory object referenced keeps the
#: mapping alive for every array viewing its buffer.
_ATTACHED: dict[str, tuple[object, CSRGraph, dict[str, np.ndarray]]] = {}


def attach_shared_graph(
    handle: SharedGraphHandle,
) -> tuple[CSRGraph, dict[str, np.ndarray]]:
    """Map a published graph into this process, zero-copy.

    Repeated calls with the same handle return the cached attachment,
    so a worker serving many chunks maps the segment exactly once.
    The returned arrays are read-only views of the shared buffer.
    """
    cached = _ATTACHED.get(handle.segment_name)
    if cached is not None:
        return cached[1], cached[2]
    if _shared_memory is None:
        raise ParallelError(
            "cannot attach shared graph: shared memory unavailable"
        )
    try:
        faults.maybe_inject("fail_attach")
        try:
            # 3.13+: opt out of resource tracking for non-owners, so a
            # worker's tracker never unlinks a segment the parent still
            # manages (bpo-38119).
            shm = _shared_memory.SharedMemory(
                name=handle.segment_name, track=False
            )
        except TypeError:
            # <=3.12: attach registers with the resource tracker, but
            # under the default fork start method every process shares
            # the parent's tracker, where registration is idempotent —
            # the owner's unlink() performs the single unregister.
            shm = _shared_memory.SharedMemory(name=handle.segment_name)
    except FileNotFoundError as exc:
        # error_type carries the cause class across the pickle
        # boundary; the parent's retry machinery classifies a vanished
        # segment as retryable (a fresh pool re-attaches fine).
        raise ParallelError(
            f"shared graph segment {handle.segment_name!r} is gone "
            "(owner closed the store before workers finished?)",
            error_type=type(exc).__name__,
        ) from exc

    views: dict[str, np.ndarray] = {}
    for spec in handle.fields:
        view = np.ndarray(
            spec.shape,
            dtype=np.dtype(spec.dtype),
            buffer=shm.buf,
            offset=spec.offset,
        )
        view.flags.writeable = False
        views[spec.name] = view
    graph = CSRGraph.from_shared(
        views["indptr"],
        views["indices"],
        views["data"],
        handle.num_nodes,
    )
    metadata = {
        name[len("meta_"):]: view
        for name, view in views.items()
        if name.startswith("meta_")
    }
    _ATTACHED[handle.segment_name] = (shm, graph, metadata)
    return graph, metadata


def detach_all() -> None:
    """Drop every cached attachment (test/diagnostic hook).

    Real workers never need this: mappings die with the process.
    """
    for shm, __, __meta in _ATTACHED.values():
        try:
            shm.close()  # type: ignore[attr-defined]
        except Exception:  # pragma: no cover - platform specific
            pass
    _ATTACHED.clear()
