"""The supervised worker pool: the one place that starts worker processes.

``vhdl-ifa serve`` runs its analyses here, and ``vhdl-ifa batch`` its pooled
jobs.  ``concurrent.futures.ProcessPoolExecutor`` cannot cancel a running task
or survive a killed worker without poisoning the whole pool, so this is a
deliberately small supervisor instead: one :class:`WorkerHandle` per slot,
each owning a dedicated ``multiprocessing`` pipe to a long-lived worker
process.  A *call* is a module-level function plus its arguments, and the
worker answers ``call(workspace, *args, injector=injector)`` on its own
workspace.  The supervisor's contract is its callers' fault model:

* a call that exceeds its wall-clock ``timeout`` gets the worker killed and
  respawned — the *call* fails, the pool does not;
* a worker that dies mid-call (crash, OOM kill, an exception the call let
  escape) is detected by the broken pipe and respawned, and only that call
  fails;
* the pool never propagates worker death to the caller as an exception; every
  :meth:`WorkerPool.run` returns a :class:`PoolResult`, and the caller words
  the fault (serve as a ``504``/``500`` document, batch as a ``"worker"``
  error item).

The start method is derived, not configured.  A worker is forked when the
platform offers ``fork`` and the starting process runs one thread, and is
spawned otherwise: forking a threaded process can deadlock the child, and a
spawned worker pays for re-importing :mod:`repro`.  So ``vhdl-ifa batch``
forks (the driver builds its pool before its dispatch threads),
``vhdl-ifa serve`` forks its initial workers and spawns a respawn (its
dispatch threads exist by then), and a server on a
:class:`~repro.pipeline.serve.ServerThread` always spawns.

Each worker builds one :class:`repro.workspace.Workspace` from its owner's
:meth:`~repro.workspace.Workspace.worker_configuration`: its in-memory tier
is per-worker, layered over the shared ``cache_dir`` disk tier when there is
one, so all workers serve warm artifacts out of one store.  Its
:class:`~repro.pipeline.faults.FaultInjector` arms from the plan shipped to
the pool, or else from the environment.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.pipeline.faults import FaultInjector, FaultPlan

#: Seconds a worker gets to exit voluntarily before the supervisor kills it.
_STOP_GRACE = 2.0


def _context() -> Any:
    """Fork in a single-threaded process, spawn otherwise (see above)."""
    fork = (
        threading.active_count() == 1
        and "fork" in multiprocessing.get_all_start_methods()
    )
    return multiprocessing.get_context("fork" if fork else "spawn")


@dataclass
class PoolResult:
    """The outcome of one pooled call — never an exception.

    ``value`` is what the call returned, or ``None`` when it did not finish:
    ``timed_out``/``crashed`` record the fault (the worker was recycled),
    and ``stopped`` a call refused by a stopping pool.  ``meta`` is the
    worker's self-report (cache counters, fault triggers).
    """

    value: Any = None
    worker: int = -1
    timed_out: bool = False
    crashed: bool = False
    stopped: bool = False
    meta: Dict[str, Any] = field(default_factory=dict)


def _worker_main(
    conn: Any,
    configuration: Dict[str, Any],
    fault_plan: Optional[FaultPlan],
) -> None:
    """One worker: build a workspace once, answer calls until EOF.

    The protocol is ``(call, args)`` in, ``(value, meta)`` out; ``None`` in
    means drain and exit.
    """
    # Imported here: the worker entry point must be importable by the spawn
    # machinery without dragging the whole toolchain in at module level.
    from repro.workspace import Workspace

    injector = FaultInjector(fault_plan) if fault_plan is not None else FaultInjector.from_env()
    workspace = Workspace(**configuration)

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        call, args = message
        value = call(workspace, *args, injector=injector)
        meta: Dict[str, Any] = {"pid": os.getpid(), "faults_fired": injector.fired}
        if workspace.cache is not None:
            stats = workspace.cache.stats()
            meta["cache"] = {
                "hits": stats.get("hits", 0),
                "misses": stats.get("misses", 0),
            }
        try:
            conn.send((value, meta))
        except OSError:
            break


class WorkerHandle:
    """One supervised worker slot: a process, its pipe, and respawn logic."""

    def __init__(
        self,
        index: int,
        configuration: Dict[str, Any],
        fault_plan: Optional[FaultPlan],
    ):
        self.index = index
        self.restarts = 0
        self._spec = (configuration, fault_plan)
        self._process: Optional[Any] = None
        self._conn: Optional[Any] = None
        # Serialises detaching with a recycle's respawn, so a stopping pool
        # never misses a worker started behind its back.
        self._lock = threading.RLock()
        self._spawn()

    def _spawn(self) -> None:
        context = _context()
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=_worker_main,
            args=(child_conn, *self._spec),
            name=f"vhdl-ifa-worker-{self.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._process = process
        self._conn = parent_conn

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    def call(self, message: Any, timeout: Optional[float]) -> PoolResult:
        """Round-trip one call on the connection it starts with.

        A timeout or a dead worker recycles the worker.  A call whose handle
        is detached before or while it runs (the pool is stopping) returns
        ``stopped`` and leaves the handle detached.
        """
        conn = self._conn
        if conn is not None:
            try:
                conn.send(message)
                if conn.poll(timeout):
                    value, meta = conn.recv()
                    return PoolResult(value=value, worker=self.index, meta=meta)
                fault = {"timed_out": True}
            except (EOFError, OSError):
                fault = {"crashed": True}
            if self._recycle(conn):
                return PoolResult(worker=self.index, **fault)
        return PoolResult(worker=self.index, stopped=True)

    def _recycle(self, conn: Any) -> bool:
        """Kill the worker behind ``conn`` and start a replacement; False,
        starting nothing, when the handle was detached since."""
        with self._lock:
            if self._conn is not conn:
                return False
            process = self.detach(drain=False)
            process.kill()
            _reap(process)
            self.restarts += 1
            self._spawn()
        return True

    def detach(self, drain: bool) -> Optional[Any]:
        """Close the pipe, after a drain message when ``drain``, and return
        the process for the caller to reap."""
        with self._lock:
            process, conn = self._process, self._conn
            self._process = self._conn = None
        if conn is not None:
            if drain:
                try:
                    conn.send(None)
                except OSError:
                    pass
            try:
                conn.close()
            except OSError:
                pass
        return process


def _reap(process: Any) -> None:
    """Wait for ``process`` to exit, killing it after the grace period."""
    process.join(_STOP_GRACE)
    if process.is_alive():
        process.kill()
        process.join(_STOP_GRACE)
    # Release the process object's pipe/semaphore resources promptly.
    process.close()


class WorkerPool:
    """A fixed-size pool of supervised workers with a thread-safe free list.

    Callers (serve's and batch's dispatch threads) check a handle out, run
    exactly one call on it, and check it back in — :meth:`run` does all
    three and reports worker faults as :class:`PoolResult` fields instead of
    exceptions.  ``configuration`` is the keyword arguments every worker
    builds its :class:`~repro.workspace.Workspace` from (a workspace's
    :meth:`~repro.workspace.Workspace.worker_configuration`).  ``timeout``
    is the per-call wall-clock budget; ``None`` waits forever (no
    recycling on slow calls).  Build the pool before starting the threads
    that call it, so that its workers can fork.
    """

    def __init__(
        self,
        size: int,
        *,
        configuration: Dict[str, Any],
        timeout: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        if size < 1:
            raise ValueError("pool size must be positive")
        self.size = size
        self.timeout = timeout
        self._handles = [
            WorkerHandle(index, configuration, fault_plan)
            for index in range(size)
        ]
        self._free: "queue.Queue[WorkerHandle]" = queue.Queue()
        for handle in self._handles:
            self._free.put(handle)
        self._stopped = threading.Event()

    # ------------------------------------------------------------------ state

    @property
    def restarts(self) -> int:
        """Total worker respawns over the pool's lifetime."""
        return sum(handle.restarts for handle in self._handles)

    @property
    def alive(self) -> int:
        """How many worker processes are currently running."""
        return sum(1 for handle in self._handles if handle.alive)

    # ------------------------------------------------------------------- run

    def run(self, call: Callable[..., Any], *args: Any) -> PoolResult:
        """Run ``call(workspace, *args, injector=...)`` on the next free
        worker (blocking; call from a thread, not the event loop).  ``call``
        and ``args`` must pickle, so ``call`` lives at module level."""
        if self._stopped.is_set():
            return PoolResult(stopped=True)
        handle = self._free.get()
        try:
            return handle.call((call, args), self.timeout)
        finally:
            self._free.put(handle)

    # ------------------------------------------------------------------ stop

    def stop(self) -> None:
        """Stop every worker; calls are refused from then on.

        Every worker gets its drain message before the first one is
        joined, so they all exit at once.
        """
        self._stopped.set()
        processes = [handle.detach(drain=True) for handle in self._handles]
        for process in processes:
            if process is not None:
                _reap(process)

    def stats(self) -> Dict[str, Any]:
        return {
            "configured": self.size,
            "alive": self.alive,
            "restarts": self.restarts,
            "timeout_seconds": self.timeout,
        }
