"""The distributed sweep scheduler and its batch-orchestrator facade.

:class:`DistributedScheduler` is the transport shell around the
:class:`~repro.distributed.board.CellBoard`: an asyncio server on the
service transports (unix socket / TCP / in-process) that answers worker
``register`` / ``heartbeat`` / ``pull`` / ``result`` requests, runs a
monitor task that expires silent workers, and records every outcome —
cache write-through, manifest cells, failure domains — the moment a
result arrives.  All scheduling *decisions* live in the board; this
module only moves messages.

:class:`DistributedOrchestrator` is the drop-in ``repro experiment
--workers ADDR`` entry point: it subclasses the batch
:class:`~repro.orchestrator.scheduler.Orchestrator` and overrides only
``run_cells`` — planning, cache read-through, replayed rendering and
manifest semantics are inherited unchanged, which is what keeps a
distributed run byte-identical to a serial one (same planner, same
cache keys, same ``_execute_cell`` body worker-side, same replay
render).
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..orchestrator.cache import ResultCache
from ..orchestrator.cells import CellSpec
from ..orchestrator.manifest import CellOutcome, RunManifest
from ..orchestrator.scheduler import Orchestrator, _InterruptGuard
from ..service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    cell_to_wire,
    error_reply,
    ok_reply,
)
from ..service.transports import listener_for
from ..sim.metrics import RunMetrics
from .board import CellBoard, DeathReport
from .protocol import DEAD, SCHEDULER_NAME
from .worker import spawn_local_workers, terminate_workers


class DistributedScheduler:
    """Serve one sweep's cells to workers until every cell resolves.

    Parameters largely mirror the batch orchestrator; the heartbeat
    knobs are new:

    heartbeat_interval:
        Cadence workers are told to beat at (seconds).
    heartbeat_timeout:
        Silence after which a worker is declared dead and its cells
        reclaimed/retried.
    register_timeout:
        Seconds the scheduler tolerates having *no live worker* (none
        ever registered, or all died) before failing the remaining
        cells with a structured ``NoWorkers`` report instead of
        hanging forever.
    """

    def __init__(
        self,
        specs: Dict[str, CellSpec],
        *,
        cache: Optional[ResultCache] = None,
        manifest: Optional[RunManifest] = None,
        retries: int = 1,
        timeout: Optional[float] = None,
        heartbeat_interval: float = 1.0,
        heartbeat_timeout: float = 5.0,
        register_timeout: float = 120.0,
        progress=None,
        progress_done: int = 0,
        progress_total: Optional[int] = None,
        clock=time.monotonic,
    ) -> None:
        self.specs = dict(specs)
        self.cache = cache
        self.manifest = manifest if manifest is not None else RunManifest()
        self.timeout = timeout
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.register_timeout = float(register_timeout)
        self.progress = progress
        self._clock = clock
        self.board = CellBoard(
            specs,
            retries=retries,
            heartbeat_timeout=heartbeat_timeout,
            clock=clock,
        )
        self.results: Dict[str, RunMetrics] = {}
        self._done_count = progress_done
        self._total = progress_total if progress_total is not None else len(specs)
        self._done_event: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    def _report(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def _check_done(self) -> None:
        if self.board.done and self._done_event is not None:
            self._done_event.set()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, connection) -> None:
        worker_id: Optional[str] = None
        try:
            while True:
                message = await connection.recv()
                if message is None:
                    break
                req_id = message.get("id")
                try:
                    reply, worker_id = self._dispatch(message, worker_id)
                except ProtocolError as exc:
                    reply = error_reply("ProtocolError", str(exc), req_id)
                except Exception as exc:  # never kill the accept loop
                    reply = error_reply(type(exc).__name__, str(exc), req_id)
                if reply is not None:
                    try:
                        await connection.send(reply)
                    except ConnectionError:
                        break
        finally:
            if worker_id is not None:
                self._record_death(self.board.disconnect(worker_id))
                self._check_done()

    def _dispatch(
        self, message: dict, worker_id: Optional[str]
    ) -> Tuple[Optional[dict], Optional[str]]:
        op = message.get("op")
        req_id = message.get("id")
        if op == "ping":
            return ok_reply(
                req_id, server=SCHEDULER_NAME, protocol=PROTOCOL_VERSION
            ), worker_id
        if op == "register":
            worker = self.board.register(
                name=message.get("name") or "worker",
                pid=int(message.get("pid") or 0),
                slots=int(message.get("slots") or 1),
                backend=message.get("backend"),
                backend_fallback=message.get("backend_fallback"),
            )
            detail = f"pid {worker.pid}, {worker.slots} slot(s)"
            if worker.backend:
                detail += f", backend {worker.backend}"
            if worker.backend_fallback:
                detail += f" (fallback: {worker.backend_fallback})"
            self._report(f"[join] {worker.name} -> {worker.worker_id} ({detail})")
            return ok_reply(
                req_id,
                worker=worker.worker_id,
                heartbeat_interval=self.heartbeat_interval,
                timeout=self.timeout,
                protocol=PROTOCOL_VERSION,
            ), worker.worker_id
        if op == "heartbeat":
            live = self.board.heartbeat(str(message.get("worker")))
            return ok_reply(req_id, live=live), worker_id
        if op == "pull":
            kind, key = self.board.pull(str(message.get("worker")))
            if kind == "cell":
                return ok_reply(
                    req_id, key=key, cell=cell_to_wire(self.specs[key])
                ), worker_id
            if kind == "drain":
                return ok_reply(req_id, drain=True), worker_id
            return ok_reply(req_id, wait=True), worker_id
        if op == "result":
            return self._on_result(message, req_id), worker_id
        if op == "stats":
            return ok_reply(
                req_id,
                stats=dict(self.board.stats),
                workers=self.board.describe(),
                pending=len(self.board.pending()),
            ), worker_id
        raise ProtocolError(f"unknown op: {op!r}")

    # ------------------------------------------------------------------
    def _on_result(self, message: dict, req_id) -> dict:
        wid = str(message.get("worker"))
        key = message.get("key")
        if key not in self.specs:
            return error_reply("UnknownCell", f"unknown cell key: {key}", req_id)
        spec = self.specs[key]
        metrics_dict = message.get("metrics")
        error = message.get("error")
        seconds = float(message.get("seconds") or 0.0)
        record = dict(message.get("record") or {})
        worker = self.board.workers.get(wid)
        if worker is not None:
            record.setdefault("worker_id", worker.worker_id)
        status = self.board.complete(
            wid, key, ok=metrics_dict is not None, error=error
        )
        if status == "recorded":
            metrics = RunMetrics.from_dict(metrics_dict)
            self.results[key] = metrics
            self.manifest.cells.append(
                CellOutcome(
                    key, spec.label(), "computed", seconds,
                    self.board.attempts.get(key, 1), worker=record,
                )
            )
            if self.cache is not None:
                self.cache.put(spec, key, metrics, seconds)
            self._done_count += 1
            self._report(
                f"[{self._done_count}/{self._total}] {spec.label()} ok "
                f"({seconds:.2f}s) on {record.get('worker', wid)}"
            )
        elif status == "retry":
            self._report(
                f"[retry {self.board.attempts.get(key, 0)}/"
                f"{self.board.retries}] {spec.label()}: "
                f"{(error or {}).get('type', 'Error')}"
            )
        elif status == "failed":
            report = self.board.failures[key]
            self.manifest.cells.append(
                CellOutcome(
                    key, spec.label(), "failed", seconds,
                    self.board.attempts.get(key, 0), report, record,
                )
            )
            self._report(
                f"[{self._done_count}/{self._total}] {spec.label()} FAILED "
                f"({report.get('type', 'Error')})"
            )
        # duplicates are silently discarded (first result won)
        self._check_done()
        return ok_reply(req_id, status=status)

    # ------------------------------------------------------------------
    def _record_death(self, report: Optional[DeathReport]) -> None:
        if report is None:
            return
        worker = report.worker
        self._report(
            f"[death] {worker.name} ({worker.worker_id}) {report.cause}: "
            f"{len(report.reclaimed)} reclaimed, {len(report.retried)} "
            f"retried, {len(report.failed)} failed"
        )
        for key in report.failed:
            spec = self.specs[key]
            attempts = (
                self.board.attempts.get(key, 0)
                + self.board.death_attempts.get(key, 0)
            )
            self.manifest.cells.append(
                CellOutcome(
                    key, spec.label(), "failed", 0.0, attempts,
                    self.board.failures[key],
                    {"worker_id": worker.worker_id, "worker": worker.name},
                )
            )

    async def _monitor(self) -> None:
        tick = max(0.05, min(self.heartbeat_interval / 2,
                             self.heartbeat_timeout / 4))
        while not self.board.done:
            await asyncio.sleep(tick)
            for report in self.board.expire():
                self._record_death(report)
            if self.board.done:
                break
            if not self.board.live_workers():
                idle_for = self._clock() - self.board.last_activity
                if idle_for > self.register_timeout:
                    self._fail_pending(
                        "NoWorkers",
                        f"no live workers for {idle_for:.0f}s "
                        f"({self.board.stats['registered']} ever registered)",
                    )
                    break
        self._check_done()

    def _fail_pending(self, error_type: str, message: str) -> None:
        error = {"type": error_type, "message": message, "traceback": ""}
        for key in self.board.fail_pending(error):
            spec = self.specs[key]
            self.manifest.cells.append(
                CellOutcome(
                    key, spec.label(), "failed", 0.0,
                    self.board.attempts.get(key, 0),
                    self.board.failures[key],
                )
            )
            self._report(f"FAILED {spec.label()}: {message}")

    # ------------------------------------------------------------------
    async def run(
        self,
        addresses: Sequence[str] = (),
        *,
        listeners: Sequence = (),
        spawn: int = 0,
        spawn_slots: int = 1,
        spawn_faults: Optional[str] = None,
    ) -> Tuple[Dict[str, RunMetrics], Dict[str, dict]]:
        """Serve until every cell resolves; returns (results, failures).

        ``addresses`` are bound as unix/TCP listeners; ``listeners``
        accepts pre-built (e.g. in-process) listeners.  ``spawn``
        launches that many local worker subprocesses against the first
        address — the ``--spawn-workers`` convenience and the chaos
        suite's victim supply.
        """
        self._done_event = asyncio.Event()
        active: List = []
        procs: List = []
        monitor: Optional[asyncio.Task] = None
        try:
            for address in addresses:
                listener = listener_for(address)
                await listener.start(self._handle_connection)
                active.append(listener)
            for listener in listeners:
                await listener.start(self._handle_connection)
                active.append(listener)
            if spawn:
                if not addresses:
                    raise ValueError("--spawn-workers needs a socket address")
                procs = spawn_local_workers(
                    addresses[0], 1 if spawn_faults else spawn,
                    slots=spawn_slots, faults_for_first=spawn_faults,
                )
                if spawn_faults and spawn > 1:
                    # The chaos victim starts alone and the others join
                    # once it has been handed a cell, so its planned
                    # fault fires: a fast survivor could otherwise drain
                    # the whole sweep before the victim registers.
                    await self._await_first_cell(procs[0])
                    procs += spawn_local_workers(
                        addresses[0], spawn - 1, slots=spawn_slots,
                        first_index=2,
                    )
                self._report(f"spawned {len(procs)} local worker(s)")
            if not self.board.done:
                monitor = asyncio.get_running_loop().create_task(self._monitor())
                await self._done_event.wait()
            await self._let_workers_drain(procs)
        finally:
            if monitor is not None:
                monitor.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await monitor
            for listener in active:
                with contextlib.suppress(Exception):
                    await listener.close()
            terminate_workers(procs)
        return dict(self.results), dict(self.board.failures)

    async def _await_first_cell(self, proc) -> None:
        """Wait until some worker holds or has held a cell (or died
        holding one), the sweep resolved, ``proc`` exited, or
        ``register_timeout`` passed."""
        deadline = self._clock() + self.register_timeout
        workers = self.board.workers
        while self._clock() < deadline and proc.poll() is None:
            if self.board.done or any(
                w.running or w.completed or w.state == DEAD
                for w in workers.values()
            ):
                return
            await asyncio.sleep(0.02)

    async def _let_workers_drain(self, procs) -> None:
        """Give workers a moment to pull their drain replies and exit.

        Spawned workers that exit by themselves produce clean logs and
        prove the drain path; the deadline keeps a wedged worker from
        stalling the sweep (terminate_workers reaps it right after).
        """
        deadline = self._clock() + max(2.0, 20 * self.heartbeat_interval)
        while self._clock() < deadline:
            if all(proc.poll() is not None for proc in procs):
                break
            await asyncio.sleep(0.05)


# ----------------------------------------------------------------------
# the batch-facade orchestrator
# ----------------------------------------------------------------------

class DistributedOrchestrator(Orchestrator):
    """``repro experiment --workers ADDR``: the batch API, served remotely.

    Inherits planning, cache read-through and replayed rendering from
    the batch orchestrator; only cell *execution* is overridden to run
    through a :class:`DistributedScheduler`.
    """

    def __init__(
        self,
        address: str,
        *,
        spawn_workers: int = 0,
        worker_slots: int = 1,
        heartbeat_interval: float = 1.0,
        heartbeat_timeout: float = 5.0,
        register_timeout: float = 120.0,
        spawn_faults: Optional[str] = None,
        **kwargs,
    ) -> None:
        kwargs.setdefault("jobs", max(1, spawn_workers))
        super().__init__(**kwargs)
        self.address = address
        self.spawn_workers = max(0, int(spawn_workers))
        self.worker_slots = max(1, int(worker_slots))
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.register_timeout = register_timeout
        self.spawn_faults = spawn_faults
        #: The last sweep's scheduler (tests inspect board stats).
        self.last_scheduler: Optional[DistributedScheduler] = None

    def run_cells(
        self,
        specs: Dict[str, CellSpec],
        manifest: Optional[RunManifest] = None,
    ):
        manifest = manifest if manifest is not None else RunManifest(jobs=self.jobs)
        results: Dict[str, RunMetrics] = {}
        failures: Dict[str, dict] = {}
        pending = self._readthrough(specs, manifest, results)
        if not pending:
            return results, failures
        scheduler = DistributedScheduler(
            pending,
            cache=self.cache,
            manifest=manifest,
            retries=self.retries,
            timeout=self.timeout,
            heartbeat_interval=self.heartbeat_interval,
            heartbeat_timeout=self.heartbeat_timeout,
            register_timeout=self.register_timeout,
            progress=self.progress,
            progress_done=len(results),
            progress_total=len(specs),
        )
        self.last_scheduler = scheduler
        guard = _InterruptGuard()
        try:
            with guard:
                dist_results, dist_failures = asyncio.run(
                    scheduler.run(
                        [self.address],
                        spawn=self.spawn_workers,
                        spawn_slots=self.worker_slots,
                        spawn_faults=self.spawn_faults,
                    )
                )
        except KeyboardInterrupt:
            name = signal.Signals(guard.signum).name if guard.signum else "SIGINT"
            self._report(f"{name}: draining — abandoning distributed sweep")
            results.update(scheduler.results)
            failures.update(scheduler.board.failures)
            for key, spec in pending.items():
                if key in results or key in failures:
                    continue
                failures[key] = {
                    "type": "Interrupted",
                    "message": f"sweep interrupted by {name}",
                    "traceback": "",
                }
                manifest.cells.append(
                    CellOutcome(key, spec.label(), "failed", 0.0,
                                scheduler.board.attempts.get(key, 0),
                                failures[key])
                )
            manifest.workers = scheduler.board.describe()
            raise
        results.update(dist_results)
        failures.update(dist_failures)
        manifest.workers = scheduler.board.describe()
        return results, failures
