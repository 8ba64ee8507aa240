"""The distributed sweep worker: register, heartbeat, pull, execute, push.

A worker is a small asyncio process around the same
:class:`~repro.orchestrator.executor.PersistentCellExecutor` the
``repro serve`` daemon runs on — which is precisely what makes its
results byte-identical to the serial path: the identical
``_execute_cell`` body produces the metrics, the identical wire codec
round-trips them (JSON float round-tripping is exact).

Life of a worker::

    connect -> register -> [heartbeat every interval]
                             |
                  +--------> pull
                  |           |-- cell  -> stage graph once per group,
                  |           |            execute, push result --+
                  |           |-- wait  -> sleep poll_interval     |
                  |           `-- drain -> close executor, exit    |
                  +-----------------------------------------------+

Cells execute off the event loop (the executor's worker thread/pool),
so heartbeats keep flowing while a simulation runs.  The fault injector
(:mod:`repro.service.faults`) is consulted at every protocol boundary;
with no ``REPRO_FAULTS`` set every check is a no-op, so chaos runs and
production runs exercise the same code path.

``spawn_local_workers`` is the ``--spawn-workers N`` convenience: it
launches ``python -m repro worker`` subprocesses against the
scheduler's own address, which is also how the chaos suite gets real
SIGKILL-able victims.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import subprocess
import sys
import time
from typing import Callable, List, Optional

from ..orchestrator.executor import PersistentCellExecutor
from ..service.client import AsyncServiceClient
from ..service.faults import ENV_VAR as FAULTS_ENV_VAR
from ..service.faults import FaultInjector
from ..service.protocol import cell_from_wire


class WorkerAgent:
    """One worker's protocol loop over any transport client.

    Parameters
    ----------
    address:
        Scheduler address (``unix:/path`` / ``tcp:host:port`` / bare
        path).  Ignored when ``client`` is injected (in-process tests).
    slots:
        Concurrent cells this worker runs.  ``1`` (the default) uses
        the executor's single warm worker thread — no arena segments,
        so even a SIGKILL leaves ``/dev/shm`` clean.
    faults:
        A :class:`~repro.service.faults.FaultInjector`; defaults to an
        empty (no-op) plan.
    client:
        Pre-connected :class:`~repro.service.client.AsyncServiceClient`
        for in-process transports.
    """

    def __init__(
        self,
        address: Optional[str] = None,
        *,
        name: Optional[str] = None,
        slots: int = 1,
        connect_timeout: float = 30.0,
        poll_interval: float = 0.05,
        faults: Optional[FaultInjector] = None,
        log: Optional[Callable[[str], None]] = None,
        client: Optional[AsyncServiceClient] = None,
    ) -> None:
        self.address = address
        self.name = name or f"worker-{os.getpid()}"
        self.slots = max(1, int(slots))
        self.connect_timeout = connect_timeout
        self.poll_interval = poll_interval
        self.faults = faults or FaultInjector()
        self.log = log
        self.worker_id: Optional[str] = None
        self.completed = 0
        self.severed = False
        self._client = client

    def _log(self, line: str) -> None:
        if self.log is not None:
            self.log(f"[{self.name}] {line}")

    # ------------------------------------------------------------------
    async def run(self) -> dict:
        """Register, work until drained, return a summary dict."""
        client = self._client
        if client is None:
            client = await AsyncServiceClient.connect(
                self.address, timeout=self.connect_timeout
            )
        executor: Optional[PersistentCellExecutor] = None
        try:
            # Resolve the kernel backend up front (honoring
            # REPRO_BACKEND) and report the resolution with the
            # registration: the one-time fallback warning is invisible
            # on a remote worker, so the roster carries it instead.
            from ..sim import backend as kernel_backend

            kernel_backend.activate(None)
            resolution = kernel_backend.resolution()
            reply = await client.request(
                "register",
                name=self.name,
                pid=os.getpid(),
                slots=self.slots,
                backend=resolution["resolved"],
                backend_fallback=resolution["fallback"],
            )
            if not reply.get("ok"):
                error = reply.get("error", {})
                raise ConnectionError(
                    f"register rejected: {error.get('type', 'Error')}: "
                    f"{error.get('message', '')}"
                )
            self.worker_id = reply["worker"]
            interval = float(reply.get("heartbeat_interval", 1.0))
            timeout = reply.get("timeout")
            self._log(f"registered as {self.worker_id} "
                      f"(heartbeat every {interval:g}s)")
            executor = PersistentCellExecutor(
                jobs=self.slots,
                timeout=float(timeout) if timeout is not None else None,
            )
            heartbeat = asyncio.get_running_loop().create_task(
                self._heartbeat_loop(client, interval)
            )
            try:
                await asyncio.gather(
                    *(self._slot_loop(client, executor)
                      for _ in range(self.slots))
                )
            finally:
                heartbeat.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await heartbeat
            # Drain path: release the pool and unlink arena segments
            # *before* the connection drops, so the scheduler observing
            # our EOF can trust /dev/shm is already clean.
            executor.close()
            self._log(f"drained after {self.completed} cell(s)")
            return {
                "worker": self.worker_id,
                "completed": self.completed,
                "severed": self.severed,
            }
        finally:
            if executor is not None:
                # Second invocation on the drain path, first on every
                # error path — the executor's close() is convergent
                # under exactly this double-close pattern.
                executor.close()
            with contextlib.suppress(Exception):
                await client.close()

    # ------------------------------------------------------------------
    async def _heartbeat_loop(self, client: AsyncServiceClient, interval: float) -> None:
        while True:
            await asyncio.sleep(interval)
            if self.faults.drop_heartbeat():
                continue
            delay = self.faults.heartbeat_delay()
            if delay:
                await asyncio.sleep(delay)
            try:
                reply = await client.request("heartbeat", worker=self.worker_id)
            except ConnectionError:
                return
            if reply.get("ok") and not reply.get("live", True):
                # The scheduler already buried us (our heartbeats were
                # too late); our cells are being retried elsewhere.
                # Keep pulling — the next pull replies drain.
                self._log("scheduler declared this worker dead; draining")

    # ------------------------------------------------------------------
    async def _slot_loop(
        self, client: AsyncServiceClient, executor: PersistentCellExecutor
    ) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                reply = await client.request("pull", worker=self.worker_id)
            except ConnectionError:
                return
            if not reply.get("ok") or reply.get("drain"):
                return
            if reply.get("wait"):
                await asyncio.sleep(self.poll_interval)
                continue
            key = reply["key"]
            spec = cell_from_wire(reply["cell"])
            # Chaos boundary: a planned SIGKILL fires here, after the
            # cell was assigned (it is "running" scheduler-side) and
            # before any work happens — the worst moment to die.
            self.faults.on_cell_start()
            if not executor.is_staged(spec.dataset, spec.scale):
                self._log(f"staging {spec.dataset}@{spec.scale:g}")
                await loop.run_in_executor(
                    None, executor.stage, spec.dataset, spec.scale
                )
            metrics, error, seconds, record = await executor.run_cell(spec, key)
            record = dict(record or {})
            record.setdefault("pid", os.getpid())
            record["worker"] = self.name
            if self.faults.should_sever_result():
                # Chaos boundary: the result exists but the connection
                # dies before it is delivered.  The scheduler must
                # retry the cell elsewhere and must not double count.
                self.severed = True
                self._log("severing connection before result delivery")
                with contextlib.suppress(Exception):
                    await client.close()
                return
            try:
                ack = await client.request(
                    "result",
                    worker=self.worker_id,
                    key=key,
                    metrics=metrics.to_dict() if metrics is not None else None,
                    error=error,
                    seconds=seconds,
                    record=record,
                )
            except ConnectionError:
                return
            if metrics is not None and ack.get("status") == "recorded":
                self.completed += 1


# ----------------------------------------------------------------------
# process entry points
# ----------------------------------------------------------------------

def run_worker(
    address: str,
    *,
    name: Optional[str] = None,
    slots: int = 1,
    connect_timeout: float = 30.0,
    log: Optional[Callable[[str], None]] = None,
) -> int:
    """Blocking worker entry point (``repro worker``); returns exit code.

    SIGTERM/SIGINT cancel the protocol loop, which unwinds through the
    executor's ``finally`` close — a terminated worker never leaves
    arena segments behind.  Faults are read from ``REPRO_FAULTS``.
    """
    if log is None:
        def log(line: str) -> None:
            print(line, file=sys.stderr, flush=True)

    agent = WorkerAgent(
        address, name=name, slots=slots,
        connect_timeout=connect_timeout,
        faults=FaultInjector.from_env(), log=log,
    )

    async def main() -> dict:
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
                loop.add_signal_handler(signum, task.cancel)
        return await agent.run()

    try:
        asyncio.run(main())
    except asyncio.CancelledError:
        log(f"[{agent.name}] terminated; cleaned up")
        return 0
    except (ConnectionError, OSError) as exc:
        log(f"[{agent.name}] failed: {type(exc).__name__}: {exc}")
        return 1
    return 0


def spawn_local_workers(
    address: str,
    count: int,
    *,
    slots: int = 1,
    faults_for_first: Optional[str] = None,
    connect_timeout: float = 60.0,
    python: Optional[str] = None,
    first_index: int = 1,
) -> List[subprocess.Popen]:
    """Launch ``count`` worker subprocesses against ``address``.

    Workers run ``python -m repro worker`` with ``src`` prepended to
    ``PYTHONPATH`` so they resolve the same tree as the parent; they are
    named ``spawn-<first_index>``, ``spawn-<first_index + 1>``, ...
    ``faults_for_first`` injects a ``REPRO_FAULTS`` plan into the first
    worker only (the chaos victim); every other worker gets a clean
    environment even if the parent had a plan set.
    """
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    base_env = dict(os.environ)
    existing = base_env.get("PYTHONPATH")
    base_env["PYTHONPATH"] = (
        src_root + (os.pathsep + existing if existing else "")
    )
    base_env.pop(FAULTS_ENV_VAR, None)
    procs: List[subprocess.Popen] = []
    for index in range(max(0, int(count))):
        env = dict(base_env)
        if index == 0 and faults_for_first:
            env[FAULTS_ENV_VAR] = faults_for_first
        command = [
            python or sys.executable, "-m", "repro", "worker", address,
            "--name", f"spawn-{first_index + index}",
            "--slots", str(slots),
            "--connect-timeout", str(connect_timeout),
        ]
        procs.append(subprocess.Popen(command, env=env))
    return procs


def terminate_workers(
    procs: List[subprocess.Popen], *, grace: float = 5.0
) -> None:
    """SIGTERM every live worker, escalate to SIGKILL after ``grace``."""
    for proc in procs:
        if proc.poll() is None:
            with contextlib.suppress(OSError):
                proc.terminate()
    deadline = time.monotonic() + grace
    for proc in procs:
        remaining = max(0.1, deadline - time.monotonic())
        try:
            proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            with contextlib.suppress(OSError):
                proc.kill()
            with contextlib.suppress(Exception):
                proc.wait(timeout=5.0)
