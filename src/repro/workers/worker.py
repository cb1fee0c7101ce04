"""The worker-process side of the supervised pool: lease in, result out.

``worker_main`` is the target of every forked worker process.  The
protocol over its duplex pipe is deliberately small:

supervisor -> worker
    ``("task", task_id, index, attempt)`` — execute item *index* under
    the given lease; ``("shutdown",)`` — drain and exit.

worker -> supervisor
    ``("ready", wid)`` on startup, ``("ack", wid, task_id)`` when a
    lease starts executing, ``("heartbeat", wid, task_id)`` on a timer
    while a task runs, ``("event", wid, task_id, kind, payload)`` for
    replayed in-worker happenings (fault injections, task retries), and
    finally ``("result", wid, task_id, index, value)`` or
    ``("error", wid, task_id, index, blob)``.

Workers are forked per fan-out, so the task function and item list
arrive by fork inheritance — closures over numpy arrays, datasets, and
the run's hook wrappers all work without pickling; only *results*
cross the pipe.  A lost heartbeat is the supervisor's hang signal; a
dead pipe / process sentinel is its crash signal.  One lock serialises
every ``conn.send`` because the heartbeat thread and the task thread
share the pipe.
"""

from __future__ import annotations

import signal
import threading
from multiprocessing.connection import Connection
from typing import Any, Callable, Dict, Sequence

from repro.workers import ipc

__all__ = ["worker_main"]


def worker_main(
    worker_id: int,
    conn: Connection,
    inherited: Sequence[Connection],
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    heartbeat_interval: float,
) -> None:
    # fd hygiene: drop the fork-inherited ends of the *other* workers'
    # pipes so one worker's lifetime never holds another's channel open
    for other in inherited:
        try:
            other.close()
        except OSError:
            pass
    # the supervisor owns interrupt handling; a terminal Ctrl-C reaches
    # the whole process group, and workers must drain, not die mid-write
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    send_lock = threading.Lock()
    stop = threading.Event()
    # task_id of the executing lease; "" between tasks (no heartbeats)
    active: Dict[str, str] = {"task_id": ""}

    def send(message: tuple) -> None:
        with send_lock:
            conn.send(message)

    def heartbeat_loop() -> None:
        while not stop.wait(heartbeat_interval):
            task_id = active["task_id"]
            if not task_id:
                continue
            try:
                send(("heartbeat", worker_id, task_id))
            except (BrokenPipeError, OSError):
                return

    beater = threading.Thread(
        target=heartbeat_loop, name=f"repro-heartbeat-{worker_id}", daemon=True
    )
    beater.start()

    try:
        send(("ready", worker_id))
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # supervisor went away; nothing left to serve
            if message[0] == "shutdown":
                break
            _tag, task_id, index, attempt = message
            send(("ack", worker_id, task_id))
            active["task_id"] = task_id

            def emit(kind: str, payload: Dict[str, Any]) -> None:
                send(("event", worker_id, task_id, kind, payload))

            try:
                with ipc.worker_context(attempt, emit):
                    value = fn(items[index])
            except BaseException as exc:  # noqa: BLE001 - full fault transport
                active["task_id"] = ""
                send(("error", worker_id, task_id, index, ipc.encode_error(exc)))
                continue
            active["task_id"] = ""
            try:
                send(("result", worker_id, task_id, index, value))
            except (BrokenPipeError, OSError):
                break
            except Exception as exc:  # unpicklable result: report, don't die
                send(("error", worker_id, task_id, index, ipc.encode_error(exc)))
    finally:
        stop.set()
        try:
            conn.close()
        except OSError:
            pass
