"""The server under test as a subprocess, and the load generator.

The server runs ``python -m repro.server.cli`` in its own process, so the
client's JSON work never shares an interpreter lock with it.  The load
generator is this one process with at most ``CONNECTIONS`` threads, one
persistent connection each (the sandbox has two cores).
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from harness import OUT, ROOT, WORK_CPUS

CONNECTIONS = 2
#: The server gets the work CPU (where the machine gauge watches) and the
#: load generator the others (the same one on a single-CPU machine): left
#: to the kernel, the two shared and traded CPUs, and five-second slices
#: of throughput spread by 16 % where pinned ones spread by 10 %.
SERVER_CPUS = WORK_CPUS
CLIENT_CPUS = os.sched_getaffinity(0) - SERVER_CPUS or SERVER_CPUS
REQUEST_TIMEOUT_S = 60.0
_HEADERS = {"Content-Type": "application/json"}


class ServerProcess:
    """``repro.server.cli`` on an OS-chosen port, stopped on exit.

    Use as a context manager, or call :meth:`stop` in a ``finally``: the
    process is terminated, waited for, and killed if it does not go.
    """

    def __init__(self, args: list[str], log_name: str, boot_deadline_s: float = 60.0):
        self.args = args
        self.log_path = OUT / f"{log_name}.stderr.log"
        self.boot_deadline_s = boot_deadline_s
        self.process: subprocess.Popen | None = None
        self.port = 0
        self._log = None

    def start(self) -> "ServerProcess":
        OUT.mkdir(parents=True, exist_ok=True)
        self._log = open(self.log_path, "wb")
        try:
            os.sched_setaffinity(0, SERVER_CPUS)  # inherited by the server
            try:
                self.process = subprocess.Popen(
                    [sys.executable, "-m", "repro.server.cli",
                     "--host", "127.0.0.1", "--port", "0", *self.args],
                    stdout=subprocess.PIPE, stderr=self._log, cwd=ROOT,
                )
            finally:
                os.sched_setaffinity(0, CLIENT_CPUS)
            deadline = time.monotonic() + self.boot_deadline_s
            self.port = self._read_port(deadline)
            self._await_healthy(deadline)
        except BaseException:
            self.stop()
            raise
        return self

    def _read_port(self, deadline: float) -> int:
        """The CLI's first stdout line announces the bound address."""
        stdout = self.process.stdout
        ready, _, _ = select.select([stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = stdout.readline() if ready else b""
        try:
            return int(json.loads(line)["listening"]["port"])
        except (ValueError, KeyError, TypeError):
            raise RuntimeError(
                f"server did not announce a port (see {self.log_path}): {line!r}"
            ) from None

    def _await_healthy(self, deadline: float) -> None:
        while True:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except (OSError, http.client.HTTPException):
                pass
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited during boot (see {self.log_path})")
            if time.monotonic() > deadline:
                raise RuntimeError("server not healthy before the deadline")
            time.sleep(0.02)

    def get(self, path: str) -> tuple[int, dict]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def stats(self) -> dict:
        status, payload = self.get("/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return payload

    def vm_hwm_mb(self) -> float:
        """The server's high-water resident set (``VmHWM``), in MiB."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        process, self.process = self.process, None
        try:
            if process is not None and process.poll() is None:
                process.terminate()
                try:
                    process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
        finally:
            if process is not None and process.stdout is not None:
                process.stdout.close()
            if self._log is not None:
                self._log.close()
                self._log = None

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _children() -> list[int]:
    """Every process whose parent is this one (zombies too)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                ppid = int(handle.read().rpartition(")")[2].split()[1])
        except (OSError, ValueError, IndexError):
            continue  # gone while we looked
        if ppid == os.getpid():
            found.append(int(entry))
    return found


def stop_children(grace_s: float = 10.0) -> None:
    """End and reap every child this process still has; a run's last act.

    ``multiprocessing``'s resource tracker (the process-pool probe starts
    one) ends only when it sees this process go, so it would outlive the
    run as an orphan: it is closed and waited for here.  Any other child
    left by an exception path is terminated, waited for, and killed if it
    does not go.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()  # no-op if none was started
    children = _children()
    for pid in children:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace_s
    for pid in children:
        try:
            while os.waitpid(pid, os.WNOHANG)[0] == 0:
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.01)
        except (ChildProcessError, ProcessLookupError):
            pass  # reaped by its owner in the meantime


@dataclass
class Exchange:
    """One request as the client saw it (times are ``perf_counter``'s)."""

    index: int
    due: float
    sent: float
    done: float
    status: int  # 0: no HTTP answer (refused, reset, timed out)
    body: bytes | None


class _Connection:
    """A persistent connection that reconnects after a transport error."""

    def __init__(self, port: int):
        self.port = port
        self.conn = None

    def post(self, body: bytes) -> tuple[int, bytes]:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
            )
        try:
            self.conn.request("POST", "/match", body=body, headers=_HEADERS)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def _run_threads(worker, count: int) -> None:
    errors: list[BaseException] = []

    def guarded(slot: int) -> None:
        try:
            worker(slot)
        except BaseException as exc:  # re-raised in the caller's thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(slot,)) for slot in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def closed_loop(
    port: int, bodies: list[bytes], seconds: float | None, keep_bodies: bool = True
) -> list[Exchange]:
    """Each connection sends its next request when the previous one is
    answered.  Connection ``c`` owns bodies ``c, c+C, ...``: it sends all
    of them once, then keeps cycling until ``seconds`` have passed
    (``None``: one pass only).  Response bodies are kept for the first
    pass; they are parsed after the clock stops.
    """
    exchanges: list[list[Exchange]] = [[] for _ in range(CONNECTIONS)]
    start = time.perf_counter()

    def worker(slot: int) -> None:
        owned = range(slot, len(bodies), CONNECTIONS)
        conn = _Connection(port)
        try:
            first = True
            while owned:
                for index in owned:
                    sent = time.perf_counter()
                    if not first and sent - start >= seconds:
                        return
                    status, body = conn.post(bodies[index])
                    exchanges[slot].append(Exchange(
                        index, sent, sent, time.perf_counter(), status,
                        body if first and keep_bodies else None,
                    ))
                first = False
                if seconds is None:
                    return
        finally:
            conn.close()

    _run_threads(worker, CONNECTIONS)
    return [x for per_slot in exchanges for x in per_slot]


def open_loop(
    port: int, bodies: list[bytes], due: list[float]
) -> tuple[list[Exchange], float]:
    """Request ``i`` is due ``due[i]`` seconds after the start, whatever
    the server is doing; a free connection sends it then, or as soon as
    one frees up.  Latency counts from the due time, so a stall is paid
    by every request it delays.
    """
    exchanges: list[Exchange] = []
    lock = threading.Lock()
    cursor = iter(range(len(bodies)))
    start = time.perf_counter()

    def worker(slot: int) -> None:
        conn = _Connection(port)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                wait = start + due[index] - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                status, body = conn.post(bodies[index])
                done = time.perf_counter()
                with lock:
                    exchanges.append(
                        Exchange(index, start + due[index], sent, done, status, body)
                    )
        finally:
            conn.close()

    _run_threads(worker, CONNECTIONS)
    wall = time.perf_counter() - start
    exchanges.sort(key=lambda x: x.index)
    return exchanges, wall
