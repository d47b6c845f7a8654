"""Forked worker processes for the commands that split their work: an mc
sweep and ``verify``. Only they import this module.

A worker is forked with ``os`` alone, after the parent has loaded what the
work needs, and sends its results back through its own pipe as raw bytes.
The parent does the work of any worker that could not start, died or sent
too little, so the results never depend on the workers.
"""

from __future__ import annotations

import functools
import os
import threading
from contextlib import contextmanager, suppress


def cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def processes(limit: int) -> int:
    """One process per CPU, at most ``limit``, and just one where ``os.fork``
    is missing or another thread is alive."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(cpus(), limit)


def fork(work, inherited: list[int]) -> tuple[int, int] | None:
    """Fork a worker that runs ``work(fd)``, fd the write end of a new pipe,
    and then ends in ``os._exit``, whatever ``work`` does: it never returns
    here, flushes this process's buffers or writes its output. It first
    closes ``inherited``, the read ends of earlier workers. Returns the
    worker's pid and the pipe's read end, or None if no worker could start.
    """
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        code = 1
        try:
            for fd in (read_fd, *inherited):
                os.close(fd)
            work(write_fd)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def receive(fd: int, size: int) -> bytes | None:
    """Exactly ``size`` bytes from the pipe ``fd``, or None if it ends first."""
    chunks = []
    while size:
        try:
            chunk = os.read(fd, size)
        except OSError:
            return None
        if not chunk:
            return None
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def send(fd: int, data) -> None:
    """Write all the bytes of ``data``, a contiguous buffer, to the pipe ``fd``."""
    data = memoryview(data).cast("B")    # os.write counts bytes, not items
    while data:
        data = data[os.write(fd, data):]


def stop(pid: int) -> None:
    import signal    # only a worker that failed, or a command that did, is stopped

    with suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


@contextmanager
def workers(count: int, work):
    """Fork workers 1 ... ``count``, worker k running ``work(k, fd)`` (see
    ``fork``), and yield a dict k -> (pid, pipe read end) of those that
    started, from which the body may remove a failed one after stopping it
    and closing its pipe. On the way out every pipe left is closed and every
    worker reaped, after it is killed if the body raised.
    """
    started, pids = {}, []
    try:
        for k in range(1, count + 1):
            worker = fork(functools.partial(work, k), [fd for _, fd in started.values()])
            if worker is not None:
                started[k] = worker
                pids.append(worker[0])
        yield started
    except BaseException:
        for pid, _ in started.values():
            stop(pid)
        raise
    finally:
        for _, fd in started.values():
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)
