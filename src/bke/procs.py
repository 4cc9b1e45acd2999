"""Process control for the work that runs on two CPUs: the BLAS thread
reader, the rules that say when a fork pays and which two CPUs to pin, a
forked child that is killed and reaped on every exit path, and one-byte
event signals between the two processes.

``bke sweep`` and Phase I (``pretrain``) fork only when numpy's OpenBLAS
runs one thread. With its default of one thread per core, two processes
oversubscribe the cores and take several times as long as one. With one
BLAS thread the process runs no other thread, so a fork is safe, and the
child inherits the parent's BLAS state, so it computes the parent's bits.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import pickle
import signal
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

_NUMPY_LIBS = Path(np.__file__).resolve().parent.parent / "numpy.libs"


def blas_threads() -> int | None:
    """The thread count of the OpenBLAS bundled with numpy's wheel, or None
    when its library or its getter cannot be found."""
    for lib in sorted(_NUMPY_LIBS.glob("libscipy_openblas*.so")):
        try:
            getter = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            return None
        getter.argtypes, getter.restype = (), ctypes.c_int
        return getter()
    return None


def fork_pays(n_tasks: int) -> bool:
    """Whether work of n_tasks sequential parts is split with a forked
    child: two or more parts, two or more CPUs, and a one-thread BLAS. A
    thread count that cannot be read keeps the work in one process."""
    return n_tasks >= 2 and blas_threads() == 1 and len(os.sched_getaffinity(0)) >= 2


def cpu_pair() -> tuple[int, int] | None:
    """The two CPUs of this process's set when it holds exactly two, else
    None. Such a set was chosen for this process (say with ``taskset``),
    so pinning one process to each CPU takes no CPU from another run. Two
    CPUs picked from a larger set would be the same two for every run
    started beside this one."""
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) == 2 else None


class Child:
    """A forked child process; ``wait`` reaps it once and keeps its exit code."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.exit_code: int | None = None

    def wait(self) -> int:
        if self.exit_code is None:
            self.exit_code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.exit_code


@contextlib.contextmanager
def forked(work: Callable[[], object],
           cpus: tuple[int, int] | None = None) -> Iterator[Child | None]:
    """Run work() in a forked child, which ends with ``os._exit``: status 0
    when work returns and 1 when it raises, with no flush of the parent's
    buffered output and no exit handlers. The block gets the Child, or None
    when the fork fails, and then no child exists. When the block raises,
    the child is killed; either way it is reaped when the block ends.

    With cpus, this process runs on cpus[0] and the child on cpus[1], so
    that the scheduler never wakes one of them onto the other's CPU; this
    process's CPU set is restored when the block ends."""
    own = os.sched_getaffinity(0)
    try:
        pid = os.fork()
    except OSError:
        pid = None
    if pid is None:
        yield None
        return
    if pid == 0:
        code = 1
        try:
            if cpus:
                os.sched_setaffinity(0, {cpus[1]})
            work()
            code = 0
        finally:
            os._exit(code)
    child = Child(pid)
    try:
        if cpus:
            os.sched_setaffinity(0, {cpus[0]})
        yield child
    except BaseException:
        if child.exit_code is None:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        try:
            child.wait()
        finally:
            os.sched_setaffinity(0, own)


class PeerError(RuntimeError):
    """The other process closed its pipe without reporting a failure."""


class Events:
    """Counts the events the other process signals through a pipe, one
    byte each, and waits for them in a blocking read. A read and a write
    of a pipe are system calls, which order the peer's writes to shared
    memory before the event that announces them. A peer that fails writes
    b"!" and its pickled exception, which ``wait`` raises."""

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.count = 0
        self._failure: bytearray | None = None  # the pickled exception, once b"!" is read

    def wait(self, n: int) -> None:
        """Return once n events have arrived; raise the peer's exception, or
        PeerError, when its pipe closes first."""
        while self.count < n:
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                if self._failure:
                    raise pickle.loads(self._failure)
                raise PeerError(f"pipe closed after {self.count} events")
            if self._failure is not None:
                self._failure += chunk
                continue
            events, mark, rest = chunk.partition(b"!")
            self.count += len(events)
            if mark:
                self._failure = bytearray(rest)


def signal_event(fd: int) -> None:
    os.write(fd, b".")


def signal_failure(fd: int, exc: BaseException) -> None:
    os.write(fd, b"!" + pickle.dumps(exc))
