"""Process control for the work that runs on two CPUs: numpy's OpenBLAS
thread count, and a forked child that exchanges events with its parent
through two pipes and arrays through shared memory, is killed and reaped
on every exit path, and dies with its parent. The rule that says when a
fork pays is known here alone: ``forked`` applies it.

``cli.main`` runs every command at one OpenBLAS thread (``one_blas_thread``)
whatever ``OPENBLAS_NUM_THREADS`` says, since at another count BLAS may sum
in another order; library callers keep their own count. ``forked`` makes a
child only at one BLAS thread, for two or more tasks (grid points or
steps), on two or more CPUs: at one thread per core, two processes
oversubscribe the cores. The fork is safe: numpy's OpenBLAS stops its
thread pool in a ``pthread_atfork`` handler before every fork, and the
child inherits the one-thread setting, so it computes the parent's bits
and both ways write the same bytes. A pinned fork (Phase I's) also needs
a CPU set of exactly two CPUs and pins one process to each: unpinned, a
worker asleep in its read was woken onto the busy parent's CPU, which
made the run slower than one process. A larger set would give every run
started beside this one the same two CPUs, so it keeps Phase I in one
process (``taskset -c 2,3 bke pretrain ...`` gives a run its own pair).
Without a pipe or a fork, the work runs in one process too.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import mmap
import os
import pickle
import signal
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

_NUMPY_LIBS = Path(np.__file__).resolve().parent.parent / "numpy.libs"


@functools.cache
def _openblas(verb: str):
    """numpy's OpenBLAS scipy_openblas_{verb}_num_threads64_ (verb "get" or
    "set"), typed and looked up once, or None when its library or the symbol cannot be found."""
    try:
        lib = ctypes.CDLL(str(min(_NUMPY_LIBS.glob("libscipy_openblas*.so"))))
        fn = getattr(lib, f"scipy_openblas_{verb}_num_threads64_")
    except (ValueError, OSError, AttributeError):  # no library file, not a library, no symbol
        return None
    fn.argtypes, fn.restype = ((), ctypes.c_int) if verb == "get" else ((ctypes.c_int,), None)
    return fn


def blas_threads() -> int | None:
    """The thread count of numpy's OpenBLAS, or None when its library or
    its getter cannot be found."""
    getter = _openblas("get")
    return None if getter is None else getter()


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the block at one OpenBLAS thread, then restore the count however
    it ends; without the library, its getter or its setter, change nothing."""
    threads, setter = blas_threads(), _openblas("set")
    if threads is None or setter is None:
        yield
        return
    setter(1)
    try:
        yield
    finally:
        setter(threads)


def _fork_pays(n_tasks: int, pin: bool) -> bool:
    """Whether work of n_tasks sequential parts is split with a forked
    child (the rule in the module docstring). A BLAS count that cannot be
    read or set to one keeps the work in one process."""
    cpus = len(os.sched_getaffinity(0))
    return n_tasks >= 2 and blas_threads() == 1 and (cpus == 2 if pin else cpus >= 2)


class Peer:
    """The other process of a fork, through a pipe each way. Each side
    ``signal``s its events, one byte each, and ``wait``s for the other's in
    a blocking read; a read and a write of a pipe are system calls, which
    order the peer's writes to shared memory before the event that
    announces them. A side that fails sends b"!" and its pickled exception,
    which the other side's ``wait`` raises."""

    def __init__(self, name: str, pid: int | None, read_fd: int, write_fd: int) -> None:
        self.name, self.pid = name, pid
        self.read_fd, self.write_fd = read_fd, write_fd
        self.count = 0
        self.exit_code: int | None = None
        self._failure: bytearray | None = None  # the pickled exception, once b"!" is read

    def signal(self) -> None:
        os.write(self.write_fd, b".")

    def fail(self, exc: BaseException) -> None:
        os.write(self.write_fd, b"!" + pickle.dumps(exc))

    def wait(self, n: int, where: str) -> None:
        """Return once n events have arrived. When the pipe closes first,
        raise the peer's exception, or a RuntimeError that names the peer,
        its exit status and where."""
        while self.count < n:
            chunk = os.read(self.read_fd, 1 << 16)
            if not chunk:
                if self._failure:
                    raise pickle.loads(self._failure)
                raise RuntimeError(f"{self.name} exited with status {self.reap()} {where}")
            if self._failure is not None:
                self._failure += chunk
                continue
            events, mark, rest = chunk.partition(b"!")
            self.count += len(events)
            if mark:
                self._failure = bytearray(rest)

    def reap(self) -> int | None:
        """Wait for the peer once, if it is this process's child, and keep its exit code."""
        if self.exit_code is None and self.pid is not None:
            self.exit_code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.exit_code


@contextlib.contextmanager
def forked(work: Callable[[Peer], object], name: str, n_tasks: int,
           pin: bool = False) -> Iterator[Peer | None]:
    """Run work(parent) in a forked child named name, with parent the Peer
    of this process. The child ends with ``os._exit``: status 0 when work
    returns, and 1 when it raises, after it sends its exception to this
    process; there is no flush of the parent's buffered output and no exit
    handler. The block gets the child's Peer, or None when a fork does not
    pay for work of n_tasks sequential parts (see the module docstring) or
    a pipe or the fork cannot be made; then no child and no pipe exists.
    When the block raises, the child is killed; either way both pipes are
    closed and the child is reaped when the block ends. Where libc has
    ``prctl``, the kernel kills the child when this process dies.

    With pin, this process runs on the lowest CPU of its set and the child
    on the highest, so that the scheduler never wakes one of them onto the
    other's CPU; this process's CPU set is restored when the block ends."""
    if not _fork_pays(n_tasks, pin):
        yield None
        return
    own, parent_pid = os.sched_getaffinity(0), os.getpid()
    fds: list[int] = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        yield None
        return
    from_child, to_parent, from_parent, to_child = fds
    if pid == 0:
        code = 1
        try:
            prctl = getattr(ctypes.CDLL(None), "prctl", None)
            if prctl is not None:  # PR_SET_PDEATHSIG: die with the parent, or now if it is gone
                prctl(1, ctypes.c_ulong(signal.SIGKILL))
                if os.getppid() != parent_pid:
                    os._exit(1)
            os.close(from_child)
            os.close(to_child)
            if pin:
                os.sched_setaffinity(0, {max(own)})
            parent = Peer("the parent process", None, from_parent, to_parent)
            try:
                work(parent)
                code = 0
            except Exception as exc:
                parent.fail(exc)
        finally:
            os._exit(code)
    os.close(to_parent)
    os.close(from_parent)
    child = Peer(name, pid, from_child, to_child)
    try:
        if pin:
            os.sched_setaffinity(0, {min(own)})
        yield child
    except BaseException:
        if child.exit_code is None:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        try:
            os.close(from_child)
            os.close(to_child)
            child.reap()
        finally:
            os.sched_setaffinity(0, own)


def shared_arrays(shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Zeroed float64 arrays of the given shapes, carved out of one
    anonymous shared mapping: a child forked after the call shares them
    with this process."""
    sizes = [math.prod(shape) for shape in shapes]
    # a mapping cannot be empty, so shapes of no element still map one float
    flat = np.frombuffer(mmap.mmap(-1, 8 * max(sum(sizes), 1)), dtype=np.float64)
    ends = np.cumsum(sizes)
    return [flat[end - size:end].reshape(shape) for shape, size, end in zip(shapes, sizes, ends)]
