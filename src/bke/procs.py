"""Process control for the work that runs on two CPUs: the BLAS thread
reader, the rule that says when a fork pays and which two CPUs to pin,
and a forked child that exchanges events with its parent through two
pipes and arrays through shared memory, and that is killed and reaped on
every exit path.

``bke sweep`` and Phase I (``pretrain``) fork one child only when numpy's
OpenBLAS runs one thread (``OPENBLAS_NUM_THREADS=1``), for two or more
grid points or steps, on two or more CPUs (``fork_pays``). With its
default of one thread per core, two processes oversubscribe the cores
and take several times as long as one. With one BLAS thread the process
runs no other thread, so a fork is safe, and the child inherits the
parent's BLAS state, so it computes the parent's bits: both ways write
the same bytes. Phase I also needs a CPU set of exactly two CPUs
(``cpu_pair``) and pins one process to each: unpinned, a worker asleep in
its read was woken onto the busy parent's CPU, which made the run slower
than one process. CPUs picked from a larger set would be the same two for
every run started beside this one, so such a set keeps Phase I in one
process (``taskset -c 2,3 bke pretrain ...`` gives a run its own pair).
When a pipe or the fork cannot be made, the work runs in one process.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import mmap
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
    so pinning one process to each CPU takes no CPU from another run."""
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) == 2 else None


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
def forked(work: Callable[[Peer], object], name: str,
           cpus: tuple[int, int] | None = None) -> Iterator[Peer | None]:
    """Run work(parent) in a forked child named name, with parent the Peer
    of this process. The child ends with ``os._exit``: status 0 when work
    returns, and 1 when it raises, after it sends its exception to this
    process; there is no flush of the parent's buffered output and no exit
    handler. The block gets the child's Peer, or None when a pipe or the
    fork cannot be made, and then no child and no pipe exists. When the
    block raises, the child is killed; either way both pipes are closed and
    the child is reaped when the block ends.

    With cpus, this process runs on cpus[0] and the child on cpus[1], so
    that the scheduler never wakes one of them onto the other's CPU; this
    process's CPU set is restored when the block ends."""
    own = os.sched_getaffinity(0)
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
            os.close(from_child)
            os.close(to_child)
            if cpus:
                os.sched_setaffinity(0, {cpus[1]})
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
        if cpus:
            os.sched_setaffinity(0, {cpus[0]})
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
    flat = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes)), dtype=np.float64)
    ends = np.cumsum(sizes)
    return [flat[end - size:end].reshape(shape) for shape, size, end in zip(shapes, sizes, ends)]
