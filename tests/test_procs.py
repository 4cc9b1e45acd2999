import errno
import hashlib
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bke import procs

ROOT = Path(__file__).resolve().parent.parent


def process_state(pid):
    """The state letter in /proc/<pid>/stat, or None when there is no such process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    return stat.rpartition(")")[2].split()[0]


def test_forked_pins_each_process_to_its_cpu_and_restores_the_set():
    cpus = os.sched_getaffinity(0)
    pair = (min(cpus), max(cpus))
    [theirs] = procs.shared_arrays([(max(cpus) + 1,)])

    def work(parent):
        theirs[sorted(os.sched_getaffinity(0))] = 1.0
        parent.signal()

    with procs.forked(work, "the child", pair) as child:
        ours = os.sched_getaffinity(0)
        child.wait(1, "before it read its CPU set")
        assert child.reap() == 0
    assert (ours, set(np.flatnonzero(theirs))) == ({pair[0]}, {pair[1]})
    assert os.sched_getaffinity(0) == cpus


def test_shared_arrays_are_zeroed_and_apart():
    a, b = procs.shared_arrays([(2, 3), (4,)])
    assert (a.shape, b.shape, a.dtype, b.dtype) == ((2, 3), (4,), np.float64, np.float64)
    assert not a.any() and not b.any()
    a[...] = 1.0
    assert not b.any()


@pytest.mark.parametrize("cpus, pair", [({3, 5}, (3, 5)), ({1, 0}, (0, 1)), ({0}, None),
                                        ({0, 1, 2}, None), (set(range(64)), None)])
def test_cpu_pair_is_a_set_of_exactly_two(monkeypatch, cpus, pair):
    # runs started side by side on a larger set would all pin the same two
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    assert procs.cpu_pair() == pair


def test_forked_child_that_raises_exits_1_and_a_block_that_raises_kills_it():
    def fail(parent):
        raise ValueError("in the child")

    with procs.forked(fail, "the child") as child:
        with pytest.raises(ValueError, match="in the child"):
            child.wait(1, "before its first event")
        assert child.reap() == 1
    with pytest.raises(KeyboardInterrupt):
        with procs.forked(lambda parent: time.sleep(60), "the child") as child:
            raise KeyboardInterrupt
    assert child.exit_code == -9
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_yields_none_when_the_fork_fails(monkeypatch):
    def failing_fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", failing_fork)
    with procs.forked(lambda parent: None, "the child", (0, 1)) as child:
        assert child is None


def test_events_count_signals_then_raise_the_peers_failure():
    def work(parent):
        parent.signal()
        parent.signal()
        parent.wait(1, "before its third event")
        parent.signal()
        raise FloatingPointError("conv2d produced non-finite values")

    with procs.forked(work, "the child") as child:
        child.wait(2, "at its second event")
        child.signal()
        child.wait(3, "at its third event")  # the events before the failure still count
        with pytest.raises(FloatingPointError, match="conv2d produced non-finite values"):
            child.wait(4, "at its fourth event")
    assert child.exit_code == 1


def test_events_name_a_pipe_closed_without_a_failure():
    def work(parent):
        parent.signal()
        os._exit(3)

    with procs.forked(work, "the child") as child:
        child.wait(1, "at its first event")
        message = "the child exited with status 3 at its second event"
        with pytest.raises(RuntimeError, match=re.escape(message)):
            child.wait(2, "at its second event")
    assert child.exit_code == 3


ORPHAN_SCRIPT = """
import time
from bke import procs

with procs.forked(lambda parent: time.sleep(30), "the child") as child:
    print(child.pid, flush=True)
    child.wait(1, "before its first event")
"""


def test_forked_child_dies_with_its_parent():
    # a zombie still answers kill(pid, 0), so the state is read from /proc
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen([sys.executable, "-c", ORPHAN_SCRIPT], env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        child = int(proc.stdout.readline())
    finally:
        proc.kill()
        proc.wait(timeout=30)
        proc.stdout.close()
    deadline = time.monotonic() + 2
    while process_state(child) not in (None, "Z", "X") and time.monotonic() < deadline:
        time.sleep(0.01)
    state = process_state(child)
    if state not in (None, "Z", "X"):
        os.kill(child, signal.SIGKILL)
    assert state in (None, "Z", "X")


GEMM_SCRIPT = """
import hashlib, sys
import numpy as np
from bke import procs

a = np.random.default_rng(0).standard_normal((600, 600))
if sys.argv[1] == "plain":
    print(hashlib.sha256((a @ a).tobytes()).hexdigest())
    sys.exit()
a @ a  # the pool runs at the process's own count first
with procs.one_blas_thread():
    [theirs] = procs.shared_arrays([a.shape])

    def work(parent):
        theirs[...] = a @ a
        parent.signal()

    with procs.forked(work, "the child") as child:
        ours = a @ a
        child.wait(1, "before its product")
print(hashlib.sha256(ours.tobytes()).hexdigest(), hashlib.sha256(theirs.tobytes()).hexdigest())
"""


def test_fork_after_one_blas_thread_computes_the_bits_of_one_thread():
    # the setter leaves OpenBLAS's pool thread alive; its atfork handler
    # stops the pool, so neither process may hang or sum in another order
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")

    def gemm(mode, **threads):
        proc = subprocess.run([sys.executable, "-c", GEMM_SCRIPT, mode], env={**env, **threads},
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        return proc.stdout.split()

    [one_thread] = gemm("plain", OPENBLAS_NUM_THREADS="1")
    assert gemm("forked") == [one_thread, one_thread]
