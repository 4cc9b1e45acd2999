import errno
import os
import re
import time

import numpy as np
import pytest

from bke import procs


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
