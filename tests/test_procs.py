import errno
import os
import pickle
import time

import pytest

from bke import procs


def test_forked_pins_each_process_to_its_cpu_and_restores_the_set():
    cpus = os.sched_getaffinity(0)
    pair = (min(cpus), max(cpus))
    read_fd, write_fd = os.pipe()

    def work():
        os.write(write_fd, pickle.dumps(os.sched_getaffinity(0)))

    with procs.forked(work, pair) as child:
        os.close(write_fd)
        ours = os.sched_getaffinity(0)
        assert child.wait() == 0
    with os.fdopen(read_fd, "rb") as pipe:
        theirs = pickle.load(pipe)
    assert (ours, theirs) == ({pair[0]}, {pair[1]})
    assert os.sched_getaffinity(0) == cpus


@pytest.mark.parametrize("cpus, pair", [({3, 5}, (3, 5)), ({1, 0}, (0, 1)), ({0}, None),
                                        ({0, 1, 2}, None), (set(range(64)), None)])
def test_cpu_pair_is_a_set_of_exactly_two(monkeypatch, cpus, pair):
    # runs started side by side on a larger set would all pin the same two
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    assert procs.cpu_pair() == pair


def test_forked_child_that_raises_exits_1_and_a_block_that_raises_kills_it():
    def fail():
        raise ValueError("in the child")

    with procs.forked(fail) as child:
        assert child.wait() == 1
    with pytest.raises(KeyboardInterrupt):
        with procs.forked(lambda: time.sleep(60)) as child:
            raise KeyboardInterrupt
    assert child.exit_code == -9
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_yields_none_when_the_fork_fails(monkeypatch):
    def failing_fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", failing_fork)
    with procs.forked(lambda: None, (0, 1)) as child:
        assert child is None


def test_events_count_signals_then_raise_the_peers_failure():
    read_fd, write_fd = os.pipe()
    events = procs.Events(read_fd)
    procs.signal_event(write_fd)
    procs.signal_event(write_fd)
    events.wait(2)
    procs.signal_event(write_fd)
    procs.signal_failure(write_fd, FloatingPointError("conv2d produced non-finite values"))
    os.close(write_fd)
    events.wait(3)  # the events before the failure still count
    with pytest.raises(FloatingPointError, match="conv2d produced non-finite values"):
        events.wait(4)
    os.close(read_fd)


def test_events_name_a_pipe_closed_without_a_failure():
    read_fd, write_fd = os.pipe()
    events = procs.Events(read_fd)
    procs.signal_event(write_fd)
    os.close(write_fd)
    with pytest.raises(procs.PeerError, match="pipe closed after 1 events"):
        events.wait(2)
    os.close(read_fd)
