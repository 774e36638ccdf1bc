"""parallel.run and the worker team it runs on.

A team started by parallel.team serves every run called on its thread
inside the block, and the block joins all its workers when it ends. run
keeps one contract with or without an open team: results in job order,
and the first failure in job order raised only once every job of the call
has ended.
"""

import threading
import time

import pytest

from poselift import parallel


@pytest.fixture
def started(monkeypatch):
    """The threading.Threads started from now on."""
    out, start = [], threading.Thread.start

    def counting(self):
        out.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return out


def ident_job(value):
    return lambda: (value, threading.get_ident())


def test_run_in_a_team_keeps_job_order_and_reuses_its_workers(fast_switches, started):
    # more threads than this machine has cores, switching as often as the
    # interpreter allows
    with parallel.team(5):
        assert len(started) == 4
        seen = set()
        for call in range(50):
            got = parallel.run([ident_job(10 * call + s) for s in range(13)], 5)
            assert [value for value, _ in got] == [10 * call + s for s in range(13)]
            seen |= {ident for _, ident in got}
        # a call of fewer threads takes some of the same workers
        assert [v for v, _ in parallel.run([ident_job(s) for s in range(3)], 2)] == [0, 1, 2]
    assert len(started) == 4
    assert seen == {threading.get_ident()} | {worker.ident for worker in started}
    assert not any(worker.is_alive() for worker in started)


def test_run_in_a_team_raises_the_first_failure_after_every_job_ended(started):
    # the calling thread's first job fails after the third thread's job has
    # failed, while the second thread still runs both of its slow jobs
    failed_first = threading.Event()
    ended = []

    def slow(s):
        def job():
            time.sleep(0.05)
            ended.append(s)
            return s
        return job

    def fail(s, after=None):
        def job():
            if after is not None:
                assert after.wait(10)
            else:
                failed_first.set()
            raise ValueError(f"job {s}")
        return job

    jobs = [fail(0, after=failed_first), slow(1), fail(2), slow(3), slow(4), slow(5)]
    with parallel.team(3):
        for _ in range(2):
            ended.clear()
            failed_first.clear()
            with pytest.raises(ValueError, match="^job 0$"):
                parallel.run(jobs, 3)
            # each failing thread stopped at its failure; the second ran both of its jobs
            assert sorted(ended) == [1, 4]
        # the same team serves the next call after a failing one
        assert [v for v, _ in parallel.run([ident_job(s) for s in range(5)], 3)] == list(range(5))
    assert len(started) == 2


def test_leaving_a_team_joins_its_workers_also_when_the_block_raises(started):
    before = threading.enumerate()
    with pytest.raises(KeyError):
        with parallel.team(4):
            parallel.run([ident_job(s) for s in range(4)], 4)
            raise KeyError("block")
    assert len(started) == 3
    assert not any(worker.is_alive() for worker in started)
    assert threading.enumerate() == before


def test_a_team_of_one_thread_and_a_one_thread_run_start_none(started):
    with parallel.team(1):
        assert parallel.run([ident_job(s) for s in range(3)], 1) == [
            (s, threading.get_ident()) for s in range(3)]
    assert parallel.run([ident_job(0)], 3) == [(0, threading.get_ident())]
    assert started == []


def test_run_without_a_team_opens_one_for_the_call(started):
    for call in range(2):
        got = parallel.run([ident_job(s) for s in range(5)], 2)
        assert [v for v, _ in got] == list(range(5))
        assert len(started) == call + 1 and not started[-1].is_alive()


def test_runs_nested_in_a_team_call_or_past_its_size_open_their_own(started):
    # job 0 runs on the calling thread while the team's worker runs job 1,
    # so its inner call cannot take the busy worker; a call of more threads
    # than the team holds cannot use it either
    def inner():
        return [v for v, _ in parallel.run([ident_job(s) for s in range(3)], 2)]

    with parallel.team(2):
        assert parallel.run([inner, inner], 2) == [[0, 1, 2], [0, 1, 2]]
        assert len(started) == 1 + 2
        got = parallel.run([ident_job(s) for s in range(3)], 3)
        assert [v for v, _ in got] == [0, 1, 2] and len(started) == 1 + 2 + 2
        assert [v for v, _ in parallel.run([ident_job(s) for s in range(3)], 2)] == [0, 1, 2]
        assert len(started) == 5
    assert not any(worker.is_alive() for worker in started)
