"""SimComm: point-to-point, collectives, SPMD driver, accounting."""

import time

import numpy as np
import pytest

from repro.parallel.comm import CommError, PeerFailedError, SimWorld, run_spmd


class TestPointToPoint:
    def test_send_recv(self):
        def main(comm):
            if comm.rank == 0:
                comm.send({"a": 7}, dest=1, tag=11)
                return None
            return comm.recv(source=0, tag=11)

        results = run_spmd(2, main)
        assert results[1] == {"a": 7}

    def test_tag_filtering_with_stash(self):
        def main(comm):
            if comm.rank == 0:
                comm.send("first", dest=1, tag=1)
                comm.send("second", dest=1, tag=2)
                return None
            second = comm.recv(source=0, tag=2)  # out of order
            first = comm.recv(source=0, tag=1)  # served from stash
            return (first, second)

        assert run_spmd(2, main)[1] == ("first", "second")

    def test_invalid_dest(self):
        def main(comm):
            comm.send(1, dest=99)

        with pytest.raises(CommError, match="out of range"):
            run_spmd(2, main)


class TestCollectives:
    def test_bcast(self):
        def main(comm):
            data = {"key": [1, 2]} if comm.rank == 0 else None
            return comm.bcast(data)

        assert all(r == {"key": [1, 2]} for r in run_spmd(4, main))

    def test_gather_at_root(self):
        def main(comm):
            return comm.gather([comm.rank, comm.rank**2])

        results = run_spmd(3, main)
        assert results[0] == [[0, 0], [1, 1], [2, 4]]
        assert results[1] is None

    def test_root_error_wakes_blocked_peers(self):
        """The root's error is reported, and promptly.

        Ranks 1 and 2 are blocked in ``recv`` when rank 0 raises; they must
        be woken by the failure (as collateral ``PeerFailedError``s ranked
        below the root cause), not left to sit out ``SimComm.TIMEOUT``.
        """
        def main(comm):
            if comm.rank == 0:
                comm.send(1, dest=99)
            comm.recv(source=0)

        start = time.monotonic()
        with pytest.raises(CommError, match="out of range") as excinfo:
            run_spmd(3, main)
        assert time.monotonic() - start < 2.0
        assert not isinstance(excinfo.value, PeerFailedError)

    def test_recv_after_peer_failure_raises_immediately(self):
        world = SimWorld(2)
        world.fail()
        start = time.monotonic()
        for _ in range(2):  # the wake-up sentinel stays queued for later receives
            with pytest.raises(PeerFailedError):
                world.comm(0).recv(source=1)
        assert time.monotonic() - start < 2.0

    def test_reduce_sum_at_root(self):
        def main(comm):
            return comm.reduce(comm.rank + 1)

        results = run_spmd(4, main)
        assert results[0] == 10
        assert results[1:] == [None, None, None]

    def test_allreduce_custom_op(self):
        results = run_spmd(4, lambda comm: comm.allreduce(comm.rank, op=max))
        assert results == [3, 3, 3, 3]


class TestDriver:
    def test_world_size_one(self):
        assert run_spmd(1, lambda comm: comm.allreduce(5)) == [5]

    def test_exceptions_propagate(self):
        def main(comm):
            if comm.rank == 1:
                raise RuntimeError("rank 1 died")
            comm.recv(source=1)

        with pytest.raises(RuntimeError, match="rank 1 died"):
            run_spmd(3, main)

    def test_invalid_world_size(self):
        with pytest.raises(CommError):
            SimWorld(0)

    def test_comm_rank_range(self):
        world = SimWorld(2)
        with pytest.raises(CommError):
            world.comm(5)

    def test_stats_account_traffic(self):
        def main(comm):
            comm.send(np.zeros(1000), dest=(comm.rank + 1) % comm.size)
            comm.recv(source=(comm.rank - 1) % comm.size)
            return comm.stats

        stats = run_spmd(2, main)
        assert all(s.messages_sent == 1 for s in stats)
        assert all(s.bytes_sent == 8000 for s in stats)

    def test_results_in_rank_order(self):
        assert run_spmd(6, lambda comm: comm.rank) == list(range(6))
