"""Striped-filesystem model: striping math and contention behaviour."""

import pytest

from repro.parallel.filesystem import (
    FileStripe,
    ParallelFileSystem,
    Transfer,
)


class TestStriping:
    def test_bytes_distributed_round_robin(self):
        stripe = FileStripe(stripe_count=4, stripe_size=100)
        per_ost = stripe.ost_bytes(1000, n_osts=8)
        # 10 units over 4 slots: slots 0,1 get 3 units, slots 2,3 get 2
        assert per_ost == {0: 300, 1: 300, 2: 200, 3: 200}

    def test_total_conserved(self):
        for nbytes in (0, 1, 99, 100, 101, 12345):
            per_ost = FileStripe(3, 100).ost_bytes(nbytes, 8)
            assert sum(per_ost.values()) == nbytes

    def test_offset_shifts_osts(self):
        per_ost = FileStripe(2, 100, offset_ost=5).ost_bytes(200, 8)
        assert set(per_ost) == {5, 6}

    def test_stripe_count_clamped_to_osts(self):
        per_ost = FileStripe(16, 100).ost_bytes(1600, 4)
        assert set(per_ost) == {0, 1, 2, 3}

    def test_partial_tail_unit(self):
        per_ost = FileStripe(2, 100).ost_bytes(150, 4)
        assert per_ost == {0: 100, 1: 50}

    def test_invalid_stripe(self):
        with pytest.raises(ValueError):
            FileStripe(0, 100).ost_bytes(10, 4)


class TestContention:
    def test_single_writer_single_ost(self):
        fs = ParallelFileSystem(n_osts=1, ost_bandwidth=1e9)
        t = fs.collective_write_time(1, 10**9)
        assert t == pytest.approx(1.0, rel=0.01)

    def test_contention_slows_down_concurrent_writers(self):
        fs = ParallelFileSystem(n_osts=4, ost_bandwidth=1e9)
        one = fs.collective_write_time(1, 10**9)
        eight = fs.collective_write_time(8, 10**9)
        # eight clients over four OSTs: at least 2x slower than one client
        assert eight > one * 1.9

    def test_aggregate_bandwidth_saturates(self):
        fs = ParallelFileSystem(n_osts=4, ost_bandwidth=1e9)
        bandwidths = [
            n * 10**8 / fs.collective_write_time(n, 10**8) for n in (1, 2, 4, 8, 16)
        ]
        # monotone non-decreasing up to the plateau, never above capacity
        assert all(b <= 4 * 1e9 * 1.01 for b in bandwidths)
        assert bandwidths[2] >= bandwidths[0]
        # saturation: doubling clients beyond capacity gains little
        assert bandwidths[4] <= bandwidths[2] * 1.2

    def test_simulate_io_per_transfer_results(self):
        fs = ParallelFileSystem(n_osts=2, ost_bandwidth=1e9)
        transfers = [
            Transfer(client=0, nbytes=10**8, stripe=FileStripe(1, 1 << 20, offset_ost=0)),
            Transfer(client=1, nbytes=2 * 10**8, stripe=FileStripe(1, 1 << 20, offset_ost=1)),
        ]
        results = fs.simulate_io(transfers)
        assert len(results) == 2
        # disjoint OSTs: each transfer gets full bandwidth
        assert results[0].seconds == pytest.approx(0.1, rel=0.05)
        assert results[1].seconds == pytest.approx(0.2, rel=0.05)
        assert results[1].bandwidth == pytest.approx(1e9, rel=0.05)

    def test_empty_transfer_list(self):
        fs = ParallelFileSystem(n_osts=2)
        assert fs.simulate_io([]) == []

    def test_invalid_osts(self):
        with pytest.raises(ValueError):
            ParallelFileSystem(n_osts=0)
