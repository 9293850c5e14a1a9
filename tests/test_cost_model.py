"""Unit tests for the machine cost models."""

import pytest
from hypothesis import given, strategies as st

from repro.machine.cost_model import (
    MACHINES, TRIVIUM, XC30, XC40, XC40_STAR, XC50,
)
from repro.machine.counters import PerfCounters


class TestTimeFunction:
    def test_zero_counters_zero_time(self):
        assert XC30.time(PerfCounters()) == 0.0

    def test_reads_cost_w_read(self):
        assert XC30.time(PerfCounters(reads=10)) == 10 * XC30.w_read

    def test_cas_costs_more_than_faa(self):
        cas = XC30.time(PerfCounters(atomics=1, cas=1))
        faa = XC30.time(PerfCounters(atomics=1, faa=1))
        assert cas > faa > 0

    def test_batched_atomics_discounted(self):
        plain = XC30.time(PerfCounters(atomics=10, cas=10))
        batched = XC30.time(PerfCounters(atomics=10, cas=10,
                                         atomics_batched=10))
        assert batched == pytest.approx(plain * XC30.atomic_batch_factor)

    def test_lock_costs_more_than_atomic(self):
        assert (XC30.time(PerfCounters(locks=1))
                > XC30.time(PerfCounters(atomics=1, cas=1)))

    def test_miss_cost_ordering(self):
        l1 = XC30.time(PerfCounters(l1_misses=1))
        l2 = XC30.time(PerfCounters(l2_misses=1))
        l3 = XC30.time(PerfCounters(l3_misses=1))
        assert l1 < l2 < l3

    def test_float_accumulate_far_pricier_than_int(self):
        f = XC30.time(PerfCounters(remote_acc_float=1))
        i = XC30.time(PerfCounters(remote_acc_int=1))
        assert f > 10 * i

    def test_linearity(self):
        c = PerfCounters(reads=3, writes=2, atomics=1, cas=1, l3_misses=4)
        assert XC30.time(c + c) == pytest.approx(2 * XC30.time(c))

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_monotone_in_events(self, r, extra):
        base = XC30.time(PerfCounters(reads=r))
        more = XC30.time(PerfCounters(reads=r + extra))
        assert more >= base


class TestScaled:
    def test_shrinks_geometry(self):
        s = XC30.scaled(64)
        assert s.hierarchy.l1.size_bytes == XC30.hierarchy.l1.size_bytes // 64
        assert s.hierarchy.l3.size_bytes == XC30.hierarchy.l3.size_bytes // 64

    def test_floors_at_one_set(self):
        s = XC30.scaled(1 << 20)
        assert s.hierarchy.l1.n_sets >= 1

    def test_tlb_floor(self):
        assert XC30.scaled(4096).hierarchy.tlb.entries >= 8

    def test_name_annotated(self):
        assert XC30.scaled(64).name == "XC30/s64"

    def test_weights_untouched(self):
        assert XC30.scaled(64).w_atomic == XC30.w_atomic


class TestRegistry:
    def test_all_machines_present(self):
        assert set(MACHINES) == {"XC30", "XC40", "XC40*", "XC50", "Trivium"}

    def test_core_counts_match_paper(self):
        assert XC30.cores == 8 and XC40.cores == 18
        assert XC40_STAR.cores == 12 and XC50.cores == 12
        assert TRIVIUM.cores == 4

    def test_max_threads_is_smt_times_cores(self):
        assert TRIVIUM.max_threads == 8 and XC40.max_threads == 36

    def test_trivium_atomics_cheapest(self):
        """Only 8 threads contend on the client part (Table-4 driver)."""
        assert TRIVIUM.w_atomic < XC30.w_atomic
        assert TRIVIUM.w_l3_miss > XC30.w_l3_miss

    def test_with_override(self):
        m = XC30.with_(w_atomic=1.0)
        assert m.w_atomic == 1.0 and XC30.w_atomic != 1.0
        assert m.name == XC30.name

    def test_frozen(self):
        with pytest.raises(Exception):
            XC30.w_atomic = 5
