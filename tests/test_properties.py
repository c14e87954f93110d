"""Property-based tests (hypothesis) for the pure-algorithm substrates."""
import math

import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exchange import algorithms as alg
from repro.exchange import naming, serde
from repro.s3.store import Ledger


class TestGridProperties:
    @given(p=st.integers(1, 5000), levels=st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_grid_dims_product_exact(self, p, levels):
        assert math.prod(alg.grid_dims(p, levels)) == p

    @given(p=st.integers(1, 800), levels=st.integers(1, 3), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_coords_roundtrip(self, p, levels, data):
        dims = alg.grid_dims(p, levels)
        x = data.draw(st.integers(0, p - 1))
        assert alg.from_coords(alg.coords(x, dims), dims) == x

    @given(p=st.integers(2, 400), levels=st.integers(1, 3), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_routing_delivers_every_partition(self, p, levels, data):
        """Level-by-level routing ends at the partition's worker, from any
        starting worker — the exchange's correctness invariant."""
        dims = alg.grid_dims(p, levels)
        pid = data.draw(st.integers(0, p - 1))
        holder = data.draw(st.integers(0, p - 1))
        for lvl in range(levels):
            holder = alg.peer_with_coord(
                holder, dims, lvl, alg.level_coord(pid, dims, lvl)
            )
        assert holder == pid

    @given(p=st.integers(1, 800), levels=st.integers(1, 3), seed=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_level_coord_of_an_array_matches_coords(self, p, levels, seed):
        """The runner routes a whole column of partition IDs at once."""
        dims = alg.grid_dims(p, levels)
        pids = np.random.default_rng(seed).integers(0, p, 64, dtype=np.int32)
        for lvl in range(levels):
            got = alg.level_coord(pids, dims, lvl)
            assert got.tolist() == [alg.coords(int(x), dims)[lvl] for x in pids]

    @given(p=st.integers(2, 400), levels=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_groups_partition_workers_at_every_level(self, p, levels):
        dims = alg.grid_dims(p, levels)
        for lvl in range(levels):
            groups = {}
            for w in range(p):
                groups.setdefault(alg.group_id(w, dims, lvl), []).append(w)
            assert sorted(x for g in groups.values() for x in g) == list(range(p))
            assert all(len(g) == dims[lvl] for g in groups.values())


class TestSerdeProperties:
    @given(
        lengths=st.lists(st.integers(0, 50), min_size=1, max_size=10),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_combine_slice_roundtrip(self, lengths, seed):
        g = np.random.default_rng(seed)
        frames = [
            pd.DataFrame({"k": g.integers(0, 9, n), "v": g.random(n)}) for n in lengths
        ]
        blob, lens = serde.combine([serde.frame_to_bytes(f) for f in frames])
        for i, f in enumerate(frames):
            off, ln = serde.part_range(lens, i)
            pd.testing.assert_frame_equal(serde.bytes_to_frame(blob[off : off + ln]), f)

    @given(lengths=st.lists(st.integers(0, 10**7), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_offsets_filename_roundtrip(self, lengths):
        key = naming.combined_key("r", 0, 0, 3, lengths)
        sender, parsed = naming.parse_combined(key)
        assert (sender, parsed) == (3, lengths)


class TestLedgerProperties:
    ops = st.sampled_from(["gets", "puts", "lists", "heads", "deletes"])

    @given(
        a=st.lists(st.tuples(ops, st.sampled_from("xyz")), max_size=30),
        b=st.lists(st.tuples(ops, st.sampled_from("xyz")), max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_concatenation(self, a, b):
        la, lb, lc = Ledger(), Ledger(), Ledger()
        for op, bucket in a:
            la.record(op, bucket)
            lc.record(op, bucket)
        for op, bucket in b:
            lb.record(op, bucket)
            lc.record(op, bucket)
        la.merge(lb)
        assert la == lc
        assert la.requests == len(a) + len(b)
