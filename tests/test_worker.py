"""The worker's partial aggregation and output schema, without Spark.

``_partial_aggregate`` evaluates each aggregate expression once and makes one
groupby call; ``_loop_reference`` is the per-group loop formulation, kept as
the reference. Both follow SQL's null semantics. Keys and counts must match
exactly; float states may differ in the last bits only, because pandas'
groupby sum compensates its rounding where the per-group ``Series.sum`` does
not.
"""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compile as qc
from repro.core import plan as pl
from repro.core.expr import col
from repro.core.frontend import Dataset
from repro.core.worker import _partial_aggregate, partial_schema

FILES = [("data", "t/part-0.parquet")]
AGGS = [
    pl.AggSpec("s", "sum", col("v")),
    pl.AggSpec("s2", "sum", col("v") * (1 - col("w"))),
    pl.AggSpec("c", "count"),
    pl.AggSpec("a", "avg", col("w")),
    pl.AggSpec("lo", "min", col("v")),
    pl.AggSpec("hi", "max", col("w")),
]


def _phys(keys) -> qc.PhysicalQuery:
    return qc.compile_plan(Dataset(pl.ScanNode(FILES)).aggregate(keys, AGGS).plan)


def _loop_reference(df: pd.DataFrame, phys: qc.PhysicalQuery) -> pd.DataFrame:
    """One Python iteration per group, re-evaluating every expression."""

    def states(frame):
        out = {}
        for a in phys.aggs:
            series = a.expr.eval(frame) if a.expr is not None else None
            if a.fn == "sum":
                out[a.out_name] = series.sum(min_count=1)
            elif a.fn == "count":
                out[a.out_name] = len(frame)
            elif a.fn == "avg":
                out[a.out_name + "__sum"] = series.sum(min_count=1)
                out[a.out_name + "__cnt"] = series.count()
            else:
                out[a.out_name] = getattr(series, a.fn)()
        return out

    if not phys.keys:
        return pd.DataFrame([states(df)])
    rows = []
    for key_vals, grp in df.groupby(phys.keys, sort=False):
        rows.append({**dict(zip(phys.keys, key_vals)), **states(grp)})
    return pd.DataFrame(rows)


def _assert_same(got: pd.DataFrame, ref: pd.DataFrame) -> None:
    assert list(got.columns) == list(ref.columns)
    pd.testing.assert_frame_equal(got, ref, check_exact=False, rtol=1e-12, atol=1e-9)


values = st.one_of(st.just(np.nan), st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def frames(draw):
    n = draw(st.integers(1, 60))
    return pd.DataFrame(
        {
            "k1": draw(st.lists(st.sampled_from(["A", "N", "R"]), min_size=n, max_size=n)),
            "k2": draw(st.lists(st.sampled_from(["F", "O"]), min_size=n, max_size=n)),
            "v": draw(st.lists(values, min_size=n, max_size=n)),
            "w": draw(st.lists(values, min_size=n, max_size=n)),
        }
    )


class TestPartialAggregate:
    @pytest.mark.parametrize("keys", [[], ["k1"], ["k1", "k2"]])
    @given(df=frames())
    @settings(max_examples=60, deadline=None)
    def test_matches_loop_reference(self, keys, df):
        phys = _phys(keys)
        _assert_same(_partial_aggregate(df, phys), _loop_reference(df, phys))

    def test_null_semantics(self):
        """As in SQL: an all-null group's sum and min/max are null, avg's
        count skips null values, and COUNT(*) counts every row."""
        df = pd.DataFrame(
            {
                "k1": ["A", "A", "B"],
                "k2": ["F"] * 3,
                "v": [np.nan, np.nan, 2.0],
                "w": [1.0, np.nan, 3.0],
            }
        )
        got = _partial_aggregate(df, _phys(["k1"])).set_index("k1")
        assert np.isnan(got.loc["A", "s"]) and np.isnan(got.loc["A", "s2"])
        assert np.isnan(got.loc["A", "lo"])
        assert got.loc["A", "c"] == 2 and got.loc["A", "a__cnt"] == 1
        assert got.loc["A", "a__sum"] == 1.0 and got.loc["A", "hi"] == 1.0
        assert got.loc["B", "s"] == 2.0 and got.loc["B", "a__cnt"] == 1
        _assert_same(_partial_aggregate(df, _phys(["k1"])), _loop_reference(df, _phys(["k1"])))
        nulls = df.assign(v=np.nan, w=np.nan)
        glob = _partial_aggregate(nulls, _phys([])).iloc[0]
        assert np.isnan(glob["s"]) and np.isnan(glob["a__sum"]) and np.isnan(glob["hi"])
        assert glob["c"] == 3 and glob["a__cnt"] == 0

    def test_null_keys_dropped(self):
        df = pd.DataFrame({"k1": ["A", None], "k2": ["F", "F"], "v": [1.0, 2.0], "w": [1.0, 2.0]})
        got = _partial_aggregate(df, _phys(["k1"]))
        assert got["k1"].tolist() == ["A"]
        _assert_same(got, _loop_reference(df, _phys(["k1"])))


class TestPartialSchema:
    SOURCE = pa.schema(
        [("k1", pa.string()), ("k2", pa.int32()), ("v", pa.float64()), ("w", pa.float64())]
    )

    def test_aggregate_states(self):
        schema = partial_schema(_phys(["k1", "k2"]), self.SOURCE)
        assert schema.names == [c.name for c in _phys(["k1", "k2"]).partial_schema()]
        assert schema.field("k1").type == pa.string()
        assert schema.field("k2").type == pa.int32()
        assert schema.field("c").type == pa.int64()
        assert schema.field("a__cnt").type == pa.int64()
        assert schema.field("s").type == pa.float64()

    def test_row_output(self):
        plain = qc.compile_plan(Dataset(pl.ScanNode(FILES)).filter(col("v") <= 1).plan)
        assert partial_schema(plain, self.SOURCE).names == ["v"]
        projected = qc.compile_plan(Dataset(pl.ScanNode(FILES)).map(x=col("v") * 2).plan)
        assert partial_schema(projected, self.SOURCE) == pa.schema([("x", pa.float64())])

    def test_projected_key(self):
        phys = qc.compile_plan(
            Dataset(pl.ScanNode(FILES))
            .map(b=col("v") * 2, w=col("w"))
            .aggregate(["b"], [pl.AggSpec("s", "sum", col("w"))])
            .plan
        )
        assert partial_schema(phys, self.SOURCE).field("b").type == pa.float64()

    def test_typed_empty_frame(self):
        empty = partial_schema(_phys(["k1"]), self.SOURCE).empty_table().to_pandas()
        assert len(empty) == 0
        assert empty["c"].dtype == np.int64 and empty["s"].dtype == np.float64
