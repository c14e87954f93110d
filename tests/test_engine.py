"""Lambada engine end-to-end: oracle-checked results, worker accounting,
error reporting. Q1/Q6 run once (session fixtures); extra runs here vary the
worker count and failure modes."""
import io
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from repro import oracle
from repro.core import compile as qc
from repro.core import engine, queries
from repro.core.expr import col, lit
from repro.core.frontend import Lambada
from repro.core.metrics import WorkerMetrics
from repro.core.plan import AggSpec
from repro.core.worker import execute_fragment
from repro.sim import experiments as X


@pytest.fixture(scope="module")
def null_files(store):
    """Three small Parquet files with nulls, and the Arrow table they hold.

    Group "none" has only null ``x``; group "some" has null and non-null
    ``x`` (and is all-null within file 1); group "every" has no nulls;
    ``z`` is null everywhere."""
    parts = [
        {"g": ["none", "none", "some", "every"], "x": [None, None, 1.5, 2.0]},
        {"g": ["none", "some", "some", "every"], "x": [None, None, None, 4.0]},
        {"g": ["some", "every"], "x": [3.0, 8.0]},
    ]
    store.create_bucket("nulls")
    client, files, tables = store.client(), [], []
    for i, part in enumerate(parts):
        tbl = pa.table(
            {**part, "z": pa.nulls(len(part["g"]), pa.float64())},
            schema=pa.schema([("g", pa.string()), ("x", pa.float64()), ("z", pa.float64())]),
        )
        buf = io.BytesIO()
        pq.write_table(tbl, buf)
        client.put("nulls", f"part-{i}.parquet", buf.getvalue())
        files.append(("nulls", f"part-{i}.parquet"))
        tables.append(tbl)
    return files, pa.concat_tables(tables)


class TestQ1:
    def test_result_matches_duckdb(self, mq1, lineitem_ds):
        _, pdf = lineitem_ds
        oracle.assert_equivalent(mq1.result.result, queries.Q1_SQL, lineitem=pdf)

    def test_one_worker_per_file(self, mq1):
        assert mq1.result.n_workers == 16

    def test_all_workers_reported(self, mq1):
        ids = sorted(w.worker_id for w in mq1.result.metrics.workers)
        assert ids == list(range(16))

    def test_selectivity_near_95_percent(self, mq1):
        """Paper: Q1 selects 98 % (ours ~95 % — uniform dates to 1998-12-31)."""
        assert 0.90 < mq1.row_selectivity < 0.99

    def test_most_row_groups_scanned(self, mq1):
        assert mq1.rowgroup_scan_fraction > 0.9

    def test_scan_reads_only_seven_columns(self, mq1):
        """Projection push-down: Q1 'uses seven attributes' — the scan reads
        less than the full table, and the data GETs beyond the footer window
        track the used columns (±chunk rounding)."""
        used_comp, _ = mq1.info.used_column_bytes(queries.Q1_COLUMNS)
        bytes_read = mq1.result.metrics.bytes_read
        assert bytes_read < mq1.info.total_compressed_bytes
        footer_windows = mq1.result.n_workers * (1 << 14)  # one per file
        assert bytes_read - footer_windows < used_comp * 1.6

    def test_four_aggregate_rows(self, mq1):
        # 3 returnflags x 2 linestatuses with data = 6 groups
        assert len(mq1.result.result) == 6


class TestQ6:
    def test_result_matches_duckdb(self, mq6, lineitem_ds):
        _, pdf = lineitem_ds
        oracle.assert_equivalent(mq6.result.result, queries.Q6_SQL, lineitem=pdf)

    def test_selectivity_near_2_percent(self, mq6):
        """Paper: Q6 'selects only 2% of the relation'."""
        assert 0.005 < mq6.row_selectivity < 0.05

    def test_majority_of_workers_pruned(self, mq6):
        """Paper Fig 11: ~80 % of Q6 workers prune all row groups."""
        assert 0.6 <= mq6.pruned_worker_fraction <= 0.95

    def test_pruned_workers_read_almost_nothing(self, mq6):
        pruned = [w for w in mq6.result.metrics.workers if w.pruned_all]
        assert pruned
        for w in pruned:
            assert w.rows_read == 0
            # footer/metadata reads only (a handful at test-file granularity;
            # exactly one at the paper's 64 KiB footer on 500 MB files)
            assert w.ledger_obj().gets <= 4
            assert w.ledger_obj().bytes_read < 0.5 * (
                mq6.info.total_compressed_bytes / mq6.info.n_files
            )

    def test_q6_cheaper_than_q1_in_bytes(self, mq1, mq6):
        """Selection + projection push-down pay off."""
        assert mq6.result.metrics.bytes_read < 0.5 * mq1.result.metrics.bytes_read


class TestEngineMechanics:
    def test_listing1_pipeline(self, spark, store_root, lineitem_ds):
        info, pdf = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        res = engine.run_query(spark, store_root, queries.listing1(src), n_workers=4)
        oracle.assert_equivalent(res.result, queries.LISTING1_SQL, lineitem=pdf)

    def test_fewer_workers_than_files(self, spark, store_root, lineitem_ds):
        info, pdf = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        res = engine.run_query(spark, store_root, queries.q6(src), files_per_worker=4)
        assert res.n_workers == 4
        oracle.assert_equivalent(res.result, queries.Q6_SQL, lineitem=pdf)

    def test_worker_count_capped_at_files(self, spark, store_root, lineitem_ds):
        info, _ = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        res = engine.run_query(spark, store_root, queries.q6(src), n_workers=999)
        assert res.n_workers == 16

    def test_conflicting_worker_args_rejected(self, spark, store_root, lineitem_ds):
        info, _ = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        with pytest.raises(ValueError):
            engine.run_query(
                spark, store_root, queries.q6(src), n_workers=2, files_per_worker=2
            )

    def test_oom_reported_not_silent(self, spark, store_root, lineitem_ds):
        """§3.3: the handler reports OOM 'to the driver rather than dying
        silently' through the result queue."""
        info, _ = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        with pytest.raises(engine.WorkerError, match="WorkerOOM"):
            engine.run_query(
                spark, store_root, queries.q1(src), n_workers=2, memory_limit_mib=1
            )

    def test_from_parquet_glob(self, spark, store_root, lineitem_ds):
        info, _ = lineitem_ds
        src = Lambada(store_root).from_parquet(info.bucket, info.prefix)
        assert len(src.plan.files) == 16

    def test_from_parquet_missing_prefix(self, store_root):
        with pytest.raises(FileNotFoundError):
            Lambada(store_root).from_parquet("data", "nothing-here")

    def test_driver_scope_combines_collected_partials(self, mq1, store_root):
        """The driver scope runs in pandas on the driver: the result is the
        driver-side combine of exactly the partial rows the workers return."""
        res = mq1.result
        assert isinstance(res.result, pd.DataFrame)
        assert not hasattr(res, "spark_df")
        phys = qc.compile_plan(queries.q1(Lambada(store_root).from_files(mq1.info.files)).plan)
        n = res.n_workers
        partials = pd.concat(
            [execute_fragment(store_root, w, phys.files[w::n], phys)[0] for w in range(n)],
            ignore_index=True,
        )
        recombined = engine._final_aggregation(partials, phys)
        assert list(recombined.columns) == list(res.result.columns)
        by_keys = ["l_returnflag", "l_linestatus"]
        pd.testing.assert_frame_equal(
            recombined.sort_values(by_keys).reset_index(drop=True),
            res.result.sort_values(by_keys).reset_index(drop=True),
        )

    def test_reused_run_id_reads_only_this_runs_reports(self, spark, store_root, lineitem_ds):
        """A second run under the same ``run_id`` with fewer workers counts
        only its own workers' reports, not those the first run left behind."""
        info, _ = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        engine.run_query(spark, store_root, queries.q6(src), n_workers=16, run_id="reuse")
        res = engine.run_query(spark, store_root, queries.q6(src), n_workers=4, run_id="reuse")
        fresh = engine.run_query(spark, store_root, queries.q6(src), n_workers=4)
        assert res.metrics.n_workers == 4
        assert [w.worker_id for w in res.metrics.workers] == [0, 1, 2, 3]
        assert res.metrics.total_ledger.requests == fresh.metrics.total_ledger.requests

    def test_empty_file_list_rejected_before_spark(self, spark, store_root):
        sc = spark.sparkContext
        sc.setJobGroup("empty-file-list", "run_query over no files")
        try:
            src = Lambada(store_root).from_files([])
            with pytest.raises(ValueError, match="no files"):
                engine.run_query(spark, store_root, queries.q6(src))
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert sc.statusTracker().getJobIdsForGroup("empty-file-list") == []


class TestPackedDispatch:
    """Workers are packed into one Spark task per core; each still runs
    alone and reports for itself."""

    @pytest.mark.parametrize("n_workers", [3, 16])
    def test_one_job_one_stage_one_task_per_core(
        self, spark, spark_jobs, store_root, lineitem_ds, n_workers
    ):
        info, _ = lineitem_ds
        sc = spark.sparkContext
        group = f"packed-{n_workers}"
        src = Lambada(store_root).from_files(info.files)
        sc.setJobGroup(group, "packed dispatch")
        try:
            res = engine.run_query(spark, store_root, queries.q1(src), n_workers=n_workers)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert res.n_workers == n_workers
        assert spark_jobs(group) == [[min(n_workers, sc.defaultParallelism)]]

    @pytest.mark.parametrize("n_workers", [1, 3, 5, 16])
    @pytest.mark.parametrize("qname", ["q1", "q6"])
    def test_uneven_packing_matches_duckdb(
        self, spark, store_root, lineitem_ds, qname, n_workers
    ):
        info, pdf = lineitem_ds
        build, sql, _ = X.QUERIES[qname]
        src = Lambada(store_root).from_files(info.files)
        res = engine.run_query(spark, store_root, build(src), n_workers=n_workers)
        assert sorted(w.worker_id for w in res.metrics.workers) == list(range(n_workers))
        oracle.assert_equivalent(res.result, sql, lineitem=pdf)

    def test_failed_worker_isolated_within_its_task(self, spark, store_root, lineitem_ds):
        """A worker whose input object is missing fails alone: the error
        names only it, and every other worker, including those sharing its
        Spark task, still posts its own report."""
        info, _ = lineitem_ds
        files = list(info.files)
        files[5] = (files[5][0], "missing/part-5.parquet")
        src = Lambada(store_root).from_files(files)
        with pytest.raises(engine.WorkerError) as err:
            engine.run_query(
                spark, store_root, queries.q1(src), n_workers=16, run_id="missing-key"
            )
        assert str(err.value).startswith("worker 5: ")
        assert str(err.value).count("worker ") == 1
        qdir = Path(store_root) / engine.RESULT_BUCKET / "missing-key"
        reports = {
            m.worker_id: m
            for m in (WorkerMetrics.from_json(p.read_text()) for p in qdir.glob("w*.json"))
        }
        assert sorted(reports) == list(range(16))
        assert [w for w, m in reports.items() if m.status == "error"] == [5]
        assert all(m.row_groups_total > 0 for w, m in reports.items() if w != 5)


class TestDriverScope:
    """Result shapes the workers' partial rows and the driver-side combine
    must both get right."""

    def test_row_output_matches_duckdb(self, spark, store_root, lineitem_ds):
        """Plans without aggregation return the workers' rows: the filtered
        scan columns, and the projected columns."""
        info, pdf = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        rare = (col("l_quantity") < 3) & (col("l_discount") > 0.08)
        where = "WHERE l_quantity < 3 AND l_discount > 0.08"
        res = engine.run_query(spark, store_root, src.filter(rare), n_workers=5)
        oracle.assert_equivalent(
            res.result, f"SELECT l_discount, l_quantity FROM lineitem {where}", lineitem=pdf
        )
        mapped = src.filter(rare).map(q2=col("l_quantity") * 2, d=col("l_discount") + 1)
        res = engine.run_query(spark, store_root, mapped, n_workers=5)
        oracle.assert_equivalent(
            res.result,
            f"SELECT l_quantity * 2 AS q2, l_discount + 1 AS d FROM lineitem {where}",
            lineitem=pdf,
        )

    def test_single_key_group_by_matches_duckdb(self, spark, store_root, lineitem_ds):
        info, pdf = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        plan = src.aggregate(
            ["l_returnflag"], [AggSpec("n", "count"), AggSpec("hi", "max", col("l_tax"))]
        )
        res = engine.run_query(spark, store_root, plan, n_workers=3)
        oracle.assert_equivalent(
            res.result,
            "SELECT l_returnflag, count(*) AS n, max(l_tax) AS hi FROM lineitem "
            "GROUP BY l_returnflag",
            lineitem=pdf,
        )

    @pytest.mark.parametrize("keys", [[], ["l_returnflag"]], ids=["global", "grouped"])
    def test_every_row_group_pruned_matches_duckdb(self, spark, store_root, lineitem_ds, keys):
        """Every worker returns a typed empty frame; the driver scope then
        gives SQL's answer: no groups, or one row with COUNT 0 and NULLs."""
        info, pdf = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        plan = src.filter(col("l_shipdate") > lit("2100-01-01")).aggregate(
            keys,
            [
                AggSpec("n", "count"),
                AggSpec("s", "sum", col("l_quantity")),
                AggSpec("a", "avg", col("l_discount")),
                AggSpec("lo", "min", col("l_tax")),
            ],
        )
        res = engine.run_query(spark, store_root, plan, n_workers=5)
        assert res.metrics.n_pruned == 5
        select = "".join(f"{k}, " for k in keys)
        oracle.assert_equivalent(
            res.result,
            f"SELECT {select}count(*) AS n, sum(l_quantity) AS s, avg(l_discount) AS a, "
            "min(l_tax) AS lo FROM lineitem "
            f"WHERE l_shipdate > TIMESTAMP '2100-01-01 00:00:00' "
            + (f"GROUP BY {', '.join(keys)}" if keys else ""),
            lineitem=pdf,
        )
        assert len(res.result) == (0 if keys else 1)

    @pytest.mark.parametrize("keys", [[], ["g"]], ids=["global", "grouped"])
    def test_sql_null_semantics_match_duckdb(self, spark, store_root, null_files, keys):
        """Nulls are skipped as in SQL: SUM and AVG over no values are NULL
        (not 0), AVG divides by the non-null count, COUNT(*) counts rows."""
        files, table = null_files
        aggs = [
            AggSpec("n", "count"),
            AggSpec("s", "sum", col("x")),
            AggSpec("a", "avg", col("x")),
            AggSpec("lo", "min", col("x")),
            AggSpec("hi", "max", col("x")),
            AggSpec("zs", "sum", col("z")),
            AggSpec("za", "avg", col("z")),
        ]
        plan = Lambada(store_root).from_files(files).aggregate(keys, aggs)
        res = engine.run_query(spark, store_root, plan, n_workers=3)
        select = "".join(f"{k}, " for k in keys)
        oracle.assert_equivalent(
            res.result,
            f"SELECT {select}count(*) AS n, sum(x) AS s, avg(x) AS a, min(x) AS lo, "
            "max(x) AS hi, sum(z) AS zs, avg(z) AS za FROM t "
            + (f"GROUP BY {', '.join(keys)}" if keys else ""),
            t=table,
        )
        assert len(res.result) == (3 if keys else 1)
