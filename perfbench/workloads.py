"""The benchmark's workloads: TPC-H Q1 and Q6 on the engine, and the S3
exchange.

Each workload prepares its inputs from the seed, runs one operation per call
of :meth:`operation` (the only code inside the timed region), checks every
operation's output outside the timed region, and derives the per-operation
counts and paper-clock values from the ledgers the program reports.
"""
from __future__ import annotations

import contextlib
import shutil
from pathlib import Path

import duckdb
import numpy as np
import pandas as pd
from pyspark.sql.classic.dataframe import DataFrame

from repro import synth_data
from repro.core import compile as qc
from repro.core import dataset, engine
from repro.core.frontend import Lambada
from repro.core.worker import execute_fragment
from repro.exchange import algorithms as alg
from repro.exchange import naming, runner, serde
from repro.s3 import pricing
from repro.s3.store import Ledger, S3Client, S3Store
from repro.scan.parquet_scan import ParquetScanOperator
from repro.sim import exchange_runtime, scaling
from repro.sim import experiments as X

S3_METHODS = ("get", "head", "put", "list", "exists", "delete")
LEDGER_COUNTS = ("gets", "heads", "puts", "lists", "bytes_read", "bytes_written")


def _trace_s3(stack, tracer) -> None:
    for m in S3_METHODS:
        stack.enter_context(tracer.patch(S3Client, m, f"s3.store.{m}"))


@contextlib.contextmanager
def traced_driver(tracer, sc):
    """Spans around the driver process's S3 requests and Spark actions.

    Every outermost Spark action gets a job description ``a<k>`` (k counts
    actions within the operation), so the event log can attribute each job
    to the action that ran it.
    """
    actions = {"n": 0, "depth": 0}

    def action(fn):
        def run(self, *args, **kwargs):
            if actions["depth"]:
                return fn(self, *args, **kwargs)
            label = f"a{actions['n']}"
            actions["n"] += 1
            actions["depth"] += 1
            sc.setJobDescription(label)
            try:
                with tracer.span(f"spark.action.{label}"):
                    return fn(self, *args, **kwargs)
            finally:
                sc.setJobDescription(None)
                actions["depth"] -= 1

        return run

    with contextlib.ExitStack() as stack:
        _trace_s3(stack, tracer)
        stack.enter_context(tracer.patch(qc, "compile_plan", "core.compile.compile_plan"))
        for m in ("collect", "count", "toPandas"):
            orig = getattr(DataFrame, m)
            setattr(DataFrame, m, action(orig))
            stack.callback(setattr, DataFrame, m, orig)
        yield


@contextlib.contextmanager
def captured_clients():
    """Collect every :class:`S3Client` created in this process meanwhile."""
    clients = []
    orig = S3Client.__init__

    def init(self, *args, **kwargs):
        orig(self, *args, **kwargs)
        clients.append(self)

    S3Client.__init__ = init
    try:
        yield clients
    finally:
        S3Client.__init__ = orig


def _ledger_sum(ledgers) -> Ledger:
    total = Ledger()
    for led in ledgers:
        total.merge(led)
    return total


def _frame_mismatch(got: pd.DataFrame, expected: pd.DataFrame) -> str | None:
    """None when the frames hold the same rows (any order, floats to 1e-9)."""
    if set(got.columns) != set(expected.columns):
        return f"columns {sorted(got.columns)} != {sorted(expected.columns)}"
    cols = sorted(expected.columns)
    keys = [c for c in cols if not pd.api.types.is_numeric_dtype(expected[c])]

    def canon(df):
        df = df[cols]
        return (df.sort_values(keys) if keys else df).reset_index(drop=True)

    try:
        pd.testing.assert_frame_equal(
            canon(got), canon(expected), check_dtype=False, rtol=1e-9, atol=1e-9
        )
    except AssertionError as e:
        return str(e).strip().splitlines()[0]
    return None


class QueryWorkload:
    """One TPC-H query over the sorted LINEITEM, one worker per file (F=1)."""

    OP_SPAN = "core.engine.run_query"

    SF = 0.1
    N_FILES = 16
    ROW_GROUPS_PER_FILE = 2
    #: the chunk size and footer prefetch that ``experiments.measure_query``
    #: uses for measurement-size files
    CHUNK_BYTES = 1 << 12
    FOOTER_HINT = 1 << 14

    def __init__(self, spark, work: Path, query: str, seed: int):
        self.spark = spark
        self.root = str(work / "s3")
        self.query = query
        self.seed = seed
        self.build, self.sql, self.columns = X.QUERIES[query]
        self.cores = spark.sparkContext.defaultParallelism
        self.reference_ledger = None

    def setup(self) -> None:
        """Generate LINEITEM from the seed and upload it."""
        self.info, self.pdf = dataset.prepare_lineitem(
            self.spark,
            S3Store(self.root),
            sf=self.SF,
            n_files=self.N_FILES,
            row_groups_per_file=self.ROW_GROUPS_PER_FILE,
            seed=self.seed,
        )

    def prepare_checks(self) -> None:
        con = duckdb.connect()
        try:
            con.register("lineitem", self.pdf)
            self.expected = con.execute(self.sql).fetchdf()
        finally:
            con.close()
        self.plan = self.build(Lambada(self.root).from_files(self.info.files)).plan
        self.pdf = None

    def operation(self, i: int):
        return engine.run_query(
            self.spark,
            self.root,
            self.plan,
            files_per_worker=1,
            chunk_bytes=self.CHUNK_BYTES,
            footer_hint=self.FOOTER_HINT,
        )

    def _worker_ledger(self, res) -> Ledger:
        return _ledger_sum(w.ledger_obj() for w in res.metrics.workers)

    def check(self, res) -> list[str]:
        problems = []
        bad = _frame_mismatch(res.result, self.expected)
        if bad:
            problems.append(f"result differs from the DuckDB oracle: {bad}")
        if res.n_workers != self.N_FILES:
            problems.append(f"{res.n_workers} workers, expected {self.N_FILES}")
        ledger = vars(self._worker_ledger(res))
        if self.reference_ledger is None:
            self.reference_ledger = ledger
        elif ledger != self.reference_ledger:
            problems.append("worker ledger differs from the first operation's")
        return problems

    def counts(self, res) -> dict:
        led = self._worker_ledger(res)
        mq = X.MeasuredQuery(self.query, res, self.info, self.columns)
        est = X.lambada_estimate(mq, scaling.SF1K)
        return {
            "s3_requests_per_op": led.requests,
            "s3_bytes_per_op": led.bytes_read + led.bytes_written,
            "paper_latency_s": est.latency_s,
            "paper_cost_usd": est.cost_usd,
        }

    def replay(self, tracer, i: int, res) -> None:
        """Re-run every worker's fragment in this process, with spans around
        the fragment, each step of its scan and each S3 request."""
        phys = qc.compile_plan(self.plan)
        n = res.n_workers
        with contextlib.ExitStack() as stack:
            _trace_s3(stack, tracer)
            stack.enter_context(
                tracer.patch(
                    ParquetScanOperator, "tables", "scan.parquet_scan.tables", generator=True
                )
            )
            for w in range(n):
                with tracer.span("core.worker.execute_fragment"):
                    execute_fragment(
                        self.root,
                        w,
                        phys.files[w::n],
                        phys,
                        chunk_bytes=self.CHUNK_BYTES,
                        footer_hint=self.FOOTER_HINT,
                    )

    def layer(self, tracer, op, driver_ledger: Ledger, action_s: list[float]) -> dict:
        res = op.result
        spans = tracer.of_op(op.index)
        (rq,) = [s for s in spans if s.name == "core.engine.run_query"]
        driver_s3 = tracer.under(spans, "s3.store.", "core.engine.run_query")
        frags = [s for s in spans if s.name == "core.worker.execute_fragment"]
        scans = [s for s in spans if s.name == "scan.parquet_scan.tables"]
        scan_s3 = tracer.under(spans, "s3.store.", "scan.parquet_scan.tables")
        replay_gets = tracer.under(spans, "s3.store.get", "core.worker.execute_fragment")
        workers = res.metrics.workers
        frag_times = [w.wall_time_s for w in workers]
        scan_s = sum(s.dur for s in scans)
        rg_total = sum(w.row_groups_total for w in workers)
        rg_scanned = sum(w.row_groups_scanned for w in workers)
        s3 = self._worker_ledger(res).merge(driver_ledger)
        return {
            "core.engine.run_query_s": rq.dur,
            "core.engine.spark_jobs": op.spark["jobs"],
            "core.engine.spark_stages": op.spark["stages"],
            "core.engine.spark_tasks": op.spark["tasks"],
            "core.engine.overhead_s": rq.dur - sum(frag_times) / min(len(workers), self.cores),
            "core.engine.driver_s3_requests": len(driver_s3),
            "core.engine.driver_s3_s": sum(s.dur for s in driver_s3),
            "core.compile.compile_s": sum(
                s.dur for s in spans if s.name == "core.compile.compile_plan"
            ),
            "core.worker.fragment_s_sum": sum(frag_times),
            "core.worker.fragment_s_max": max(frag_times),
            "core.worker.compute_s": sum(s.dur for s in frags) - scan_s,
            "core.worker.rows_read": sum(w.rows_read for w in workers),
            "core.worker.rows_out": sum(w.rows_out for w in workers),
            "core.worker.decoded_bytes": sum(w.uncompressed_bytes for w in workers),
            "scan.parquet_scan.scan_s": scan_s,
            "scan.parquet_scan.decode_s": scan_s - sum(s.dur for s in scan_s3),
            "scan.parquet_scan.row_groups_scanned": rg_scanned,
            "scan.parquet_scan.rowgroup_scan_frac": rg_scanned / rg_total,
            **{f"s3.store.{k}": getattr(s3, k) for k in LEDGER_COUNTS},
            "s3.store.get_s": sum(s.dur for s in replay_gets),
        }

    def cleanup(self, res) -> None:
        pass


class ExchangeWorkload:
    """Two-level write-combining exchange of ``uniform_keys`` among P workers."""

    OP_SPAN = "exchange.runner.run_exchange"

    N_ROWS = 600_000
    N_KEYS = 20_000
    P = 64
    SPEC = alg.ExchangeSpec(levels=2, write_combining=True)

    def __init__(self, spark, work: Path, seed: int):
        self.spark = spark
        self.root = work / "s3"
        self.seed = seed
        self.expected = alg.expected_requests(self.P, self.SPEC)

    def setup(self) -> None:
        """Generate the input from the seed and cache it."""
        df = synth_data.uniform_keys(self.spark, n=self.N_ROWS, n_keys=self.N_KEYS, seed=self.seed)
        self.df = df.cache()
        self.df.count()

    def prepare_checks(self) -> None:
        self.keys = np.sort(self.df.select("k").toPandas()["k"].to_numpy())

    def run_id(self, i: int) -> str:
        return f"s{self.seed}o{i}"

    def operation(self, i: int):
        return runner.run_exchange(
            self.spark, self.df, self.P, self.SPEC, S3Store(self.root), run_id=self.run_id(i)
        )

    def check(self, res) -> list[str]:
        out, rep = res
        problems = []
        if not rep.input_rows == rep.output_rows == self.N_ROWS:
            problems.append(
                f"rows in {rep.input_rows}, rows out {rep.output_rows}, generated {self.N_ROWS}"
            )
        got = out.select("k", "pid", "worker").toPandas()
        if (got["pid"] != got["worker"]).any():
            problems.append("a row ended on a worker other than its partition")
        if not np.array_equal(np.sort(got["k"].to_numpy()), self.keys):
            problems.append("the multiset of keys changed")
        counts = {k: getattr(rep.ledger, k) for k in ("puts", "gets", "lists")}
        if counts != {k: self.expected[k] for k in counts} or rep.ledger.heads:
            problems.append(f"ledger {counts} != expected_requests {self.expected}")
        return problems

    def counts(self, res) -> dict:
        _, rep = res
        sim = exchange_runtime.simulate_exchange_runtime(
            rep.input_ledger.bytes_written,
            self.P,
            levels=self.SPEC.levels,
            write_combining=self.SPEC.write_combining,
        )
        return {
            "s3_requests_per_op": rep.ledger.requests,
            "s3_bytes_per_op": rep.ledger.bytes_read + rep.ledger.bytes_written,
            "paper_latency_s": sim.e2e_s,
            "paper_cost_usd": pricing.request_cost(rep.ledger),
        }

    def replay(self, tracer, i: int, res) -> None:
        """Decode and re-encode every input share the operation wrote."""
        bucket = naming.bucket_for_group(0, self.SPEC.n_buckets)
        for p in range(self.P):
            path = self.root / bucket / naming.input_key(self.run_id(i), p)
            if not path.exists():  # a source worker that had no rows
                continue
            blob = path.read_bytes()
            with tracer.span("exchange.serde.bytes_to_frame"):
                frame = serde.bytes_to_frame(blob)
            with tracer.span("exchange.serde.frame_to_bytes"):
                serde.frame_to_bytes(frame)

    def layer(self, tracer, op, driver_ledger: Ledger, action_s: list[float]) -> dict:
        """``action_s``: job time of each Spark action of the operation, in
        order (from the event log); the actions map onto the exchange's
        phases from the end: the last action collects, the ``levels``
        before it run one level each, and all earlier ones distribute."""
        _, rep = op.result
        levels = [f"level{lvl}" for lvl in range(self.SPEC.levels)]
        phases = ["distribute"] * (len(action_s) - len(levels) - 1) + levels + ["collect"]
        phase_s = dict.fromkeys(phases, 0.0)
        for phase, seconds in zip(phases, action_s):
            phase_s[phase] += seconds
        spans = tracer.of_op(op.index)
        (rx,) = [s for s in spans if s.name == "exchange.runner.run_exchange"]
        level_requests = [led.requests for led in rep.per_phase]
        s3 = Ledger().merge(rep.ledger).merge(driver_ledger)
        return {
            "exchange.runner.run_exchange_s": rx.dur,
            **{f"exchange.runner.phase_s.{k}": v for k, v in phase_s.items()},
            "exchange.runner.spark_jobs": op.spark["jobs"],
            "exchange.runner.spark_tasks": op.spark["tasks"],
            **{
                f"exchange.runner.phase_requests.level{lvl}": n
                for lvl, n in enumerate(level_requests)
            },
            "exchange.runner.phase_requests.collect": rep.ledger.requests - sum(level_requests),
            "exchange.serde.encode_s": sum(
                s.dur for s in spans if s.name == "exchange.serde.frame_to_bytes"
            ),
            "exchange.serde.decode_s": sum(
                s.dur for s in spans if s.name == "exchange.serde.bytes_to_frame"
            ),
            **{f"s3.store.{k}": getattr(s3, k) for k in LEDGER_COUNTS},
        }

    def cleanup(self, res) -> None:
        """Drop the cached output and every object the exchange wrote, so
        the next operation LISTs buckets of the same size."""
        out, _ = res
        out.unpersist(blocking=True)
        shutil.rmtree(self.root, ignore_errors=True)
