"""Lambada driver and execution engine (paper §3, Fig 3).

The driver compiles the plan, assigns input files to serverless workers,
"invokes" them through :func:`repro.faas.dispatch.invoke` (the
reproduction's function-per-fragment scheduler), and collects results through
shared storage only. Workers are packed into one Spark task per core; each
still runs alone, with its own S3 client and request ledger, and posts its own
success/error message + metrics into a result queue (the ``qresults``
bucket, standing in for SQS), so one failed worker does not stop the others
in its task. Partial rows come back as task output, and the driver scope
combines them in pandas on the driver, as the paper's small driver scopes do.

Real wall-clock at SF<=0.1 validates *correctness*; paper-scale latency and
cost come from ``repro.sim.worker_model`` fed with the measured metrics.
"""
from __future__ import annotations

import dataclasses
import math
import uuid
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
from pyspark.sql import SparkSession
from pyspark.sql.pandas.types import from_arrow_schema

from ..faas.dispatch import invoke
from ..s3.store import S3Client, S3Store
from ..scan.s3file import S3RandomAccessFile
from . import compile as qc
from . import frontend
from .metrics import QueryMetrics, WorkerMetrics
from .worker import execute_fragment, partial_schema, reduce_states

RESULT_BUCKET = "qresults"


class WorkerError(RuntimeError):
    """At least one worker posted an error message to the result queue."""


@dataclasses.dataclass
class QueryResult:
    """Result of one Lambada query execution."""

    result: pd.DataFrame  # final (driver-scope) result, collected
    metrics: QueryMetrics
    n_workers: int
    files_per_worker: int


def _arrow_schema(store_root: str, f) -> pa.Schema:
    """Driver-scope pre-processing: one footer read of the first file."""
    client = S3Client(store_root)
    fobj = S3RandomAccessFile(client, f[0], f[1])
    schema = pq.ParquetFile(fobj).schema_arrow
    fobj.close()
    return schema


def _final_aggregation(partials: pd.DataFrame, phys: qc.PhysicalQuery) -> pd.DataFrame:
    """Driver scope: combine the workers' partial states in pandas."""
    if not phys.aggs:
        return partials
    # COUNT over no rows is 0; SUM/AVG/MIN/MAX over no values are NULL
    how = {
        c.name: "total" if c.kind == "count" else c.kind
        for c in phys.partial_schema()
        if c.kind != "key"
    }
    merged = reduce_states(partials, phys.keys, how)
    out = merged[phys.keys].copy()
    for a in phys.aggs:
        if a.fn == "avg":
            out[a.out_name] = merged[a.out_name + "__sum"] / merged[a.out_name + "__cnt"]
        else:
            out[a.out_name] = merged[a.out_name]
    return out


def run_query(
    spark: SparkSession,
    store_root: str,
    query,
    *,
    n_workers: int | None = None,
    files_per_worker: int | None = None,
    chunk_bytes: int = 1 << 20,
    footer_hint: int = 1 << 16,
    memory_limit_mib: int | None = None,
    run_id: str | None = None,
) -> QueryResult:
    """Execute a Lambada plan with ``n_workers`` serverless workers.

    ``query`` may be a frontend :class:`Dataset`, a logical plan, or an
    already-compiled :class:`PhysicalQuery`. Exactly one of ``n_workers`` /
    ``files_per_worker`` may be given; the default is one worker per file
    (the paper's F=1).
    """
    if isinstance(query, frontend.Dataset):
        query = query.plan
    phys = query if isinstance(query, qc.PhysicalQuery) else qc.compile_plan(query)
    n_files = len(phys.files)
    if not n_files:
        raise ValueError("the query scans no files")
    if n_workers is not None and files_per_worker is not None:
        raise ValueError("give n_workers or files_per_worker, not both")
    if n_workers is None:
        n_workers = math.ceil(n_files / (files_per_worker or 1))
    n_workers = min(n_workers, n_files)
    run_id = run_id or uuid.uuid4().hex[:12]

    S3Store(store_root).create_bucket(RESULT_BUCKET)
    arrow = _arrow_schema(store_root, phys.files[0])
    out_schema = from_arrow_schema(partial_schema(phys, arrow))

    def _run_worker(wid):
        try:
            partial, m = execute_fragment(
                store_root,
                wid,
                phys.files[wid::n_workers],
                phys,
                chunk_bytes=chunk_bytes,
                footer_hint=footer_hint,
                memory_limit_mib=memory_limit_mib,
            )
        except Exception as e:  # report instead of dying silently
            partial = None
            m = WorkerMetrics(worker_id=wid, status="error", error=repr(e))
        queue = S3Client(store_root)  # result-queue client (SQS stand-in)
        queue.put(RESULT_BUCKET, f"{run_id}/w{wid}.json", m.to_json().encode())
        return partial

    partials = invoke(spark, n_workers, _run_worker, out_schema).toPandas()

    # driver polls the result queue until it heard back from all workers
    qdir = Path(store_root) / RESULT_BUCKET / run_id
    reports = [qdir / f"w{wid}.json" for wid in range(n_workers)]
    missing = [wid for wid, p in enumerate(reports) if not p.exists()]
    if missing:
        raise WorkerError(f"workers {missing} never reported")
    workers = [WorkerMetrics.from_json(p.read_text()) for p in reports]
    errors = [w for w in workers if w.status == "error"]
    if errors:
        raise WorkerError(
            "; ".join(f"worker {w.worker_id}: {w.error}" for w in errors)
        )
    return QueryResult(
        result=_final_aggregation(partials, phys),
        metrics=QueryMetrics(workers),
        n_workers=n_workers,
        files_per_worker=math.ceil(n_files / n_workers),
    )
