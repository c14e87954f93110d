"""Serverless worker: executes one plan fragment over its files (paper §3.3).

Mirrors the paper's event handler: it receives a worker ID, the fragment, and
its input file list, and runs the execution engine under a memory guard so
that out-of-memory situations are *reported* to the driver instead of the
worker "dying silently". Each worker has its own S3 client and request
ledger, even when the engine packs several workers into one Spark task.

The fragment pipeline is: S3 Parquet scan (with push-downs) -> residual
filter -> projection -> partial aggregation, all vectorised over Arrow/pandas
batches (the stand-in for the paper's JiT-compiled pipelines).
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
import pyarrow as pa

from ..s3.store import S3Client
from ..scan.parquet_scan import ParquetScanOperator
from . import compile as qc
from .metrics import WorkerMetrics


class WorkerOOM(MemoryError):
    """Fragment would exceed the function's memory limit."""


def partial_schema(phys: qc.PhysicalQuery, source: pa.Schema) -> pa.Schema:
    """Arrow schema of a worker's output rows, given the scanned files' schema.

    With aggregation: the keys, then the partial states (int64 counts,
    float64 sums/min/max). Without: the projected columns (float64), or the
    scanned columns as stored.
    """
    computed = phys.projections or {}

    def field(name: str) -> pa.Field:
        return pa.field(name, pa.float64() if name in computed else source.field(name).type)

    if phys.aggs:
        return pa.schema(
            field(c.name)
            if c.kind == "key"
            else pa.field(c.name, pa.int64() if c.kind == "count" else pa.float64())
            for c in phys.partial_schema()
        )
    if phys.projections is not None:
        return pa.schema(field(n) for n in phys.projections)
    return pa.schema(field(n) for n in phys.scan_columns or source.names)


def _reduce(obj, fn: str):
    if fn == "sum":
        return obj.sum(min_count=1)
    return obj.sum() if fn == "total" else getattr(obj, fn)()


def reduce_states(states: pd.DataFrame, keys: list, how: dict) -> pd.DataFrame:
    """``states`` reduced per group of ``keys`` (to one row without keys).

    ``how`` maps each column to "sum" (NULL when no value is present),
    "total" (a sum that is 0 over no rows), "count" (of non-null values),
    "min" or "max". One groupby makes one reduction per function over all
    the columns it applies to. Workers and the driver scope both reduce here.
    """
    if not keys:
        return pd.DataFrame({name: [_reduce(states[name], fn)] for name, fn in how.items()})
    groups = states.groupby(keys, sort=False)
    by_fn: dict[str, list] = {}
    for name, fn in how.items():
        by_fn.setdefault(fn, []).append(name)
    reduced = pd.concat([_reduce(groups[cols], fn) for fn, cols in by_fn.items()], axis=1)
    return reduced[list(how)].reset_index()


def _partial_aggregate(df: pd.DataFrame, phys: qc.PhysicalQuery) -> pd.DataFrame:
    """Partial aggregation states for one worker's (non-empty) rows.

    Each aggregate expression is evaluated once over the whole batch. Null
    values are skipped as in SQL: a SUM (and avg's ``__sum``) over none is
    NULL, and avg's ``__cnt`` counts non-null values; COUNT(*) counts rows.
    """
    values, how = {k: df[k] for k in phys.keys}, {}
    for a in phys.aggs:
        if a.fn == "count":
            values[a.out_name], how[a.out_name] = 1, "total"
            continue
        v = a.expr.eval(df)
        if a.fn == "avg":
            values[a.out_name + "__sum"], how[a.out_name + "__sum"] = v, "sum"
            values[a.out_name + "__cnt"], how[a.out_name + "__cnt"] = v, "count"
        else:
            values[a.out_name], how[a.out_name] = v, a.fn
    return reduce_states(pd.DataFrame(values, index=df.index, copy=False), phys.keys, how)


def execute_fragment(
    store_root: str,
    worker_id: int,
    files: list,
    phys: qc.PhysicalQuery,
    *,
    chunk_bytes: int = 1 << 20,
    footer_hint: int = 1 << 16,
    memory_limit_mib: int | None = None,
) -> tuple[pd.DataFrame, WorkerMetrics]:
    """Run the serverless fragment; returns (partial rows, metrics).

    Raises :class:`WorkerOOM` when the scanned data would not fit the
    function's memory budget (the engine runs "with a memory limit slightly
    lower than that of the serverless function").
    """
    t0 = time.monotonic()
    client = S3Client(store_root)
    scan = ParquetScanOperator(
        client,
        files,
        columns=phys.scan_columns or None,
        predicate=phys.scan_predicate,
        chunk_bytes=chunk_bytes,
        footer_hint=footer_hint,
    )
    parts = []
    budget = None if memory_limit_mib is None else int(memory_limit_mib * 0.9) * 2**20
    consumed = 0
    for tbl in scan.tables():
        consumed += tbl.nbytes
        if budget is not None and consumed > budget:
            raise WorkerOOM(
                f"worker {worker_id}: fragment needs >{consumed >> 20} MiB, "
                f"limit {memory_limit_mib} MiB"
            )
        batch = tbl.to_pandas()
        if phys.residual_predicate is not None:
            mask = phys.residual_predicate.eval(batch)
            batch = batch[np.asarray(mask, dtype=bool)]
        if phys.projections is not None:
            out = {name: e.eval(batch) for name, e in phys.projections.items()}
            for k in phys.keys:
                if k not in out:
                    out[k] = batch[k]
            batch = pd.DataFrame(out)
        parts.append(batch)

    rows = pd.concat(parts, ignore_index=True) if parts else None
    if rows is None or (phys.aggs and rows.empty):
        # fully pruned or filtered out: a typed empty frame, columns included
        partial = partial_schema(phys, scan.empty_table().schema).empty_table().to_pandas()
    else:
        partial = _partial_aggregate(rows, phys) if phys.aggs else rows
    m = WorkerMetrics(
        worker_id=worker_id,
        n_files=len(files),
        row_groups_total=scan.metrics.row_groups_total,
        row_groups_scanned=scan.metrics.row_groups_scanned,
        rows_read=scan.metrics.rows_read,
        rows_out=0 if rows is None else len(rows),
        compressed_bytes=scan.metrics.compressed_bytes,
        uncompressed_bytes=scan.metrics.uncompressed_bytes,
        wall_time_s=time.monotonic() - t0,
        ledger=vars(client.ledger).copy(),
    )
    return partial, m
