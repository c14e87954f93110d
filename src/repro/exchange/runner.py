"""Spark-phased executor for the S3 exchange operators (paper §4.4, Alg 1-2).

Every level of the exchange is one Spark job whose tasks run the serverless
workers (:func:`repro.faas.dispatch.invoke`, which runs empty workers too);
**all data moves through the simulated S3, never through Spark's own
shuffle**, reproducing the paper's communication topology. The Spark action
at the end of each phase is the barrier that the paper realises by polling
S3 until all senders' files exist.

Phases for a k-level exchange:

  0. *distribute*: the driver collects the input, cuts it by source worker
     and writes each non-empty input share R_p ("in/w{p}");
  1..k. *level l*: every worker reads the level-(l-1) files addressed to it
     (or its input share), partitions the rows by the level-l coordinate of
     their partition ID, and writes one file per group member (or one
     combined file under write combining — offsets in the key, discovered
     via LIST);
  k+1. *collect*: every worker reads its final files and returns the rows,
     which must now all satisfy ``partition_id == worker_id``.

Every worker adds its request ledger to its phase's Spark accumulator; the
input share's PUT and GET go to a separate input ledger (the "scan"). The
sums form an :class:`ExchangeReport`, which tests assert equals
:func:`algorithms.expected_requests` exactly.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import uuid

import numpy as np
import pandas as pd
from pyspark.accumulators import AccumulatorParam
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..faas.dispatch import invoke
from ..s3.store import Ledger, NoSuchKey, S3Client, S3Store
from . import algorithms as alg
from . import naming, serde


@dataclasses.dataclass
class ExchangeReport:
    """Accounting of one exchange run."""

    input_rows: int
    output_rows: int
    ledger: Ledger  # exchange requests only (levels + collect)
    input_ledger: Ledger  # the distribute/read-input traffic (the "scan")
    per_phase: list  # Ledger per level phase


class _LedgerSum(AccumulatorParam):
    """Spark accumulator of the :class:`Ledger` every worker adds."""

    def zero(self, value):
        return Ledger()

    def addInPlace(self, a, b):
        return a.merge(b)


def _split(rows: pd.DataFrame, target: np.ndarray, n: int) -> list[pd.DataFrame]:
    """``rows`` cut into ``n`` frames by ``target`` (values in ``range(n)``),
    each keeping the rows' order."""
    order = np.argsort(target, kind="stable")
    cuts = np.searchsorted(target[order], np.arange(n + 1))
    return [rows.iloc[order[a:b]] for a, b in zip(cuts, cuts[1:])]


def _read_level_files(
    client: S3Client, run_id: str, level: int, p: int, dims: tuple, spec: alg.ExchangeSpec
) -> list[pd.DataFrame]:
    """Read the level-``level`` parts addressed to worker ``p``."""
    d = dims[level]
    gid = alg.group_id(p, dims, level)
    bucket = naming.bucket_for_group(gid, spec.n_buckets)
    my = alg.level_coord(p, dims, level)
    frames = []
    if spec.write_combining and spec.offsets_mode == "filename":
        # one LIST discovers every sender's key, offsets included in the name
        keys = client.list(bucket, naming.group_prefix(run_id, level, gid))
        if len(keys) != d:
            raise RuntimeError(f"group {gid} level {level}: saw {len(keys)} of {d} senders")
        for key in keys:
            _, lengths = naming.parse_combined(key)
            off, length = serde.part_range(lengths, my)
            blob = client.get(bucket, key, offset=off, length=length)
            if length:
                frames.append(serde.bytes_to_frame(blob))
    elif spec.write_combining:  # sidecar offsets file: two GETs per sender
        for s in range(d):
            lengths = json.loads(
                client.get(bucket, naming.sidecar_offsets_key(run_id, level, gid, s))
            )
            off, length = serde.part_range(lengths, my)
            blob = client.get(
                bucket, naming.sidecar_data_key(run_id, level, gid, s), offset=off, length=length
            )
            if length:
                frames.append(serde.bytes_to_frame(blob))
    else:
        # readiness poll: one LIST per worker (Table 2's O(P) #lists)
        client.list(bucket, naming.group_prefix(run_id, level, gid))
        for s in range(d):
            blob = client.get(bucket, naming.part_key(run_id, level, gid, s, my))
            frames.append(serde.bytes_to_frame(blob))
    return frames


def _write_level_files(
    client: S3Client,
    run_id: str,
    level: int,
    p: int,
    dims: tuple,
    spec: alg.ExchangeSpec,
    rows: pd.DataFrame,
):
    """Partition ``rows`` by the level coordinate of pid and write all parts
    (empty parts included — receivers poll for every sender's file)."""
    d = dims[level]
    gid = alg.group_id(p, dims, level)
    bucket = naming.bucket_for_group(gid, spec.n_buckets)
    me = alg.level_coord(p, dims, level)
    target = alg.level_coord(rows["pid"].to_numpy(), dims, level)
    parts = [serde.frame_to_bytes(part) for part in _split(rows, target, d)]
    if spec.write_combining:
        blob, lengths = serde.combine(parts)
        if spec.offsets_mode == "filename":
            client.put(bucket, naming.combined_key(run_id, level, gid, me, lengths), blob)
        else:
            client.put(
                bucket,
                naming.sidecar_offsets_key(run_id, level, gid, me),
                json.dumps(lengths).encode(),
            )
            client.put(bucket, naming.sidecar_data_key(run_id, level, gid, me), blob)
    else:
        for v, payload in enumerate(parts):
            client.put(bucket, naming.part_key(run_id, level, gid, me, v), payload)


def run_exchange(
    spark: SparkSession,
    df: DataFrame,
    n_workers: int,
    spec: alg.ExchangeSpec,
    store: S3Store,
    *,
    key_col: str = "k",
    run_id: str | None = None,
) -> tuple[DataFrame, ExchangeReport]:
    """Exchange ``df`` among ``n_workers`` serverless workers so that every
    record ends on the worker given by ``hash(key) % n_workers``.

    Returns the collected output (with ``pid`` and ``worker`` columns, which
    must agree) and the request accounting.
    """
    run_id = run_id or uuid.uuid4().hex[:8]
    dims = alg.grid_dims(n_workers, spec.levels)
    for b in naming.exchange_buckets(spec.n_buckets):
        store.create_bucket(b)
    root = str(store.root)
    sc = spark.sparkContext
    input_acc = sc.accumulator(Ledger(), _LedgerSum())

    # partition ID and source-worker assignment (both hash-based, as in Alg 1)
    df2 = df.withColumn(
        "pid", F.pmod(F.xxhash64(F.col(key_col)), F.lit(n_workers)).cast("int")
    ).withColumn(
        "src", F.pmod(F.xxhash64(F.col(key_col), F.lit(run_id)), F.lit(n_workers)).cast("int")
    )
    in_bucket = naming.bucket_for_group(0, spec.n_buckets)

    # ---- phase 0: the driver writes the input shares (the relation R of Alg 1)
    rows = df2.toPandas()
    src = rows.pop("src").to_numpy()
    empty = rows.iloc[:0]
    driver = S3Client(root)
    for p, share in enumerate(_split(rows, src, n_workers)):
        if len(share):  # a source worker without rows writes nothing
            driver.put(in_bucket, naming.input_key(run_id, p), serde.frame_to_bytes(share))
    input_acc.add(driver.ledger)

    def _read_input(p):
        client = S3Client(root)  # the input GET belongs to the scan, not the exchange
        try:
            rows = serde.bytes_to_frame(client.get(in_bucket, naming.input_key(run_id, p)))
        except NoSuchKey:  # source worker had no rows: nothing billed
            rows = empty
        input_acc.add(client.ledger)
        return rows

    def _received(client, level, p):
        frames = _read_level_files(client, run_id, level, p, dims, spec)
        return pd.concat(frames, ignore_index=True) if frames else empty

    # ---- level phases: read previous, partition, write this level
    per_phase = []
    for level in range(spec.levels):
        acc = sc.accumulator(Ledger(), _LedgerSum())

        def _level(p, level=level, acc=acc):
            client = S3Client(root)
            rows = _read_input(p) if level == 0 else _received(client, level - 1, p)
            _write_level_files(client, run_id, level, p, dims, spec, rows)
            acc.add(client.ledger)

        # workers return no rows; the action is the barrier
        invoke(spark, n_workers, _level, "worker int").collect()
        per_phase.append(acc.value)

    # ---- collect phase: read the final level's files
    collect_acc = sc.accumulator(Ledger(), _LedgerSum())
    n_out = sc.accumulator(0)

    def _collect(p):
        client = S3Client(root)
        rows = _received(client, spec.levels - 1, p).assign(worker=p)
        collect_acc.add(client.ledger)
        n_out.add(len(rows))
        return rows

    out_schema = df2.drop("src").withColumn("worker", F.lit(0)).schema
    out = invoke(spark, n_workers, _collect, out_schema).cache()
    # the action fills the cache and checks that every row is on its partition
    if out.where(out.pid != out.worker).collect():
        raise RuntimeError("the exchange left rows on a worker other than their partition's")

    total = functools.reduce(Ledger.merge, [*per_phase, collect_acc.value], Ledger())
    report = ExchangeReport(
        input_rows=len(rows),
        output_rows=n_out.value,
        ledger=total,
        input_ledger=input_acc.value,
        per_phase=per_phase,
    )
    return out, report
