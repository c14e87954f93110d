"""Worker dispatch on Spark: one task per core, each running its share of the
serverless workers in turn (no shuffle is needed to hand out worker IDs)."""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession


def invoke(spark: SparkSession, n_workers: int, handler, schema) -> DataFrame:
    """The lazy output of ``handler(worker_id)`` for every worker ID in
    ``range(n_workers)``; a handler returns a pandas frame of ``schema`` or
    None. The query engine and every exchange phase dispatch through here."""

    def run(batches):
        for batch in batches:
            for wid in batch["id"].tolist():
                out = handler(wid)
                if out is not None:
                    yield out

    n_tasks = min(n_workers, spark.sparkContext.defaultParallelism)
    return spark.range(n_workers, numPartitions=n_tasks).mapInPandas(run, schema=schema)
