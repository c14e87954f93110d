"""Worker dispatch on Spark: one task per core, each running its share of the
serverless workers in turn (no shuffle is needed to hand out worker IDs).

A Lambda invocation has a fixed start-up cost (paper §4.2); so does every
Spark Python task. Before each task, Spark's Python worker calls
``importlib.invalidate_caches()``, and on CPython < 3.12 that makes every
``zipimporter`` re-read the whole directory of ``pyspark.zip`` (one importer
per package directory imported from it; about 70-130 ms a task on a 4-vCPU
box). :func:`setup_worker` is the one-time worker-process setup that turns
this re-read off; :func:`invoke` is the only Python code the program runs
inside Spark tasks, and its task function calls it first. The first task of
a fresh worker process still pays the cost once.
"""
from __future__ import annotations

import sys
import zipimport

from pyspark import TaskContext
from pyspark.sql import DataFrame, SparkSession


def _keep_zip_directory(self) -> None:
    """Replacement for ``zipimporter.invalidate_caches``: keep the directory
    read when the importer was made."""


def setup_worker() -> None:
    """Set up the Spark Python worker process this runs in; does nothing
    outside a Spark task or on CPython >= 3.12."""
    # Safe because no archive on a worker's sys.path is rewritten while the
    # worker lives; addPyFile archives arrive under new paths and so get new
    # importers; directory (FileFinder) invalidation is untouched; and
    # CPython 3.12 already makes zip invalidation lazy.
    if sys.version_info < (3, 12) and TaskContext.get() is not None:
        zipimport.zipimporter.invalidate_caches = _keep_zip_directory


def invoke(spark: SparkSession, n_workers: int, handler, schema) -> DataFrame:
    """The lazy output of ``handler(worker_id)`` for every worker ID in
    ``range(n_workers)``; a handler returns a pandas frame of ``schema`` or
    None. The query engine and every exchange phase dispatch through here."""

    def run(batches):
        setup_worker()
        for batch in batches:
            for wid in batch["id"].tolist():
                out = handler(wid)
                if out is not None:
                    yield out

    n_tasks = min(n_workers, spark.sparkContext.defaultParallelism)
    return spark.range(n_workers, numPartitions=n_tasks).mapInPandas(run, schema=schema)
