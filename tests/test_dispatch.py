"""Worker dispatch: the one-time worker-process setup.

Spark's Python worker calls ``importlib.invalidate_caches()`` before every
task; on CPython < 3.12 that re-reads the directory of every zip archive on
``sys.path`` (``pyspark.zip`` among them). ``dispatch.setup_worker`` turns the
re-read off inside worker processes only.
"""
import importlib
import sys
import zipimport

import pandas as pd
import pytest

from repro.faas import dispatch

# pyspark modules that a worker process has not imported before this test;
# each worker imports the first one still missing from sys.modules
UNIMPORTED = (
    "pyspark.sql.avro.functions",
    "pyspark.sql.protobuf.functions",
    "pyspark.instrumentation_utils",
)


def _zip_directories_survive(wid):
    zips = [p for p in sys.path if p.endswith(".zip")]
    before = [id(zipimport._zip_directory_cache.get(a)) for a in zips]
    importlib.invalidate_caches()
    fresh = next((m for m in UNIMPORTED if m not in sys.modules), "")
    if fresh:
        importlib.import_module(fresh)
    after = [id(zipimport._zip_directory_cache.get(a)) for a in zips]
    return pd.DataFrame(
        {"worker": [wid], "zips": [len(zips)], "imported": [fresh], "kept": [before == after]}
    )


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="CPython 3.12 invalidates zip caches lazily")
def test_workers_keep_zip_directories(spark):
    n = spark.sparkContext.defaultParallelism
    schema = "worker long, zips long, imported string, kept boolean"
    got = dispatch.invoke(spark, n, _zip_directories_survive, schema).toPandas()
    assert sorted(got["worker"]) == list(range(n))
    assert (got["zips"] > 0).all()  # pyspark.zip and py4j's zip at least
    assert (got["imported"] != "").all()
    assert got["kept"].all(), got


def test_driver_keeps_zip_invalidation(spark):
    original = zipimport.zipimporter.invalidate_caches
    dispatch.setup_worker()  # outside a Spark task: does nothing
    dispatch.invoke(spark, 2, lambda wid: None, "worker long").collect()
    assert zipimport.zipimporter.invalidate_caches is original
    assert original.__module__ == "zipimport"
