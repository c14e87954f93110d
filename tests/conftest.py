"""Shared fixtures: one simulated-S3 store with a prepared LINEITEM layout.

The sorted-Parquet dataset (SF 0.01, 16 files, 2 row groups each) is built
once per session; engine runs of Q1/Q6 over it are also session-scoped since
many tests only inspect their metrics.
"""
import time

import pytest

from repro.s3.store import S3Store
from repro.sim import experiments as X

SF = 0.01
N_FILES = 16


@pytest.fixture(scope="session")
def store_root(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("s3root"))


@pytest.fixture(scope="session")
def store(store_root) -> S3Store:
    return S3Store(store_root)


@pytest.fixture(scope="session")
def lineitem_ds(spark, store_root):
    """(DatasetInfo, sorted pandas frame) of the prepared LINEITEM layout."""
    return X.prepare(spark, store_root, sf=SF, n_files=N_FILES, row_groups_per_file=2)


@pytest.fixture(scope="session")
def mq1(spark, store_root, lineitem_ds):
    info, _ = lineitem_ds
    return X.measure_query(spark, store_root, info, "q1")


@pytest.fixture(scope="session")
def mq6(spark, store_root, lineitem_ds):
    info, _ = lineitem_ds
    return X.measure_query(spark, store_root, info, "q6")


@pytest.fixture(scope="session")
def spark_jobs(spark):
    """``spark_jobs(group)``: one list per job run under the Spark job group
    ``group`` (in job order) of the tasks each of its stages ran (0 for a
    skipped stage), once the status tracker has caught up with the jobs."""
    st = spark.sparkContext.statusTracker()

    def jobs(group: str, timeout_s: float = 10.0) -> list[list[int]]:
        deadline = time.monotonic() + timeout_s
        while True:
            infos = [st.getJobInfo(j) for j in sorted(st.getJobIdsForGroup(group))]
            stages = [[st.getStageInfo(s) for s in job.stageIds] for job in infos if job]
            done = all(j and j.status == "SUCCEEDED" for j in infos) and all(
                s for job in stages for s in job
            )
            if done or time.monotonic() > deadline:
                return [[s.numCompletedTasks for s in job if s] for job in stages]
            time.sleep(0.05)

    return jobs
