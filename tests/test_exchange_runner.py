"""S3 exchange on Spark: data correctness and exact request accounting.

Every variant must (a) place each record on the worker equal to its
partition ID, (b) preserve the input multiset, and (c) issue exactly the
request counts of `algorithms.expected_requests` (which tie to Table 2).
"""
import pandas as pd
import pytest

from repro import synth_data
from repro.exchange import algorithms as alg
from repro.exchange import naming, runner
from repro.s3.store import S3Store

SPECS = [
    alg.ExchangeSpec(1, False),
    alg.ExchangeSpec(1, True),
    alg.ExchangeSpec(2, False),
    alg.ExchangeSpec(2, True),
    alg.ExchangeSpec(2, True, "sidecar"),
    alg.ExchangeSpec(3, False),
    alg.ExchangeSpec(3, True),
]


@pytest.fixture(scope="module")
def xinput(spark):
    df = synth_data.uniform_keys(spark, n=8000, n_keys=300, seed=11)
    return df, df.toPandas()


@pytest.fixture(scope="module")
def xstore(tmp_path_factory):
    return S3Store(tmp_path_factory.mktemp("xstore"))


def _run(spark, xinput, xstore, spec, P):
    df, in_pdf = xinput
    out, rep = runner.run_exchange(spark, df, P, spec, xstore)
    return out.toPandas(), rep, in_pdf


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label + ("-sc" if s.offsets_mode == "sidecar" else ""))
class TestAllVariants:
    P = {1: 8, 2: 16, 3: 27}

    def test_placement_and_content(self, spark, xinput, xstore, spec):
        out, rep, in_pdf = _run(spark, xinput, xstore, spec, self.P[spec.levels])
        # every record sits on the worker equal to its partition id
        assert (out["pid"] == out["worker"]).all()
        # multiset equality with the input
        a = out[["k", "v"]].sort_values(["k", "v"]).reset_index(drop=True)
        b = in_pdf[["k", "v"]].sort_values(["k", "v"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)

    def test_request_counts_exact(self, spark, xinput, xstore, spec):
        P = self.P[spec.levels]
        _, rep, _ = _run(spark, xinput, xstore, spec, P)
        exp = alg.expected_requests(P, spec)
        assert rep.ledger.puts == exp["puts"]
        assert rep.ledger.gets == exp["gets"]
        assert rep.ledger.lists == exp["lists"]


class TestDetails:
    def test_every_partition_nonempty_worker_gets_rows(self, spark, xinput, xstore):
        out, rep, _ = _run(spark, xinput, xstore, alg.ExchangeSpec(2, True), 16)
        assert set(out["worker"].unique()) == set(range(16))

    def test_data_scanned_k_times(self, spark, xinput, xstore):
        """Table 2 #scans: each level writes+reads the whole input once."""
        _, rep1, _ = _run(spark, xinput, xstore, alg.ExchangeSpec(1, True), 8)
        _, rep2, _ = _run(spark, xinput, xstore, alg.ExchangeSpec(2, True), 8)
        assert rep2.ledger.bytes_written > 1.5 * rep1.ledger.bytes_written

    def test_bucket_spreading_across_buckets(self, spark, xinput, xstore):
        _, rep, _ = _run(spark, xinput, xstore, alg.ExchangeSpec(2, False, n_buckets=4), 16)
        touched = {b for b in rep.ledger.per_bucket if b.startswith("xbkt")}
        assert len(touched) == 4

    def test_single_bucket_concentrates_requests(self, spark, xinput, xstore):
        _, rep, _ = _run(spark, xinput, xstore, alg.ExchangeSpec(2, False, n_buckets=1), 16)
        assert list(rep.ledger.per_bucket) == ["xbkt0"]

    def test_report_phase_ledgers(self, spark, xinput, xstore):
        _, rep, _ = _run(spark, xinput, xstore, alg.ExchangeSpec(2, True), 16)
        assert len(rep.per_phase) == 2
        assert rep.output_rows == rep.input_rows == 8000

    def test_input_io_separated_from_exchange(self, spark, xinput, xstore):
        """The input share is PUT once and read back whole by one GET, and
        neither request lands in the exchange ledger."""
        for spec in SPECS:
            _, rep, _ = _run(spark, xinput, xstore, spec, TestAllVariants.P[spec.levels])
            assert rep.input_ledger.puts >= 1
            assert rep.input_ledger.gets == rep.input_ledger.puts
            assert rep.input_ledger.bytes_read == rep.input_ledger.bytes_written > 0
            if spec.offsets_mode != "sidecar":  # every part written once, read once
                assert rep.ledger.bytes_read == rep.ledger.bytes_written

    def test_levels_and_collect_are_one_packed_stage_each(
        self, spark, spark_jobs, xinput, xstore
    ):
        """As in the query engine: every level and the collect run as one
        Spark job of one stage with one task per core, and no job of the
        exchange runs a second stage (no Spark shuffle), whether or not the
        input is cached."""
        spec, P = alg.ExchangeSpec(2, True), 16
        sc = spark.sparkContext
        n_tasks = min(P, sc.defaultParallelism)
        cached = spark.createDataFrame(xinput[1]).cache()
        cached.count()
        for group, df in [("exchange-uncached", xinput[0]), ("exchange-cached", cached)]:
            sc.setJobGroup(group, "packed exchange phases")
            try:
                _, rep = runner.run_exchange(spark, df, P, spec, xstore)
            finally:
                sc.setLocalProperty("spark.jobGroup.id", None)
            assert rep.output_rows == rep.input_rows == 8000
            jobs = spark_jobs(group)
            assert jobs[-(spec.levels + 1):] == [[n_tasks]] * (spec.levels + 1)
            assert all(len(stages) == 1 for stages in jobs), (group, jobs)
        cached.unpersist()

    def test_source_workers_without_rows(self, spark, xstore):
        """With fewer rows than workers some source workers get no input
        share: they write none, read none and are billed nothing, and the
        exchange still delivers every row and matches Table 2 exactly."""
        spec, P = alg.ExchangeSpec(2, True), 16
        in_pdf = pd.DataFrame({"k": [3, 3, 7, 11, 12, 40], "v": [0.5, 1.5, 2.5, 3.5, 4.5, 5.5]})
        out, rep = runner.run_exchange(
            spark, spark.createDataFrame(in_pdf), P, spec, xstore, run_id="few-rows"
        )
        out = out.toPandas()
        assert (out["pid"] == out["worker"]).all()
        pd.testing.assert_frame_equal(
            out[["k", "v"]].sort_values(["k", "v"]).reset_index(drop=True), in_pdf
        )
        exp = alg.expected_requests(P, spec)
        assert (rep.ledger.puts, rep.ledger.gets, rep.ledger.lists) == (
            exp["puts"], exp["gets"], exp["lists"]
        )
        client, bucket = xstore.client(), naming.bucket_for_group(0, spec.n_buckets)
        shares = sum(client.exists(bucket, naming.input_key("few-rows", p)) for p in range(P))
        assert 0 < shares < P
        assert rep.input_ledger.gets == rep.input_ledger.puts == shares

    def test_single_worker_degenerate(self, spark, xinput, xstore):
        out, rep, in_pdf = _run(spark, xinput, xstore, alg.ExchangeSpec(1, True), 1)
        assert len(out) == len(in_pdf)
        assert (out["worker"] == 0).all()
