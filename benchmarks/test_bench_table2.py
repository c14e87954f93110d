"""Benchmark for Table 2: a real two-level write-combining exchange on Spark
through the simulated S3, with the request ledger asserted against the
closed-form counts."""
import pytest

from repro import synth_data
from repro.exchange import algorithms as alg
from repro.exchange import runner
from repro.s3.store import S3Store

P = 16


@pytest.fixture(scope="module")
def xdata(spark):
    return synth_data.uniform_keys(spark, n=600_000, n_keys=20_000, seed=5)


@pytest.mark.parametrize(
    "spec",
    [alg.ExchangeSpec(1, False), alg.ExchangeSpec(2, False), alg.ExchangeSpec(2, True)],
    ids=lambda s: s.label,
)
def test_bench_table2_exchange(benchmark, spark, xdata, tmp_path_factory, spec):
    store = S3Store(tmp_path_factory.mktemp(f"bench-x-{spec.label}"))

    def run():
        out, rep = runner.run_exchange(spark, xdata, P, spec, store)
        return rep

    rep = benchmark.pedantic(run, rounds=1, iterations=1)
    exp = alg.expected_requests(P, spec)
    assert rep.ledger.puts == exp["puts"]
    assert rep.ledger.gets == exp["gets"]
    assert rep.ledger.lists == exp["lists"]
    assert rep.output_rows == 600_000
