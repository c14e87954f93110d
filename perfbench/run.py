#!/usr/bin/env python3
"""Closed-loop benchmark of the Lambada reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload q1-sf0.1 --seed 1 --seconds 20 --trace 0

One client in this process sends one operation at a time and the next only
after the previous one returned. Untimed warm-up operations come first. Every
operation's output is checked outside the timed region; a failed check makes
the command exit non-zero. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer metrics, measured on every second
operation with spans opened from this benchmark's own files (the other
operations run untraced, which gives the tracing overhead).

The Spark session matches the one the test suite uses: 64 shuffle
partitions, Arrow on, broadcast joins off, UI off, a ``local[N]`` master.
Everything the run writes stays under ``.perfbench_work/`` in the checkout
and is removed at exit.
"""
from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

QUERY_WORKLOADS = {"q1-sf0.1": "q1", "q6-sf0.1": "q6"}
EXCHANGE_WORKLOAD = "exchange-2l-wc-p64"
WORKLOADS = (*QUERY_WORKLOADS, EXCHANGE_WORKLOAD)

#: ``local[N]`` with N = min(MAX_CORES, cores of the machine)
MAX_CORES = 4
DRIVER_MEMORY = "1g"
WARMUP_OPS = 2
#: timed operations per run even when ``--seconds`` ran out earlier; a
#: traced run needs two traced and two untraced ones
MIN_OPS = 3
MIN_OPS_TRACED = 4
#: no new operation starts after this much wall time; the run is cut hard
#: at HARD_LIMIT_S
SOFT_LIMIT_S = 120.0
HARD_LIMIT_S = 150

END_TO_END = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "s3_requests_per_op": "count",
    "s3_bytes_per_op": "B",
    "paper_latency_s": "s",
    "paper_cost_usd": "usd",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "core.engine.run_query_s": "s",
    "core.engine.spark_jobs": "count",
    "core.engine.spark_stages": "count",
    "core.engine.spark_tasks": "count",
    "core.engine.overhead_s": "s",
    "core.engine.driver_s3_requests": "count",
    "core.engine.driver_s3_s": "s",
    "core.compile.compile_s": "s",
    "core.worker.fragment_s_sum": "s",
    "core.worker.fragment_s_max": "s",
    "core.worker.compute_s": "s",
    "core.worker.rows_read": "count",
    "core.worker.rows_out": "count",
    "core.worker.decoded_bytes": "B",
    "scan.parquet_scan.scan_s": "s",
    "scan.parquet_scan.decode_s": "s",
    "scan.parquet_scan.row_groups_scanned": "count",
    "scan.parquet_scan.rowgroup_scan_frac": "ratio",
    "s3.store.gets": "count",
    "s3.store.heads": "count",
    "s3.store.puts": "count",
    "s3.store.lists": "count",
    "s3.store.bytes_read": "B",
    "s3.store.bytes_written": "B",
    "s3.store.get_s": "s",
    "exchange.runner.run_exchange_s": "s",
    "exchange.runner.phase_s.distribute": "s",
    "exchange.runner.phase_s.level0": "s",
    "exchange.runner.phase_s.level1": "s",
    "exchange.runner.phase_s.collect": "s",
    "exchange.runner.spark_jobs": "count",
    "exchange.runner.spark_tasks": "count",
    "exchange.runner.phase_requests.level0": "count",
    "exchange.runner.phase_requests.level1": "count",
    "exchange.runner.phase_requests.collect": "count",
    "exchange.serde.encode_s": "s",
    "exchange.serde.decode_s": "s",
    "trace.latency_p50_s": "s",
    "trace.overhead_s": "s",
}


@dataclasses.dataclass
class Op:
    """One timed operation and what it left for the report."""

    index: int
    traced: bool
    latency_s: float
    counts: dict
    result: object = None  # kept for traced operations only
    spark: dict | None = None
    driver_ledger: object = None


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured operation time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def configure_environment(work: Path, cores: int, event_dir: Path | None) -> None:
    """Point Spark, the JVM and every Python process at ``work``; must run
    before pyspark launches the JVM."""
    tmp, local = work / "tmp", work / "spark-local"
    for d in (tmp, local) + ((event_dir,) if event_dir else ()):
        d.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    conf = {
        "spark.driver.host": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
    }
    if event_dir is not None:
        conf |= {
            "spark.eventLog.enabled": "true",
            "spark.eventLog.dir": event_dir.as_uri(),
            "spark.eventLog.compress": "false",
            "spark.eventLog.rolling.enabled": "false",
        }
    args = [
        "--master", f"local[{cores}]",
        "--driver-memory", DRIVER_MEMORY,
        "--driver-java-options", f"-Djava.io.tmpdir={tmp}",
    ]
    for k, v in conf.items():
        args += ["--conf", f"{k}={v}"]
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join(args + ["pyspark-shell"])


def start_spark():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


# -- processes ----------------------------------------------------------------
def _stat(pid: int):
    """(state, parent pid) of a process, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            rest = f.read().rsplit(")", 1)[1].split()
        return rest[0], int(rest[1])
    except (OSError, IndexError, ValueError):
        return None


def process_tree(root: int) -> list[int]:
    """``root`` and all its descendants: the JVM and its Python workers."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st:
                children.setdefault(st[1], []).append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def peak_rss_mib(pids) -> dict[str, float]:
    """Peak resident set (VmHWM) of each process, keyed ``pid:name``."""
    out = {}
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                fields = dict(line.split(":", 1) for line in f if ":" in line)
            out[f"{pid}:{fields['Name'].strip()}"] = int(fields["VmHWM"].split()[0]) / 1024.0
        except (OSError, KeyError, ValueError):
            continue
    return out


def stop_spark(spark) -> None:
    """Stop the session, end the JVM and wait until every process it started
    has ended."""
    from pyspark import SparkContext

    pids = process_tree(os.getpid())
    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    others = [p for p in pids if p != os.getpid()]
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline:
        alive = [p for p in others if (st := _stat(p)) and st[0] != "Z"]
        if not alive:
            return
        time.sleep(0.1)
    for p in alive:
        with contextlib.suppress(OSError):
            os.kill(p, signal.SIGKILL)
    while any((st := _stat(p)) and st[0] != "Z" for p in alive):
        time.sleep(0.1)


# -- statistics ------------------------------------------------------------------
def tail(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile that still has at least ten samples beyond it.

    Of n sorted samples that is rank n-10, percentile 100 (n-10) / n. With
    ten samples or fewer no percentile has ten beyond it, and the maximum is
    reported instead.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n > 10:
        return xs[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}"
    return xs[-1], f"max of {n} (fewer than 11 samples)"


def thirds(latencies: list[float]) -> dict:
    k = max(1, len(latencies) // 3)
    return {
        "first_third_p50_s": statistics.median(latencies[:k]),
        "last_third_p50_s": statistics.median(latencies[-k:]),
    }


# -- the run -------------------------------------------------------------------
def make_workload(name, spark, work, seed):
    import workloads

    if name in QUERY_WORKLOADS:
        return workloads.QueryWorkload(spark, work, QUERY_WORKLOADS[name], seed)
    return workloads.ExchangeWorkload(spark, work, seed)


def run(args, spark, work: Path, tracer) -> dict:
    import tracing
    import workloads

    sc = spark.sparkContext
    # set-up: interpreter and JVM start, data, warm-up; the oracle inputs
    # are the benchmark's own work and are left out
    jvm_s = time.perf_counter() - PROCESS_START
    t0 = time.perf_counter()
    wl = make_workload(args.workload, spark, work, args.seed)
    wl.setup()
    data_s = time.perf_counter() - t0
    wl.prepare_checks()
    t0 = time.perf_counter()
    for i in range(WARMUP_OPS):
        wl.cleanup(wl.operation(i))
    warmup_s = time.perf_counter() - t0
    problems: list[str] = []
    op_index = WARMUP_OPS

    def attempt(traced: bool):
        """Run, check and clean up one timed operation; returns (Op | None,
        problems). The timed region is the workload's ``operation`` call."""
        nonlocal op_index
        i, op_index = op_index, op_index + 1
        if tracer is not None:
            sc.setJobGroup(f"op{i}", f"{args.workload} operation {i}")
            tracer.op = i
        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(workloads.traced_driver(tracer, sc))
                clients = stack.enter_context(workloads.captured_clients())
            span = tracer.span(wl.OP_SPAN) if traced else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with span:
                    res = wl.operation(i)
            except Exception as e:  # a failed operation is counted, not fatal
                return None, [f"operation {i}: {e!r}"[:500]]
            latency = time.perf_counter() - t0
        op = Op(i, traced, latency, {})
        if traced:
            op.result = res
            op.spark = tracing.spark_counts(sc, f"op{i}")
            op.driver_ledger = workloads.Ledger()
            for c in clients:
                op.driver_ledger.merge(c.ledger)
            wl.replay(tracer, i, res)
        try:
            found = [f"operation {i}: {p}" for p in wl.check(res)]
            op.counts = wl.counts(res)
        except Exception as e:  # a check that cannot run fails the operation
            found = [f"operation {i}: check failed: {e!r}"[:500]]
        finally:
            wl.cleanup(res)
        if traced:
            found += [f"operation {i}: {p}" for p in tracer.nesting_violations(i)]
        return op, found

    ops: list[Op] = []
    attempted = failed = 0
    measured = 0.0
    min_ops = MIN_OPS if tracer is None else MIN_OPS_TRACED
    while attempted < min_ops or measured < args.seconds:
        if time.perf_counter() - PROCESS_START > SOFT_LIMIT_S:
            problems.append(f"stopped after {attempted} operations: wall-time limit")
            break
        op, found = attempt(tracer is not None and attempted % 2 == 1)
        attempted += 1
        problems += found
        if op is None or found:
            failed += 1
        if op is not None:
            ops.append(op)
            measured += op.latency_s
    rss = peak_rss_mib(process_tree(os.getpid()))

    return {
        "wl": wl,
        "ops": ops,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "setup": {"jvm_s": jvm_s, "data_s": data_s, "warmup_s": warmup_s},
        "peak_rss_mib": rss,
    }


def end_to_end(r: dict) -> tuple[dict, dict]:
    ops = r["ops"]
    lat = [op.latency_s for op in ops]
    tail_s, tail_label = tail(lat)
    # counts repeat exactly for a given seed and operation index
    first = next(op.counts for op in ops if op.counts)
    setup = r["setup"]
    values = {
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail_s,
        **first,
        "setup_s": setup["jvm_s"] + setup["data_s"] + setup["warmup_s"],
        "peak_rss_mib": sum(r["peak_rss_mib"].values()),
    }
    detail = {
        "samples": len(lat),
        "latency_tail": tail_label,
        **thirds(lat),
        "latencies_s": lat,
        "failed_frac": r["failed"] / r["attempted"],
        "peak_rss_mib_by_process": r["peak_rss_mib"],
    }
    return values, detail


def per_layer(r: dict, tracer, jobs: list[dict]) -> tuple[dict, dict]:
    wl = r["wl"]
    traced = [op for op in r["ops"] if op.traced]
    untraced = [op.latency_s for op in r["ops"] if not op.traced]
    per_op = []
    for op in traced:
        actions = sorted(
            {s.name.rsplit(".", 1)[1] for s in tracer.of_op(op.index) if s.name.startswith("spark.action.")},
            key=lambda a: int(a[1:]),
        )
        action_s = []  # first job submitted to last job ended, per action
        for action in actions:
            mine = [j for j in jobs if j["group"] == f"op{op.index}" and j["description"] == action]
            action_s.append(
                max(j["end_s"] for j in mine) - min(j["submit_s"] for j in mine) if mine else 0.0
            )
        per_op.append(wl.layer(tracer, op, op.driver_ledger, action_s))
    values = {name: 0 for name in PER_LAYER}
    for name in per_op[0]:
        xs = [v[name] for v in per_op]
        exact = all(isinstance(x, int) for x in xs)
        values[name] = (statistics.median_low if exact else statistics.median)(xs)
    traced_p50 = statistics.median(op.latency_s for op in traced)
    values["trace.latency_p50_s"] = traced_p50
    values["trace.overhead_s"] = traced_p50 - statistics.median(untraced)
    detail = {"traced_ops": len(traced), "untraced_ops": len(untraced)}
    return values, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "core" / "engine.py").is_file():
        print(f"perfbench: the program's sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cores = min(MAX_CORES, os.cpu_count() or 1)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    event_dir = work / "events" if args.trace else None

    def expire(signum, frame):
        raise TimeoutError(f"run exceeded {HARD_LIMIT_S} s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(HARD_LIMIT_S)
    try:
        configure_environment(work, cores, event_dir)
        spark = start_spark()
        try:
            import tracing

            tracer = tracing.Tracer() if args.trace else None
            r = run(args, spark, work, tracer)
        finally:
            stop_spark(spark)
        signal.alarm(0)
        if not r["ops"]:
            print("perfbench: no operation succeeded", file=sys.stderr)
            for p in r["problems"]:
                print(f"perfbench: {p}", file=sys.stderr)
            return 1
        values, detail = end_to_end(r)
        units = END_TO_END
        if args.trace:
            values, layer_detail = per_layer(r, tracer, tracing.event_log_jobs(str(event_dir)))
            detail |= layer_detail
            units = PER_LAYER
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".perfbench_work").rmdir()

    detail |= {
        "workload": args.workload,
        "seed": args.seed,
        "master": f"local[{cores}]",
        "closed_loop_clients": 1,
        "setup": r["setup"],
        "problems": r["problems"],
    }
    print("perfbench detail " + json.dumps(detail))
    for name, unit in units.items():
        print(f"perfbench {args.workload} {name} = {values[name]} {unit}")
    correct = not r["problems"] and r["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": r["attempted"],
                "failed": r["failed"],
                "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
