"""Span recording from outside the program.

Spans are kept in memory by a :class:`Tracer`. They are opened around calls
into the program's public functions: directly in the benchmark's own code,
or by temporarily wrapping a module attribute or a class method with
:meth:`Tracer.patch`, which restores the original on exit. Only calls made
in the benchmark's own process are seen; Spark's Python workers run in other
processes and are measured by replaying their fragments in-process.

Spark-side counts come from the status tracker (jobs, stages and tasks of one
job group) and from the event log (job submission and completion times).
"""
from __future__ import annotations

import contextlib
import dataclasses
import glob
import json
import os
import time
from collections import defaultdict


@dataclasses.dataclass
class Span:
    sid: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = float("nan")

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans of one operation share ``op``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, self.op, parent, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s.sid)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_generator(self, name: str, gen_fn):
        """One span per ``next()`` of the generator, so time spent in the
        consumer between items is not counted."""

        def traced(*args, **kwargs):
            it = gen_fn(*args, **kwargs)
            while True:
                with self.span(name):
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                yield item

        return traced

    @contextlib.contextmanager
    def patch(self, owner, attr: str, name: str, *, generator: bool = False):
        """Wrap ``owner.attr`` in spans called ``name`` for the duration."""
        orig = getattr(owner, attr)
        wrapped = (self.wrap_generator if generator else self.wrap)(name, orig)
        setattr(owner, attr, wrapped)
        try:
            yield
        finally:
            setattr(owner, attr, orig)

    # -- queries over recorded spans ----------------------------------------
    def of_op(self, op: int) -> list[Span]:
        return [s for s in self.spans if s.op == op]

    def ancestors(self, s: Span):
        while s.parent is not None:
            s = self.spans[s.parent]
            yield s

    def under(self, spans, name_prefix: str, ancestor_name: str) -> list[Span]:
        """Spans whose name starts with ``name_prefix`` and that have an
        ancestor called ``ancestor_name``."""
        return [
            s
            for s in spans
            if s.name.startswith(name_prefix)
            and any(a.name == ancestor_name for a in self.ancestors(s))
        ]

    def nesting_violations(self, op: int, slack: float = 1e-6) -> list[str]:
        """Children must lie inside their parent's interval, and the
        children of one parent must not add up to more than the parent."""
        problems = []
        child_sum: dict[int, float] = defaultdict(float)
        for s in self.of_op(op):
            if s.parent is None:
                continue
            p = self.spans[s.parent]
            child_sum[p.sid] += s.dur
            if s.start < p.start - slack or s.end > p.end + slack:
                problems.append(f"span {s.name} escapes its parent {p.name}")
        for sid, total in child_sum.items():
            p = self.spans[sid]
            if total > p.dur + slack:
                problems.append(f"children of {p.name} sum to {total:.6f} s > {p.dur:.6f} s")
        return problems


def spark_counts(sc, group: str) -> dict:
    """Jobs, stages and tasks that ran under one job group (status tracker).

    Stages that Spark skipped (their output was reused) ran no task and are
    not counted.
    """
    st = sc.statusTracker()
    jobs = st.getJobIdsForGroup(group)
    stages = tasks = 0
    for jid in jobs:
        info = st.getJobInfo(jid)
        for sid in info.stageIds if info else ():
            stage = st.getStageInfo(sid)
            if stage is not None and stage.numCompletedTasks > 0:
                stages += 1
                tasks += stage.numCompletedTasks
    return {"jobs": len(jobs), "stages": stages, "tasks": tasks}


def event_log_jobs(event_dir: str) -> list[dict]:
    """Jobs from Spark's event log: group, description, submit/end seconds.

    Read after the session stopped, when the log is complete.
    """
    jobs: dict[int, dict] = {}
    for path in glob.glob(os.path.join(event_dir, "*")):
        with open(path) as f:
            for line in f:
                ev = json.loads(line)
                kind = ev.get("Event")
                if kind == "SparkListenerJobStart":
                    props = ev.get("Properties") or {}
                    jobs[ev["Job ID"]] = {
                        "group": props.get("spark.jobGroup.id"),
                        "description": props.get("spark.job.description"),
                        "submit_s": ev["Submission Time"] / 1000.0,
                        "end_s": None,
                    }
                elif kind == "SparkListenerJobEnd" and ev["Job ID"] in jobs:
                    jobs[ev["Job ID"]]["end_s"] = ev["Completion Time"] / 1000.0
    return [jobs[k] for k in sorted(jobs)]
