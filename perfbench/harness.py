"""Job model, span tracer and pass loop shared by every workload.

A job is one call (or a short fixed sequence of calls) into qflab's public
API followed by an exact check of its output. A pass runs the workload's
whole job list once, one job at a time (closed loop, one client). The run
repeats passes until its time is spent, so every pass sees the same inputs.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Job:
    """One seeded job: `call` is timed as the job's latency, `check` is not.

    `spec` is the JSON-able description of the inputs that enters the job
    list digest. `known_defect` marks the one family whose failures are the
    recorded baseline of an open library bug (see README.md): they still
    count in `failed`, but they do not make the run incorrect.
    """

    id: str
    family: str
    spec: dict
    call: Callable[["Tracer"], Any]
    check: Callable[["Tracer", Any], bool]
    known_defect: bool = False


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    job: str
    key: str | None = None
    failed: bool = False
    id: int = 0


@dataclass
class Tracer:
    """Records spans around calls into qflab when enabled; a bare call otherwise."""

    enabled: bool = False
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    _job: str = ""
    _parent: int | None = None

    def call(self, fn, *args, layer: str | None = None, name: str | None = None,
             key: str | None = None):
        """Call `fn(*args)`; the layer is the qflab module that defines `fn`."""
        if not self.enabled:
            return fn(*args)
        span = Span(
            name or fn.__name__,
            layer or fn.__module__.rsplit(".", 1)[-1],
            time.perf_counter(), 0.0, self._parent, self._job, key,
        )
        try:
            return fn(*args)
        except Exception:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            span.id = len(self.spans)
            self.spans.append(span)

    def count(self, name: str, k: int = 1):
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + k


@dataclass
class Outcome:
    """What a run saw: pass times, each job's latency in every untraced pass,
    and which jobs failed why."""

    pass_times: list[float] = field(default_factory=list)
    traced_pass_times: list[float] = field(default_factory=list)
    latencies: dict[str, list[float]] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)
    unexpected: dict[str, str] = field(default_factory=dict)


def _run_job(job: Job, tr: Tracer, first_output: dict, out: Outcome, record: bool):
    start = time.perf_counter()
    job_span = None
    if tr.enabled:
        job_span = Span(job.id, "job", start, 0.0, None, job.id, id=len(tr.spans))
        tr._job, tr._parent = job.id, job_span.id
        tr.spans.append(job_span)
    reason = None
    try:
        value = job.call(tr)
        latency = time.perf_counter() - start
        if not job.check(tr, value):
            reason = f"check failed: output {value!r}"
        elif first_output.setdefault(job.id, repr(value)) != repr(value):
            reason = f"output changed between passes: {value!r}"
    except Exception as exc:  # a job that raises is counted, never dropped
        latency = time.perf_counter() - start
        reason = f"{type(exc).__name__}: {exc}"
    if job_span is not None:
        job_span.end = time.perf_counter()
        job_span.failed = reason is not None
        tr._parent = None
    if record:
        out.latencies.setdefault(job.id, []).append(latency)
    if reason is not None:
        out.failures.setdefault(job.id, reason)
        if not job.known_defect:
            out.unexpected.setdefault(job.id, reason)


def run_passes(jobs: list[Job], seconds: float, tracer: Tracer | None = None) -> Outcome:
    """Repeat the job list until `seconds` are spent, at least one pass.

    A further pass starts only if the median pass so far fits in the time
    left. With a tracer, traced and untraced passes alternate (untraced
    first), so the tracing overhead is measured inside one run; only the
    untraced passes give end-to-end times.
    """
    out = Outcome()
    plain = Tracer(enabled=False)
    first_output: dict[str, str] = {}
    deadline = time.perf_counter() + seconds
    schedule = [False, True] if tracer is not None else [False]
    while True:
        for traced in schedule:
            tr = tracer if traced else plain
            t0 = time.perf_counter()
            for job in jobs:
                _run_job(job, tr, first_output, out, record=not traced)
            (out.traced_pass_times if traced else out.pass_times).append(
                time.perf_counter() - t0)
        typical = statistics.median(out.pass_times + out.traced_pass_times)
        if time.perf_counter() + typical * len(schedule) > deadline:
            return out


def percentile(values: list[float], pct: int) -> float:
    """Inclusive-method percentile, as statistics.quantiles computes it."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part covered by its child spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]
