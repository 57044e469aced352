"""Self-test of the benchmark itself, not of qflab.

    python3 perfbench/selftest.py

Checks that a deliberately wrong expected value, a job that raises and a
budget refusal are each reported as a failure (and a known-defect job as a
failure that leaves the run correct); that tracing marks the failed call;
that job lists are reproducible from their seed; and that the metric names
and units printed by run.py are exactly those BENCHMARK.json declares.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys

import run

qflab = run.load_library()

from harness import Job, Tracer, run_passes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from qflab import CountJob, SymMat, count_solutions, incidence_counts, split_diagonal  # noqa: E402


def _incidence(job_id: str, expected, known_defect: bool = False) -> Job:
    return Job(job_id, "incidence", {"p": 5},
               lambda tr: tuple(tr.call(incidence_counts, 5)),
               lambda tr, out: out == expected, known_defect)


def check_failure_accounting() -> None:
    refused = CountJob(split_diagonal(4), SymMat.diag(1, 1, 1), 3, 5, "naive")
    jobs = [
        _incidence("right", (6, 26)),
        _incidence("wrong", (6, 27)),
        _incidence("wrong-known", (6, 27), known_defect=True),
        Job("raises", "raises", {}, lambda tr: 1 // 0, lambda tr, out: True),
        Job("refused", "refused", {},
            lambda tr: tr.call(count_solutions, refused, key="m4n3q243"),
            lambda tr, out: True),
    ]
    tracer = Tracer(enabled=True)
    out = run_passes(jobs, 0.0, tracer)
    assert set(out.failures) == {"wrong", "wrong-known", "raises", "refused"}, out.failures
    assert set(out.unexpected) == {"wrong", "raises", "refused"}, out.unexpected
    assert "state budget exceeded" in out.failures["refused"], out.failures["refused"]
    assert len(out.latencies) == len(jobs)
    failed_calls = [s for s in tracer.spans if s.layer == "counting" and s.failed]
    assert [s.key for s in failed_calls] == ["m4n3q243"], failed_calls
    assert all(s.parent is not None for s in tracer.spans if s.layer != "job")


def check_seeded_inputs() -> None:
    for name, build in WORKLOADS.items():
        first, again, other = (run.digest(build(s)) for s in (7, 7, 8))
        assert first == again, f"{name}: seed 7 built two different job lists"
        assert first != other, f"{name}: seeds 7 and 8 built the same job list"


def check_declared_metrics() -> None:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END, (declared, run.END_TO_END)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == run.per_layer_units(), set(declared) ^ set(run.per_layer_units())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def main() -> int:
    for check in (check_failure_accounting, check_seeded_inputs, check_declared_metrics):
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
