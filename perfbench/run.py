"""qflab benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src`
directory. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. The lines before it are
a human-readable report, and perfbench/out/ receives the full result record
(and, when traced, the span file and the per-layer table). See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ("audit-shallow", "deep-dense", "closed-forms", "cli-cold")
SETUP_PROBES = 5
IMPORT_PROBES = 3
TAIL_PCT = 90
LIMITS = (
    "wall clock (time.perf_counter) on a possibly shared machine; process-level counters "
    "only (getrusage max RSS); no system-wide tracing; spans come from the "
    "benchmark's own code around calls into qflab's public functions"
)

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_p90_s": "s", "peak_rss_mb": "MiB",
}
LAYERS = ("padic", "quadform", "counting", "densities", "gkmult", "whittaker",
          "cycles", "clifford", "cli")
SHAPES = ("m4n3q9", "m4n2q27", "m4n2q81", "m4n3q17", "small-naive", "small-mitm")
P50_US = (
    ("padic", "hilbert"), ("quadform", "jordan_diagonalize"),
    ("quadform", "represents_local"), ("quadform", "diff_set"),
    ("gkmult", "gross_keating_exponents"), ("gkmult", "e_p"),
    ("densities", "assemble_A"), ("densities", "kitaoka_ternary_poly"),
    ("whittaker", "verify_ratio_identity"), ("whittaker", "whittaker_derivative"),
)
BUSY = (("cycles", "incidence_counts"), ("clifford", "check_spin_compatibility"))


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.busy_s": "s",
                      f"{layer}.fails": "count"})
    for shape in SHAPES:
        base = f"counting.count_solutions.{shape}"
        units.update({f"{base}.calls": "count", f"{base}.busy_s": "s", f"{base}.p50_s": "s"})
    units.update({"counting.density_oracle.busy_s": "s",
                  "counting.density_oracle.levels_per_result": "levels/result",
                  "counting.density_oracle.results": "count"})
    units.update({f"{layer}.{name}.p50_us": "us" for layer, name in P50_US})
    units.update({f"{layer}.{name}.busy_s": "s" for layer, name in BUSY})
    units.update({f"cli.{k}": "s" for k in
                  ("interp_s", "import_s", "import_sympy_s", "import_numpy_s", "command_s")})
    units.update({"trace.overhead_s": "s", "trace.spans": "count"})
    return units


def load_library():
    """Import qflab from this checkout's src/, and nothing else."""
    init = SRC / "qflab" / "__init__.py"
    if not init.is_file():
        print(f"error: {init} not found; run from the root of a qflab checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import qflab

    if Path(qflab.__file__).resolve() != init.resolve():
        print(f"error: imported qflab from {qflab.__file__}, not {init}", file=sys.stderr)
        raise SystemExit(2)
    return qflab


def digest(jobs) -> str:
    payload = [{"id": j.id, "family": j.family, "spec": j.spec} for j in jobs]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _spawn(argv: list[str], env=None, timeout: float = 120):
    """Run argv to completion; returns (seconds, stdout, stderr)."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=timeout)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:3]} exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed, proc.stdout, proc.stderr


def measure_setup(workload: str, seed: int, expect_digest: str) -> list[float]:
    """Fresh processes timed from spawn until their job list is ready."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            if proc.wait(timeout=60) != 0:
                raise RuntimeError(f"setup probe exited {proc.returncode}")
        if line != expect_digest:
            raise RuntimeError(f"setup probe built job list {line}, expected {expect_digest}")
    return times


def measure_imports() -> dict[str, float]:
    """Bare interpreter start, and the import of qflab.cli by -X importtime."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    interp, cum = [], {"qflab.cli": [], "sympy": [], "numpy": []}
    for _ in range(IMPORT_PROBES):
        interp.append(_spawn([sys.executable, "-c", "pass"])[0])
        _, _, err = _spawn([sys.executable, "-X", "importtime", "-c", "import qflab.cli"], env)
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in cum:
                cum[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {
        "interp_s": statistics.median(interp),
        "import_s": statistics.median(cum["qflab.cli"]),
        "import_sympy_s": statistics.median(cum["sympy"]),
        "import_numpy_s": statistics.median(cum["numpy"]),
    }


def peak_rss_mib(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def machine_facts() -> dict:
    import numpy
    import sympy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "mem_total_mib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "platform": platform.platform(),
    }


def tail_note(n: int) -> str:
    """Whether p90 has ten samples beyond it, else the highest percentile that has."""
    if n >= 100:
        return f"p{TAIL_PCT} resolved ({n} jobs)"
    if n < 20:
        return f"p{TAIL_PCT} unresolved: {n} jobs, no percentile has 10 beyond it"
    return (f"p{TAIL_PCT} unresolved: {n} jobs; highest resolved percentile "
            f"is p{int(100 * (1 - 10 / n))}")


def layer_metrics(tracer, passes: int, imports: dict, cli_latencies: list[float],
                  overhead: float) -> dict[str, float]:
    from harness import self_times

    spans = [s for s in tracer.spans if s.layer != "job"]
    own = self_times(tracer.spans)
    m = dict.fromkeys(per_layer_units(), 0.0)

    def durations(pred):
        return [s.end - s.start for s in spans if pred(s)]

    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        m[f"{layer}.calls"] = len(mine) / passes
        m[f"{layer}.busy_s"] = sum(own[s.id] for s in mine) / passes
        m[f"{layer}.fails"] = sum(s.failed for s in mine) / passes
    for shape in SHAPES:
        d = durations(lambda s: s.name == "count_solutions" and s.key == shape)
        base = f"counting.count_solutions.{shape}"
        if d:
            m.update({f"{base}.calls": len(d) / passes, f"{base}.busy_s": sum(d) / passes,
                      f"{base}.p50_s": statistics.median(d)})
    oracle = durations(lambda s: s.name == "density_oracle")
    results = tracer.counts.get("counting.density_oracle.results", 0)
    m["counting.density_oracle.busy_s"] = sum(oracle) / passes
    m["counting.density_oracle.results"] = results / passes
    if results:
        m["counting.density_oracle.levels_per_result"] = (
            tracer.counts["counting.density_oracle.levels"] / results)
    for layer, name in P50_US:
        d = durations(lambda s: s.layer == layer and s.name == name)
        if d:
            m[f"{layer}.{name}.p50_us"] = statistics.median(d) * 1e6
    for layer, name in BUSY:
        m[f"{layer}.{name}.busy_s"] = sum(
            durations(lambda s: s.layer == layer and s.name == name)) / passes
    m.update({f"cli.{k}": v for k, v in imports.items()})
    if cli_latencies:
        m["cli.command_s"] = (statistics.median(cli_latencies)
                              - imports["interp_s"] - imports["import_s"])
    m["trace.overhead_s"] = overhead
    m["trace.spans"] = len(tracer.spans) / passes
    return m


def write_trace(name: str, tracer, metrics: dict, t0: float, overhead_row: str) -> str:
    from dataclasses import asdict

    with open(OUT / f"spans-{name}.jsonl", "w") as fh:
        for s in tracer.spans:
            row = asdict(s)
            row["start"] -= t0
            row["end"] -= t0
            fh.write(json.dumps(row) + "\n")
    lines = [f"{'layer':<10} {'calls/pass':>12} {'busy_s/pass':>12} {'fails/pass':>10}"]
    for layer in LAYERS:
        lines.append(f"{layer:<10} {metrics[layer + '.calls']:>12.1f} "
                     f"{metrics[layer + '.busy_s']:>12.6f} {metrics[layer + '.fails']:>10.1f}")
    lines.append(overhead_row)
    table = "\n".join(lines) + "\n"
    (OUT / f"layers-{name}.txt").write_text(table)
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    qflab = load_library()
    from harness import Tracer, percentile, run_passes
    from workloads import WORKLOADS

    jobs = WORKLOADS[args.workload](args.seed)
    job_digest = digest(jobs)
    if args.setup_probe:
        print(job_digest, flush=True)
        return 0

    t_start = time.perf_counter()
    tracer = Tracer(enabled=True) if args.trace else None
    outcome = run_passes(jobs, args.seconds, tracer)
    rss = peak_rss_mib(args.workload)
    setup = measure_setup(args.workload, args.seed, job_digest)

    # Means over passes, not medians: on a shared 2-vCPU virtual machine the
    # CPU speed switched between levels up to 1.5x apart for seconds at a
    # time. A median over passes jumps between those levels; a mean follows
    # the share of time spent in each (closed-forms, 20 s runs, 10 seeds:
    # run-to-run spread of wall_s 13% with the mean, 20% with the median).
    lat = [statistics.fmean(v) for v in outcome.latencies.values()]
    wall = statistics.fmean(outcome.pass_times)
    e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "job_p50_s": percentile(lat, 50),
        "job_p90_s": percentile(lat, TAIL_PCT),
        "peak_rss_mb": rss,
    }
    failed = len(outcome.failures)
    known = sorted(j.id for j in jobs if j.known_defect and j.id in outcome.failures)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "job_list_digest": job_digest, "jobs": len(jobs),
        "passes": len(outcome.pass_times), "traced_passes": len(outcome.traced_pass_times),
        "tail": tail_note(len(lat)),
        "fail_frac": failed / len(jobs), "known_defect_failures": known,
        "failures": outcome.failures, "unexpected_failures": outcome.unexpected,
        "state_budget": qflab.state_budget(),
        "state_budget_env": os.environ.get("QFLAB_STATE_BUDGET"),
        "setup_probes_s": setup, "pass_times_s": outcome.pass_times,
        "end_to_end": e2e, "machine": machine_facts(), "limits": LIMITS,
    }
    name = f"{args.workload}-s{args.seed}"
    OUT.mkdir(exist_ok=True)
    report = [
        f"workload {args.workload}  seed {args.seed}  job list {job_digest}  "
        f"{len(jobs)} jobs x {len(outcome.pass_times)} untraced passes; "
        f"a job's latency is its mean over the passes",
        *(f"  {k:<12} {v:.6g} {END_TO_END[k]}" for k, v in e2e.items()),
        f"  tail: {record['tail']}",
        f"  fail_frac {failed}/{len(jobs)} = {record['fail_frac']:.4f}"
        + (f"  (known diff_set defect: {len(known)})" if known else ""),
        f"  state budget {record['state_budget']} (QFLAB_STATE_BUDGET "
        f"{'unset' if record['state_budget_env'] is None else 'set'})",
        f"  machine {json.dumps(record['machine'])}",
    ]
    metrics = e2e
    units = END_TO_END
    if args.trace:
        traced = statistics.fmean(outcome.traced_pass_times)
        overhead = traced - wall
        cli_lat = lat if args.workload == "cli-cold" else []
        metrics = layer_metrics(tracer, len(outcome.traced_pass_times), measure_imports(),
                                cli_lat, overhead)
        units = per_layer_units()
        row = (f"{'tracing':<10} overhead {overhead:+.6f} s per pass "
               f"(traced {traced:.6f} s, untraced {wall:.6f} s)")
        report.append(write_trace(name, tracer, metrics, t_start, row).rstrip())
        record["per_layer"] = metrics
    (OUT / f"result-{name}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("\n".join(report))
    print(json.dumps({
        "correct": not outcome.unexpected,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
