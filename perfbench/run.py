"""cubemorse benchmark: end-to-end metrics per workload, or a traced run
with per-layer metrics.

    python3 perfbench/run.py --workload boundary_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` and the answers are checked against its `tests/golden/` files.

One caller, closed loop: every query waits for the previous one. Each
repetition answers the workload's fixed query set (made from --seed) in a
fresh interpreter, so module-level caches start empty. Repetitions run
until --seconds have passed, at least MIN_REPS of them; the first one also
runs the independent answer checks, later ones must reproduce its answers.
Every end-to-end time is rescaled to a nominal host speed (see
hostspeed.py); a query's latency is its median over the repetitions,
run_s is the sum over the queries and the latency percentiles are taken
over the queries. Per-layer self times are raw seconds.

  boundary_sweep  in-process boundary products over certified ray pools
  escape_ladder   in-process escape-path certification, dichotomy, contraction
  cli_cold        one `python -m cubemorse --json ...` child at a time

With --trace 0 the metrics are end to end: setup_s, run_s,
latency_p50_ms, latency_tail_ms, certified_frac and peak_rss_mb (failed
queries show in `failed`). With --trace 1, repetitions alternate between
untraced and traced, the traced ones alternating PYTHONHASHSEED between 0
and 123, and the metrics are per layer: calls and self time of each
wrapped entry point (see tracer.py), layer totals and shares of the traced
run time, the tracing overhead, and how many counts differed between the
two hash seeds. Spans are written to perfbench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PY = sys.executable

sys.path.insert(0, str(HERE))
from hostspeed import NOMINAL_CHILD_S, probe_child, scale  # noqa: E402
from tracer import ENTRY_POINTS, MODULES  # noqa: E402
from workloads import GOLDEN_CASES, check_cli, cli_plan, without_timing  # noqa: E402

WORKLOADS = ("boundary_sweep", "escape_ladder", "cli_cold")
MIN_REPS = 3
TAIL_BEYOND = 10  # the tail percentile leaves at least this many samples above it
HASH_SEEDS = ("0", "123")
CHILD_TIMEOUT = 150

PER_LAYER = (
    [f"{name}.{kind}" for _, _, name, _ in ENTRY_POINTS for kind in ("calls", "self_s")]
    + [f"{m}.{kind}" for m in MODULES for kind in ("self_s", "share")]
    + [
        "boundary.bracket_product.crosses_per_call",
        "boundary.bracket_product.exact_ratio",
        "boundary.ray_walls.reuse",
        "runpaths.certify.evaluations",
        "constructions.check_contracting.pairs_tested",
        "cli.handler_ms",
        "cli.overhead_ms",
        "cli.import_ms",
        "cli.import.mpmath_ms",
        "trace.run_s",
        "trace.untraced_run_s",
        "trace.overhead_s",
        "trace.calls_mismatched",
        "trace.spans",
    ]
)


E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "certified_frac": "ratio",
    "peak_rss_mb": "MB",
}


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith((".share", ".reuse", ".exact_ratio")):
        return "ratio"
    return "count"


def child_env(hash_seed: str | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return env


def spawn(cmd: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT
    )


# --- one repetition ---------------------------------------------------------------


def worker_rep(workload: str, seed: int, full: bool, hash_seed: str | None) -> dict:
    spans_out = "-"
    if hash_seed is not None:
        spans_out = str(OUT / f"{workload}-seed{seed}-hash{hash_seed}.json")
    start_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = spawn(
        [PY, str(HERE / "worker.py"), workload, str(seed), str(start_ns), "1" if full else "0", spans_out],
        child_env(hash_seed),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_rep(seed: int, hash_seed: str | None) -> dict:
    env = child_env(hash_seed)
    t0 = time.perf_counter()
    goldens = {n: (ROOT / "tests/golden" / f"{n}.json").read_text() for n in GOLDEN_CASES}
    # one untimed command first, so the timed ones find compiled bytecode
    warm = spawn([PY, "-m", "cubemorse", "--json"] + GOLDEN_CASES["nf"], env)
    if warm.returncode != 0:
        sys.stderr.write(warm.stderr)
        raise RuntimeError("the warm-up CLI command failed")
    setup_s = time.perf_counter() - t0

    rep = {"setup_s": setup_s, "latencies": [], "speeds": [probe_child(PY)],
           "nominal_s": NOMINAL_CHILD_S, "answers": [], "certified": [], "problems": [],
           "handler_ms": []}
    traces = []
    trace_file = OUT / f"cli_cold-seed{seed}-command.json"
    for name, argv in cli_plan(seed):
        if hash_seed is None:
            cmd = [PY, "-m", "cubemorse"] + argv
        else:
            cmd = [PY, str(HERE / "cli_trace.py"), str(trace_file)] + argv
        t = time.perf_counter()
        proc = spawn(cmd, env)
        rep["latencies"].append(time.perf_counter() - t)
        if hash_seed is not None:
            traces.append((name, json.loads(trace_file.read_text())))
        timing = re.search(r'"timing_s": ([0-9.e+-]+)', proc.stdout)
        rep["handler_ms"].append(float(timing.group(1)) * 1000 if timing else math.nan)
        probs = check_cli(name, argv, proc.returncode, proc.stdout, goldens.get(name))
        if proc.stderr:
            probs.append(f"{name}: wrote to stderr: {proc.stderr.strip()[:200]}")
        rep["problems"].append(probs)
        rep["answers"].append(f"{proc.returncode} {without_timing(proc.stdout)}")
        rep["certified"].append(proc.returncode == 0)
        rep["speeds"].append(probe_child(PY))
    rep["run_s"] = sum(rep["latencies"])
    if hash_seed is not None:
        rep["trace"] = merge_traces(traces)
        spans = [span for _, t in traces for span in t["span_records"]]
        (OUT / f"cli_cold-seed{seed}-hash{hash_seed}.json").write_text(json.dumps(spans))
        trace_file.unlink()
    return rep


def merge_traces(traces) -> dict:
    """Sum the counters of the per-command trace files of one repetition."""
    total = {"calls": {}, "self_s": {}, "within": {}}
    for _, t in traces:
        for key in total:
            for name, v in t[key].items():
                total[key][name] = total[key].get(name, 0) + v
    for key in ("evaluations", "pairs_tested", "ray_walls_distinct", "spans"):
        total[key] = sum(t[key] for _, t in traces)
    return total


def repetition(workload: str, seed: int, index: int, hash_seed: str | None) -> dict:
    if workload == "cli_cold":
        return cli_rep(seed, hash_seed)
    return worker_rep(workload, seed, index == 0, hash_seed)


# --- aggregation --------------------------------------------------------------------


def score(reps: list[dict]) -> tuple[int, int, int, list[str]]:
    """(attempted, failed, certified, problems) over every query of every
    repetition. The first repetition's answers are checked; a later answer
    fails when it differs from the first or repeats a failed one."""
    ref = reps[0]["answers"]
    ref_failed = [bool(p) for p in reps[0]["problems"]]
    attempted = failed = certified = 0
    problems = []
    for r in reps:
        for i, (answer, cert, probs) in enumerate(zip(r["answers"], r["certified"], r["problems"])):
            attempted += 1
            certified += bool(cert)
            if answer != ref[i]:
                probs = probs + [f"query {i}: answer differs from the first repetition"]
            if probs or ref_failed[i]:
                failed += 1
                problems += probs
    return attempted, failed, certified, problems


def query_latencies(reps: list[dict]) -> list[float]:
    """Each query's latency, rescaled to the nominal host by the probes
    taken just before and after it, then the median over the run's
    repetitions."""
    per_rep = [
        [scale(lat, r["speeds"][i], r["speeds"][i + 1], r["nominal_s"])
         for i, lat in enumerate(r["latencies"])]
        for r in reps
    ]
    return [statistics.median(q) for q in zip(*per_rep)]


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND queries above it, and that
    percentile; the query set is fixed, so it is the same in every run."""
    ordered = sorted(latencies)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100 * (k + 1) / len(ordered)


def end_to_end(workload: str, reps: list[dict], peak_children_mb: float) -> dict:
    lat = query_latencies(reps)
    attempted, _, certified, _ = score(reps)
    tail_s, pct = tail(lat)
    probes = [x for r in reps for x in r["speeds"]]
    print(f"# latency_tail_ms is p{pct:.1f} over {len(lat)} queries, {TAIL_BEYOND} beyond it")
    print(f"# host: probe median {1000 * statistics.median(probes):.3f} ms "
          f"(nominal {1000 * reps[0]['nominal_s']:g} ms); unscaled run_s median "
          f"{statistics.median(r['run_s'] for r in reps):.4g} s")
    peak = peak_children_mb if workload == "cli_cold" else statistics.median(
        r["peak_rss_mb"] for r in reps)
    return {
        "setup_s": statistics.median(
            scale(r["setup_s"], r["speeds"][0], r["speeds"][0], r["nominal_s"]) for r in reps),
        "run_s": sum(lat),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_tail_ms": 1000 * tail_s,
        "certified_frac": certified / attempted,
        "peak_rss_mb": peak,
    }


def import_times() -> tuple[float, float]:
    """Median over three fresh interpreters of `-X importtime` for the
    package with its CLI, and for mpmath inside it, in ms."""
    pkg, mp = [], []
    for _ in range(3):
        proc = spawn([PY, "-X", "importtime", "-c", "import cubemorse.cli"], child_env())
        total = mpmath = 0.0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| (\s*)(\S+)", line)
            if not m:
                continue
            cumulative_us, indent, name = int(m.group(1)), m.group(2), m.group(3)
            if not indent and name.startswith("cubemorse"):
                total += cumulative_us
            if name == "mpmath":
                mpmath = cumulative_us
        pkg.append(total / 1000)
        mp.append(mpmath / 1000)
    return statistics.median(pkg), statistics.median(mp)


def per_layer(workload: str, untraced: list[dict], traced: list[dict]) -> dict:
    summaries = [r["trace"] for r in traced]
    counts = [
        {**{f"{k}.calls": v for k, v in s["calls"].items()},
         **{f"{k}.within": v for k, v in s["within"].items()},
         "evaluations": s["evaluations"], "pairs_tested": s["pairs_tested"],
         "ray_walls_distinct": s["ray_walls_distinct"]}
        for s in summaries
    ]
    keys = set().union(*counts)
    mismatched = sorted(k for k in keys if len({c.get(k, 0) for c in counts}) > 1)
    if mismatched:
        print("# counts that differ between hash seeds: " + ", ".join(mismatched))
    first = summaries[0]
    calls = first["calls"]
    run_traced = sum(query_latencies(traced))
    run_plain = sum(query_latencies(untraced))
    m = {}
    for _, _, name, _ in ENTRY_POINTS:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = statistics.median(s["self_s"].get(name, 0.0) for s in summaries)
    for mod in MODULES:
        own = [sum(v for k, v in r["trace"]["self_s"].items() if k.startswith(mod + "."))
               for r in traced]
        m[f"{mod}.self_s"] = statistics.median(own)
        m[f"{mod}.share"] = statistics.median(o / r["run_s"] for o, r in zip(own, traced))
    brackets = calls.get("boundary.bracket_product", 0)
    ray_calls = calls.get("boundary.ray_walls", 0)
    m["boundary.bracket_product.crosses_per_call"] = (
        first["within"].get("walls.crosses", 0) / brackets if brackets else 0)
    m["boundary.bracket_product.exact_ratio"] = (
        first["within"].get("walls.wall_distance", 0) / brackets if brackets else 0)
    m["boundary.ray_walls.reuse"] = (
        1 - first["ray_walls_distinct"] / ray_calls if ray_calls else 0)
    m["runpaths.certify.evaluations"] = first["evaluations"]
    m["constructions.check_contracting.pairs_tested"] = first["pairs_tested"]
    handler = import_ms = mpmath_ms = overhead = 0.0
    if workload == "cli_cold":
        pairs = [(w * 1000, h) for r in untraced for w, h in zip(r["latencies"], r["handler_ms"])]
        handler = statistics.median(h for _, h in pairs)
        overhead = statistics.median(w - h for w, h in pairs)
        import_ms, mpmath_ms = import_times()
    m["cli.handler_ms"] = handler
    m["cli.overhead_ms"] = overhead
    m["cli.import_ms"] = import_ms
    m["cli.import.mpmath_ms"] = mpmath_ms
    m["trace.run_s"] = run_traced
    m["trace.untraced_run_s"] = run_plain
    m["trace.overhead_s"] = run_traced - run_plain
    m["trace.calls_mismatched"] = len(mismatched)
    m["trace.spans"] = first["spans"]
    return {k: m[k] for k in PER_LAYER}


# --- entry point ----------------------------------------------------------------------


def provenance(seed: int) -> str:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return (f"# python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
            f"commit {commit}, seed {seed}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    needed = [ROOT / "src/cubemorse/__init__.py", ROOT / "tests/golden", ROOT / "tests/data"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"error: not a cubemorse source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    start = time.perf_counter()
    reps, traced = [], []
    while True:
        i = len(reps) + len(traced)
        if args.trace:
            reps.append(repetition(args.workload, args.seed, i, None))
            hash_seed = HASH_SEEDS[len(traced) % len(HASH_SEEDS)]
            traced.append(repetition(args.workload, args.seed, i + 1, hash_seed))
            done = len(traced) >= len(HASH_SEEDS)
        else:
            reps.append(repetition(args.workload, args.seed, i, None))
            done = len(reps) >= MIN_REPS
        if done and time.perf_counter() - start >= args.seconds:
            break
    peak_children_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    attempted, failed, _, problems = score(reps + traced)
    for p in problems[:20]:
        print(f"# FAILED {p}", file=sys.stderr)
    print(provenance(args.seed))
    print(f"# {args.workload} seed {args.seed}: {len(reps)} untraced and {len(traced)} traced "
          f"repetitions in {time.perf_counter() - start:.1f} s; run_s of each: "
          + " ".join(f"{r['run_s']:.3f}" for r in reps + traced))
    print(f"failed_frac {failed / attempted:.6g} ratio")
    if args.trace:
        metrics = per_layer(args.workload, reps, traced)
    else:
        metrics = end_to_end(args.workload, reps, peak_children_mb)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
