"""One timed repetition of an in-process workload, in a fresh interpreter.

Usage: worker.py WORKLOAD SEED SPAWN_NS FULL_CHECK SPANS_OUT

A fresh interpreter per repetition means the library's module-level
caches start empty every time. SPAWN_NS is the parent's CLOCK_MONOTONIC
reading when it started this process, so set-up time includes interpreter
start and import. The host speed is probed before the first query and
after each one (see hostspeed.py). FULL_CHECK=1 runs the independent
answer checks after the timed region. SPANS_OUT, when not "-", turns
tracing on and names the file the spans are written to. Prints one JSON
object on its last line.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str]) -> int:
    workload, seed, spawn_ns, full, spans_out = argv
    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if spans_out != "-":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    from hostspeed import NOMINAL_S, probe
    from workloads import INPROCESS

    wl = INPROCESS[workload](ROOT, int(seed))
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - int(spawn_ns)) / 1e9

    clock = time.perf_counter
    results, latencies, speeds = [], [], [probe()]
    for qid, q in enumerate(wl.plan):
        if tracer:
            tracer.begin_query(qid)
        t0 = clock()
        try:
            results.append((wl.run(q), None))
        except Exception as exc:  # an unexpected exception is a failed query
            results.append((None, f"{type(exc).__name__}: {exc}"))
        latencies.append(clock() - t0)
        if tracer:
            tracer.end_query()
        speeds.append(probe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    answers, certified, problems = [], [], []
    for qid, (q, (res, err)) in enumerate(zip(wl.plan, results)):
        if err is not None:
            answers.append(None)
            certified.append(False)
            problems.append([err])
            continue
        try:
            text, cert = wl.answer(q, res)
            probs = wl.check(qid, q, res) if full == "1" else []
        except Exception as exc:  # a malformed result is a failed query
            text, cert, probs = None, False, [f"checking raised {type(exc).__name__}: {exc}"]
        answers.append(text)
        certified.append(cert)
        problems.append(probs)

    out = {
        "setup_s": setup_s,
        "run_s": sum(latencies),
        "latencies": latencies,
        "speeds": speeds,
        "nominal_s": NOMINAL_S,
        "answers": answers,
        "certified": certified,
        "problems": problems,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        out["trace"] = tracer.summary()
        Path(spans_out).write_text(json.dumps(tracer.span_records()))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
