"""One benchmark round in a fresh process.

    python bench/worker.py round WORKLOAD SEED ROUND SMOKE TRACE CORRUPT OUTDIR
        Import relog from src/, build the workload's inputs from SEED, run one
        round and print one JSON line: the time the inputs were ready, the
        round's wall time, each operation's wall and CPU time, the gate's
        findings, the input digest and, when TRACE is 1, the per-layer summary.

    python bench/worker.py cli SUMMARY SPANS RUN_ID -- ARGS...
        Run the relog CLI with ARGS under the tracer, then write the per-layer
        summary to SUMMARY and the spans to SPANS.  Exits with the CLI's code.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_relog():
    """Import relog from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import relog

    if not os.path.abspath(relog.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"relog was imported from {relog.__file__}, not from {SRC}")


def run_round(workload, seed, index, smoke, traced, corrupt, outdir):
    import_relog()
    import tracing
    import workloads
    from recorder import Recorder

    run_id = f"{workload}-{seed}-{index}"
    tracer = tracing.Tracer(run_id) if traced else None
    if tracer is not None:
        tracer.install()
        setup_span = tracer.enter("bench.setup")
    setup, run = workloads.WORKLOADS[workload]
    rec = Recorder(tracer, corrupt)
    state = setup(seed, smoke, rec)
    if tracer is not None:
        tracer.exit(setup_span)
    ready = perf_counter()
    run(state, rec)
    wall = perf_counter() - ready
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracing.summarize(tracer.spans)
        tracing.write_spans(os.path.join(outdir, f"{run_id}.spans.tsv"), run_id, tracer.spans)
    print(json.dumps({
        "ready": ready,
        "wall_s": wall,
        "latencies": rec.latencies,
        "cpu_times": rec.cpu_times,
        "failed": rec.failed,
        "wrong": rec.wrong,
        "cap_exceeded": rec.cap_exceeded,
        "digest": rec.digest,
        "layers": layers,
    }))


def run_cli(summary_path, spans_path, run_id, args):
    import_relog()
    import relog.cli
    import tracing

    tracer = tracing.Tracer(run_id)
    tracer.install()
    try:
        code = relog.cli.main(args)
    finally:
        tracer.uninstall()
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(tracing.summarize(tracer.spans), handle)
    tracing.write_spans(spans_path, run_id, tracer.spans)
    return code


def main(argv):
    if argv[:1] == ["round"] and len(argv) == 8:
        workload, seed, index, smoke, traced, corrupt, outdir = argv[1:]
        run_round(workload, int(seed), int(index), smoke == "1", traced == "1",
                  corrupt == "1", outdir)
        return 0
    if argv[:1] == ["cli"] and len(argv) >= 5 and argv[4] == "--":
        return run_cli(argv[1], argv[2], argv[3], argv[5:])
    raise SystemExit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
