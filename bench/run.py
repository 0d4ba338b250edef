"""relog benchmark: one workload, one seed, a closed loop of rounds.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client drives one process at a time:
each round is a fresh process that imports relog from src/, builds its
inputs from the seed and runs them once (workloads.py), or, for
reproduce-cli, one `python -m relog --format json reproduce --seed N`.
Rounds repeat until --seconds would be exceeded.  Every operation is checked
against a known answer.

With --trace 0 the last line of standard output holds the end-to-end metrics;
with --trace 1 untraced and traced rounds alternate and it holds the
per-layer metrics of the traced rounds, each an average per round, plus the
tracing overhead.  The line before it is a record of the run: seed, input
digest, the tail percentile and its sample count, and the machine.  Both,
and the spans of traced rounds, are also written under .bench_out/.
README.md next to this file explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

from recorder import Recorder

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("structure", "consequence", "free-closure", "interpolation", "reproduce-cli")
REPRODUCE_ITEMS = (
    "crystal.axioms", "belnap-m.axioms", "lemma1.subalgebras", "lemma1.simplicity",
    "lemma1.cep", "theorem.automorphisms", "theorem.extensible", "lemma2.amalgamation",
    "vsp.crystal", "vsp.belnap-m", "vsp.boolean2-contrast", "mip.crystal",
    "consequence.r-theorems", "cep.belnap-m",
)
INFO_ITEMS = {"cep.belnap-m"}          # exploratory: reports, never passes
ROUND_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself cannot run: no result is printed."""


@dataclass
class Round:
    setup_s: float
    wall_s: float
    total_s: float                     # spawn to exit, for the run-length loop
    latencies: list                    # wall time of each operation
    cpu_times: list                    # CPU time of each operation
    failed: int
    wrong: list
    digest: str
    layers: dict | None = None
    cap_exceeded: int = 0              # CapExceeded refusals the gate expected


def _child_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _child_env():
    """The environment of every round's process.  String hashing is fixed, so
    set iteration order, and with it the work a round does, is the same in
    every process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"round did not end within {ROUND_TIMEOUT_S} s: {cmd}") from exc


def in_process_round(args, index, traced, outdir):
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "round", args.workload,
           str(args.seed), str(index), str(int(args.smoke)), str(int(traced)),
           str(int(args.corrupt_expected)), outdir]
    spawned = perf_counter()
    proc = _spawn(cmd)
    total = perf_counter() - spawned
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n"
                         f"{proc.stderr.decode(errors='replace')[-2000:]}")
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    return Round(result["ready"] - spawned, result["wall_s"], total, result["latencies"],
                 result["cpu_times"], result["failed"], result["wrong"], result["digest"],
                 result["layers"], result["cap_exceeded"])


def _check_report(proc, rec):
    """Gate for one reproduce invocation: exit 0 and every item passes,
    except the exploratory one, which reports."""
    try:
        report = json.loads(proc.stdout)
    except ValueError:
        report = None
    if report is None or proc.returncode != 0:
        rec.check(False, f"reproduce exited with {proc.returncode}")
        return None
    items = {item["id"]: item for item in report["items"]}
    bad = [i for i, item in items.items()
           if item["status"] != ("info" if i in INFO_ITEMS else "pass")]
    rec.check(report["verdict"] == "pass" and not bad and INFO_ITEMS <= set(items),
              f"reproduce verdict {report['verdict']}; unexpected items {bad}")
    return items


def cli_round(args, index, traced, outdir):
    relog_args = ["--format", "json", "reproduce", "--seed", str(args.seed)]
    if args.smoke:
        relog_args += ["--instances", "20"]
    run_id = f"{args.workload}-{args.seed}-{index}"
    summary = os.path.join(outdir, f"{run_id}.summary.json")
    if traced:
        cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "cli", summary,
               os.path.join(outdir, f"{run_id}.spans.tsv"), run_id, "--", *relog_args]
    else:
        cmd = [sys.executable, "-m", "relog", *relog_args]
    rec = Recorder(corrupt=args.corrupt_expected)
    rec.note_input(" ".join(relog_args))
    cpu_before = _child_cpu()
    start = perf_counter()
    proc = _spawn(cmd)
    wall = perf_counter() - start
    cpu = _child_cpu() - cpu_before
    rec.latencies.append(wall)
    items = _check_report(proc, rec)
    items_s = sum(item["elapsed"] for item in items.values()) if items else 0.0
    layers = None
    if traced:
        with open(summary, encoding="utf-8") as handle:
            layers = json.load(handle)
        layers.update({
            "cli.process_s": wall,
            "cli.overhead_s": wall - items_s,
            "cli.output_bytes": len(proc.stdout),
        })
        for item_id in REPRODUCE_ITEMS:
            layers[f"reproduce.{item_id}.elapsed_s"] = (
                items[item_id]["elapsed"] if items and item_id in items else 0.0)
    # Set-up of a CLI user: interpreter start, imports, argument parsing and
    # report emission, i.e. everything outside the claims themselves.
    return Round(wall - items_s, wall, wall, rec.latencies, [cpu], rec.failed, rec.wrong,
                 rec.digest, layers)


def percentile(sorted_values, tenths):
    """Nearest-rank percentile, given in tenths of a percent, and the number
    of samples beyond it."""
    rank = max(1, -(-tenths * len(sorted_values) // 1000))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail_tenths(n):
    """The highest percentile, in tenths, with at least ten of `n` samples
    beyond it; the median when there are too few samples for that."""
    for tenths in range(999, 500, -1):
        if n - -(-tenths * n // 1000) >= 10:
            return tenths
    return 500


def median_per_operation(rounds, times):
    """Every round replays the same operations, so each operation's time is
    its median over the rounds.  A best time would be steadier within a run
    but not across runs: how low it gets depends on how many rounds fit and
    on whether a fast phase of a shared host fell into the run."""
    series = [getattr(r, times) for r in rounds]
    width = max(len(s) for s in series)
    return [statistics.median(s[i] for s in series if i < len(s)) for i in range(width)]


def end_to_end(rounds):
    attempted = sum(len(r.latencies) for r in rounds)
    failed = sum(r.failed for r in rounds)
    latencies = sorted(median_per_operation(rounds, "latencies"))
    wall = sum(latencies)
    tenths = tail_tenths(len(latencies))
    tail, beyond = percentile(latencies, tenths)
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(r.setup_s for r in rounds), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (sum(median_per_operation(rounds, "cpu_times")), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MiB"),
        "ops_per_s": (len(latencies) / wall, "1/s"),
        "op_p50_ms": (1000 * percentile(latencies, 500)[0], "ms"),
        "op_tail_ms": (1000 * tail, "ms"),
        "ok_share": ((attempted - failed) / attempted, "ratio"),
    }
    tail_record = {"percentile": tenths / 10, "operations": len(latencies),
                   "beyond": beyond, "rounds": len(rounds)}
    return metrics, tail_record


def per_layer(rounds):
    traced = [r.layers for r in rounds if r.layers is not None]
    names = set().union(*traced)
    names |= {"cli.process_s", "cli.overhead_s", "cli.output_bytes"}
    names |= {f"reproduce.{item_id}.elapsed_s" for item_id in REPRODUCE_ITEMS}
    metrics = {}
    for name in names:
        value = sum(layers.get(name, 0) for layers in traced) / len(traced)
        if name.endswith("_per_s"):
            unit = "1/s"
        elif name.endswith("_s"):
            unit = "s"
        elif name.endswith("_us_per_element"):
            unit = "us"
        elif name.endswith("_bytes"):
            unit = "bytes"
        else:
            unit = "count"
        metrics[name] = (value, unit)
    untraced = sum(median_per_operation([r for r in rounds if r.layers is None], "latencies"))
    traced = sum(median_per_operation([r for r in rounds if r.layers is not None], "latencies"))
    metrics["trace.overhead_pct"] = (100 * (traced / untraced - 1), "%")
    return metrics


def machine_record():
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "loadavg_at_start": os.getloadavg(),
        "cpu_pinning": "none",
        "system_wide_tracing_or_tuning": "none",
    }


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def select(metrics, declared):
    """Exactly the declared metrics, each with its declared unit."""
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise BenchError(f"declared metrics not measured: {missing}")
    for name, unit in declared.items():
        if metrics[name][1] != unit:
            raise BenchError(f"{name} measured in {metrics[name][1]}, declared in {unit}")
    return {name: {"value": metrics[name][0], "unit": unit} for name, unit in declared.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-tests")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="invert the first expected answer of each round "
                             "(self-test of the gate)")
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "relog", "__init__.py")):
        raise BenchError(f"no relog source under {SRC}")
    declared = declared_metrics(args.trace)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "machine": machine_record(),
              "load": "closed loop, one client, one process at a time"}
    outdir = os.path.join(OUT, args.workload)
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    run_round = cli_round if args.workload == "reproduce-cli" else in_process_round
    rounds = []
    start = perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(run_round(args, len(rounds), traced, outdir))
        elapsed = perf_counter() - start
        if len(rounds) >= 1 + args.trace and elapsed + rounds[-1].total_s > args.seconds:
            break
    digests = {r.digest for r in rounds}
    if len(digests) != 1:
        raise BenchError(f"rounds saw different inputs: {sorted(digests)}")
    metrics, record["op_tail"] = end_to_end(rounds)
    if args.trace:
        metrics = per_layer(rounds)
    wrong = [w for r in rounds for w in r.wrong]
    result = {
        "correct": not wrong,
        "attempted": sum(len(r.latencies) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": select(metrics, declared),
    }
    record.update(digest=digests.pop(), round_wall_s=[r.wall_s for r in rounds],
                  wrong=wrong[:20], cap_exceeded=sum(r.cap_exceeded for r in rounds),
                  all_metrics={k: v[0] for k, v in sorted(metrics.items())})
    with open(os.path.join(outdir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump({"record": record, "result": result}, handle, indent=1)
    for line in wrong[:20]:
        print(f"wrong: {line}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(1)
