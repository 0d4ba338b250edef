"""Self-tests of the benchmark, at smoke size: `python -m pytest bench`."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "ok_share": "ratio",
}


def _layer_names():
    groups = {
        "subcon.congruence_lattice": "calls busy_s self_s congruences",
        "subcon.principal_congruence": "calls busy_s",
        "subcon.all_subuniverses": "busy_s universes",
        "subcon.generated_subuniverse": "calls",
        "subcon.check_cep_pair": "busy_s witnesses",
        "subcon.hs_class": "busy_s classes",
        "subcon.check_cep_class": "busy_s checked failed",
        "morph.isomorphisms": "calls busy_s found",
        "morph.automorphisms": "busy_s",
        "morph.embeddings": "calls busy_s",
        "algebra.power": "busy_s",
        "algebra.subalgebra": "calls busy_s",
        "algebra.quotient": "calls busy_s",
        "algebra.builtin": "busy_s",
        "logic.entails": "calls busy_s holds fails valuations valuations_per_s",
        "logic.verify_countermodel": "busy_s",
        "logic.parse_formula": "busy_s",
        "interp.free_closure": "admitted busy_s marginal_us_per_element",
        "interp.free_algebra": "busy_s",
        "interp.maehara_interpolant": "calls busy_s scanned rejected not_found cap_exceeded",
        "interp.entails": "busy_s",
        "interp.verify_interpolant": "busy_s",
        "cli": "process_s overhead_s output_bytes",
    }
    names = {}
    for prefix, keys in groups.items():
        for key in keys.split():
            if key.endswith("_per_s"):
                unit = "1/s"
            elif key.endswith("_s"):
                unit = "s"
            elif key.endswith("_per_element"):
                unit = "us"
            elif key.endswith("_bytes"):
                unit = "bytes"
            else:
                unit = "count"
            names[f"{prefix}.{key}"] = unit
    for item in ("crystal.axioms", "belnap-m.axioms", "lemma1.subalgebras",
                 "lemma1.simplicity", "lemma1.cep", "theorem.automorphisms",
                 "theorem.extensible", "lemma2.amalgamation", "vsp.crystal",
                 "vsp.belnap-m", "vsp.boolean2-contrast", "mip.crystal",
                 "consequence.r-theorems", "cep.belnap-m"):
        names[f"reproduce.{item}.elapsed_s"] = "s"
    for layer in ("algebra", "subcon", "morph", "logic", "interp", "reproduce", "cli"):
        names[f"layer.{layer}.self_s"] = "s"
    names["trace.overhead_pct"] = "%"
    return names


PER_LAYER = _layer_names()


def run(workload, trace=0, *extra, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def test_declared_metrics_include_every_named_metric():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert declared == END_TO_END
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: declared.get(name) for name in PER_LAYER} == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    record, result = result_of(run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert record["seed"] == 3 and len(record["digest"]) == 64
    if trace:
        assert result["metrics"]["trace.spans"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_answer_trips_the_gate(workload):
    _, result = result_of(run(workload, 0, "--corrupt-expected"))
    assert result["correct"] is False
    assert result["failed"] >= 1


@pytest.mark.parametrize("workload", ["consequence", "interpolation"])
def test_seed_fixes_the_input_digest(workload):
    first, _ = result_of(run(workload))
    again, _ = result_of(run(workload))
    other, _ = result_of(run(workload, seed=4))
    assert first["digest"] == again["digest"] != other["digest"]


def test_checkout_without_source_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("structure", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
