"""Tests of the benchmark itself, at smoke sizes.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
from workloads import OPS_PER_SESSION, WORKLOADS  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_reports_end_to_end_metrics(workload):
    result = result_of(run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", "0", "--smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    sessions, partial = divmod(result["attempted"], OPS_PER_SESSION[workload])
    assert sessions >= 2 and partial == 0
    assert set(result["metrics"]) == {"wall_s", "peak_rss_mb", "setup_s"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload, tmp_path):
    spans = tmp_path / "spans.json"
    result = result_of(run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", "1", "--smoke", "--spans", str(spans)))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(tracing.METRICS) | set(tracing.TRACE_METRICS)
    assert 0 < result["metrics"]["trace.coverage"]["value"] <= 1
    records = json.loads(spans.read_text())
    assert len(records) == result["metrics"]["trace.spans"]["value"]
    assert all(rec[tracing.START] <= rec[tracing.END] and rec[tracing.PARENT] < i
               for i, rec in enumerate(records))


def test_failed_operations_are_counted_not_fatal(tmp_path):
    bench = tmp_path / "bench"
    shutil.copytree(BENCH, bench, ignore=shutil.ignore_patterns("__pycache__"))
    refs = json.loads((bench / "references.json").read_text())
    refs["smoke"]["statevector-prep"]["oracle_calls"]["cli/phase-estimation"] += 1
    (bench / "references.json").write_text(json.dumps(refs))
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "statevector-prep",
                           "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    result = result_of(proc)
    assert not result["correct"]
    sessions = result["attempted"] // OPS_PER_SESSION["statevector-prep"]
    assert sessions >= 2 and result["failed"] == sessions   # one failed op per session
    assert "cli prepare phase-estimation" in proc.stdout and "vs pinned" in proc.stdout
    assert result["metrics"]["wall_s"]["value"] > 0


@pytest.mark.xfail(strict=True, reason="known gnlab defect: the Casimir refit on the first four "
                   "sizes (as many points as coefficients) misses its Gauss-Newton step tolerance "
                   "at solver seed 1, so energy-fit exits 3")
def test_size_ladder_at_seed_1():
    result = result_of(run_bench("--workload", "size-ladder", "--seed", "1", "--seconds", "1",
                                 "--trace", "0", "--smoke"))
    assert result["failed"] == 0


def test_refuses_to_run_without_gnlab_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "chain50", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _bindings() -> dict:
    import gnlab.cli  # noqa: F401

    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "gnlab" or name.startswith("gnlab."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if isinstance(value, type) and value.__module__.startswith("gnlab"):
                    for attr, raw in vars(value).items():
                        out[(name, key, attr)] = raw
    return out


def test_wrappers_install_and_restore_every_binding():
    before = _bindings()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        import gnlab.overlaps

        assert gnlab.overlaps.dmrg_ground_state is not before[("gnlab.dmrg", "dmrg_ground_state")]
        assert not tracer.absent
    finally:
        assert tracer.uninstall() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_missing_target_is_reported_absent(monkeypatch):
    import gnlab.dmrg

    monkeypatch.delattr(gnlab.dmrg, "epsilon_measure")
    tracer = tracing.Tracer()
    with pytest.warns(UserWarning, match="gnlab.dmrg.epsilon_measure no longer exists"):
        tracing.install(tracer)
    assert tracer.uninstall() == []
    metrics, absent = tracing.layer_metrics(tracer)
    assert {"dmrg.epsilon_s", "dmrg.epsilon_calls", "dmrg.self_s"} <= set(absent)
    assert not set(absent) & set(metrics)
    assert "dmrg.solve_s" in metrics


def test_benchmark_json_declares_what_the_benchmark_reports():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in declared["end_to_end"]] == ["wall_s", "peak_rss_mb", "setup_s"]
    assert [m["name"] for m in declared["per_layer"]] == list(tracing.METRICS) + list(tracing.TRACE_METRICS)
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert all(units[name] == unit for name, (unit, _needs, _read) in tracing.METRICS.items())
