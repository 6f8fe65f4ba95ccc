"""Smoke tests for the benchmark, on the tiny input size.

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402

WORKLOADS = ("interactive", "offline", "train")
END_TO_END = {"setup_s", "peak_rss_mb", "items_per_s"}
DETAILS = {
    "train": {"train_s", "dev_loss"},
    "interactive": {"greedy_p50_ms", "greedy_p99_ms", "beam4_p50_ms", "beam4_p99_ms"},
    "offline": {"generate_samples_per_s", "predict_utt_per_s", "baseline_utt_per_s",
                "seq2seq_error", "baseline_error"},
}


def _run(workload, trace=0, references=None):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--size", "tiny", "--seconds", "0", "--trace", str(trace)]
    if references:
        argv += ["--references", str(references)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    details = [json.loads(line.split(" ", 2)[2]) for line in lines
               if line.startswith("perfbench details ")]
    proc.details = details[0] if details else None
    return proc, json.loads(lines[-1]) if lines else None


def test_benchmark_json_declares_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(layers.METRICS)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace):
    proc, result = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = set(layers.METRICS) if trace else END_TO_END
    assert set(result["metrics"]) == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name
        assert m["unit"]
        assert trace or m["value"] > 0, name
    assert set(proc.details) == DETAILS[workload]


def test_one_corrupted_reference_name_fails_the_run(tmp_path):
    refs = json.loads((BENCH / "reference" / "outputs.json").read_text())
    greedy = refs["workloads"]["interactive"]["tiny"]["greedy"]
    greedy[0][0] = greedy[0][0] + "x"
    corrupted = tmp_path / "outputs.json"
    corrupted.write_text(json.dumps(refs))
    proc, result = _run("interactive", references=corrupted)
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert "check failed: greedy #0" in proc.stderr
