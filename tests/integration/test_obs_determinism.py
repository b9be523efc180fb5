"""Fresh-interpreter determinism of the traced chaos sweep.

Span/trace ids come from process-global counters, so the strongest form
of the determinism contract is across *fresh interpreters*: a traced
run must produce byte-identical simulated timelines to an untraced run
of the same seed, and two traced runs must stream byte-identical span
files.
"""

import os
import pathlib
import subprocess
import sys

import repro

REPO_SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])

SCRIPT = """
import sys
from repro.experiments import chaos_sweep
from repro.telemetry import SpanPipeline, TelemetryCollector

mode, stream = sys.argv[1], sys.argv[2]
kwargs = dict(rates=(8.0,), window_s=6.0, seed=3)
if mode == "traced":
    pipeline = SpanPipeline(stream_path=stream)
    with TelemetryCollector(pipeline=pipeline):
        result = chaos_sweep.run(**kwargs)
    pipeline.close()
else:
    result = chaos_sweep.run(**kwargs)
sys.stdout.write(result.format_report())
"""


def run_fresh(mode, stream):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, mode, str(stream)],
        capture_output=True, env=env, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_traced_run_matches_untraced_byte_for_byte(tmp_path):
    untraced = run_fresh("off", tmp_path / "unused.jsonl")
    traced = run_fresh("traced", tmp_path / "stream.jsonl")
    assert traced == untraced
    assert b"Chaos sweep" in traced
    # The traced run really did stream spans while producing the same
    # simulated timeline.
    assert (tmp_path / "stream.jsonl").stat().st_size > 0


def test_two_traced_runs_stream_identical_spans(tmp_path):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    out_a = run_fresh("traced", first)
    out_b = run_fresh("traced", second)
    assert out_a == out_b
    assert first.read_bytes() == second.read_bytes()
    assert first.stat().st_size > 0
