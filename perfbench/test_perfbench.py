"""The benchmark's own tests, at tiny scale.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import rep  # noqa: E402
import run  # noqa: E402
from layers import LayerTracer  # noqa: E402

#: Arguments that shrink each workload to well under a second.
TINY = {
    "storm-spread": {"window_s": 0.5, "rate_per_s": 400.0,
                     "population": 5000},
    "certify": {"budget": 1, "window_s": 2.0},
}

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def traced(workload: str, seed: int = 0):
    """Run one tiny traced repetition in-process; returns (tracer, result)."""
    tracer = LayerTracer()
    tracer.install()
    try:
        result = rep.call_entry(workload, seed, TINY[workload])
    finally:
        tracer.uninstall()
    return tracer, result


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_every_named_metric_prints_with_its_unit(monkeypatch, tmp_path,
                                                 capsys, trace, section):
    def tiny_rep(workload, seed, spans=None):
        return rep.run_rep(workload, seed, str(spans) if spans else None,
                           TINY[workload])

    monkeypatch.setattr(run, "run_rep", tiny_rep)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    code = run.main(["--workload", "storm-spread", "--seed", "3",
                     "--seconds", "1", "--trace", str(trace)])
    assert code == 0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert printed["correct"] and printed["failed"] == 0
    assert printed["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in printed["metrics"].items()} == expected
    for metric in printed["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert (tmp_path / f"storm-spread-seed3-trace{trace}.manifest.json").exists()
    # At least two repetitions, and two traced ones whose counts are compared.
    record = json.loads(
        (tmp_path / f"storm-spread-seed3-trace{trace}.json").read_text())
    traced_reps = [("layers" in r) for r in record["reps"]]
    assert traced_reps == [False] * 2 + [True] * 2 * trace


@pytest.mark.parametrize("workload", ["storm-spread", "certify"])
def test_a_tampered_result_fails_the_output_check(workload):
    text = rep.call_entry(workload, 1, TINY[workload]).to_json() + "\n"
    assert rep.check_output(workload, text, None) == []
    result = json.loads(text)
    if workload == "certify":
        row = result["rows"][0]
        row["invocations"] += 1
    else:
        result["points"][0]["completed"] -= 1
    tampered = json.dumps(result, indent=2, sort_keys=True) + "\n"
    assert rep.check_output(workload, tampered, None)
    # A pinned digest catches any change, even one the invariants miss.
    pinned = rep.hashlib.sha256(text.encode()).hexdigest()
    assert rep.check_output(workload, text, pinned) == []
    assert rep.check_output(workload, text.replace("\n", " \n", 1), pinned)


def test_a_repetition_with_another_digest_is_failed():
    reps = [{"seed": 4, "digest": "a", "problems": []},
            {"seed": 5, "digest": "b", "problems": []},
            {"seed": 4, "digest": "c", "problems": []}]
    run.mark_failures(reps)
    assert [bool(r["problems"]) for r in reps] == [False, False, True]


def test_untraced_repetitions_cover_one_input_each(monkeypatch, tmp_path):
    seeds = []

    def tiny_rep(workload, seed, spans=None):
        seeds.append(seed)
        return rep.run_rep(workload, seed, None, TINY[workload])

    monkeypatch.setattr(run, "run_rep", tiny_rep)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    run.run("certify", 3, 1, trace=False)
    assert seeds == [3 * run.SEED_STRIDE, 3 * run.SEED_STRIDE + 1]


def test_the_middle_mean_drops_the_extremes():
    assert run.middle_mean([9.0, 1.0, 2.0, 4.0]) == 3.0
    assert run.middle_mean([1.0, 2.0]) == 1.5


def test_no_figures_when_no_repetition_passed():
    reps = [{"requests": 10, "problems": ["digest differs"]}]
    assert set(run.end_to_end(reps).values()) == {None}


def test_storm_layer_counts_equal_the_program_ledgers():
    from repro.shard.plane import ShardedControlPlane

    original = ShardedControlPlane.__dict__["request_grant"]
    tracer, result = traced("storm-spread")
    assert ShardedControlPlane.__dict__["request_grant"] is original
    layers = tracer.layer_metrics()
    (plane,) = tracer.instances["ShardedControlPlane"]
    (admission,) = tracer.instances["AdmissionController"]
    (env,) = tracer.instances["Environment"]
    ledger = plane.conservation()
    assert layers["shard.ops_submitted"] == ledger["ops_submitted"]
    assert layers["shard.ops_failed"] == ledger["ops_failed"]
    assert layers["capacity.admit.calls"] == admission.admitted + admission.rejected
    assert layers["capacity.admit.rejected"] == admission.rejected
    assert layers["sim.events"] == env.event_count
    assert layers["loadgen.arrivals"] == result.points[0].admitted
    denied = env._telemetry.metrics.get("repro_manager_lease_denied_total")
    assert layers["rfaas.lease.denied"] == (denied.value if denied else 0)
    assert layers["telemetry.gauge_set.calls"] >= layers["telemetry.gauge_points"] > 0
    # The storm path grants credentials only: no fabric transfers.
    for name in ("capacity.admit.calls", "capacity.queue_depth.calls",
                 "shard.ops_submitted", "shard.batches", "loadgen.arrivals"):
        assert layers[name] > 0, name
    assert layers["network.transfers"] == 0
    assert layers["rfaas.invoke.calls"] == 0


def test_certify_layer_counts_equal_the_program_ledgers(tmp_path):
    tracer, report = traced("certify")
    layers = tracer.layer_metrics()
    assert layers["rfaas.invoke.calls"] == sum(r["invocations"] for r in report.rows)
    assert layers["faults.injected"] == sum(r["injected"] for r in report.rows)
    assert layers["faults.skipped"] == sum(r["skipped"] for r in report.rows)
    assert layers["network.transfers"] > 0 and layers["network.bytes"] > 0
    assert layers["controlplane.log_records"] > 0
    assert layers["memservice.touch.calls"] > 0
    for name in ("capacity.admit.calls", "capacity.queue_depth.calls",
                 "shard.ops_submitted", "shard.batches", "loadgen.arrivals"):
        assert layers[name] == 0, name
    # Spans load back through the program's own summary reader.
    from repro.telemetry.exporters import load_spans

    path = tmp_path / "spans.jsonl"
    written = tracer.write_spans(str(path))
    spans = load_spans(str(path))
    assert len(spans) == written == layers["trace.spans"]
    assert {"sim.run", "rfaas.invoke", "network.step"} <= {s.name for s in spans}


def test_untraced_and_traced_results_are_identical():
    plain = rep.run_rep("storm-spread", 2, None, TINY["storm-spread"])
    assert plain["problems"] == [] and "layers" not in plain
    assert plain["setup_s"] > 0 and plain["wall_s"] > 0
    tracer, result = traced("storm-spread", seed=2)
    assert rep.hashlib.sha256(
        (result.to_json() + "\n").encode()).hexdigest() == plain["digest"]
