"""The ``repro sweep`` umbrella command and the shared ``--jobs`` flags."""

import json

import pytest

from repro.cli import main
from repro.experiments.base import Param, registered_sweeps


def collect():
    lines = []
    return lines, lambda text: lines.append(text)


def test_sweep_list_enumerates_the_registry():
    lines, out = collect()
    assert main(["sweep", "list"], out=out) == 0
    text = "\n".join(lines)
    for name in registered_sweeps():
        assert name in text


def test_sweep_runs_a_registered_sweep_with_overrides(tmp_path):
    blob = tmp_path / "result.json"
    lines, out = collect()
    code = main(["sweep", "chaos", "--set", "rates=(0.0, 8.0)",
                 "--set", "window_s=4.0", "--json", str(blob)], out=out)
    assert code == 0
    text = "\n".join(lines)
    assert "rate-0" in text and "rate-8" in text
    assert "chaos completed in" in text
    data = json.loads(blob.read_text())
    assert [p["label"] for p in data["points"]] == ["rate-0", "rate-8"]


def test_set_values_take_the_declared_type_like_the_flags(tmp_path):
    generic, dedicated = tmp_path / "A.json", tmp_path / "B.json"
    assert main(["sweep", "chaos", "--set", "rates=(0,)", "--set", "window_s=4",
                 "--json", str(generic)], out=lambda s: None) == 0
    assert main(["chaos", "--rates", "0", "--window", "4",
                 "--json", str(dedicated)], out=lambda s: None) == 0
    assert generic.read_bytes() == dedicated.read_bytes()
    assert json.loads(generic.read_text())["window_s"] == 4.0


def test_coerce_follows_the_default_type():
    assert Param("window_s", 8.0).coerce(4) == 4.0
    assert type(Param("window_s", 8.0).coerce(4)) is float
    assert Param("rates", (0.0, 8.0)).coerce((0, 8)) == (0.0, 8.0)
    assert Param("rates", (0.0, 8.0)).coerce(0) == (0.0,)
    assert Param("shards", (1, 2)).coerce([4]) == (4,)
    assert Param("plan", None, parse=str.upper).coerce("p.json") == "P.JSON"
    assert Param("plan", None).coerce({"any": 1}) == {"any": 1}
    for param, value in ((Param("requests", 4096), 4.5),
                         (Param("requests", 4096), True),
                         (Param("crash", True), 0),
                         (Param("shards", (1, 2)), (1.5,)),
                         (Param("window_s", 8.0), "abc")):
        with pytest.raises(ValueError):
            param.coerce(value)


def test_sweep_rejects_mistyped_set_values():
    for pair in ("window_s=abc", "shards=(1.5,)", "crash_at_frac=None"):
        with pytest.raises(SystemExit):
            main(["sweep", "loadstorm", "--set", pair], out=lambda s: None)


def test_sweep_rejects_unknown_names():
    with pytest.raises(SystemExit):
        main(["sweep", "no-such-sweep"], out=lambda s: None)


def test_sweep_rejects_bad_overrides():
    with pytest.raises(SystemExit):
        main(["sweep", "chaos", "--set", "not-a-pair"], out=lambda s: None)


def test_jobs_flag_reports_the_fan_out():
    lines, out = collect()
    code = main(["chaos", "--rates", "0,8", "--window", "4", "--jobs", "2"],
                out=out)
    assert code == 0
    assert "with 2 jobs" in "\n".join(lines)


def test_jobs_must_be_positive():
    with pytest.raises(SystemExit):
        main(["chaos", "--rates", "0", "--window", "4", "--jobs", "0"],
             out=lambda s: None)


@pytest.mark.parametrize("export_flag", ["--trace", "--spans", "--metrics-out"])
def test_batch_exporters_require_serial_execution(tmp_path, export_flag):
    with pytest.raises(SystemExit):
        main(["chaos", "--rates", "0,8", "--window", "4", "--jobs", "2",
              export_flag, str(tmp_path / "export.out")], out=lambda s: None)


def test_stream_spans_works_with_parallel_jobs(tmp_path):
    stream = tmp_path / "spans.jsonl"
    lines, out = collect()
    code = main(["chaos", "--rates", "0,8", "--window", "4", "--jobs", "2",
                 "--stream-spans", str(stream)], out=out)
    assert code == 0
    text = "\n".join(lines)
    assert "[stream:" in text and "peak retained" in text
    assert str(stream) in text
    assert stream.read_text().strip()


def test_parallel_json_matches_serial_json(tmp_path):
    blobs = {}
    for jobs in ("1", "3"):
        path = tmp_path / f"mem-{jobs}.json"
        code = main(["memdurability", "--factors", "1,2", "--accesses", "40",
                     "--window", "5", "--jobs", jobs, "--json", str(path)],
                    out=lambda s: None)
        assert code == 0
        blobs[jobs] = path.read_bytes()
    assert blobs["1"] == blobs["3"]
