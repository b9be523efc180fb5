"""The headline contract, across fresh interpreters: byte-identical JSON.

Each CLI invocation below is its own subprocess, so nothing — module
counters, rng state, import order — can leak between the serial and
parallel runs.  If ``--jobs 4`` and ``--jobs 1`` produce even one
differing byte in the merged result (or in the merged span stream),
the fan-out is not deterministic and these tests fail.

Comparing the code with itself cannot catch a change that alters both
runs alike, so the ``--jobs 1`` JSON and report are also pinned to
sha256 digests (``PINNED``): a renamed JSON key or a changed report row
fails here even when serial and parallel still agree.
"""

import hashlib
import pathlib
import re
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

SWEEP_ARGS = {
    "chaos": ["chaos", "--rates", "0,8", "--window", "4"],
    "autoscale": ["autoscale", "--loads", "1.0", "--window", "6"],
    "memdurability": ["memdurability", "--factors", "1,2",
                      "--accesses", "40", "--window", "5"],
    "gpu_scaling": ["sweep", "gpu_scaling", "--set", "batch_sizes=(1, 4, 16)",
                    "--set", "requests=512"],
    "manager_failover": ["managerha", "--standbys", "0,1", "--window", "8"],
    "loadstorm": ["loadstorm", "--shards", "1,2", "--window", "2",
                  "--rate", "600", "--population", "50000"],
}

#: name -> (sha256 of the ``--jobs 1`` JSON, sha256 of its stdout report
#: with the volatile ``[... completed in Xs]`` and ``[json -> PATH]``
#: lines removed).
PINNED = {
    "autoscale": ("07b0eaac58b793c37870e1ae108098e712c474691940d9beb03a8bf370619caa",
        "bbfb4d15afef711fa669a3ac3116df271f6af1537dd32508899c562d309fa513"),
    "chaos": ("a976712103f71382e6cec833ff1ff4b78cb38f638863745209a2ea37eb829aa5",
        "43bf8e1e80c8f0c2448484d40aeda6b4e3fc766de32677b630e8ff1726577215"),
    "gpu_scaling": ("ce888bc944542040c16f7a451c18d2de16cd0d3a1d5da6a6961bcc81f2920a4c",
        "2cb0ed011e9c7338f46f01259e1bc122fbf1f3aa3c4a3868c4833dce10e87467"),
    "loadstorm": ("b6da476669cf8cc8d55ecd0c547e32a967beb3a010256c47ee8b03bd27404bf8",
        "602dd4ba9b9018135c788ec1b63858c0c5fd1b4fbe60000d6ec061bcd956a488"),
    "manager_failover": ("53d8ebfd10092567f3956a1a503ed5ac31f836279b84de8c130f31cf7a290c62",
        "e26576fc8609a482f751fa291442ccb0161377aba5ff3c24aecb1c6726ba0cdb"),
    "memdurability": ("cb05d54df6552b3d025d01a55de671f0f88dad18e98320ad2eeac17684fc2d14",
        "18fcb4fb26340f5b207d2aa65423e037a889574ac59b5a5a0fc0ef52f38bdd97"),
}

_VOLATILE_LINE = re.compile(r"^\[(.* completed in .*|json -> .*)\]$")


def _report_digest(stdout):
    kept = [line for line in stdout.splitlines()
            if not _VOLATILE_LINE.match(line)]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def _run_cli(args, cwd):
    env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr or proc.stdout
    return proc


@pytest.mark.parametrize("name", sorted(SWEEP_ARGS))
def test_merged_json_is_byte_identical_serial_vs_parallel(name, tmp_path):
    blobs = {}
    reports = {}
    for jobs in (1, 4):
        out = tmp_path / f"{name}-{jobs}.json"
        proc = _run_cli([*SWEEP_ARGS[name], "--jobs", str(jobs),
                         "--json", str(out)], cwd=tmp_path)
        blobs[jobs] = out.read_bytes()
        reports[jobs] = proc.stdout
    assert blobs[1] == blobs[4], (
        f"{name}: --jobs 4 produced different JSON than --jobs 1"
    )
    assert blobs[1]  # non-vacuous: the sweep actually wrote something
    json_digest, report_digest = PINNED[name]
    assert hashlib.sha256(blobs[1]).hexdigest() == json_digest, (
        f"{name}: --jobs 1 JSON differs from the pinned golden"
    )
    assert _report_digest(reports[1]) == report_digest, (
        f"{name}: report differs from the pinned golden"
    )


def test_merged_span_stream_is_byte_identical_serial_vs_parallel(tmp_path):
    streams = {}
    for jobs in (1, 3):
        path = tmp_path / f"spans-{jobs}.jsonl"
        _run_cli([*SWEEP_ARGS["chaos"], "--jobs", str(jobs),
                  "--stream-spans", str(path)], cwd=tmp_path)
        streams[jobs] = path.read_bytes()
    assert streams[1] == streams[3]
    assert streams[1]


def test_generic_sweep_subcommand_matches_the_dedicated_one(tmp_path):
    dedicated = tmp_path / "dedicated.json"
    generic = tmp_path / "generic.json"
    _run_cli([*SWEEP_ARGS["chaos"], "--jobs", "1", "--json", str(dedicated)],
             cwd=tmp_path)
    _run_cli(["sweep", "chaos", "--set", "rates=(0.0, 8.0)",
              "--set", "window_s=4.0", "--jobs", "2", "--json", str(generic)],
             cwd=tmp_path)
    assert dedicated.read_bytes() == generic.read_bytes()
