"""Tests of the benchmark itself: span algebra, output shape, gates.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def fake_clock(readings):
    values = iter(readings)
    return lambda: next(values)


# ----------------------------------------------------------------------
# Span algebra on a synthetic tree
# ----------------------------------------------------------------------
def synthetic_tracer():
    """a[0,100] -> b[10,40] -> c[15,25]; a -> b[50,70]; d[110,120]."""
    tracer = spans.Tracer(clock=fake_clock(
        [0, 10, 15, 25, 40, 50, 70, 100, 110, 120]))
    c = tracer.wrap("c", lambda: None)

    def b_body(inner):
        if inner:
            c()

    b = tracer.wrap("b", b_body)

    def a_body():
        b(True)
        b(False)

    tracer.wrap("a", a_body)()
    tracer.wrap("d", lambda: None)()
    return tracer


def test_self_time_is_span_minus_children():
    layers = synthetic_tracer().layers()
    assert layers["a"] == {"calls": 1, "self_ns": 50, "total_ns": 100}
    assert layers["b"] == {"calls": 2, "self_ns": 40, "total_ns": 50}
    assert layers["c"] == {"calls": 1, "self_ns": 10, "total_ns": 10}
    assert layers["d"] == {"calls": 1, "self_ns": 10, "total_ns": 10}


def test_self_times_plus_outside_time_equal_wall_time():
    tracer = synthetic_tracer()
    assert tracer.root_ns() == 110
    assert spans.check_algebra(tracer, 130) == (True, "ok")
    assert spans.check_algebra(tracer, 100)[0] is False


def test_algebra_rejects_a_child_outside_its_parent():
    tracer = synthetic_tracer()
    tracer.end[2] = 45          # c now ends after its parent b
    ok, note = spans.check_algebra(tracer, 130)
    assert not ok and "escapes" in note


def test_reentry_into_the_innermost_layer_is_folded():
    tracer = spans.Tracer(clock=fake_clock([0, 10]))
    inner = tracer.wrap("x", lambda: "done")
    outer = tracer.wrap("x", lambda: inner())
    assert outer() == "done"
    assert tracer.layers()["x"] == {"calls": 1, "self_ns": 10,
                                    "total_ns": 10}


def test_spans_close_when_the_layer_raises():
    tracer = spans.Tracer(clock=fake_clock([0, 5]))

    def boom():
        raise ValueError("denied")

    with pytest.raises(ValueError):
        tracer.wrap("x", boom)()
    assert tracer.stack == []
    assert tracer.layers()["x"]["total_ns"] == 5


def test_spans_round_trip_through_the_file():
    tracer = synthetic_tracer()
    tracer.request_id = 7
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    path = out / "test-spans.bin"
    tracer.write(str(path), {"workload": "synthetic"})
    meta, columns = spans.read_trace(str(path))
    path.unlink()
    assert meta["workload"] == "synthetic" and meta["spans"] == 5
    assert [meta["names"][i] for i in columns["name"]] == \
        ["a", "b", "c", "b", "d"]
    assert list(columns["parent"]) == [-1, 0, 1, 0, -1]
    assert list(columns["start"]) == [0, 10, 15, 50, 110]


# ----------------------------------------------------------------------
# BENCHMARK.json and the code agree
# ----------------------------------------------------------------------
def test_benchmark_json_names_match_the_code():
    # fleet-overflow is runnable by hand but not part of BENCHMARK.json
    # (see README.md, "Steadiness").
    assert [w["name"] for w in SPEC["workloads"]] == \
        [name for name in workloads.WORKLOADS if name != "fleet-overflow"]
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        list(workloads.PER_LAYER)


# ----------------------------------------------------------------------
# Tiny-scale smoke runs of the real command
# ----------------------------------------------------------------------
def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=str(cwd), timeout=300)


#: Every emitted per-layer time: each workload enters each such layer.
SPEC_TIMES_PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]
                        if m["unit"] == "s"]

SMOKE_SCALE = {"fleet-warm": "0.1", "fleet-overflow": "0.05",
               "admin-churn": "0.05", "redteam-sweep": "0.1"}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload):
    common = ["--workload", workload, "--seed", "3",
              "--scale", SMOKE_SCALE[workload]]
    measured = run_bench(*common, "--seconds", "1", "--trace", "0")
    assert measured.returncode == 0, measured.stdout + measured.stderr
    result = json.loads(measured.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    # At smoke scale a p99 may lack its 1000 samples and is omitted.
    missing = set(units) - set(result["metrics"])
    assert missing <= {"stat_p99_us"}, missing
    for name, row in result["metrics"].items():
        assert row["unit"] == units[name]
        assert row["value"] > 0, name

    traced = run_bench(*common, "--trace", "1")
    assert traced.returncode == 0, traced.stdout + traced.stderr
    result = json.loads(traced.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert {name: row["unit"] for name, row in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["trace.spans"]["value"] > 0
    for name, _ in SPEC_TIMES_PER_LAYER:
        assert result["metrics"][name]["value"] > 0, name

    # The untraced and traced processes produced the same output.
    def record(trace):
        return json.loads((ROOT / ".perfbench" /
                           f"result-{workload}-seed3-trace{trace}.json")
                          .read_text())

    assert record(0)["fingerprint"] == record(1)["fingerprint"]
    own = workloads.SWEEP_LAYERS if workload == "redteam-sweep" \
        else workloads.FLEET_LAYERS
    assert {name: row["unit"] for name, row
            in record(1)["workload_layers"].items()} == dict(own)


def processes_running(*markers):
    """Live processes whose command line contains one of *markers*, as
    pid -> command line."""
    found = {}
    for entry in Path("/proc").iterdir():
        try:
            cmdline = (entry / "cmdline").read_bytes().decode(
                errors="replace").replace("\0", " ")
            state = (entry / "stat").read_text().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):
            continue
        if state != "Z" and any(marker in cmdline for marker in markers):
            found[entry.name] = cmdline
    return found


@pytest.mark.skipif(not Path("/proc/self/cmdline").exists(),
                    reason="needs /proc")
def test_no_process_outlives_a_run(tmp_path):
    markers = (str(BENCH / "run.py"), "multiprocessing")
    before = processes_running(*markers)
    # The sweep forks pool workers inside its pass processes. Output
    # goes to a file: a leftover holding a pipe would keep a reader
    # waiting until it ended, and hide it.
    with open(tmp_path / "output", "w+") as output:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"),
             "--workload", "redteam-sweep", "--seed", "3",
             "--scale", SMOKE_SCALE["redteam-sweep"],
             "--seconds", "1", "--trace", "0"],
            stdout=output, stderr=subprocess.STDOUT, cwd=str(ROOT),
            timeout=300)
        output.seek(0)
        assert done.returncode == 0, output.read()
    left = {pid: cmdline for pid, cmdline
            in processes_running(*markers).items() if pid not in before}
    assert left == {}


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = run_bench("--workload", "fleet-warm", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
