"""Self-tests of the benchmark, at toy scale.

    python3 -m pytest perfbench -q

They run the real command line, so ``src/gramstab`` must be present.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import layers
import spec
import workloads
from proc import Spawner

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run_toy(trace: int) -> tuple[str, dict]:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--scale", "toy",
         "--seconds", "1", "--seed", "5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return out.stdout, json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def selftest_dir():
    path = harness.WORK / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_benchmark_json_matches_spec():
    assert (ROOT / "BENCHMARK.json").read_text() == spec.benchmark_json_text()
    doc = spec.benchmark_json()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_toy_run_prints_every_end_to_end_metric():
    stdout, results = _run_toy(trace=0)
    assert set(results) == set(spec.WORKLOADS)
    for name, result in results.items():
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] > spec.SETUP_SAMPLES
        assert list(result["metrics"]) == [m.name for m in spec.END_TO_END]
        for m in spec.END_TO_END:
            value = result["metrics"][m.name]
            assert value["unit"] == m.unit and value["value"] > 0, (name, m.name)
    for m in spec.END_TO_END:
        assert len(re.findall(rf"^{re.escape(m.name)}\s+\S+ {re.escape(m.unit)}$", stdout, re.M)) == 4


def test_toy_traced_run_prints_every_per_layer_metric():
    stdout, results = _run_toy(trace=1)
    assert "MISSING" not in stdout
    for name, result in results.items():
        assert result["correct"] and result["failed"] == 0, name
        metrics = result["metrics"]
        assert list(metrics) == [m.name for m in spec.PER_LAYER]
        for m in spec.PER_LAYER:
            assert metrics[m.name]["unit"] == m.unit
            if name in m.on and m.unit == "s" and m.name != "trace.overhead_s":
                assert metrics[m.name]["value"] > 0, (name, m.name)
        assert metrics["trace.unaccounted_share"]["value"] < 0.05, name
    for m in spec.PER_LAYER:
        assert len(re.findall(rf"^{re.escape(m.name)}\s+\S+ {re.escape(m.unit)}$", stdout, re.M)) == 4
    ingest = results[spec.INGEST]["metrics"]
    size = workloads.SCALES["toy"][spec.INGEST]
    assert ingest["core.self_loops_dropped"]["value"] == size["lines"] // 100
    assert ingest["core.duplicates_dropped"]["value"] == size["lines"] * 4 // 100
    # Spans nest across modules: from_pairs runs inside load_edge_list.
    docs = json.loads((harness.WORK / f"SPANS_{spec.INGEST}.json").read_text())
    spans = {s[0]: s for s in docs[0]["spans"]}
    parents = [spans[s[4]][1] for s in spans.values() if s[1] == "core.from_pairs"]
    assert parents == ["fileio.load_edge_list"]


def _tamper(report: bytes, edit) -> bytes:
    doc = json.loads(report)
    edit(doc)
    return (json.dumps(doc, indent=2) + "\n").encode()


@pytest.mark.parametrize("name", [spec.INGEST, spec.STREAM, spec.SUITE])
def test_tampered_report_is_counted_as_a_failure(name, selftest_dir):
    wl = workloads.make(name, "toy")
    dest = selftest_dir / name
    dest.mkdir()
    wl.prepare(7, dest)
    label, argv = wl.commands(dest)[-1]
    with Spawner() as spawner:
        runner = harness.Runner(wl, spawner, deadline=float("inf"))
        first: dict = {}
        assert runner.invoke(label, argv, dest, first).ok
        report = first[label]

        def bump(doc):
            entries = doc["per_config"] if "per_config" in doc else doc["per_pair"]
            entries[0]["score"] += 1e-9

        tampered = _tamper(report, bump)
        assert wl.check(label, report, dest) is None
        assert wl.check(label, tampered, dest) is not None
        # A report that differs from the first one is a failure too.
        first[label] = tampered
        assert not runner.invoke(label, argv, dest, first).ok
    assert (runner.attempted, len(runner.failures)) == (2, 1)


def test_synth_output_is_checked(selftest_dir):
    wl = workloads.make(spec.SYNTH, "toy")
    dest = selftest_dir / "synth"
    dest.mkdir()
    wl.prepare(7, dest)
    label, argv = wl.commands(dest)[0]
    with Spawner() as spawner:
        runner = harness.Runner(wl, spawner, deadline=float("inf"))
        assert runner.invoke(label, argv, dest, None).ok
        wl.digests["graph.edges"] = "0" * 64
        assert not runner.invoke(label, argv, dest, None).ok


def test_span_that_stops_firing_is_missing_not_zero():
    doc = {"spans": [[0, "cli.run_cli", 0.0, 1.0, None], [1, "cli.import", 0.0, 0.5, None]], "counts": {}}
    passes = layers.PassSpans()
    passes.add(doc, 2.0)
    values, missing = layers.per_layer(spec.INGEST, [passes], {"trace.overhead_s": 0.01})
    assert "fileio.load_edge_list_s" in missing
    assert "fileio.load_edge_list_s" not in values
    # A layer the workload never runs reads 0.
    assert values["baselines.knn_neighbors_s"] == 0.0
    assert values["cli.run_cli_self_s"] == 1.0
