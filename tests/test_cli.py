"""Command line behavior: pipelines, determinism, exit codes."""

import hashlib
import json
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gramstab import load_edge_list, load_embeddings, load_manifest, save_embeddings
import gramstab.cli as cli_mod
from gramstab.cli import run_cli


def _run(argv):
    return subprocess.run(
        [sys.executable, "-m", "gramstab.cli", *argv],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    out = tmp_path_factory.mktemp("ensemble")
    result = _run([
        "synth", "--nodes", "40", "--dim", "5", "--configs", "3",
        "--noise", "0.05", "--seed", "17", "--out-dir", str(out),
    ])
    assert result.returncode == 0, result.stderr
    return out


def test_synth_writes_complete_ensemble(workspace):
    manifest = load_manifest(workspace / "manifest.json")
    assert manifest.n_configs == 3
    assert manifest.graph_path.exists()
    assert manifest.node_id_map is not None and manifest.node_id_map.exists()
    for path in manifest.embedding_paths:
        assert path.exists()
    assert manifest.extra["generator"]["seed"] == 17


# Digests of graph.edges as written by synth --nodes 300 --avg-degree 6
# --dim 4 --configs 2 --seed SEED. They pin random_graph's draws and the
# edge-list writer byte for byte across refactors.
@pytest.mark.parametrize("seed, digest", [
    (3, "bed9a6af9d8e98891d9f3058445667be721a4ced29f9503ad9d9d2fa2a51f70a"),
    (11, "5b712f91ff30ee9df0d03b84950f3afc2cee73c6ac087d023ce6dd1ca11a4792"),
])
def test_synth_graph_bytes_are_pinned(tmp_path, seed, digest):
    code = run_cli([
        "synth", "--nodes", "300", "--avg-degree", "6", "--dim", "4",
        "--configs", "2", "--seed", str(seed), "--out-dir", str(tmp_path),
    ])
    assert code == 0
    assert hashlib.sha256((tmp_path / "graph.edges").read_bytes()).hexdigest() == digest


# Digests of graph.edges and config_00.gge1 as written by synth --nodes
# 20000 --avg-degree 10 --dim 4 --configs 2 --seed 5: 100k edges, so the
# edge-list writer goes through several of its formatting chunks.
def test_synth_multi_chunk_bytes_are_pinned(tmp_path):
    code = run_cli([
        "synth", "--nodes", "20000", "--avg-degree", "10", "--dim", "4",
        "--configs", "2", "--seed", "5", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("graph.edges", "config_00.gge1")
    }
    assert digests == {
        "graph.edges": "b9c577668fafce580cda969f802c0960894ea4193ffecc400c6386979fa44d8a",
        "config_00.gge1": "ec643e38c67f6862591f9b894b8ea9c24f69dc8424129379505f1932a72c9c2b",
    }


def _scipy_modules_after(tmp_path, *argvs, noise="0"):
    """The scipy modules one fresh interpreter has loaded after ``synth
    --noise NOISE`` and then each of ``argvs`` on the synthetic ensemble."""
    script = (
        "import sys\n"
        "from gramstab.cli import run_cli\n"
        "out, noise = sys.argv[1:3]\n"
        "manifest = ['--manifest', out + '/manifest.json', '--out', out + '/report.json']\n"
        "assert run_cli(['synth', '--nodes', '20', '--dim', '3', '--configs', '2',\n"
        "                '--noise', noise, '--out-dir', out]) == 0\n"
        "for argv in sys.argv[3:]:\n"
        "    assert run_cli(argv.split() + manifest) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path), noise, *argvs],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


def test_ggi_synth_validate_do_not_load_scipy(tmp_path):
    # scipy costs more to import than a small ggi run; only the
    # baselines need it.
    assert _scipy_modules_after(tmp_path, "validate", "ggi") == "[]"


def test_baselines_load_scipy_only_for_wasserstein_and_euclidean_knn(tmp_path):
    assert _scipy_modules_after(
        tmp_path,
        "baseline --index hausdorff",
        "baseline --index hausdorff --preprocess",
        "baseline --index aligned-cosine",
        "baseline --index knn-jaccard --k 3",
        # Noise 0: each node's nearest counterpart is itself, which
        # certifies the assignment without the solver.
        "baseline --index wasserstein",
    ) == "[]"
    # Noise 1 moves some nodes nearer another node's counterpart: the
    # certificate fails and scipy solves the assignment.
    assert _scipy_modules_after(tmp_path, "baseline --index wasserstein", noise="1") != "[]"
    euclidean = "baseline --index knn-jaccard --k 3 --metric euclidean"
    assert _scipy_modules_after(tmp_path, euclidean) != "[]"


def test_validate_reports_shapes(workspace):
    result = _run(["validate", "--manifest", str(workspace / "manifest.json")])
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["ok"] is True
    assert doc["n_configs"] == 3
    assert doc["node_count"] == 40
    assert doc["dims"] == [5, 5, 5]


def test_ggi_runs_and_reports(workspace):
    result = _run(["ggi", "--manifest", str(workspace / "manifest.json")])
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["index_name"] == "ggi"
    assert doc["index_percent"] == pytest.approx(doc["index_value"] * 100.0)
    assert len(doc["per_config"]) == 3
    assert doc["options"] == {"preprocess": True, "std": "population"}
    assert "timings" not in doc


def test_reports_are_byte_identical_across_runs(workspace):
    argv = ["ggi", "--manifest", str(workspace / "manifest.json")]
    first = _run(argv)
    second = _run(argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty


def test_timings_flag_adds_wall_clock(workspace):
    result = _run(["ggi", "--manifest", str(workspace / "manifest.json"), "--timings"])
    doc = json.loads(result.stdout)
    assert doc["timings"]["wall_seconds"] > 0.0


def test_no_preprocess_changes_scores(workspace):
    raw = _run(["ggi", "--manifest", str(workspace / "manifest.json"), "--no-preprocess"])
    cooked = _run(["ggi", "--manifest", str(workspace / "manifest.json")])
    doc_raw = json.loads(raw.stdout)
    doc_cooked = json.loads(cooked.stdout)
    assert doc_raw["options"]["preprocess"] is False
    assert doc_raw["per_config"][0]["score"] != doc_cooked["per_config"][0]["score"]


def test_out_writes_file_and_keeps_stdout_quiet(workspace, tmp_path):
    out = tmp_path / "report.json"
    result = _run([
        "ggi", "--manifest", str(workspace / "manifest.json"), "--out", str(out),
    ])
    assert result.returncode == 0
    assert result.stdout == ""
    assert json.loads(out.read_text())["index_name"] == "ggi"


@pytest.mark.parametrize(
    "index",
    ["aligned-cosine", "knn-jaccard", "second-order-cosine", "hausdorff", "wasserstein"],
)
def test_every_baseline_runs(workspace, index):
    neighbors = index in ("knn-jaccard", "second-order-cosine")
    for flags, options in (
        ([], {"preprocess": False, "k": 5, "metric": "cosine"}),
        (["--metric", "euclidean", "--preprocess"],
         {"preprocess": True, "k": 5, "metric": "euclidean"}),
    ):
        result = _run([
            "baseline", "--manifest", str(workspace / "manifest.json"),
            "--index", index, "--k", "5", *flags,
        ])
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        assert doc["index_name"] == index
        assert len(doc["per_pair"]) == 3  # 3 configs -> 3 unordered pairs
        pairs = [tuple(entry["pair"]) for entry in doc["per_pair"]]
        assert pairs == [(0, 1), (0, 2), (1, 2)]
        # k and metric are options of the kNN indices only; order counts too.
        if not neighbors:
            options = {"preprocess": options["preprocess"]}
        assert list(doc["options"].items()) == list(options.items())


def test_baseline_reports_are_deterministic(workspace):
    argv = [
        "baseline", "--manifest", str(workspace / "manifest.json"),
        "--index", "wasserstein",
    ]
    assert _run(argv).stdout == _run(argv).stdout


def test_missing_manifest_is_exit_2():
    # A missing input file is an input problem, not an internal one.
    result = _run(["ggi", "--manifest", "/nonexistent/manifest.json"])
    assert result.returncode == 2
    assert result.stderr


def test_usage_errors_exit_2():
    assert _run(["ggi"]).returncode == 2  # --manifest required
    assert _run(["frobnicate"]).returncode == 2
    assert _run(["baseline", "--manifest", "x", "--index", "nope"]).returncode == 2


def test_truncated_embedding_exits_2_with_named_error(workspace, tmp_path):
    manifest = load_manifest(workspace / "manifest.json")
    clipped = tmp_path / "clipped.gge1"
    clipped.write_bytes(manifest.embedding_paths[0].read_bytes()[:-16])
    doc = {
        "graph_path": str(manifest.graph_path),
        "node_id_map": str(manifest.node_id_map),
        "embedding_paths": [str(clipped), str(manifest.embedding_paths[1])],
        "labels": ["clipped", "b"],
    }
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(doc))
    result = _run(["ggi", "--manifest", str(bad)])
    assert result.returncode == 2
    assert "truncated" in result.stderr.lower()


def test_overflowing_raw_scores_exit_2_with_named_error(tmp_path):
    # Finite entries near 1e200 pass input validation, but their inner
    # products overflow float64; without preprocessing the edge summary
    # is not finite. That is an input problem, named, not a crash.
    rng = np.random.default_rng(5)
    (tmp_path / "g.edges").write_text("0 1\n1 2\n2 3\n3 0\n")
    for name in ("a", "b"):
        save_embeddings(tmp_path / f"{name}.gge1", 1e200 * rng.normal(size=(4, 3)))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "graph_path": "g.edges", "embedding_paths": ["a.gge1", "b.gge1"],
    }))
    result = _run(["ggi", "--manifest", str(manifest), "--no-preprocess"])
    assert result.returncode == 2, result.stderr
    assert "config 0" in result.stderr
    assert "internal error" not in result.stderr
    assert result.stdout == ""


def test_baseline_score_past_float64_exits_2_with_named_error(tmp_path):
    # Every entry is finite, but the Wasserstein distance of these clouds
    # is past the float64 range: a named input error, not a crash.
    rng = np.random.default_rng(3)
    (tmp_path / "g.edges").write_text("".join(f"{i} {i + 1}\n" for i in range(59)))
    save_embeddings(tmp_path / "a.gge1", 1e307 * rng.normal(size=(60, 8)))
    save_embeddings(tmp_path / "b.gge1", 1e307 * (rng.normal(size=(60, 8)) + 2.0))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "graph_path": "g.edges", "embedding_paths": ["a.gge1", "b.gge1"],
    }))
    result = _run(["baseline", "--manifest", str(manifest), "--index", "wasserstein"])
    assert result.returncode == 2, result.stderr
    assert "wasserstein: pair (0, 1)" in result.stderr
    assert result.stdout == ""


def test_baseline_preprocess_overflow_exits_2_with_named_error(tmp_path):
    # Every entry is finite, but column 0's sum is not: centering fails, and
    # each baseline names it as ggi does, not as a non-finite input.
    rng = np.random.default_rng(6)
    (tmp_path / "g.edges").write_text("".join(f"{i} {i + 1}\n" for i in range(49)))
    names = [f"c{idx}.gge1" for idx in range(3)]
    for name in names:
        values = rng.normal(size=(50, 4))
        values[:, 0] = 1.7e308
        save_embeddings(tmp_path / name, values)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"graph_path": "g.edges", "embedding_paths": names}))
    for index in ("aligned-cosine", "knn-jaccard", "second-order-cosine", "hausdorff",
                  "wasserstein"):
        result = _run(["baseline", "--manifest", str(manifest), "--index", index,
                       "--k", "3", "--preprocess"])
        assert result.returncode == 2, result.stderr
        assert "config 0: " in result.stderr
        assert ("the entries are too large for float64 arithmetic (rescale the embeddings)"
                in result.stderr)
        assert result.stdout == ""


def test_aliased_embedding_paths_exit_2(workspace, tmp_path):
    # "c0.gge1" and "./c0.gge1" are one file; scoring it twice would
    # report index_value 0.0, "perfectly stable".
    manifest = load_manifest(workspace / "manifest.json")
    (tmp_path / "c0.gge1").write_bytes(manifest.embedding_paths[0].read_bytes())
    doc = {
        "graph_path": str(manifest.graph_path),
        "node_id_map": str(manifest.node_id_map),
        "embedding_paths": ["c0.gge1", "./c0.gge1"],
    }
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(doc))
    result = _run(["ggi", "--manifest", str(bad)])
    assert result.returncode == 2
    assert "distinct" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize(
    "fields, key",
    [
        ({"embedding_paths": [1, 2]}, "embedding_paths"),
        ({"graph_path": 7}, "graph_path"),
        ({"node_id_map": 3}, "node_id_map"),
        ({"labels": 5}, "labels"),
    ],
)
def test_manifest_field_of_wrong_type_exits_2(workspace, tmp_path, fields, key):
    manifest = load_manifest(workspace / "manifest.json")
    doc = {
        "graph_path": str(manifest.graph_path),
        "node_id_map": str(manifest.node_id_map),
        "embedding_paths": [str(p) for p in manifest.embedding_paths],
        **fields,
    }
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(doc))
    result = _run(["ggi", "--manifest", str(bad)])
    assert result.returncode == 2
    assert key in result.stderr
    assert "internal error" not in result.stderr
    assert result.stdout == ""


def test_non_bijective_id_map_exits_2(workspace, tmp_path):
    manifest = load_manifest(workspace / "manifest.json")
    ids = tmp_path / "ids.json"
    ids.write_text(json.dumps({str(i): 0 for i in range(40)}))
    doc = {
        "graph_path": str(manifest.graph_path),
        "node_id_map": str(ids),
        "embedding_paths": [str(p) for p in manifest.embedding_paths],
    }
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(doc))
    result = _run(["ggi", "--manifest", str(bad)])
    assert result.returncode == 2
    assert "bijection" in result.stderr.lower()


def test_node_id_beyond_int64_exits_2(workspace, tmp_path):
    manifest = load_manifest(workspace / "manifest.json")
    graph = tmp_path / "big.edges"
    graph.write_text("0 1\n99999999999999999999 1\n")
    doc = {
        "graph_path": str(graph),
        "embedding_paths": [str(p) for p in manifest.embedding_paths],
    }
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(doc))
    result = _run(["ggi", "--manifest", str(bad)])
    assert result.returncode == 2
    assert f"{graph}:2:" in result.stderr


def test_k_at_node_count_exits_2(workspace):
    result = _run([
        "baseline", "--manifest", str(workspace / "manifest.json"),
        "--index", "knn-jaccard", "--k", "40",
    ])
    assert result.returncode == 2
    assert "k=40" in result.stderr


def test_run_cli_in_process_matches_subprocess(workspace, capsys):
    code = run_cli(["validate", "--manifest", str(workspace / "manifest.json")])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["ok"] is True


def test_version_flag():
    result = _run(["--version"])
    assert result.returncode == 0
    assert result.stdout.strip()


def test_synth_manifest_loads_csv_too(tmp_path):
    # A hand-built manifest mixing CSV and GGE1 embeddings still works.
    rng = np.random.default_rng(0)
    g = tmp_path / "g.edges"
    g.write_text("0 1\n1 2\n2 3\n")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.gge1"
    save_embeddings(a, rng.normal(size=(4, 3)), fmt="csv")
    save_embeddings(b, rng.normal(size=(4, 3)), fmt="gge1")
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "graph_path": "g.edges",
        "embedding_paths": ["a.csv", "b.gge1"],
    }))
    result = _run(["ggi", "--manifest", str(manifest)])
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["n_configs"] == 2


def _manifest_doc(workspace) -> dict:
    manifest = load_manifest(workspace / "manifest.json")
    return {
        "graph_path": str(manifest.graph_path),
        "node_id_map": str(manifest.node_id_map),
        "embedding_paths": [str(p) for p in manifest.embedding_paths],
    }


@pytest.mark.parametrize("bad_file", ["embedding", "edge list", "manifest", "id map"])
def test_non_utf8_input_exits_2_with_named_error(workspace, tmp_path, bad_file):
    doc = _manifest_doc(workspace)
    path = tmp_path / "manifest.json"
    where = str(path)
    if bad_file == "embedding":
        # A NumPy .npy file is neither GGE1 nor UTF-8 CSV.
        npy = tmp_path / "run.npy"
        np.save(npy, np.ones((40, 5)))
        doc["embedding_paths"][1] = str(npy)
        where = f"{npy}:1:"
    elif bad_file == "edge list":
        graph = tmp_path / "g.edges"
        lines = Path(doc["graph_path"]).read_bytes().splitlines(keepends=True)
        graph.write_bytes(b"".join(lines[:3]) + b"# caf\xe9\n" + b"".join(lines[3:]))
        doc["graph_path"] = str(graph)
        where = f"{graph}:4:"
    elif bad_file == "id map":
        ids = tmp_path / "ids.json"
        ids.write_bytes(b'{"0": 0, "1\xff": 1}')
        doc["node_id_map"] = str(ids)
        where = str(ids)
    text = json.dumps(doc).encode()
    if bad_file == "manifest":
        text = text[:-1] + b', "note": "\xff"}'
    path.write_bytes(text)
    result = _run(["ggi", "--manifest", str(path)])
    assert result.returncode == 2, result.stderr
    assert "internal error" not in result.stderr
    assert where in result.stderr
    assert "utf-8" in result.stderr.lower()
    assert result.stdout == ""


@pytest.mark.parametrize("fmt", ["gge1", "csv"])
def test_report_hashes_are_the_input_files_sha256(tmp_path, fmt):
    rng = np.random.default_rng(2)
    (tmp_path / "g.edges").write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
    names = [f"c{i}.{fmt}" for i in range(3)]
    for name in names:
        save_embeddings(tmp_path / name, rng.normal(size=(5, 3)), fmt=fmt)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"graph_path": "g.edges", "embedding_paths": names}))

    def digest(name):
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    for argv in (["ggi"], ["baseline", "--index", "aligned-cosine"]):
        result = _run([*argv, "--manifest", str(manifest)])
        assert result.returncode == 0, result.stderr
        inputs = json.loads(result.stdout)["inputs"]
        assert inputs["graph_sha256"] == digest("g.edges")
        assert inputs["embeddings_sha256"] == [digest(name) for name in names]


@pytest.mark.parametrize("argv", [["ggi"], ["baseline", "--index", "hausdorff"], ["validate"]])
def test_configuration_with_a_missing_row_exits_2(workspace, tmp_path, argv):
    # Every command names the short configuration against the graph, also
    # when it is config 0 and the others agree with the graph, not with it.
    for idx in (1, 0):
        doc = _manifest_doc(workspace)
        short = tmp_path / f"short{idx}.gge1"
        save_embeddings(short, load_embeddings(doc["embedding_paths"][idx])[:-1])
        doc["embedding_paths"][idx] = str(short)
        path = tmp_path / f"manifest{idx}.json"
        path.write_text(json.dumps(doc))
        result = _run([*argv, "--manifest", str(path)])
        assert result.returncode == 2, result.stderr
        assert f"config {idx} has 39 rows but the graph has 40 nodes" in result.stderr
        assert result.stdout == ""


def test_validate_holds_one_configuration_at_a_time(tmp_path):
    nodes, dim, configs = 5000, 64, 6
    assert run_cli([
        "synth", "--nodes", str(nodes), "--dim", str(dim), "--configs", str(configs),
        "--avg-degree", "7", "--out-dir", str(tmp_path),
    ]) == 0
    manifest = str(tmp_path / "manifest.json")
    edges = load_edge_list(tmp_path / "graph.edges").graph.edges.nbytes
    budget = 2 * nodes * dim * 8 + edges
    tracemalloc.start()
    try:
        code = run_cli(["validate", "--manifest", manifest, "--out", str(tmp_path / "v.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads((tmp_path / "v.json").read_text())["dims"] == [dim] * configs
    # Loading all six matrices at once peaks at about three times this.
    assert peak < budget, (peak, budget)


def _broken_manifest(workspace, tmp_path, fault):
    """A manifest path for one of the inputs the hashing thread must not
    outlive, and the stderr the command must print for it."""
    doc = _manifest_doc(workspace)
    if fault == "missing embedding":
        doc["embedding_paths"][1] = str(tmp_path / "absent.gge1")
        stderr = f"gramstab: error: [Errno 2] No such file or directory: '{tmp_path / 'absent.gge1'}'\n"
    elif fault == "missing graph":
        doc["graph_path"] = str(tmp_path / "absent.edges")
        stderr = f"gramstab: error: [Errno 2] No such file or directory: '{tmp_path / 'absent.edges'}'\n"
    elif fault == "truncated gge1":
        clipped = tmp_path / "clipped.gge1"
        data = Path(doc["embedding_paths"][2]).read_bytes()
        clipped.write_bytes(data[:-16])
        doc["embedding_paths"][2] = str(clipped)
        stderr = (f"gramstab: error: {clipped}: truncated file, expected {len(data)} bytes "
                  f"but found {len(data) - 16}\n")
    else:
        assert fault == "short config 1"
        short = tmp_path / "short.gge1"
        save_embeddings(short, load_embeddings(doc["embedding_paths"][1])[:-1])
        doc["embedding_paths"][1] = str(short)
        stderr = "gramstab: error: config 1 has 39 rows but the graph has 40 nodes\n"
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return path, stderr


_FAULTS = ["missing embedding", "missing graph", "truncated gge1", "short config 1"]
_HASHING_COMMANDS = [["ggi"], ["baseline", "--index", "aligned-cosine"]]


@pytest.mark.parametrize("argv", _HASHING_COMMANDS)
@pytest.mark.parametrize("fault", [None, *_FAULTS])
def test_hashing_thread_is_joined_on_every_exit(workspace, tmp_path, capsys, argv, fault):
    if fault is None:
        manifest, stderr = workspace / "manifest.json", ""
    else:
        manifest, stderr = _broken_manifest(workspace, tmp_path, fault)
    before = threading.active_count()
    code = run_cli([*argv, "--manifest", str(manifest)])
    assert threading.active_count() == before
    captured = capsys.readouterr()
    assert (code, captured.err) == (0 if fault is None else 2, stderr)
    if fault is None:
        assert json.loads(captured.out)["inputs"]["embeddings_sha256"][2] == hashlib.sha256(
            (workspace / "config_02.gge1").read_bytes()).hexdigest()
    else:
        assert captured.out == ""


def test_reports_with_hashing_thread_survive_fast_thread_switches(workspace, capsys):
    # The hashing thread hands its digests over through join(); switching
    # threads every microsecond must not change a report byte.
    argv = ["ggi", "--manifest", str(workspace / "manifest.json")]
    expected = _run(argv).stdout
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert run_cli(argv) == 0
            assert capsys.readouterr().out == expected
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("argv", _HASHING_COMMANDS)
def test_hashing_error_is_raised_only_from_the_report(workspace, tmp_path, capsys,
                                                       monkeypatch, argv):
    def unreadable(path, stop=None):
        raise PermissionError(f"cannot hash {Path(path).name}")

    monkeypatch.setattr(cli_mod, "sha256_file", unreadable)
    code = run_cli([*argv, "--manifest", str(workspace / "manifest.json")])
    assert (code, capsys.readouterr()) == (2, ("", "gramstab: error: cannot hash graph.edges\n"))
    # The loaders' own error is the one reported, though hashing failed first.
    manifest, stderr = _broken_manifest(workspace, tmp_path, "short config 1")
    code = run_cli([*argv, "--manifest", str(manifest)])
    assert (code, capsys.readouterr()) == (2, ("", stderr))


@pytest.mark.parametrize("argv", _HASHING_COMMANDS)
def test_error_exit_stops_hashing_at_the_next_read(workspace, tmp_path, capsys,
                                                   monkeypatch, argv):
    hashed, stopped = [], []

    def slow_first_file(path, stop=None):
        # Stands in for a read of a large graph: it returns only once the
        # command has failed and asked the thread to stop.
        hashed.append(Path(path))
        stopped.append(stop.wait(timeout=30))
        return None

    monkeypatch.setattr(cli_mod, "sha256_file", slow_first_file)
    manifest, stderr = _broken_manifest(workspace, tmp_path, "short config 1")
    before = threading.active_count()
    code = run_cli([*argv, "--manifest", str(manifest)])
    assert threading.active_count() == before
    assert (code, capsys.readouterr().err) == (2, stderr)
    assert stopped == [True]
    assert hashed == [load_manifest(manifest).graph_path]
