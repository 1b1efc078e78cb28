"""Command line behavior: pipelines, determinism, exit codes."""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gramstab import (
    InternalInvariant,
    load_edge_list,
    load_embeddings,
    load_manifest,
    save_embeddings,
)
import gramstab.cli as cli_mod
import gramstab.core as core_mod
import gramstab.transforms as transforms_mod
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
    assert (result.returncode, result.stderr) == (0, "")
    return out


def test_synth_writes_complete_ensemble(workspace):
    manifest = load_manifest(workspace / "manifest.json")
    assert len(manifest.embedding_paths) == 3
    assert manifest.graph_path.exists()
    assert manifest.node_id_map is not None and manifest.node_id_map.exists()
    for path in manifest.embedding_paths:
        assert path.exists()
    assert json.loads((workspace / "manifest.json").read_text())["generator"]["seed"] == 17


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


# Digests of every file synth writes with --nodes 60 --avg-degree 4 --dim 3
# --configs 3 --noise 0.1 --seed 23.
def test_synth_output_bytes_are_pinned(tmp_path):
    code = run_cli([
        "synth", "--nodes", "60", "--avg-degree", "4", "--dim", "3", "--configs", "3",
        "--noise", "0.1", "--seed", "23", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    assert {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    } == {
        "config_00.gge1": "cdbf8719d3788900d5d9a1896d850b391bc4cb90c50f28cb0c468cb936afe9de",
        "config_01.gge1": "8c7f496c7358fc3b04f157ad3c0ccc6e7a55b5249348d3fb9fcdd07d6feb7d00",
        "config_02.gge1": "820898e5c2cc9f4ed4809c31a9a89a8360f9fb6becd4747d60a07e70570b89df",
        "graph.edges": "b6e0225ad71a1b7929b5ace8720c6e116538450d5cfc8cf78061ec2478575134",
        "ids.json": "3cf229608fd82b0a8b378fa72dc63d98b7be4fc0eafba28e5bf8ae7cdf48c0bf",
        "manifest.json": "62aea1298fc12e4597472a492e8b38bc53cbd01776f765f4e7750093de55d355",
    }


# Digests of the reports on the ensemble above, run from its directory with
# --manifest manifest.json so the bytes do not depend on where the ensemble
# was written. Each case keeps a fixed number in its test id, so removing
# one case leaves the ids of the others as they were.
@pytest.mark.parametrize("argv, digest", [
    pytest.param(argv, digest, id=f"argv{number}-{digest}")
    for number, argv, digest in [
        (0, ["ggi"], "97f367cd7436e03b7f4b4b348d823eec8f06c78837ccbb97f2b63ed58bd510a4"),
        (3, ["validate"], "8941b8735ee3f263dbb874d156f4bc73a4dcc1589df565ae8b0afc37ca06e9ce"),
        (4, ["baseline", "--index", "aligned-cosine"],
         "014ed4ccf9aa41fb295adc5c8fd0f012a59ee6221ac402069b7d8f5d9b24ac40"),
        (5, ["baseline", "--index", "knn-jaccard"],
         "be7625c5b509039b0858a8b3b772ec52697a629a71ac218e7a7042f2878f7166"),
        (6, ["baseline", "--index", "knn-jaccard", "--preprocess"],
         "2f094cc17f5c0ceca3e84447b3782972b0d2a0ba49e4b12aea20779d2874b1fa"),
        (7, ["baseline", "--index", "knn-jaccard", "--metric", "euclidean"],
         "28c5bff00613c189df7d3291888326a11c921a8ce6dcd2cfeeb4c352a8bf328f"),
        (8, ["baseline", "--index", "second-order-cosine"],
         "2e61b2022f8f677aa191bb5147f2ed6829aa732717ab4649e0822ff0a66b10ec"),
        (9, ["baseline", "--index", "second-order-cosine", "--preprocess"],
         "bd56cd9be9b215bdd68c15351551fce674daebbdcc9670b4129c3fac4f8753f3"),
        (10, ["baseline", "--index", "second-order-cosine", "--metric", "euclidean"],
         "37239b31bcb217878c108b841e0a44a6f53a8e65c9a35ba0c417eef702fd1dd5"),
        (11, ["baseline", "--index", "hausdorff"],
         "f3846faffc345ae6dc3f8a129ad83aff40d7056f4eb4a66b96d7dbcc4d2e0888"),
        (12, ["baseline", "--index", "wasserstein"],
         "72829fba1e67ca90b60c7c0efab6d6dc85343bc688a839bde986725c519717ca"),
    ]
])
def test_report_bytes_are_pinned(tmp_path, monkeypatch, capsys, argv, digest):
    monkeypatch.chdir(tmp_path)
    _synth_report_ensemble()
    capsys.readouterr()
    assert run_cli([*argv, "--manifest", "manifest.json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _synth_report_ensemble():
    """The ensemble behind the pinned reports, written to the working directory."""
    assert run_cli([
        "synth", "--nodes", "60", "--avg-degree", "4", "--dim", "3", "--configs", "3",
        "--noise", "0.1", "--seed", "23", "--out-dir", ".",
    ]) == 0


# Synth's identity id map takes the dense table. These maps rename node j
# of the ensemble above to id KEY(j) at row 7j mod 60, in both the edge
# list and the id map: sparse negative ids take the binary search, and an
# id of 2**64 takes the rescan. validate reports only counts, so its bytes
# are the identity map's.
_RENAMED_IDS = {
    "sparse": lambda j: 1009 * (j - 30),
    "past int64": lambda j: 2**64 if j == 30 else j,
}


@pytest.mark.parametrize("ids, argv, digest", [
    ("sparse", ["validate"], "8941b8735ee3f263dbb874d156f4bc73a4dcc1589df565ae8b0afc37ca06e9ce"),
    ("sparse", ["ggi"], "2e898bdec2305ba72eda0d383bb0676bfadaf9bdcb3cea4eb42f7eee7f067ed0"),
    ("past int64", ["validate"],
     "8941b8735ee3f263dbb874d156f4bc73a4dcc1589df565ae8b0afc37ca06e9ce"),
    ("past int64", ["ggi"], "8158f374e498b37c25eff423b7e854aa6b60f21d51be7ce2dfa7ae980f072fc7"),
])
def test_report_bytes_through_an_id_map_are_pinned(tmp_path, monkeypatch, capsys, ids, argv,
                                                   digest):
    monkeypatch.chdir(tmp_path)
    _synth_report_ensemble()
    capsys.readouterr()
    key = _RENAMED_IDS[ids]
    Path("ids.json").write_text(json.dumps({str(key(j)): 7 * j % 60 for j in range(60)}))
    header, *lines = Path("graph.edges").read_text().splitlines(keepends=True)
    Path("graph.edges").write_text(header + "".join(
        f"{key(int(a))} {key(int(b))}\n" for a, b in map(str.split, lines)))
    assert run_cli([*argv, "--manifest", "manifest.json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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
    assert (result.returncode, result.stderr) == (0, "")
    doc = json.loads(result.stdout)
    assert doc["n_configs"] == 3
    assert doc["node_count"] == 40
    assert doc["dims"] == [5, 5, 5]


def test_ggi_runs_and_reports(workspace):
    result = _run(["ggi", "--manifest", str(workspace / "manifest.json")])
    assert (result.returncode, result.stderr) == (0, "")
    doc = json.loads(result.stdout)
    assert doc["index_name"] == "ggi"
    assert doc["index_percent"] == pytest.approx(doc["index_value"] * 100.0)
    assert len(doc["per_config"]) == 3
    assert "timings" not in doc


def test_reports_are_byte_identical_across_runs(workspace):
    argv = ["ggi", "--manifest", str(workspace / "manifest.json")]
    first = _run(argv)
    second = _run(argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty


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
        assert (result.returncode, result.stderr) == (0, "")
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


@pytest.fixture(scope="module")
def suite_manifest(tmp_path_factory):
    """The manifest of an ensemble at perfbench's baseline-suite shape."""
    out = tmp_path_factory.mktemp("suite")
    assert run_cli([
        "synth", "--nodes", "1000", "--dim", "32", "--configs", "5",
        "--noise", "0.1", "--seed", "5", "--out-dir", str(out),
    ]) == 0
    return out / "manifest.json"


@pytest.fixture(scope="module")
def duplicated_rows_manifest(tmp_path_factory):
    """The manifest of 3 configurations of 500 x 128 Gaussian rows whose rows
    0, 7, 14, ... copy row 1, over a path through the 500 nodes."""
    out = tmp_path_factory.mktemp("duplicated")
    rng = np.random.default_rng(0)
    names = [f"c{idx}.gge1" for idx in range(3)]
    for name in names:
        values = rng.normal(size=(500, 128))
        values[::7] = values[1]
        save_embeddings(out / name, values)
    (out / "g.edges").write_text("".join(f"{i} {i + 1}\n" for i in range(499)))
    (out / "manifest.json").write_text(
        json.dumps({"graph_path": "g.edges", "embedding_paths": names}))
    return out / "manifest.json"


@pytest.fixture(scope="module")
def spans_manifest(tmp_path_factory):
    """The manifest of an ensemble large enough that ggi splits both its
    edge gather (20k edges) and its center-normalize passes (5000 rows)
    over two CPUs."""
    out = tmp_path_factory.mktemp("spans")
    assert run_cli([
        "synth", "--nodes", "5000", "--dim", "32", "--configs", "3",
        "--noise", "0.1", "--seed", "2", "--out-dir", str(out),
    ]) == 0
    return out / "manifest.json"


def test_aligned_cosine_report_does_not_depend_on_blas_threads(suite_manifest):
    # A BLAS product summed over all |V| rows, such as the Procrustes cross
    # matrix, can round differently on one thread and on two; at this size
    # that moved most pair scores in their last digits.
    argv = [sys.executable, "-m", "gramstab.cli", "baseline",
            "--manifest", str(suite_manifest), "--index", "aligned-cosine"]
    reports = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        result = subprocess.run(argv, capture_output=True, env=env)
        assert result.returncode == 0, result.stderr
        reports.append(result.stdout)
    assert reports[0] == reports[1]


# Pins itself to one CPU before numpy loads, so that OpenBLAS starts one
# thread and ggi scores in one span, then runs the command line.
_ONE_CPU_CHILD = (
    "import os, sys\n"
    "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
    "from gramstab.cli import main\n"
    "main()\n"
)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
@pytest.mark.parametrize("manifest, argv", [
    pytest.param("suite_manifest", ["ggi"], id="ggi"),
    # At the suite's shape ggi scores in one span whatever the CPU count.
    pytest.param("spans_manifest", ["ggi"], id="ggi-spans"),
    *(pytest.param("suite_manifest", ["baseline", "--index", index], id=index) for index in (
        "aligned-cosine", "knn-jaccard", "second-order-cosine", "hausdorff", "wasserstein")),
    # Exactly duplicated rows get cosines that differ in the last bit by
    # column position, block shape and BLAS thread count, so their kNN order
    # does too (ROADMAP item 14). Kept here so that the data above hides no
    # known failure; once duplicates tie exactly, the strict mark fails the
    # suite until it is dropped.
    pytest.param("duplicated_rows_manifest", ["baseline", "--index", "knn-jaccard"],
                 id="knn-jaccard-duplicated-rows",
                 marks=pytest.mark.xfail(strict=True, reason="kNN order of duplicated rows")),
])
def test_reports_do_not_depend_on_cpus_or_blas_threads(request, manifest, argv):
    command = [*argv, "--manifest", str(request.getfixturevalue(manifest))]
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    cli = [sys.executable, "-m", "gramstab.cli", *command]
    runs = [
        (cli, {**env, "OPENBLAS_NUM_THREADS": "1"}),
        (cli, {**env, "OPENBLAS_NUM_THREADS": "2"}),
        ([sys.executable, "-c", _ONE_CPU_CHILD, *command], env),
    ]
    reports = []
    for child, child_env in runs:
        result = subprocess.run(child, capture_output=True, env=child_env)
        assert result.returncode == 0, result.stderr
        reports.append(result.stdout)
    assert reports[0] == reports[1] == reports[2]


def test_missing_manifest_is_exit_2():
    # A missing input file is an input problem, not an internal one.
    result = _run(["ggi", "--manifest", "/nonexistent/manifest.json"])
    assert result.returncode == 2
    assert result.stderr


def test_usage_errors_exit_2():
    assert _run(["ggi"]).returncode == 2  # --manifest required
    assert _run(["frobnicate"]).returncode == 2
    assert _run(["baseline", "--manifest", "x", "--index", "nope"]).returncode == 2
    # Removed options: GGI always preprocesses and is the population std, a
    # report holds no wall-clock reading, and synth draws noisy copies only.
    for argv, unrecognized in (
        (["ggi", "--manifest", "x", "--no-preprocess"], "--no-preprocess"),
        (["ggi", "--manifest", "x", "--std", "sample"], "--std sample"),
        (["ggi", "--manifest", "x", "--timings"], "--timings"),
        (["baseline", "--manifest", "x", "--index", "hausdorff", "--timings"], "--timings"),
        (["synth", "--nodes", "30", "--dim", "3", "--configs", "3", "--out-dir", "x",
          "--transform", "orthogonal"], "--transform orthogonal"),
    ):
        removed = _run(argv)
        assert (removed.returncode, removed.stdout) == (2, ""), argv
        assert removed.stderr.splitlines() == [
            "usage: gramstab [-h] [--version] {ggi,baseline,synth,validate} ...",
            f"gramstab: error: unrecognized arguments: {unrecognized}",
        ]


def _readme_commands() -> list[list[str]]:
    """The arguments of each ``gramstab`` line in README's fenced code
    blocks, with backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("gramstab ")]


def test_readme_cli_lines_parse(capsys):
    # A README that still shows a removed flag fails here, not in a user's shell.
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {"synth", "validate", "ggi", "baseline"}
    parser = cli_mod.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: gramstab {shlex.join(argv)}\n"
                        f"{capsys.readouterr().err}")


def _readme_report_fields() -> dict[str, list[str]]:
    """The field names README's Reports section lists, in order: under
    ``""`` the head every report shares, then one list per ``### `name```
    heading."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Reports\n", 1)[1].split("\n## ", 1)[0]
    fields = {"": []}
    heading = ""
    for line in section.splitlines():
        if match := re.match(r"### `(\w+)`", line):
            heading = match[1]
            fields[heading] = []
        elif match := re.match(r"- `(\w+)`:", line):
            fields[heading].append(match[1])
    return fields


def test_readme_report_fields_are_the_written_keys(tmp_path, monkeypatch, capsys):
    # A field added to or dropped from a report fails here until README says so.
    monkeypatch.chdir(tmp_path)
    _synth_report_ensemble()
    fields = _readme_report_fields()
    head = fields.pop("")
    generator = json.loads(Path("manifest.json").read_text())["generator"]
    assert list(generator) == fields.pop("synth")
    assert set(fields) == {"ggi", "baseline", "validate"}
    for command, argv in (("ggi", []), ("validate", []),
                          ("baseline", ["--index", "knn-jaccard"])):
        capsys.readouterr()
        assert run_cli([command, *argv, "--manifest", "manifest.json"]) == 0
        assert list(json.loads(capsys.readouterr().out)) == head + fields[command]


@pytest.mark.parametrize("flag, value", [
    ("--configs", "1"), ("--configs", "-2"), ("--dim", "0"), ("--dim", "-1"),
    ("--avg-degree", "nan"), ("--avg-degree", "inf"), ("--avg-degree", "-5"),
    ("--noise", "-1"), ("--noise", "nan"), ("--seed", "-1"), ("--nodes", "1"),
    ("--nodes", "0"),
])
def test_synth_refuses_bad_arguments_before_writing(tmp_path, capsys, flag, value):
    # These used to write an ensemble that ggi, baseline and validate all
    # refuse, or to fail midway with an internal error, or to create
    # --out-dir before failing.
    argv = {"--nodes": "30", "--dim": "3", "--configs": "3", flag: value}
    code = run_cli(["synth", *(s for item in argv.items() for s in item),
                    "--out-dir", str(tmp_path / "ensemble")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"gramstab: error: {flag} must be") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


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
        assert len(result.stderr.splitlines()) == 1, result.stderr
        assert result.stdout == ""


@pytest.mark.parametrize("command", [["ggi"], ["baseline", "--index", "aligned-cosine",
                                               "--preprocess"]])
def test_overflow_prints_only_the_named_error(tmp_path, command):
    # numpy's overflow warnings quote the installed core.py's absolute path,
    # so they would make stderr differ between checkouts.
    rng = np.random.default_rng(8)
    (tmp_path / "g.edges").write_text("".join(f"{i} {i + 1}\n" for i in range(19)))
    names = [f"c{idx}.csv" for idx in range(3)]
    for name in names:
        values = rng.normal(size=(20, 3))
        values[:, 0] = 1.7e308
        save_embeddings(tmp_path / name, values, fmt="csv")
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"graph_path": "g.edges", "embedding_paths": names}))
    result = _run([*command, "--manifest", str(manifest)])
    assert result.returncode == 2, result.stderr
    [line] = result.stderr.splitlines()
    assert line.startswith("gramstab: error: config 0: "), line
    assert line.endswith("the entries are too large for float64 arithmetic (rescale the embeddings)")
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
        ({"node_id_map": ""}, "node_id_map"),
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
    assert json.loads(captured.out)["n_configs"] == 3


def test_every_synth_flag_has_help():
    synth = cli_mod.build_parser()._subparsers._group_actions[0].choices["synth"]
    assert all(action.help for action in synth._actions)


def test_internal_invariant_exits_3_with_one_line(workspace, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InternalInvariant("scores escaped their bound")

    monkeypatch.setattr(cli_mod, "ggi_index", broken)
    code = run_cli(["ggi", "--manifest", str(workspace / "manifest.json")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "gramstab: internal error: scores escaped their bound\n"


def test_unexpected_error_exits_3_with_one_line(workspace, monkeypatch, capsys):
    # Any exception that is neither an input problem nor an InternalInvariant
    # is a bug: exit 3 and its repr on one line, nothing on stdout.
    def broken(*args, **kwargs):
        raise RuntimeError("manifest reader broke")

    monkeypatch.setattr(cli_mod, "load_manifest", broken)
    code = run_cli(["ggi", "--manifest", str(workspace / "manifest.json")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "gramstab: internal error: RuntimeError('manifest reader broke')\n"


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


@pytest.mark.parametrize("command", ["ggi", "validate"])
@pytest.mark.parametrize("bad_file, text, message", [
    ("id map", '{"0": 0, "1": 1', "invalid JSON id map: "),
    ("id map", "[0, 1]", "id map must be a non-empty JSON object"),
    ("manifest", '["g.edges", "a.gge1", "b.gge1"]', "manifest must be a JSON object"),
    ("embedding", "\n  \n\n", "file contains no data rows"),
])
def test_malformed_input_file_exits_2_naming_it(workspace, tmp_path, capsys, command,
                                                bad_file, text, message):
    doc = _manifest_doc(workspace)
    manifest = tmp_path / "manifest.json"
    bad = {"id map": tmp_path / "ids.json", "manifest": manifest,
           "embedding": tmp_path / "blank.csv"}[bad_file]
    if bad_file == "id map":
        doc["node_id_map"] = str(bad)
    elif bad_file == "embedding":
        doc["embedding_paths"][1] = str(bad)
    manifest.write_text(json.dumps(doc))
    bad.write_text(text)  # the manifest itself is overwritten
    code = run_cli([command, "--manifest", str(manifest)])
    captured = capsys.readouterr()
    assert code == 2, captured.err
    [line] = captured.err.splitlines()
    assert line.startswith(f"gramstab: error: {bad}: {message}"), line
    assert captured.out == ""


def test_csv_with_blank_lines_between_rows_loads(workspace, tmp_path, capsys):
    doc = _manifest_doc(workspace)
    values = load_embeddings(doc["embedding_paths"][1])
    spaced = tmp_path / "spaced.csv"
    save_embeddings(spaced, values, fmt="csv")
    rows = spaced.read_text().splitlines()
    spaced.write_text("\n" + "\n\n".join(rows) + "\n  \n\n")
    assert np.array_equal(load_embeddings(spaced), values)
    doc["embedding_paths"][1] = str(spaced)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    reports = []
    for path in (workspace / "manifest.json", manifest):
        assert run_cli(["ggi", "--manifest", str(path)]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    scores = [[c["score"] for c in report["per_config"]] for report in reports]
    assert scores[1] == scores[0]
    assert reports[1]["index_value"] == reports[0]["index_value"]


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


def _synth_peak_and_budget(tmp_path, nodes, dim, configs, avg_degree):
    """The traced peak of a synth run and what its design holds: while the
    graph is drawn, one int64 key per candidate pair (four per edge) and
    one span of drawn pairs (16 bytes a row) with its temporaries; once
    the edges are written and dropped, the base and one configuration.
    The rest (the parser, the writers' digit tables) is under 512 KB."""
    draw = 4 * round(nodes * avg_degree / 2) * 8 + core_mod._SPAN_ELEMENTS * 24
    budget = max(draw, 2 * nodes * dim * 8) + 2**19
    np.random.default_rng(0)  # numpy imports numpy.random on first use, outside the trace
    tracemalloc.start()
    try:
        code = run_cli([
            "synth", "--nodes", str(nodes), "--dim", str(dim), "--configs", str(configs),
            "--avg-degree", str(avg_degree), "--noise", "0.1", "--out-dir", str(tmp_path),
        ])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(list(tmp_path.glob("config_*.gge1"))) == configs
    return peak, budget


def test_synth_holds_one_configuration_at_a_time(tmp_path):
    peak, budget = _synth_peak_and_budget(tmp_path, nodes=5000, dim=64, configs=6, avg_degree=7)
    # Drawing every configuration before writing the first holds the base
    # and all six: about three times this.
    assert peak < budget, (peak, budget)


def test_synth_draws_its_candidates_a_span_at_a_time(tmp_path):
    # 400k edges and small configurations: drawing all 1.6M candidate
    # pairs at once, 16 bytes each beside their key, peaks at about 2.6
    # times this.
    peak, budget = _synth_peak_and_budget(tmp_path, nodes=20000, dim=4, configs=2, avg_degree=40)
    assert peak < budget, (peak, budget)


def test_synth_drops_the_edges_before_the_base(tmp_path):
    # The base and one configuration (10.2 MB) outweigh the draw: keeping
    # the 3.2 MB of edges while they are drawn goes past this.
    peak, budget = _synth_peak_and_budget(tmp_path, nodes=20000, dim=32, configs=4, avg_degree=20)
    assert peak < budget, (peak, budget)


def test_synth_refuses_a_node_count_past_the_key_limit(tmp_path, capsys, monkeypatch):
    # Edge keys i * n + j overflow int64 past _KEY_NODES (about 3.04e9
    # nodes): synth refuses such a count before it draws or writes anything.
    def no_draw(*args):
        raise AssertionError("synth drew from a stream")

    monkeypatch.setattr(transforms_mod, "_stream", no_draw)
    out_dir = tmp_path / "D"
    code = run_cli(["synth", "--nodes", "4000000000", "--avg-degree", "0.000001", "--dim", "1",
                    "--configs", "2", "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (f"gramstab: error: edges are sorted by int64 keys i * node_count + j, so "
                   f"node_count must be <= {core_mod._KEY_NODES}, got 4000000000\n")
    assert not out_dir.exists()


def test_synth_refuses_a_graph_too_large_to_draw(tmp_path, capsys):
    # 1.5e18 edges need 4.8e19 bytes of candidate keys, past what numpy can
    # index: an input problem, refused before --out-dir is made. It used to
    # exit 3 with numpy's "array is too big".
    out_dir = tmp_path / "D"
    code = run_cli(["synth", "--nodes", "3000000000", "--avg-degree", "1e9", "--dim", "1",
                    "--configs", "2", "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "gramstab: error: 1500000000000000000 edges need 48000000000000000000 bytes of "
        "int64 candidate keys, more than can be allocated\n"
    )
    assert not out_dir.exists()


def test_synth_refuses_a_base_too_large_to_allocate(tmp_path, capsys):
    # A 1000 x 1e15 base needs 8e18 bytes: refused before --out-dir is made.
    # It used to exit 3 with numpy's MemoryError and leave graph.edges and
    # ids.json behind.
    out_dir = tmp_path / "D"
    code = run_cli(["synth", "--nodes", "1000", "--avg-degree", "2", "--dim", str(10**15),
                    "--configs", "2", "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "gramstab: error: a 1000 x 1000000000000000 base embedding needs "
        "8000000000000000000 bytes of float64 values, more than can be allocated\n"
    )
    assert not out_dir.exists()


@pytest.mark.parametrize("index", ["aligned-cosine", "knn-jaccard", "wasserstein"])
def test_baseline_preprocess_centers_the_loaded_arrays_in_place(tmp_path, index):
    # The loaded arrays belong to the command, so --preprocess centers them
    # in place: the peak holds no second copy of any configuration.
    nodes, dim, configs = 5000, 64, 3
    assert run_cli([
        "synth", "--nodes", str(nodes), "--dim", str(dim), "--configs", str(configs),
        "--noise", "0.1", "--out-dir", str(tmp_path),
    ]) == 0
    argv = ["baseline", "--manifest", str(tmp_path / "manifest.json"), "--index", index,
            "--out", str(tmp_path / "report.json")]
    peaks = []
    for flags in ([], ["--preprocess"]):
        tracemalloc.start()
        try:
            code = run_cli([*argv, *flags])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    # Centering copies of the three configurations adds about three matrices.
    extra = (peaks[1] - peaks[0]) / (nodes * dim * 8)
    assert extra < 0.5, extra


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
