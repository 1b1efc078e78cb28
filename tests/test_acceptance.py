"""Acceptance suite: one test per shipped guarantee, at stated tolerance.

Each test prints a single PASS line (visible with ``pytest -s``) naming
the guarantee and the tolerance it was checked at; pytest's own
per-test verdict provides the pass/fail line in ``-v`` output. The
scaled performance check runs in a subprocess so its memory tracing
sees nothing but the pipeline under test.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gramstab import (
    KTooLarge,
    NotABijection,
    TruncatedFile,
    aligned_cosine_index,
    apply_permutation,
    ggi_index,
    hausdorff_index,
    knn_jaccard_index,
    knn_neighbors,
    load_embeddings,
    load_id_map,
    procrustes_align,
    random_graph,
    random_orthogonal,
    second_order_cosine_index,
    synthetic_ensemble,
    wasserstein_index,
)
from gramstab.ggi import _edge_mean_inner

import oracles

HERE = Path(__file__).parent


def _run_cli(argv):
    return subprocess.run(
        [sys.executable, "-m", "gramstab.cli", *argv],
        capture_output=True,
        text=True,
    )


def test_criterion_01_invariance_suite():
    """GGI unchanged by permutation, rotation, translation, order: 1e-9."""
    rng = np.random.default_rng(20260821)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(10, 501))
        d = int(rng.integers(2, 65))
        n_configs = int(rng.integers(2, 11))
        graph = random_graph(n, min(6.0, float(n - 1)), seed=[1, trial])
        base = rng.normal(size=(n, d))
        configs = [
            base + rng.normal(0.0, 0.1, size=(n, d)) for _ in range(n_configs)
        ]
        reference = ggi_index(configs, graph).index_value

        # (a) one node permutation applied to every config and the edges
        sigma = np.random.default_rng([2, trial]).permutation(n)
        permuted, relabeled = [], graph
        for c in configs:
            pm, relabeled = apply_permutation(c, graph, sigma)
            permuted.append(pm)
        val = ggi_index(permuted, relabeled).index_value
        worst = max(worst, abs(val - reference))

        # (b) a fresh random orthogonal transform per configuration
        rotated = [
            c @ random_orthogonal(d, [3, trial, i])
            for i, c in enumerate(configs)
        ]
        val = ggi_index(rotated, graph).index_value
        worst = max(worst, abs(val - reference))

        # (c) a fresh translation per configuration
        shifted = [
            c + np.random.default_rng([4, trial, i]).normal(0.0, 3.0, size=d)
            for i, c in enumerate(configs)
        ]
        val = ggi_index(shifted, graph).index_value
        worst = max(worst, abs(val - reference))

        # (d) configuration order shuffle
        order = rng.permutation(n_configs)
        shuffled = [configs[i] for i in order]
        val = ggi_index(shuffled, graph).index_value
        worst = max(worst, abs(val - reference))

    assert worst <= 1e-9
    print(f"\nPASS invariance suite: 50 ensembles x 4 transforms, "
          f"worst |delta| = {worst:.3e} <= 1e-9")


def test_criterion_02_zero_dispersion_exact():
    """N identical configurations score exactly 0.0, every shape."""
    rng = np.random.default_rng(2)
    shapes = [(10, 2, 2), (33, 7, 3), (101, 16, 5), (250, 64, 10), (12, 3, 9)]
    for n, d, n_configs in shapes:
        graph = random_graph(n, 3.0, seed=[5, n])
        base = rng.normal(size=(n, d))
        ens = [base.copy() for _ in range(n_configs)]
        report = ggi_index(ens, graph)
        assert report.index_value == 0.0, (n, d, n_configs)
        assert report.index_percent == 0.0
    # The seeded generator's zero-noise path must hit the same guarantee.
    graph = random_graph(64, 4.0, seed=6)
    configs = synthetic_ensemble(graph.node_count, 8, 6, noise=0.0, seed=7)
    assert ggi_index(configs, graph).index_value == 0.0
    print(f"\nPASS zero dispersion: identical configs give exactly 0.0 "
          f"across {len(shapes) + 1} shapes")


def test_criterion_03_sparse_equals_dense_oracle():
    """Edge-indexed summary == dense masked-Gram summation: 1e-12."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 201))
        d = int(rng.integers(1, 33))
        graph = random_graph(n, min(5.0, float(n - 1)), seed=[8, trial])
        values = rng.normal(size=(n, d)) * float(rng.uniform(0.1, 10.0))
        fast = _edge_mean_inner(values, graph.edges)
        slow = oracles.dense_edge_summary(values, graph.edges, graph.node_count)
        worst = max(worst, abs(fast - slow))
    assert worst <= 1e-12
    print(f"\nPASS sparse/dense oracle: 100 graphs |V| <= 200, "
          f"worst |delta| = {worst:.3e} <= 1e-12")


def test_criterion_04_wasserstein_exactness():
    """Assignment solver == exhaustive permutation minimum: 1e-10."""
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(1, 5))
        a = rng.normal(size=(n, d))
        b = rng.normal(size=(n, d))
        fast = wasserstein_index([a, b]).per_pair[(0, 1)]
        slow = oracles.wasserstein_brute(a, b)
        worst = max(worst, abs(fast - slow))
    assert worst <= 1e-10
    print(f"\nPASS wasserstein exactness: 50 instances |V| <= 7, "
          f"worst |delta| = {worst:.3e} <= 1e-10")


def test_criterion_05_procrustes_recovery():
    """Planted rotations recovered: residual <= 1e-8, cosine = 1 +- 1e-8."""
    rng = np.random.default_rng(5)
    worst_residual = 0.0
    worst_cosine_gap = 0.0
    for trial in range(50):
        n = int(rng.integers(5, 120))
        d = int(rng.integers(2, 33))
        source = rng.normal(size=(n, d))
        planted = random_orthogonal(d, [9, trial])
        target = source @ planted
        q = procrustes_align(source, target).q
        worst_residual = max(worst_residual, float(np.linalg.norm(source @ q - target)))
        score = aligned_cosine_index([source, target]).per_pair[(0, 1)]
        worst_cosine_gap = max(worst_cosine_gap, abs(score - 1.0))
    assert worst_residual <= 1e-8
    assert worst_cosine_gap <= 1e-8
    print(f"\nPASS procrustes recovery: 50 planted rotations, worst residual "
          f"= {worst_residual:.3e} <= 1e-8, worst |cosine - 1| "
          f"= {worst_cosine_gap:.3e} <= 1e-8")


def test_criterion_06_baseline_definitional_oracles():
    """kNN-Jaccard, 2nd-order cosine, Hausdorff == brute force: 1e-12."""
    rng = np.random.default_rng(6)
    worst = {"knn-jaccard": 0.0, "second-order-cosine": 0.0, "hausdorff": 0.0}
    for trial in range(30):
        n = int(rng.integers(4, 51))
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(8, n)))
        a = rng.normal(size=(n, d))
        b = a + rng.normal(0.0, 0.4, size=(n, d))
        ens = [a, b]
        fast = knn_jaccard_index(ens, k).per_pair[(0, 1)]
        slow = oracles.jaccard_brute(a, b, k)
        worst["knn-jaccard"] = max(worst["knn-jaccard"], abs(fast - slow))

        fast = second_order_cosine_index(ens, k).per_pair[(0, 1)]
        slow = oracles.second_order_brute(a, b, k)
        worst["second-order-cosine"] = max(
            worst["second-order-cosine"], abs(fast - slow)
        )

        fast = hausdorff_index(ens).per_pair[(0, 1)]
        slow = oracles.hausdorff_brute(a, b)
        worst["hausdorff"] = max(worst["hausdorff"], abs(fast - slow))
    for name, gap in worst.items():
        assert gap <= 1e-12, name
    print(f"\nPASS baseline oracles: 30 instances |V| <= 50, worst deltas "
          + ", ".join(f"{k} = {v:.3e}" for k, v in worst.items())
          + " all <= 1e-12")


def test_criterion_07_noise_monotonicity():
    """GGI strictly increasing in noise for >= 4 of 5 seeds."""
    graph = random_graph(1000, 10.0, seed=99)
    passing = 0
    rows = []
    for seed in range(5):
        values = []
        for noise in (0.01, 0.1, 0.5):
            configs = synthetic_ensemble(graph.node_count, 32, 20, noise=noise, seed=seed)
            values.append(ggi_index(configs, graph).index_value)
        rows.append(values)
        passing += values[0] < values[1] < values[2]
    assert passing >= 4, rows
    print(f"\nPASS noise monotonicity: |V|=1000 d=32 N=20, strictly "
          f"increasing for {passing} of 5 seeds (need >= 4)")


def test_criterion_08_scaled_performance():
    """|V|=100k, d=128, |E|=1M, N=10: under 60 s, bounded memory."""
    result = subprocess.run(
        [sys.executable, str(HERE / "perf_driver.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    stats = json.loads(result.stdout)
    assert stats["n_edges"] == 1_000_000
    assert stats["n_configs"] == 10
    assert stats["wall_seconds"] < 60.0
    assert stats["peak_bytes"] < stats["budget_bytes"]
    print(f"\nPASS scaled performance: {stats['wall_seconds']:.1f} s < 60 s, "
          f"peak {stats['peak_bytes']/1e6:.1f} MB < budget "
          f"{stats['budget_bytes']/1e6:.1f} MB (2 x matrix + edge list); "
          f"graph {stats['graph_bytes_per_edge']:.1f} B/edge, "
          f"pipeline peak {stats['peak_bytes_per_edge']:.1f} B/edge")


def test_criterion_09_cli_determinism(tmp_path):
    """Identical CLI invocations produce byte-identical reports."""
    out_dir = tmp_path / "ens"
    synth = _run_cli([
        "synth", "--nodes", "80", "--dim", "6", "--configs", "4",
        "--noise", "0.05", "--seed", "21", "--out-dir", str(out_dir),
    ])
    assert synth.returncode == 0, synth.stderr
    manifest = str(out_dir / "manifest.json")

    checked = []
    for argv in [
        ["ggi", "--manifest", manifest],
        ["baseline", "--manifest", manifest, "--index", "knn-jaccard", "--k", "5"],
        ["baseline", "--manifest", manifest, "--index", "wasserstein"],
    ]:
        first = _run_cli(argv)
        second = _run_cli(argv)
        assert first.returncode == 0, first.stderr
        assert second.returncode == 0, second.stderr
        assert first.stdout == second.stdout, argv
        assert first.stdout
        checked.append(argv[0])
    # The same files synthesized again from the same seed are identical
    # too, so the whole pipeline is reproducible end to end.
    again = tmp_path / "ens2"
    synth2 = _run_cli([
        "synth", "--nodes", "80", "--dim", "6", "--configs", "4",
        "--noise", "0.05", "--seed", "21", "--out-dir", str(again),
    ])
    assert synth2.returncode == 0
    for name in ("graph.edges", "config_00.gge1", "config_03.gge1"):
        assert (out_dir / name).read_bytes() == (again / name).read_bytes()
    print(f"\nPASS determinism: byte-identical reports across reruns for "
          f"{checked} and re-synthesized files")


def test_criterion_10_format_robustness(tmp_path):
    """Truncated files, bad id maps, oversized k: named error, exit 2."""
    out_dir = tmp_path / "ens"
    synth = _run_cli([
        "synth", "--nodes", "30", "--dim", "4", "--configs", "3",
        "--seed", "13", "--out-dir", str(out_dir),
    ])
    assert synth.returncode == 0, synth.stderr

    # Truncated GGE1: library raises the named error, CLI exits 2.
    whole = (out_dir / "config_00.gge1").read_bytes()
    clipped_path = tmp_path / "clipped.gge1"
    clipped_path.write_bytes(whole[: len(whole) // 2])
    with pytest.raises(TruncatedFile):
        load_embeddings(clipped_path)
    manifest = {
        "graph_path": str(out_dir / "graph.edges"),
        "node_id_map": str(out_dir / "ids.json"),
        "embedding_paths": [str(clipped_path), str(out_dir / "config_01.gge1")],
    }
    bad_manifest = tmp_path / "trunc_manifest.json"
    bad_manifest.write_text(json.dumps(manifest))
    result = _run_cli(["ggi", "--manifest", str(bad_manifest)])
    assert result.returncode == 2
    assert "truncated" in result.stderr.lower()

    # Non-bijective id map: named error, exit 2.
    bad_ids = tmp_path / "bad_ids.json"
    bad_ids.write_text(json.dumps({str(i): i % 29 for i in range(30)}))
    with pytest.raises(NotABijection):
        load_id_map(bad_ids)
    manifest = {
        "graph_path": str(out_dir / "graph.edges"),
        "node_id_map": str(bad_ids),
        "embedding_paths": [
            str(out_dir / "config_00.gge1"), str(out_dir / "config_01.gge1"),
        ],
    }
    bad_manifest = tmp_path / "badmap_manifest.json"
    bad_manifest.write_text(json.dumps(manifest))
    result = _run_cli(["ggi", "--manifest", str(bad_manifest)])
    assert result.returncode == 2
    assert "bijection" in result.stderr.lower()

    # k >= |V|: named error from the library, exit 2 from the CLI.
    rng = np.random.default_rng(0)
    with pytest.raises(KTooLarge):
        knn_neighbors(rng.normal(size=(30, 4)), 30)
    result = _run_cli([
        "baseline", "--manifest", str(out_dir / "manifest.json"),
        "--index", "knn-jaccard", "--k", "30",
    ])
    assert result.returncode == 2
    assert "k=30" in result.stderr
    print("\nPASS format robustness: truncated GGE1 -> TruncatedFile, "
          "non-bijective map -> NotABijection, k >= |V| -> KTooLarge, "
          "all exit code 2")
