"""Files in, report out: the on-disk workflow without the library API.

Real ensembles arrive as files: an edge list from one pipeline,
embedding matrices from N training runs. This script builds such a
directory by hand (mixing the binary and CSV formats), describes it
with a manifest, and then drives the command line interface in-process
to validate it and compute indices. Everything lands in a temp dir,
removed at the end.
Run with: python3 demos/04_files_and_cli.py
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from gramstab import save_embeddings, save_manifest
from gramstab.cli import run_cli

workdir = tempfile.TemporaryDirectory(prefix="gramstab-demo-")
root = Path(workdir.name)
print(f"working in {root}\n")

# An edge list is whitespace-separated integer pairs; comments and
# extra columns (weights, say) are tolerated and ignored. Node ids do
# not need to be contiguous: they are remapped to rows 0..n-1 in
# ascending order, which is how the embedding files must be laid out.
graph_path = root / "collab.edges"
graph_path.write_text(
    "# tiny collaboration graph, ids as they came out of the database\n"
    "101 205 0.9\n"
    "101 317 0.4\n"
    "205 317 0.7\n"
    "317 422\n"
    "422 508\n"
    "205 508\n"
)

# Three "training runs" over those 5 nodes, two stored as GGE1 binary
# (bit-exact float64) and one as CSV (17 significant digits).
rng = np.random.default_rng(0)
base = rng.normal(size=(5, 4))
paths = []
for idx, fmt in enumerate(["gge1", "gge1", "csv"]):
    run = base + rng.normal(0.0, 0.1, size=base.shape)
    path = root / f"run_{idx}.{fmt}"
    save_embeddings(path, run, fmt=fmt)
    paths.append(path)

manifest_path = root / "manifest.json"
save_manifest(manifest_path, graph_path, paths,
              labels=["seed-0", "seed-1", "seed-2"])
print("manifest:")
print(manifest_path.read_text())

# The CLI is plain argv in, JSON out, exit code back. run_cli() is the
# same entry point the installed `gramstab` command uses.
print("$ gramstab validate --manifest manifest.json")
run_cli(["validate", "--manifest", str(manifest_path)])

print("\n$ gramstab ggi --manifest manifest.json --out report.json")
run_cli(["ggi", "--manifest", str(manifest_path),
         "--out", str(root / "report.json")])
report = json.loads((root / "report.json").read_text())
print(f"index {report['index_value']:.6f} over "
      f"{report['n_configs']} configs, "
      f"labels {[c['label'] for c in report['per_config']]}")

print("\n$ gramstab baseline --index aligned-cosine --manifest manifest.json")
run_cli(["baseline", "--manifest", str(manifest_path),
         "--index", "aligned-cosine"])

# Bad inputs do not crash: they exit 2 with a named error on stderr.
clipped = root / "clipped.gge1"
clipped.write_bytes(paths[0].read_bytes()[:-8])
bad_manifest = root / "bad_manifest.json"
save_manifest(bad_manifest, graph_path, [clipped, paths[1]])
print("\n$ gramstab ggi --manifest bad_manifest.json   (truncated file)")
code = run_cli(["ggi", "--manifest", str(bad_manifest)])
print(f"exit code {code}")

workdir.cleanup()
