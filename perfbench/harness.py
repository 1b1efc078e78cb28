"""Measurement loops, metrics and output of the benchmark; see run.py."""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import layers
import spec
import workloads
from proc import SPAWN_TIME, RunAborted, Spawner

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
# Each workload run must end well inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0

# The speed of a shared host drifts by 20% and more within a minute, and
# moves every wall time with it. So every pass (and every set-up sample)
# sits between two probes: a fresh interpreter importing gramstab's
# dependencies, which is most of what every invocation does before
# gramstab's own code runs, without any of gramstab. Each pass's wall is
# scaled by PROBE_REF_S / (the mean wall of the probes around it), so
# end-to-end times read as seconds on a host where the probe takes
# PROBE_REF_S, the probe's wall on the 2-core host the benchmark was
# tuned on. Raw walls and probe walls are printed and kept in the BENCH
# file.
PROBE_CODE = "import numpy, scipy.optimize, scipy.spatial"
PROBE_REF_S = 0.65


@dataclass
class Invocation:
    label: str
    wall: float
    maxrss_kb: int
    error: str | None
    spans: dict | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class Runner:
    """Runs, checks and counts the invocations of one workload run."""

    workload: workloads.Workload
    spawner: Spawner
    deadline: float
    attempted: int = 0
    failures: list = field(default_factory=list)
    probes: list = field(default_factory=list)

    def __post_init__(self):
        env = dict(os.environ)
        env.pop("GGI_THREADS", None)
        env["PYTHONPATH"] = str(ROOT / "src")
        self.env = env

    def invoke(self, label, argv, dest: Path, first: dict | None, trace_id: str | None = None):
        """One CLI invocation in ``dest``.

        ``first`` maps each command to its first report in ``dest``;
        later reports must equal it byte for byte. A traced invocation
        also returns its span document.
        """
        if trace_id is None:
            full = [sys.executable, "-m", "gramstab.cli", *argv]
        else:
            spans_path = dest.parent / f"spans_{trace_id}.json"
            script = str(HERE / "traced_cli.py")
            full = [sys.executable, script, str(spans_path), trace_id, SPAWN_TIME, *argv]
        child = self._run(full, dest.parent)
        if child.returncode != 0:
            tail = child.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
            error = f"exit code {child.returncode}: {tail[0]}"
        else:
            error = self.workload.check(label, child.stdout, dest)
        if error is None and first is not None:
            if first.setdefault(label, child.stdout) != child.stdout:
                error = "report bytes differ from the first invocation's"
        spans = None
        if trace_id is not None and error is None:
            spans = json.loads(spans_path.read_text())
            spans_path.unlink()
            ident = 1 + max(span[0] for span in spans["spans"])
            spans["spans"].append([ident, "trace.exit", spans["finished"], child.spawn + child.wall, None])
            error = self._check_tallies(spans["counts"])
        self.workload.after(dest)
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{label}: {error}")
        return Invocation(label, child.wall, child.maxrss_kb, error, spans)

    def probe(self, scratch: Path) -> None:
        """Time one run of PROBE_CODE."""
        child = self._run([sys.executable, "-c", PROBE_CODE], scratch)
        if child.returncode != 0:
            raise RunAborted(f"the host-speed probe failed: {child.stderr.decode()[-200:]}")
        self.probes.append(child.wall)

    def scales(self) -> list[float]:
        """Host-speed scale of each interval between consecutive probes."""
        return [2 * PROBE_REF_S / (a + b) for a, b in zip(self.probes, self.probes[1:])]

    def _run(self, argv: list[str], scratch: Path):
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise RunAborted("the run's time budget is spent")
        return self.spawner.run(argv, env=self.env, cwd=ROOT, scratch=scratch, timeout=remaining)

    def _check_tallies(self, counts: dict) -> str | None:
        """load_edge_list's cleanup tallies against the generator's."""
        if self.workload.tallies is None or "core.self_loops_dropped" not in counts:
            return None
        got = (counts["core.self_loops_dropped"], counts["core.duplicates_dropped"])
        if got != self.workload.tallies:
            return f"self-loops and duplicates dropped {got}, generated {self.workload.tallies}"
        return None


def sync_inputs(workload: workloads.Workload, dest: Path) -> None:
    """Write the input files to disk now, so that the kernel's background
    writeback of them does not compete with the timed invocations."""
    for name in workload.files:
        fd = os.open(dest / name, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def fresh_copy(workload: workloads.Workload, previous: Path, dest: Path) -> Path:
    """Copy the input files into a new directory and delete the old one."""
    dest.mkdir()
    for name in workload.files:
        shutil.copyfile(previous / name, dest / name)
    sync_inputs(workload, dest)
    shutil.rmtree(previous)
    return dest


def median_tail(values: list[float]) -> str:
    """Median, and the highest percentile with ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.4f} over n={n}"
    if n >= 11:
        text += f", p{100 * (n - 10) / n:.0f} {sorted(values)[n - 11]:.4f}"
    else:
        text += "; no percentile has ten samples beyond it"
    return text


def environment() -> dict:
    def read(path: str) -> str | None:
        try:
            return Path(path).read_text()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": models[0] if models else platform.processor(),
        "llc": (read("/sys/devices/system/cpu/cpu0/cache/index3/size") or "unknown").strip(),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e9, 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": {
            k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ
        },
    }


def llc_note(env: dict, wl: workloads.Workload) -> str:
    llc = env["llc"]
    if not llc.endswith("K") or not llc[:-1].isdigit():
        return f" (LLC {llc})"
    llc_mb = int(llc[:-1]) * 1024 / 1e6
    fits = "fits" if wl.working_set["matrix_mb"] < llc_mb else "does not fit"
    return f"; one matrix {fits} in the {llc_mb:.0f} MB LLC"


def blas_threads() -> int | str:
    """OpenBLAS's thread count as numpy in a child would see it."""
    import ctypes

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return "unknown"


def timed_run(runner: Runner, wl: workloads.Workload, work: Path, seconds: float):
    dest = work / "set0"
    setup = []
    for i in range(spec.SETUP_SAMPLES):
        if i:
            dest = fresh_copy(wl, dest, work / f"set{i}")
        label, argv = wl.commands(dest)[0]
        runner.probe(work)
        setup.append(runner.invoke(label, argv, dest, None))
    first: dict = {}
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        runner.probe(work)
        passes.append([runner.invoke(label, argv, dest, first) for label, argv in wl.commands(dest)])
    runner.probe(work)
    setup_scales, pass_scales = runner.scales()[: len(setup)], runner.scales()[len(setup) :]
    good = [(scale, p) for scale, p in zip(pass_scales, passes) if all(inv.ok for inv in p)]
    setup_ok = [(scale, inv.wall) for scale, inv in zip(setup_scales, setup) if inv.ok]
    if not good or not setup_ok:
        return None, [], {}
    walls = [sum(inv.wall for inv in p) for _, p in good]
    scaled = [scale * wall for (scale, _), wall in zip(good, walls)]
    metrics = {
        "wall_s": statistics.median(scaled),
        "peak_rss_mb": statistics.median(max(inv.maxrss_kb for inv in p) * 1024 / 1e6 for _, p in good),
        "work_per_s": wl.work_per_pass * len(good) / sum(scaled),
        "setup_s": statistics.median(scale * wall for scale, wall in setup_ok),
    }
    samples = {"pass_walls": walls, "setup_walls": [w for _, w in setup_ok], "probe_walls": runner.probes}
    lines = [
        f"host-speed probe (s): {median_tail(runner.probes)}; times below are raw",
        f"wall_s (s): {median_tail(walls)}",
        f"setup_s (s): median {statistics.median(samples['setup_walls']):.4f} of {len(setup_ok)} "
        f"first invocations of {setup[0].label!r} on fresh inputs",
        f"work_per_s: {wl.work_unit} per second, {wl.work_per_pass:g} per pass",
    ]
    if len(good[0][1]) > 1:
        for i, inv in enumerate(good[0][1]):
            lines.append(f"{inv.label} wall (s): {median_tail([p[i].wall for _, p in good])}")
    return metrics, lines, samples


def traced_run(runner: Runner, wl: workloads.Workload, work: Path, seconds: float):
    dest = work / "set0"
    label, argv = wl.commands(dest)[0]
    runner.invoke(label, argv, dest, None)
    first: dict = {}
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain_pass, traced_pass = [], []
        for label, argv in wl.commands(dest):
            plain_pass.append(runner.invoke(label, argv, dest, first))
            trace_id = f"p{len(traced)}-{label}"
            traced_pass.append(runner.invoke(label, argv, dest, first, trace_id))
        plain.append(plain_pass)
        traced.append(traced_pass)
    good = [(p, t) for p, t in zip(plain, traced) if all(inv.ok for inv in p + t)]
    if not good:
        return None, [], {}
    passes = []
    for _, t in good:
        spans = layers.PassSpans()
        for inv in t:
            spans.add(inv.spans, inv.wall)
        passes.append(spans)
    plain_walls = [sum(inv.wall for inv in p) for p, _ in good]
    traced_walls = [sum(inv.wall for inv in t) for _, t in good]
    extra = {"trace.overhead_s": statistics.median(traced_walls) - statistics.median(plain_walls)}
    if wl.name == spec.SUITE:
        for i, inv in enumerate(good[0][0]):
            extra[f"suite.{inv.label.replace('-', '_')}_s"] = statistics.median(p[i].wall for p, _ in good)
    metrics, missing = layers.per_layer(wl.name, passes, extra)
    coverage = statistics.median(p.accounted / p.wall for p in passes)
    lines = [f"traced passes: {len(passes)}; span self times cover {100 * coverage:.1f}% of the traced wall"]
    if wl.name in spec.GGI_WORKLOADS:
        lines.append(
            "ggi.gather_bytes and ggi.gather_flops are computed from |E|, d and N, not measured; "
            "the gather does 0.125 flop per byte moved. Copy bandwidth is not measured: that "
            "needs an array of at least 4x the LLC, too large for a shared host."
        )
    lines += [f"MISSING {name}: its span did not fire on {wl.name}" for name in missing]
    errors = sorted({e for _, t in good for inv in t for e in inv.spans["errors"]})
    lines += [f"counter error: {e}" for e in errors]
    spans_doc = [inv.spans for _, t in good for inv in t]
    (WORK / f"SPANS_{wl.name}.json").write_text(json.dumps(spans_doc) + "\n")
    samples = {"plain_pass_walls": plain_walls, "traced_pass_walls": traced_walls}
    return metrics, lines, samples


def run_workload(
    spawner: Spawner, name: str, seed: int, seconds: float, trace: bool, scale: str
) -> dict | None:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "set0").mkdir(parents=True)
    wl = workloads.make(name, scale)
    runner = Runner(wl, spawner, deadline)
    try:
        wl.prepare(seed, work / "set0")
        sync_inputs(wl, work / "set0")
        metrics, lines, samples = (traced_run if trace else timed_run)(runner, wl, work, seconds)
    except RunAborted as exc:
        print(f"perfbench: {name}: {exc}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in runner.failures:
        print(f"FAILED {failure}")
    if metrics is None:
        print(f"perfbench: {name}: no invocation passed its checks", file=sys.stderr)
        return None
    defined = {m.name: m for m in (spec.PER_LAYER if trace else spec.END_TO_END)}
    env = environment()
    print(f"# {name} seed={seed} seconds={seconds:g} trace={int(trace)} scale={scale}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# working set " + " ".join(f"{k}={v:g}" for k, v in wl.working_set.items()) + llc_note(env, wl))
    for line in lines:
        print(f"# {line}")
    for key, value in metrics.items():
        print(f"{key:<45} {value:>14.6g} {defined[key].unit}")
    failed = len(runner.failures)
    print(f"{'fail_ratio':<45} {failed / runner.attempted:>14.6g} ratio ({failed} of {runner.attempted})")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": defined[k].unit} for k, v in metrics.items()},
    }
    bench = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "scale": scale,
             "size": wl.size, "working_set": wl.working_set, "environment": env,
             "notes": lines, "samples": samples, "failures": runner.failures, "result": result}
    suffix = "trace" if trace else "e2e"
    (WORK / f"BENCH_{name}_{suffix}.json").write_text(json.dumps(bench, indent=2) + "\n")
    return result


def main(spawner: Spawner, argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark gramstab end to end.")
    parser.add_argument("--workload", choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SCALES), default="full")
    parser.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        print(spec.write_benchmark_json(ROOT))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "gramstab" / "cli.py").is_file():
        print(f"perfbench: no gramstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(spawner, name, args.seed, args.seconds, bool(args.trace), args.scale)
        if result is None:
            return 1
        results[name] = result
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0

