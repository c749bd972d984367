"""honeysim benchmark: end-to-end run/replay/setup metrics and a traced per-layer split.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 60 --trace 0

Run from the root of a checkout. The benchmark measures the package in the
checkout's ``src/`` (it refuses to run otherwise) through its public API only:
``load_run_file``, ``validate_matrix``, ``execute_matrix``, ``replay_out_dir``
and ``python -m honeysim.cli validate``.

A run writes the workload's seeded inputs (``config.yaml``, plus
``replay.json`` for ``model_turns``) into a fresh directory under
``.bench_out/`` in the checkout, then:

* runs ``honeysim validate --offline`` once in a fresh interpreter, to warm
  the bytecode cache;
* with ``--trace 0``, runs iterations for ``--seconds`` seconds (at least
  ``MIN_ITERATIONS``; none starts that would, at the length of the longest
  so far, end after that, so a run never overruns ``--seconds`` by more
  than its start-up). Each iteration is a fresh interpreter (``child.py``)
  that has imported honeysim and times ``execute_matrix`` into a fresh
  directory (``run_s``) and ``replay_out_dir`` on it (``replay_s``, the
  median of repeats when one replay is short); its peak RSS is
  ``peak_rss_mb``. A serial iteration is pinned to one CPU, and ``run_s``
  and ``replay_s`` are its wall times converted to the reference machine's
  speed, which a thread samples while they run (``speed.py``): on a shared
  host the speed of a vCPU swings by up to 2x for seconds at a time, and
  the wall times (also printed and recorded) spread too widely from run to
  run to resolve a change. Before each iteration, ``honeysim validate
  --offline`` is timed in a fresh interpreter (``setup_s``, at least
  ``SETUP_REPEATS`` samples). Each metric is the median over its samples;
* with ``--trace 1``, alternates untraced and traced iterations for
  ``--seconds`` seconds, in the same way, and reports the per-layer metrics
  of ``layers.py`` (from the traced iteration with the median traced
  ``run_s``) plus the tracing overhead. Spans are written to
  ``spans_<k>.csv.gz`` in the run directory.

Every iteration is checked: the replay tables must equal the run tables byte
for byte, every cell must be complete, and the sha256 over all cell logs and
summaries must equal the digest pinned in ``digests.json`` for this workload
and seed (``sweep_parallel`` shares ``sweep``'s digests), or, for an unpinned
seed, the digest of the run's first (serial) iteration. A failed check counts
all cells of that iteration as failed. The last line of stdout is one JSON
object with ``correct``, ``attempted`` and ``failed`` (cells) and ``metrics``.

Outputs live in the checkout because the benchmark may write nowhere else.
The filesystem type of the output directory is printed and recorded with the
result, because writing the sweep's ~14 MB per iteration to a shared disk is
slower and noisier than to tmpfs. Iteration directories are emptied of cell
logs once checked; manifests and summary tables stay. The filesystem is then
synced, so that no iteration runs while the previous one's files are written
back.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, write_inputs

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_BASE = ROOT / ".bench_out"
DIGESTS_FILE = HERE / "digests.json"

SETUP_REPEATS = 5
MIN_ITERATIONS = 3
STARTUP_REPEATS = 5
# every process started must finish before the run's 180 s limit
HARD_LIMIT_S = 170.0

SPEC_FILE = ROOT / "BENCHMARK.json"


try:
    _syncfs = ctypes.CDLL(None, use_errno=True).syncfs
except (OSError, AttributeError):  # not Linux: iterations are not settled
    _syncfs = None


class BenchError(RuntimeError):
    """The benchmark cannot measure this checkout."""


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, naming the code measured when there is no commit."""
    digest = hashlib.sha256()
    package = ROOT / "src" / "honeysim"
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(package).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def filesystem_type(path: Path) -> str:
    """Type of the filesystem holding ``path``, from the longest matching mount point."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[4].replace("\\040", " ")
                sep = fields.index("-")
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, fields[sep + 1]
    except (OSError, ValueError, IndexError):
        pass
    return fstype


def environment(run_dir: Path) -> dict:
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "out_dir": str(run_dir.relative_to(ROOT)),
        "out_fs": filesystem_type(run_dir),
    }


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


class Runner:
    """Starts every process of one benchmark run, with a shared env, log and deadline."""

    def __init__(self, run_dir: Path, started: float) -> None:
        self.run_dir = run_dir
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.log_path = run_dir / "stderr.log"
        self.iterations = 0

    def _timeout(self) -> float:
        remaining = HARD_LIMIT_S - (time.perf_counter() - self.started)
        if remaining <= 1:
            raise BenchError("out of time before all measurements finished")
        return remaining

    def run(self, argv: list[str], capture_stderr: bool = False) -> subprocess.CompletedProcess:
        with open(self.log_path, "ab") as log:
            return subprocess.run(
                argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE if capture_stderr else log, timeout=self._timeout(), check=False,
            )

    def validate(self, config: Path, cells: int) -> float:
        """Wall time of `honeysim validate --offline` in a fresh interpreter."""
        argv = [sys.executable, "-m", "honeysim.cli", "validate", "--offline", "--config", str(config)]
        start = time.perf_counter()
        proc = self.run(argv)
        elapsed = time.perf_counter() - start
        expected = f"config ok: {cells} cells"
        if proc.returncode != 0 or expected not in proc.stdout.decode("utf-8", "replace"):
            raise BenchError(f"validate failed (exit {proc.returncode}); see {self.log_path}")
        return elapsed

    def iteration(self, config: Path, workers: int, cells: int, traced: bool = False) -> dict:
        """One run+replay in a fresh interpreter; returns child.py's report."""
        k = self.iterations
        self.iterations += 1
        out = self.run_dir / f"iter{k:03d}"
        argv = [
            sys.executable, str(HERE / "child.py"), "--config", str(config), "--out", str(out),
            "--workers", str(workers), "--cells", str(cells),
        ]
        if traced:
            argv += ["--spans", str(self.run_dir / f"spans_{k:03d}.csv.gz")]
        proc = self.run(argv)
        lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
        try:
            report = json.loads(lines[-1])
        except (IndexError, ValueError):
            report = {"error": f"child exited {proc.returncode} without a report; see {self.log_path}"}
        if proc.returncode != 0 and not report.get("error"):
            report["error"] = f"child exited {proc.returncode}"
        report.update(index=k, workers=workers, traced=traced, cells=cells)
        # keep the manifest and tables; the cell logs were hashed and are large
        if out.is_dir():
            for cell_dir in out.iterdir():
                if cell_dir.is_dir():
                    shutil.rmtree(cell_dir)
        self.settle()
        return report

    def settle(self) -> None:
        """Flush what the iteration wrote and deleted to disk before the next one starts.

        Otherwise the disk writes back one iteration's files while the next
        runs, and file I/O on a shared disk slows several-fold at random.
        """
        if _syncfs is None:
            return
        fd = os.open(self.run_dir, os.O_RDONLY)
        try:
            _syncfs(fd)
        finally:
            os.close(fd)


# ---------------------------------------------------------------------------
# Checks and statistics
# ---------------------------------------------------------------------------


def pinned_digest(digest_key: str, seed: int) -> str | None:
    table = json.loads(DIGESTS_FILE.read_text(encoding="utf-8")) if DIGESTS_FILE.is_file() else {}
    return table.get(digest_key, {}).get(str(seed))


def iteration_problem(report: dict, expected_digest: str) -> str | None:
    """Why an iteration's outputs are wrong, or None when they pass every check."""
    if report.get("error"):
        return report["error"].strip().splitlines()[-1]
    if not report["replay_matches_run"]:
        return "replay tables differ from run tables"
    if report["cells_complete"] != report["cells"]:
        return f"{report['cells_complete']} of {report['cells']} cells complete"
    if report["digest"] != expected_digest:
        return f"output digest {report['digest'][:16]} != expected {expected_digest[:16]}"
    if report["traced"] and not report.get("self_times_add_up"):
        return "traced self times do not add up to the root span"
    return None


def good(reports: list[dict]) -> list[dict]:
    """The reports of iterations that ran to the end (their outputs may still be wrong)."""
    return [r for r in reports if not r.get("error")]


def rounds(deadline: float, minimum: int):
    """Count measuring rounds: at least ``minimum``, then while the next one,
    as long as the longest so far, still ends by ``deadline``."""
    k, longest = 0, 0.0
    start = time.perf_counter()
    while k < minimum or start + longest <= deadline:
        yield k
        now = time.perf_counter()
        longest = max(longest, now - start)
        start = now
        k += 1


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def import_breakdown(runner: Runner) -> dict:
    """Cumulative import time of honeysim and of its heavy dependencies, from -X importtime."""
    proc = runner.run([sys.executable, "-X", "importtime", "-c", "import honeysim"], capture_stderr=True)
    cumulative: dict[str, float] = {}
    for line in proc.stderr.decode("utf-8", "replace").splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].strip()
            if name in ("honeysim", "requests", "yaml"):
                cumulative[name] = int(parts[1]) / 1e6
    if "honeysim" not in cumulative:
        raise BenchError("-X importtime did not report honeysim")
    return {
        "honeysim.import_requests_s": cumulative.get("requests", 0.0),
        "honeysim.import_yaml_s": cumulative.get("yaml", 0.0),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def measure(args: argparse.Namespace, runner: Runner, config: Path) -> tuple[list[dict], dict, dict]:
    """Run the iterations; returns (all reports, metrics, extra facts to print)."""
    workload = WORKLOADS[args.workload]
    cells = workload.cells
    deadline = time.perf_counter() + args.seconds
    reports: list[dict] = []
    facts: dict = {}

    runner.validate(config, cells)  # warm-up: bytecode cache and page cache
    if pinned_digest(workload.digest_key, args.seed) is None and workload.workers > 1 and not args.trace:
        reports.append(runner.iteration(config, 1, cells))  # serial reference for the digest
    metrics: dict[str, float] = {}

    if not args.trace:
        # set-up samples interleave with iterations so both see the same machine state
        setup: list[float] = []
        timed: list[dict] = []
        for _ in rounds(deadline, MIN_ITERATIONS):
            setup.append(runner.validate(config, cells))
            timed.append(runner.iteration(config, workload.workers, cells))
        while len(setup) < SETUP_REPEATS:
            setup.append(runner.validate(config, cells))
        reports += timed
        samples = {"setup_s": setup}
        for key in ("run_s", "replay_s", "peak_rss_mb", "run_wall_s", "replay_wall_s", "run_speed"):
            samples[key] = [r[key] for r in good(timed)] or [0.0]
        for key, values in samples.items():
            metrics[key] = statistics.median(values)
            facts[key] = quartiles(values) + (len(values),)
        return reports, metrics, facts

    untraced: list[dict] = []
    serial: list[dict] = []
    traced: list[dict] = []
    for _ in rounds(deadline, 1):
        untraced.append(runner.iteration(config, workload.workers, cells))
        if workload.workers > 1:
            serial.append(runner.iteration(config, 1, cells))
        traced.append(runner.iteration(config, 1, cells, traced=True))
    reports += untraced + serial + traced
    if workload.workers == 1:
        serial = untraced
    # all per-layer numbers come from one traced iteration, the one with the
    # median traced run_s, so that its layer self times add up to its run_s
    layer_reports = sorted((r["layers"] for r in good(traced) if "layers" in r), key=lambda m: m["trace.run_s"])
    if layer_reports:
        chosen = layer_reports[(len(layer_reports) - 1) // 2]
        metrics.update(chosen)
        facts["layer_sum_s"] = chosen["trace.remainder_s"] + sum(
            v for k, v in chosen.items() if k.endswith(".self_s") and k.count(".") == 1
        )
    startup = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        runner.run([sys.executable, "-c", "pass"])
        startup.append(time.perf_counter() - start)
    metrics["setup.python_startup_s"] = statistics.median(startup)
    metrics["honeysim.import_s"] = statistics.median(r["import_s"] for r in reports if "import_s" in r)
    metrics.update(import_breakdown(runner))
    runs = good(untraced)
    if runs:
        run_s = statistics.median(r["run_wall_s"] for r in runs)
        metrics["harness.cpu_s"] = statistics.median(r["cpu_s"] for r in runs)
        metrics["harness.cpu_util"] = metrics["harness.cpu_s"] / (run_s * workload.workers)
    if good(serial) and "trace.run_s" in metrics:
        base = statistics.median(r["run_wall_s"] for r in good(serial))
        metrics["trace.untraced_run_s"] = base
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - base
        metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / base
    facts["traced_iterations"] = len(traced)
    return reports, metrics, facts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="honeysim benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "honeysim" / "__init__.py").is_file():
        print(f"no honeysim sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    run_dir = OUT_BASE / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    config = write_inputs(args.workload, args.seed, run_dir)
    runner = Runner(run_dir, started)
    env = environment(run_dir)

    try:
        reports, metrics, facts = measure(args, runner, config)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    expected = pinned_digest(workload.digest_key, args.seed)
    digest_source = "pinned" if expected else "first serial iteration"
    if expected is None:
        expected = next((r["digest"] for r in reports if r.get("digest") and r["workers"] == 1), "")
    attempted = failed = 0
    problems = []
    for report in reports:
        attempted += report["cells"]
        problem = iteration_problem(report, expected)
        if problem:
            failed += report["cells"]
            problems.append(f"iteration {report['index']}: {problem}")

    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))["per_layer" if args.trace else "end_to_end"]
    missing = sorted({m["name"] for m in spec} - set(metrics))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    result_metrics = {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in spec}
    correct = failed == 0 and not problems

    print(f"honeysim benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"workers={workload.workers} cells/iteration={workload.cells}")
    print("  " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  output check: digest from {digest_source}; "
          f"failed_frac={failed / attempted if attempted else 0:.4f} (base: {attempted} cells "
          f"over {len(reports)} iterations)")
    for problem in problems:
        print(f"  FAILED {problem}")
    for name, entry in result_metrics.items():
        spread = ""
        if name in facts:
            q1, _, q3, n = facts[name]
            spread = f"  (median of {n}; q1 {q1:.6g}, q3 {q3:.6g})"
        print(f"  {name:<44} {entry['value']:>14.6g} {entry['unit']}{spread}")
    if not args.trace and "run_wall_s" in metrics:
        print(f"  wall times (medians): run {metrics['run_wall_s']:.6g} s, replay {metrics['replay_wall_s']:.6g} s; "
              f"median speed during runs {metrics['run_speed']:.4g} x the reference (see speed.py)")
    if args.trace:
        print(f"  traced iterations: {facts['traced_iterations']}; per-layer metrics from the median one; "
              f"<layer>.self_s + trace.remainder_s = {facts.get('layer_sum_s', 0.0):.6f} s "
              f"(trace.run_s {metrics.get('trace.run_s', 0.0):.6f} s)")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": result_metrics}
    record = dict(result, args=vars(args), environment=env, problems=problems, all_metrics=metrics,
                  iterations=reports)
    (run_dir / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
