"""One benchmark iteration in a fresh interpreter: run, replay, check.

Started by ``run.py`` with ``PYTHONPATH=<checkout>/src`` and stderr sent to
the run's log file. It imports honeysim, refuses to go on unless the package
comes from the checkout's ``src/``, sets up logging exactly as ``honeysim
run`` does, then times ``execute_matrix`` into a fresh directory and
``replay_out_dir`` on the result (repeated when short), and checks the
outputs. Untraced, it reports ``run_s`` and ``replay_s`` at the reference
machine's speed, sampled while they run (see ``speed.py``), beside the wall
times. With ``--spans`` it traces the iteration instead (see ``tracer.py``).
It prints one JSON object.

    python3 perfbench/child.py --config C --out DIR --workers N --cells N [--spans F]
"""

from __future__ import annotations

import time

_IMPORT_START = time.perf_counter()
import honeysim  # noqa: E402  (timed: this is the import every user pays)

IMPORT_S = time.perf_counter() - _IMPORT_START

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from honeysim import cli, harness  # noqa: E402
from speed import SpeedSampler, pin_to_one_cpu  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SUMMARY_PREFIX = "summary_"
HASHED_CELL_FILES = ("cell.json", "episodes.jsonl", "turns.jsonl")
REPLAY_MIN_S = 1.0
REPLAY_MAX = 10


def _canonical_turns(data: bytes) -> bytes:
    """turns.jsonl without the wall-clock ``latency_s`` field."""
    lines = []
    for line in data.decode("utf-8").splitlines():
        if line.strip():
            turn = json.loads(line)
            turn.pop("latency_s", None)
            lines.append(json.dumps(turn, sort_keys=True))
    return ("\n".join(lines) + "\n").encode("utf-8")


def output_digest(out: Path) -> tuple[str, int]:
    """sha256 over every cell's logs and the summary tables; also the complete-cell count."""
    digest = hashlib.sha256()
    cells = 0
    for path in sorted(out.rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(out)
        if len(rel.parts) == 1 and rel.name.startswith(SUMMARY_PREFIX):
            data = path.read_bytes()
        elif len(rel.parts) == 2 and rel.name in HASHED_CELL_FILES:
            data = path.read_bytes()
            if rel.name == "turns.jsonl":
                data = _canonical_turns(data)
            elif rel.name == "episodes.jsonl" and (path.parent / "cell.json").is_file():
                cells += 1
        else:
            continue
        digest.update(rel.as_posix().encode("utf-8") + b"\0" + data + b"\0")
    return digest.hexdigest(), cells


def summary_bytes(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.glob(SUMMARY_PREFIX + "*"))}


def _cpu_s() -> tuple[float, float]:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime, usage.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux; a future process pool shows up as children
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def iterate(args: argparse.Namespace, tracer) -> dict:
    out = Path(args.out)
    result: dict = {"import_s": IMPORT_S, "workers": args.workers, "traced": tracer is not None}
    matrix = harness.load_run_file(args.config)
    problems = harness.validate_matrix(matrix, offline=True)
    if problems:
        raise RuntimeError(f"config rejected: {problems}")
    if out.exists():
        raise RuntimeError(f"output directory {out} is not fresh")
    phase = tracer.phase if tracer is not None else (lambda name: contextlib.nullcontext())

    # untraced iterations report their times at the reference machine's speed
    # (see speed.py); a traced one reports wall time, which its spans add up to
    sample = tracer is None
    cpu0 = _cpu_s()
    with SpeedSampler(sample) as sampler:
        start = time.perf_counter()
        with phase("run"):
            harness.execute_matrix(matrix, out, workers=args.workers)
        result["run_wall_s"] = time.perf_counter() - start
    cpu1 = _cpu_s()
    result["run_s"] = sampler.normalize(result["run_wall_s"])
    result["run_speed"] = sampler.speed()
    result["user_s"], result["sys_s"] = cpu1[0] - cpu0[0], cpu1[1] - cpu0[1]
    result["cpu_s"] = result["user_s"] + result["sys_s"]
    result["bytes_written"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    run_tables = summary_bytes(out)

    # A short replay is repeated until REPLAY_MIN_S is spent, and its median
    # taken, so that it rises above timer and scheduler noise. Replay only
    # reads the logs and rewrites identical tables, so repeats do equal work.
    replays: list[float] = []
    matches = bool(run_tables)
    with SpeedSampler(sample) as sampler:
        while not replays or (tracer is None and sum(replays) < REPLAY_MIN_S and len(replays) < REPLAY_MAX):
            start = time.perf_counter()
            with phase("replay"):
                harness.replay_out_dir(out)
            replays.append(time.perf_counter() - start)
            matches = matches and summary_bytes(out) == run_tables
    result["replay_wall_s"] = statistics.median(replays)
    result["replay_s"] = sampler.normalize(result["replay_wall_s"])
    result["replay_speed"] = sampler.speed()
    result["replays"] = len(replays)
    result["peak_rss_mb"] = _peak_rss_mb()

    result["replay_matches_run"] = matches
    result["digest"], result["cells_complete"] = output_digest(out)
    return result


def traced_validate(tracer, config: str) -> None:
    """`honeysim validate --offline` in this process, so its layers show in the trace."""
    with tracer.phase("validate"), contextlib.redirect_stdout(io.StringIO()):
        code = tracer.wrap("cli.validate", cli.main)(["validate", "--offline", "--config", config])
    if code != 0:
        raise RuntimeError(f"in-process validate exited with {code}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--cells", type=int, required=True, help="cells the config expands to")
    parser.add_argument("--spans", help="trace the iteration and write its spans here")
    args = parser.parse_args()

    package = Path(honeysim.__file__).resolve()
    if not package.is_relative_to(ROOT / "src"):
        print(f"refusing to measure honeysim from {package}, not from {ROOT / 'src'}", file=sys.stderr)
        return 3

    # a serial run and the speed sampler's thread then share one CPU
    if args.workers == 1:
        pin_to_one_cpu()

    # the same logging set-up as `honeysim run` without --verbose
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")

    tracer = None
    if args.spans:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    try:
        if tracer is not None:
            traced_validate(tracer, args.config)
        result = iterate(args, tracer)
        result["error"] = None
    except Exception:  # reported as failed cells, never as a crash
        traceback.print_exc()
        result = {"error": traceback.format_exc(limit=3), "import_s": IMPORT_S}
    result["cells"] = args.cells

    if tracer is not None and result["error"] is None:
        import layers

        tracer.uninstall()
        result["layers"] = layers.from_trace(tracer, result)
        result["log_counts"] = {
            key[4:]: n for key, n in tracer.counts_by_phase["run"].items() if key.startswith("log:")
        }
        result["spans_written"] = tracer.write_spans(args.spans)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
