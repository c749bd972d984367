"""The benchmark's tracer against the package as it is: every name it patches exists, and every hook it adds reads
what the package hands it. Only a traced benchmark run would otherwise show a renamed function or a changed
return shape, as a traceback in the run's log."""

import importlib.util
import logging
from pathlib import Path

from honeysim import harness

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_traced_run_and_replay_count_turns_and_held_records_and_record_spans(tmp_path):
    tracing = _tracer_module()
    matrix = harness.matrix_from_dict({
        "horizon": 5,
        "policies": ["scripted", "oracle"],
        "deployments": ["small_mixed"],
        "persistence_modes": ["deterministic"],
        "seeds": [0],
    })
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        with tracer.phase("run"):
            harness.execute_matrix(matrix, tmp_path, offline=True)
        with tracer.phase("replay"):
            harness.replay_out_dir(tmp_path)
    finally:
        tracer.uninstall()
        for name in list(logging.Logger.manager.loggerDict):
            if name.startswith("honeysim."):
                logger = logging.getLogger(name)
                for handler in [h for h in logger.handlers if isinstance(h, tracing.CountingHandler)]:
                    logger.removeHandler(handler)
    run = tracer.counts_by_phase["run"]
    assert run["llm.turns"] > 0
    assert "metrics.records_held" in run
    assert tracer.spans_by_phase["replay"]
