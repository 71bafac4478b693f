"""The benchmark's tracer still sees every layer it times.

``perfbench/tracer.py`` times each layer by replacing the module attributes
listed in its ``WRAPPED`` table. A refactor that calls one of those functions
through another module, or stops calling it, leaves that layer reading 0
without any error. This check runs a small traced cohort and requires at
least one call per wrapped span. The tracer patches module attributes, so
it runs in its own interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import dyadgc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

TRACED_RUNS = r"""
import json
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import tracer as tracing
from workloads import WORKLOADS

t = tracing.install()
from dyadgc import pipeline
from dyadgc.config import AnalysisConfig
from dyadgc.synth import make_demo_cohort

out = Path(sys.argv[2])
manifest = pipeline.Manifest.load(make_demo_cohort(out / "cohort", n_pairs=2, length=600, seed=7))
calls = {}
for name, config in (("default", {}), ("wide", WORKLOADS["wide"].config)):
    before = dict(t.counts)
    result = pipeline.run_pipeline(manifest, AnalysisConfig(**config))
    pipeline.emit_report(result, out / name)
    calls[name] = {
        span: t.counts.get(span + ".calls", 0) - before.get(span + ".calls", 0)
        for _, _, span in tracing.WRAPPED
    }
print(json.dumps(calls))
"""


def test_every_wrapped_span_records_a_call(tmp_path):
    src = str(Path(dyadgc.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUNS, str(PERFBENCH), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, per_span in calls.items():
        # only the averaged gc mode (wide's) aggregates per-segment tests
        silent = {span for span, n in per_span.items() if n == 0}
        allowed = {"granger.average"} if name == "default" else set()
        assert silent <= allowed, f"{name} config: no call recorded for {sorted(silent)}"
