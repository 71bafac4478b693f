"""One benchmark iteration in a fresh interpreter.

Usage: ``python3 child.py MANIFEST SPEC_JSON``

Times set-up first (``import dyadgc.cli`` plus ``Manifest.load`` of the
workload manifest, as ``dyadgc pipeline`` does on every invocation), then,
unless the spec asks for set-up only, ``run_pipeline`` + ``emit_report`` with
the spec's config. With ``"trace": true`` the per-layer wrappers from
``tracer.py`` are installed after set-up. The measurements go to the spec's
``result`` path as JSON; the parent checks the emitted report files.
"""

import sys
import time


def main(manifest_path: str, spec_path: str) -> None:
    t0 = time.perf_counter()
    import dyadgc.cli  # noqa: F401  (the CLI's import cost is part of set-up)
    from dyadgc.pipeline import Manifest

    manifest = Manifest.load(manifest_path)
    setup_s = time.perf_counter() - t0

    import json
    import resource
    from pathlib import Path

    from dyadgc import pipeline
    from dyadgc.config import AnalysisConfig

    spec = json.loads(Path(spec_path).read_text())
    out = {"setup_s": setup_s}
    if not spec.get("setup_only"):
        config = AnalysisConfig(**spec["config"])
        tracer = None
        if spec.get("trace"):
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            import tracer as tracing

            tracer = tracing.install()
            root = tracer.open("pipeline.total")
        t0 = time.perf_counter()
        result = pipeline.run_pipeline(manifest, config)
        pipeline.emit_report(result, spec["out"])
        out["pipeline_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(root)
            out["layers"] = tracing.layer_metrics(tracer, "pipeline.total", result)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(spec["result"]).write_text(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
