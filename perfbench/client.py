"""One benchmark iteration in a fresh process: run treeprm CLI commands in-process.

Usage: python3 client.py <spec.json>

The spec names the source tree to import treeprm from, the CLI argument
lists to pass to `treeprm.cli.main` in order, whether to trace, and where to
write the spans and the result. The result records the wall time of the
commands, the time from process start to ready, the exit codes and the peak
RSS of this process. The CLI's own stdout is discarded; its stderr passes
through.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    from treeprm import cli

    tracer = None
    if spec["trace"]:
        from tracing import Tracer, layer_metrics

        tracer = Tracer(spec["run_id"])
        tracer.install()
    ready = time.monotonic()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in spec["commands"]]
    wall_s = time.perf_counter() - start
    result = {
        "ready_monotonic": ready,
        "wall_s": wall_s,
        "exit_codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write(spec["spans_path"])
        result["layers"] = layer_metrics(tracer.spans)
    with open(spec["result_path"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
