"""One benchmark sample: a fresh interpreter running one bosedot CLI call.

Usage (from run.py): python3 perfbench/sample.py '<job json>'

The job names the checkout root, the CLI argv, the config path, the seed, the
monotonic time the parent spawned this process, and whether to trace.  The
sample measures

* setup_s: from spawn to the end of `import bosedot.cli`, `load_config` and
  `build_manifest`, the fixed cost of every CLI call;
* wall_s: `bosedot.cli.main(argv)`, including writing its outputs;
* peak_rss_mb: the peak resident memory of this process;

and, when tracing, the spans of the call.  Python warnings raised during the
call are caught and counted, and the CLI's status line is captured, so the
only thing on stdout is the last line: one JSON object with the results.
A setup-only job stops after setup.
"""

import contextlib
import io
import json
import resource
import sys
import time
import warnings
from pathlib import Path


def main():
    job = json.loads(sys.argv[1])
    from bosedot import cli
    config = cli.load_config(job["config"])
    cli.build_manifest(config, job["seed"])
    setup_s = time.monotonic() - job["spawned"]

    src = Path(job["root"], "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"bosedot imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if job["setup_only"]:
        print(json.dumps(result))
        return 0

    recorder = None
    if job["trace"]:
        import spans
        recorder = spans.Recorder(job["sample_id"])
        spans.install(recorder)

    status = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(status):
        warnings.simplefilter("always")
        start = time.perf_counter()
        if recorder is None:
            code = cli.main(job["argv"])
        else:
            code = recorder.call("cli.main", cli.main, (job["argv"],), {})
        wall_s = time.perf_counter() - start

    result.update({
        "code": code,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "warnings": [str(w.message) for w in caught],
        "status": status.getvalue(),
    })
    if recorder is not None:
        result["spans"] = recorder.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
