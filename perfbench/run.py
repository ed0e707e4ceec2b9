"""Benchmark of the bosedot command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rte_dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One client in a closed loop: each sample is a fresh interpreter (sample.py)
that imports bosedot from this checkout's src/ and runs one CLI subcommand
with --jobs 1 and --seed <seed>; the next sample starts when the previous one
has exited.  A new sample starts only while it is expected to end within
--seconds (expected from the median length of the samples so far), but a run
takes at least MIN_SAMPLES, and in a traced run at least one untraced and one
traced.  Setup-only interpreters top the setup times up to MIN_SETUPS.  The
bytecode of src/ is compiled before the first sample, as an installed
package would be.  BLAS runs on one thread (BLAS_THREADS), so a sample keeps
one CPU busy and never waits at a barrier for a thread of the shared host
that was descheduled; the record keeps nproc and the thread count.

--trace 0 reports the end-to-end metrics, medians over the samples:
wall_s, setup_s and peak_rss_mb.  --trace 1 alternates untraced and traced
samples and reports the per-layer metrics of spans.py, means over the traced
samples (means, so that the self times add up to the traced wall time), plus
trace.overhead_s, the traced minus the untraced mean wall time.

Every sample's outputs are checked (workloads.py); a sample that exits
non-zero or fails a check counts as failed, and failed / attempted is the
failed_frac printed in the summary.  The last line of stdout is one JSON
object: correct, attempted, failed and metrics.  The run record (machine,
environment, samples) and the spans of traced samples are written under
perfbench/runs/.
"""

import argparse
import compileall
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

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
MIN_SETUPS = 3
MIN_SAMPLES = {0: 3, 1: 2}
BLAS_THREADS = 1
SAMPLE_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name):
    return "s" if name.endswith("_s") else "count"


def child_env(threads):
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_version(config):
    return (config.get("Build Dependencies", {}).get("blas", {})
            .get("version"))


def environment(seed, threads):
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _blas_version(numpy.show_config(mode="dicts")),
        "scipy_openblas": _blas_version(scipy.show_config(mode="dicts")),
        "blas_threads": threads,
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
    }


def spawn(job, env, cwd):
    """Run sample.py on one job; returns (result or None, stderr text)."""
    cmd = [sys.executable, str(HERE / "sample.py")]
    job = dict(job)
    job["spawned"] = time.monotonic()
    try:
        proc = subprocess.run(cmd + [json.dumps(job)], capture_output=True,
                              text=True, env=env, cwd=cwd,
                              timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return None, f"sample timed out after {exc.timeout} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr or f"exit code {proc.returncode}"
    return json.loads(lines[-1]), proc.stderr


def evaluate(workload, result, stderr, outdir):
    """Failed checks of one sample (empty when it is correct)."""
    if result is None:
        return [stderr.strip().splitlines()[-1] if stderr.strip()
                else "sample failed"]
    if result["code"] != 0:
        return [f"CLI exit code {result['code']}: {stderr.strip()}"]
    try:
        manifest = json.loads((outdir / "manifest.json").read_text())
        payload = json.loads((outdir / f"{workload.command}.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    if payload.get("manifest") != manifest["hash"]:
        return ["payload and manifest hashes differ"]
    result["tasks"] = workloads.task_count(workload, payload)
    return workloads.check_outputs(workload, payload)


def measure(workload, seed, seconds, trace):
    """Run one workload; returns the result object and the run record."""
    threads = BLAS_THREADS
    env = child_env(threads)
    workdir = RUNS / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(workload.config, indent=1))
    base = {"root": str(ROOT), "config": str(config_path), "seed": seed,
            "setup_only": True, "trace": False}

    compileall.compile_dir(ROOT / "src", quiet=1)
    setups, samples, all_spans, lengths = [], [], [], []
    start = time.monotonic()
    while (len(samples) < MIN_SAMPLES[int(trace)]
           or time.monotonic() - start + statistics.median(lengths)
           <= seconds):
        index = len(samples)
        traced = bool(trace) and index % 2 == 1
        outdir = workdir / f"out{index}"
        argv = [workload.command, "--config", str(config_path),
                "--out", str(outdir), "--seed", str(seed), "--jobs", "1"]
        job = dict(base, setup_only=False, trace=traced, argv=argv,
                   sample_id=f"{workload.name}-{seed}-{index}")
        began = time.monotonic()
        result, stderr = spawn(job, env, workdir)
        lengths.append(time.monotonic() - began)
        errors = evaluate(workload, result, stderr, outdir)
        shutil.rmtree(outdir, ignore_errors=True)
        sample = {"index": index, "traced": traced, "errors": errors,
                  "stderr_lines": len(stderr.splitlines())}
        if result is not None:
            setups.append(result["setup_s"])
            sample_spans = result.pop("spans", None)
            sample.update(result)
            if sample_spans is not None:
                all_spans.extend(sample_spans)
                sample["layers"] = spans.layer_metrics(sample_spans)
        samples.append(sample)
    while len(setups) < MIN_SETUPS:
        result, stderr = spawn(base, env, workdir)
        if result is None:
            raise RuntimeError(f"setup failed: {stderr.strip()}")
        setups.append(result["setup_s"])

    failed = sum(bool(s["errors"]) for s in samples)
    if trace:
        metrics = _per_layer(samples)
    else:
        metrics = {
            "wall_s": statistics.median(s["wall_s"] for s in samples
                                        if "wall_s" in s),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples
                                             if "peak_rss_mb" in s),
        }
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "environment": environment(seed, threads),
        "attempted": len(samples), "failed": failed, "setups": setups,
        "samples": samples, "metrics": metrics,
    }
    (workdir / "record.json").write_text(json.dumps(record, indent=1))
    if all_spans:
        with open(workdir / "spans.jsonl", "w") as fh:
            for span in all_spans:
                fh.write(json.dumps(span) + "\n")
    units = (END_TO_END_UNITS if not trace
             else {k: per_layer_unit(k) for k in metrics})
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    return result, record


def _per_layer(samples):
    plain = [s["wall_s"] for s in samples if not s["traced"] and "wall_s" in s]
    traced = [s for s in samples if "layers" in s]
    if not plain or not traced:
        raise RuntimeError("a traced run needs one untraced and one traced "
                           "sample that completed")
    out = {}
    for key in traced[0]["layers"]:
        out[key] = statistics.fmean(s["layers"][key] for s in traced)
    out["cli.tasks"] = statistics.fmean(s.get("tasks", 0) for s in traced)
    out["dynamics.messages"] = statistics.fmean(
        len(s["warnings"]) + s["stderr_lines"] for s in traced)
    out["trace.overhead_s"] = (statistics.fmean(s["wall_s"] for s in traced)
                               - statistics.fmean(plain))
    return out


def summary(result, record):
    env = record["environment"]
    attempted, failed = result["attempted"], result["failed"]
    lines = [f"# {record['workload']}: seed {record['seed']}, "
             f"{attempted} samples, {len(record['setups'])} setups, "
             f"trace {record['trace']}, blas threads {env['blas_threads']}"]
    for s in record["samples"]:
        for err in s["errors"]:
            lines.append(f"#   sample {s['index']} failed: {err}")
    for name, m in result["metrics"].items():
        lines.append(f"#   {name:36s} {m['value']:.6g} {m['unit']}")
    lines.append(f"#   {'failed_frac':36s} {failed / attempted:.6g} 1")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bosedot" / "cli.py").is_file():
        print(f"no bosedot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = (sorted(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    results = []
    for name in names:
        result, record = measure(workloads.WORKLOADS[name], args.seed,
                                 args.seconds, args.trace)
        print("\n".join(summary(result, record)), flush=True)
        results.append((name, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{name}.{k}": v for name, r in results
                        for k, v in r["metrics"].items()},
        }
    print(f"# environment {json.dumps(record['environment'])}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
