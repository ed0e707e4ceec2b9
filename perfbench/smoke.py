"""Smoke test of the benchmark itself.

Runs every workload at reduced size (workloads.REDUCED), untraced and traced,
with the shortest measuring window, and checks that each run emits exactly
the metrics BENCHMARK.json lists, each with its unit, and that its outputs
pass the checks.  Takes about a minute:

    python3 perfbench/smoke.py
"""

import json
import sys

import run
import workloads


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = sorted(w["name"] for w in spec["workloads"])
    if names != sorted(workloads.WORKLOADS) or names != sorted(workloads.REDUCED):
        raise SystemExit(f"workload lists differ: {names}")
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for name in names:
        for trace in (0, 1):
            result, _ = run.measure(workloads.REDUCED[name], seed=1,
                                    seconds=0, trace=trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            label = f"{name} trace {trace}"
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                wrong = sorted(k for k in set(got) & set(wanted[trace])
                               if got[k] != wanted[trace][k])
                problems.append(f"{label}: missing {missing}, extra {extra}, "
                                f"wrong unit {wrong}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of "
                                f"{result['attempted']} samples failed")
            print(f"{label}: {len(got)} metrics, "
                  f"{result['attempted']} samples", flush=True)
    for p in problems:
        print("FAIL", p)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
