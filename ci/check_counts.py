#!/usr/bin/env python3
"""Checks the benchmark's exact work counts against BENCH_counts.json.

Run from the repository root:

    python3 ci/check_counts.py            # compare every workload
    python3 ci/check_counts.py --record   # rewrite the baseline

With --record, every count that moves is printed as
`workload metric: old → new`, and a rise is flagged.

Each workload the baseline lists runs once, with the baseline's command
(traced, seed 1). Every metric of unit `count` or `B` on the result line is a
work count: allocations and bytes per call, spans, correlation passes,
trees built, cache counters, bytes out. The check fails when any count
differs from the baseline, whether it rose or fell, and when a run is not
`correct`, has failed ops, or reports `bench.count_mismatches`. A fall is a
gain: record it in the change that earned it.

A workload's `excluded` map names the counts that differ between two runs
of one seed, with the reason; they are neither compared nor recorded.

The counts follow the standard library's allocation pattern, so they
belong to one toolchain. The baseline keeps the `rustc -V` it was recorded
with; after a toolchain update that moves a count, refresh the file with
`--record` in a commit of its own.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "BENCH_counts.json")
COUNT_UNITS = ("count", "B")


def rustc_version():
    out = subprocess.run(["rustc", "-V"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def run(command, workload):
    """The result object of one run: the last line of stdout."""
    cmd = command.format(workload=workload).split()
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("%s: `%s` exited %d" % (workload, " ".join(cmd), out.returncode))
    return json.loads(lines[-1])


def health(workload, result):
    """Why the run cannot be compared, if it cannot."""
    problems = []
    if result.get("correct") is not True:
        problems.append("correct: %s" % result.get("correct"))
    if result.get("failed") != 0:
        problems.append("failed: %s of %s ops" % (result.get("failed"), result.get("attempted")))
    mismatches = result["metrics"].get("bench.count_mismatches", {}).get("value")
    if mismatches != 0:
        problems.append("bench.count_mismatches: %s" % mismatches)
    return ["%s: %s" % (workload, p) for p in problems]


def counts(result, excluded):
    return {
        name: m["value"]
        for name, m in sorted(result["metrics"].items())
        if m["unit"] in COUNT_UNITS and name not in excluded
    }


def moved(workload, old, new):
    """The lines --record prints: one per count it rewrites, rises flagged."""
    lines = []
    for name in sorted(set(old) | set(new)):
        before, after = old.get(name), new.get(name)
        if before == after:
            continue
        rise = before is not None and after is not None and after > before
        lines.append(
            "%s %s: %s → %s%s" % (workload, name, before, after, "  (RISE)" if rise else "")
        )
    return lines


def compare(workload, expected, got):
    lines = []
    for name in sorted(set(expected) | set(got)):
        if expected.get(name) != got.get(name):
            lines.append(
                "%s %s: baseline %s, now %s" % (workload, name, expected.get(name), got.get(name))
            )
    return lines


def main():
    record = sys.argv[1:] == ["--record"]
    if sys.argv[1:] and not record:
        sys.exit(__doc__)
    with open(BASELINE) as f:
        baseline = json.load(f)
    rustc = rustc_version()
    problems, diffs = [], []
    for workload, entry in baseline["workloads"].items():
        print("running %s..." % workload, file=sys.stderr, flush=True)
        result = run(baseline["command"], workload)
        problems += health(workload, result)
        got = counts(result, entry["excluded"])
        if record:
            for line in moved(workload, entry["counts"], got):
                print(line)
            entry["counts"] = got
        else:
            diffs += compare(workload, entry["counts"], got)
            print("%s: %d counts compared" % (workload, len(got)), file=sys.stderr)
    for p in problems:
        print("error: " + p)
    if record and not problems:
        baseline["rustc"] = rustc
        with open(BASELINE, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        print("recorded %s with %s" % (os.path.basename(BASELINE), rustc))
    for d in diffs:
        print("error: " + d)
    if diffs:
        print(
            "error: %d work counts differ from %s (recorded with %s; this run: %s). "
            "If the change earned them, or the toolchain moved them, refresh the "
            "baseline with `python3 ci/check_counts.py --record`."
            % (len(diffs), os.path.basename(BASELINE), baseline.get("rustc"), rustc)
        )
    if problems or diffs:
        return 1
    if not record:
        print("all work counts match %s" % os.path.basename(BASELINE))
    return 0


if __name__ == "__main__":
    sys.exit(main())
