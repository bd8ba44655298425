#!/usr/bin/env python3
"""Self-test of the path benchmark (run from the repository root):

    python3 pathbench/selftest.py

1. Runs every workload briefly with --trace 0 and --trace 1 through run.py
   and checks the result line: exactly the keys correct/attempted/failed/
   metrics, correct == true, and exactly the end_to_end (resp. per_layer)
   metric names of BENCHMARK.json with their units.
2. Proves the correctness checks fire, each run exiting non-zero: a
   corrupted expected payload digest (--inject payload, paced-base), a
   forged S2 sent on by the relay's transport to the responder (--inject
   forged, paced-base), and a forged S2 sent past the relay to relay-mix's
   downstream sink (--inject forged), which the sink's byte comparison and
   the relay's forwarded count must both report.

Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = os.path.join(ROOT, ".bench_build", "pathbench", "alpha_pathbench")
SECONDS = "4"


def check(cond, what, problems):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        problems.append(what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            p = subprocess.run(
                ["python3", os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", "5", "--seconds", SECONDS, "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=300)
            what = "%s --trace %d" % (w, trace)
            try:
                r = json.loads(p.stdout.strip().split("\n")[-1])
            except (ValueError, IndexError):
                check(False, what + ": result line is JSON", problems)
                sys.stderr.write(p.stdout[-3000:] + p.stderr[-3000:])
                continue
            check(p.returncode == 0, what + ": exit 0", problems)
            check(set(r) == {"correct", "attempted", "failed", "metrics"},
                  what + ": result keys", problems)
            check(r.get("correct") is True and r.get("failed") == 0,
                  what + ": correct", problems)
            got = {k: v.get("unit") for k, v in r.get("metrics", {}).items()}
            check(got == expected[trace], what + ": metric names and units",
                  problems)
            if got != expected[trace]:
                print("      missing %s extra %s" % (
                    sorted(set(expected[trace]) - set(got)),
                    sorted(set(got) - set(expected[trace]))))

    for w, inject, needles in (
            ("paced-base", "payload", ["delivered payload digest mismatch"]),
            ("paced-base", "forged", ["forged message at the responder"]),
            ("relay-mix", "forged", [
                "forged or altered frame forwarded",
                "relay forwarded count != frames received at the sinks"])):
        p = subprocess.run(
            [BINARY, "--workload", w, "--seed", "5", "--seconds", SECONDS,
             "--trace", "0", "--inject", inject],
            capture_output=True, text=True, cwd=ROOT, timeout=300)
        r = json.loads(p.stdout.strip().split("\n")[-1])
        for needle in needles:
            check(p.returncode != 0 and r["correct"] is False
                  and r["failed"] > 0 and ("FAILED: " + needle) in p.stdout,
                  "%s --inject %s is reported as: %s" % (w, inject, needle),
                  problems)

    print("selftest: %s" % ("PASS" if not problems else
                            "%d problem(s)" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
