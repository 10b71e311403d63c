#!/usr/bin/env python3
"""Self-test of the perfbench benchmark at toy input sizes.

    python3 perfbench/selftest.py

Run from the repository root. For every workload, in untraced and
traced mode, it checks that the run exits 0, that its last stdout line
is the result object with every metric BENCHMARK.json names (and only
those) in its unit, that the oracle checks ran and passed, that the run
metadata is present, and that the traced run wrote valid Chrome
trace-event JSON whose spans name their parents. Exits non-zero on the
first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
META_KEYS = ("workload", "seed", "nproc", "compiler", "build_type", "commit")


def fail(msg):
    print("selftest FAILED: " + msg)
    sys.exit(1)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "0.2", "--trace",
           str(trace), "--toy"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode != 0:
        fail("%s exited %d" % (" ".join(cmd), proc.returncode))
    return proc.stdout.splitlines()


def check_result(line, expected, where):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (where, sorted(result)))
    if not (result["correct"] is True and result["failed"] == 0
            and result["attempted"] >= 1):
        fail("%s: oracle checks did not pass: %s" % (where, line[:200]))
    metrics = result["metrics"]
    if sorted(metrics) != sorted(expected):
        fail("%s: metrics %s, expected %s" %
             (where, sorted(metrics), sorted(expected)))
    for name, unit in expected.items():
        m = metrics[name]
        if m.get("unit") != unit or not isinstance(m.get("value"),
                                                   (int, float)):
            fail("%s: metric %s = %s, expected unit %s" %
                 (where, name, m, unit))


def check_trace(path, where):
    with open(path) as f:
        doc = json.load(f)
    spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    if not spans:
        fail("%s: trace %s holds no spans" % (where, path))
    by_lane = {}
    for e in spans:
        for key in ("name", "ts", "dur", "tid"):
            if key not in e:
                fail("%s: span without %s: %s" % (where, key, e))
        by_lane.setdefault(e["tid"], []).append(e)
    for lane in by_lane.values():
        for e in lane:
            p = e["args"]["parent"]
            if p >= 0:
                parent = lane[p]
                if not (parent["ts"] <= e["ts"] and e["ts"] + e["dur"] <=
                        parent["ts"] + parent["dur"] + 1e-3):
                    fail("%s: span %s lies outside its parent %s" %
                         (where, e["name"], parent["name"]))
    names = {e["name"] for e in spans}
    for required in ("op", "gen.generate", "graph.build_dist_graph"):
        if required not in names:
            fail("%s: trace lacks span %s" % (where, required))
    if "self_seconds" not in doc.get("otherData", {}):
        fail("%s: trace lacks self times" % where)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in (x["name"] for x in bench["workloads"]):
        for trace in (0, 1):
            where = "%s --trace %d" % (w, trace)
            lines = run(w, trace)
            check_result(lines[-1], per_layer if trace else end_to_end,
                         where)
            meta = json.loads(next(l for l in lines
                                   if l.startswith("meta "))[5:])
            missing = [k for k in META_KEYS if k not in meta]
            if missing:
                fail("%s: metadata lacks %s" % (where, missing))
            if trace:
                path = next(l for l in lines if l.startswith("trace "))[6:]
                check_trace(path, where)
            print("ok  " + where)
    print("selftest passed")


if __name__ == "__main__":
    main()
