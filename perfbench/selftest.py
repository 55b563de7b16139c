#!/usr/bin/env python3
"""Self-test of the catsim benchmark.

    python3 perfbench/selftest.py

Checks, with short runs of every workload, that
  1. every metric BENCHMARK.json names is printed with its unit (untraced
     runs print the end-to-end metrics, traced runs the per-layer ones),
     and every per-layer metric has a layer in perfbench/layers.json;
  2. a different seed changes the generated inputs, and the same seed
     repeats them;
  3. a perturbed reference result is caught as a failure (non-zero exit,
     "correct": false);
  4. a traced run writes a span file that parses, with a run manifest.
Exits non-zero on the first failed check.  Takes about two minutes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")
WORKLOADS = ["cmrpo_cold", "replay_warm", "closed_loop"]
SPAN_KEYS = {"id", "name", "start", "end", "parent", "cell", "key", "tag"}
MANIFEST_KEYS = {"workload", "seed", "scale", "jobs", "simd_tier",
                 "host_cores", "compiler", "build_type", "revision"}


def bench(*args):
    """Run the benchmark; returns (exit code, stdout lines)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py")] + list(args),
        capture_output=True, text=True)
    return out.returncode, out.stdout.splitlines()


def result(lines):
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
    return res


def check(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)
    print("ok: " + message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layered = {m for layer in json.load(f)["layers"]
                   for m in layer["metrics"]}
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check(set(expected["1"]) <= layered,
          "every per-layer metric has a layer in layers.json")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    traces = os.path.join(SCRATCH, "traces")

    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, lines = bench("--workload", workload, "--seed", "42",
                                "--seconds", "1", "--trace", trace,
                                "--trace-dir", traces)
            res = result(lines)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(code == 0 and res["correct"] and res["failed"] == 0
                  and res["attempted"] > 0,
                  "%s trace=%s passes its output checks" % (workload, trace))
            check(got == expected[trace],
                  "%s trace=%s prints every metric with its unit"
                  % (workload, trace))
            manifest = [l for l in lines if l.startswith("manifest: ")]
            check(manifest and MANIFEST_KEYS
                  <= set(json.loads(manifest[0][len("manifest: "):])),
                  "%s trace=%s prints a run manifest" % (workload, trace))
        path = os.path.join(traces, "%s-seed42.json" % workload)
        with open(path) as f:
            doc = json.load(f)
        spans = doc["spans"]
        check(spans and all(SPAN_KEYS <= set(s) for s in spans)
              and all(s["end"] >= s["start"] for s in spans)
              and MANIFEST_KEYS <= set(doc["manifest"]),
              "%s span file parses (%d spans)" % (workload, len(spans)))

        digests = []
        for seed in ("1", "2", "1"):
            code, lines = bench("--workload", workload, "--seed", seed,
                                "--print-inputs")
            digests.append(lines[-1].split()[-1] if code == 0 else None)
        check(None not in digests and digests[0] != digests[1]
              and digests[0] == digests[2],
              "%s inputs change with the seed and repeat with it" % workload)

    # A perturbed reference: flip one digit of one committed result.
    refs = os.path.join(SCRATCH, "reference")
    shutil.copytree(os.path.join(HERE, "reference"), refs)
    path = os.path.join(refs, "closed_loop.txt")
    with open(path) as f:
        lines = f.read().splitlines()
    key, _, rest = lines[3].partition("|acts=")
    digit = rest[0]
    lines[3] = key + "|acts=" + str((int(digit) + 1) % 10) + rest[1:]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    code, out = bench("--workload", "closed_loop", "--seed", "42",
                      "--seconds", "1", "--trace", "0",
                      "--reference-dir", refs)
    res = result(out)
    check(code != 0 and not res["correct"] and res["failed"] >= 1,
          "a perturbed reference is reported as a failure")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
