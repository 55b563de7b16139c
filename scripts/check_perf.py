#!/usr/bin/env python3
"""Hot-path throughput regression guard with cross-PR trajectory.

Reads the ``metrics`` object of each guarded bench's
``BENCH_<name>.json`` (produced by scripts/run_benches.sh) and enforces
the committed floors in ``scripts/reference_perf.json``.  The reference
file holds one entry per bench under ``benches`` (today the
micro-bench's bundle batch loop); a bench that did not run is skipped,
so BENCH_FILTERed invocations stay green.  A
bench that ran must report every metric its entry gates - the tier
metric, each ratio and throughput floor, each trajectory metric - and
fails naming the metric otherwise, so a renamed or dropped metric
cannot silently disarm its floor (or fall back to the tier-0 floors).

Three kinds of guard, in increasing statefulness:

* **Ratio floors** (bundle vs flattened tree) are machine-relative,
  so they get hard per-tier floors: each bench reports which hardware
  class it ran on (``bundle_simd_tier``: 2 = AVX-512 host, 0 = any
  other; both run the same scalar batch loop) and each ratio must
  clear the floor committed for that tier.
* **Absolute throughput floors** (activations/second) vary with
  hardware, so they only get loose sanity floors
  (``reference * min_frac``) catching order-of-magnitude regressions.
* **Trajectory tracking** guards against the slow bleed the one-shot
  floors cannot see: ``scripts/perf_history.jsonl`` accumulates one
  record per PR for each tracked metric, and the current value is
  compared against the median of the last ``window`` records measured
  on the same hardware tier.  One bad sample is only a warning (perf
  numbers are noisy); the run FAILS when the current value AND the
  previous record are both below ``median * min_frac`` - a sustained
  regression, not a blip.  Pass ``--update-history`` (the PR workflow:
  run benches, commit the appended line) to append this run's values.

Unlike check_metrics.py (bit-exact physics), perf numbers are noisy;
floors here are deliberately one-sided - faster is always fine.

Usage:
    scripts/check_perf.py RESULTS_DIR [--reference FILE]
        [--history FILE] [--update-history]

Exit status: 0 when every guarded bench that ran reports all its gated
metrics and they clear their floors (or no guarded bench ran), 1 on
any violation or missing metric, 2 on usage/IO errors.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path


def load_json(path: Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)


def load_history(path: Path):
    """History is JSONL: one {"bench","tier","metric","value"} per line."""
    records = []
    if not path.is_file():
        return records
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                print(
                    f"error: bad history line {lineno} in {path}: {exc}",
                    file=sys.stderr,
                )
                sys.exit(2)
    return records


def gated_metrics(spec):
    """Every metric name a bench's reference entry gates on."""
    names = [spec["tier_metric"]] if "tier_metric" in spec else []
    names += spec.get("ratio_floors", {})
    names += spec.get("throughput_floors", {})
    names += spec.get("trajectory", {}).get("metrics", [])
    return list(dict.fromkeys(names))


def check_ratio_floors(spec, metrics, tier, failures):
    for name, floors in spec.get("ratio_floors", {}).items():
        floor = floors.get(tier)
        if floor is None:
            continue
        value = float(metrics[name])
        if value < floor:
            failures.append(
                f"{name} = {value:.3f} below floor {floor:.3f} "
                f"(tier {tier})"
            )
        else:
            print(f"  ok: {name} = {value:.3f} >= {floor:.3f} (tier {tier})")


def check_throughput_floors(spec, metrics, failures):
    for name, fspec in spec.get("throughput_floors", {}).items():
        min_frac = float(fspec.get("min_frac", 0.2))
        floor = float(fspec["reference"]) * min_frac
        value = float(metrics[name])
        if value < floor:
            failures.append(
                f"{name} = {value:.3g} below sanity floor {floor:.3g} "
                f"({fspec['reference']:.3g} * {min_frac})"
            )
        else:
            print(f"  ok: {name} = {value:.3g} >= {floor:.3g}")


def check_trajectory(bench, spec, metrics, tier, history, new_records,
                     failures):
    """Sustained-regression guard against the committed history.

    For each tracked metric, the rolling baseline is the median of the
    last ``window`` history records for this bench+metric on the same
    hardware tier.  current < median*min_frac is a warning; current AND
    the most recent history record both below is a FAIL (two PRs in a
    row - a trend, not noise).  Fewer than ``min_records`` comparable
    records means no baseline yet: record and move on.
    """
    traj = spec.get("trajectory", {})
    window = int(traj.get("window", 8))
    min_frac = float(traj.get("min_frac", 0.5))
    min_records = int(traj.get("min_records", 3))
    for name in traj.get("metrics", []):
        value = float(metrics[name])
        new_records.append(
            {
                "ts": int(time.time()),
                "bench": bench,
                "tier": tier,
                "metric": name,
                "value": value,
            }
        )
        prior = [
            float(r["value"])
            for r in history
            if r.get("bench") == bench
            and r.get("metric") == name
            and str(r.get("tier")) == tier
        ]
        if len(prior) < min_records:
            print(
                f"  trajectory: {name} = {value:.3g} recorded "
                f"({len(prior)} prior record(s) at tier {tier}, "
                f"baseline needs {min_records})"
            )
            continue
        baseline = statistics.median(prior[-window:])
        floor = baseline * min_frac
        if value >= floor:
            print(
                f"  trajectory ok: {name} = {value:.3g} >= {floor:.3g} "
                f"(median {baseline:.3g} of last {min(len(prior), window)} "
                f"* {min_frac})"
            )
        elif prior[-1] < floor:
            failures.append(
                f"{name} = {value:.3g} below trajectory floor "
                f"{floor:.3g} for the 2nd PR running "
                f"(median {baseline:.3g}, tier {tier}) - sustained "
                f"regression"
            )
        else:
            print(
                f"  trajectory WARN: {name} = {value:.3g} < {floor:.3g} "
                f"(median {baseline:.3g}); one-off for now, fails if "
                f"the next PR is also below"
            )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results_dir", type=Path)
    parser.add_argument(
        "--reference",
        type=Path,
        default=Path(__file__).parent / "reference_perf.json",
    )
    parser.add_argument(
        "--history",
        type=Path,
        default=Path(__file__).parent / "perf_history.jsonl",
    )
    parser.add_argument(
        "--update-history",
        action="store_true",
        help="append this run's tracked metrics to the history file",
    )
    args = parser.parse_args()

    ref = load_json(args.reference)
    history = load_history(args.history)
    failures = []
    new_records = []
    checked = 0

    for bench, spec in ref.get("benches", {}).items():
        result_path = args.results_dir / f"BENCH_{bench}.json"
        if not result_path.is_file():
            print(f"check_perf: {result_path.name} not present, skipping")
            continue
        metrics = load_json(result_path).get("metrics", {})
        checked += 1
        missing = [n for n in gated_metrics(spec) if n not in metrics]
        if missing:
            for name in missing:
                failures.append(
                    f"{bench}: gated metric {name} missing from "
                    f"{result_path.name}"
                )
            continue
        tier = str(int(metrics.get(spec.get("tier_metric"), 0)))
        print(f"check_perf: {bench} (tier {tier})")
        check_ratio_floors(spec, metrics, tier, failures)
        check_throughput_floors(spec, metrics, failures)
        check_trajectory(
            bench, spec, metrics, tier, history, new_records, failures
        )

    if args.update_history and new_records:
        with open(args.history, "a") as fh:
            for rec in new_records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        print(
            f"check_perf: appended {len(new_records)} record(s) to "
            f"{args.history.name}"
        )

    if failures:
        print(f"check_perf: {len(failures)} floor violation(s):")
        for f in failures:
            print(f"  FAIL: {f}")
        return 1
    if checked == 0:
        print("check_perf: no guarded bench ran, nothing to do")
    else:
        print("check_perf: all floors cleared")
    return 0


if __name__ == "__main__":
    sys.exit(main())
