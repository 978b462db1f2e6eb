#!/usr/bin/env python3
"""Bench regression gate for the release-smoke CI job.

Compares the gated throughput keys of a freshly measured record (the
merged micro_engine, net_ingest and query_serve smoke output) against the
committed baseline (BENCH_ingest.json) and fails when any key drops below
--min-ratio times the baseline. The gated keys are the wire-ingest rates,
the frame-routing rates, the query cache-hit and snapshot-rebuild rates
and InpEM's EM decode rate (EM iterations per second over a snapshot
export's selectors). The
default ratio of 0.5 is the deliberately generous ">2x regression"
threshold from the ROADMAP note: runner hardware varies a lot run to run,
but a halving of one of these rates means its fast path has structurally
regressed.

Usage:
  check_bench_regression.py BASELINE CURRENT [--min-ratio 0.5]
"""

import argparse
import json
import sys


def gated_keys(record):
    """The gated throughput keys: single-aggregator wire absorb, engine
    wire ingest at every shard count, the multiplexed collection-frame
    path, the query plane's cache-hit serving rate (a structural
    regression there means reads fell off the published-snapshot path),
    its forced snapshot rebuilds per second (the snapshot-publish stage:
    coefficient export plus the one-pass reconstruction of every served
    marginal), and InpEM's EM iterations per second (the decode kernel of
    a snapshot export; a per-iteration rate, so smoke and quick runs
    compare)."""
    return {
        key
        for key in record
        if key.endswith("wire_rps")
        or key.endswith("_frame_rps")
        or key.endswith(".frame_rps")
        or key == "query.cache_hit_rps"
        or key == "query.refresh_rps"
        or key == "InpEM.em_iter_rps"
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_ingest.json")
    parser.add_argument("current", help="freshly measured JSON")
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=0.5,
        help="fail when current/baseline drops below this (default 0.5)",
    )
    args = parser.parse_args()

    with open(args.baseline, encoding="utf-8") as f:
        baseline = json.load(f)
    with open(args.current, encoding="utf-8") as f:
        current = json.load(f)

    keys = sorted(gated_keys(baseline))
    if not keys:
        print(f"error: no gated keys in {args.baseline}")
        return 1

    failures = []
    for key in keys:
        if key not in current:
            # A silently renamed or dropped key would rot the gate.
            failures.append(f"{key}: missing from {args.current}")
            continue
        base, now = float(baseline[key]), float(current[key])
        if base <= 0:
            continue
        ratio = now / base
        marker = "OK " if ratio >= args.min_ratio else "REG"
        print(f"  [{marker}] {key}: {now:.3g}/s vs baseline {base:.3g}/s "
              f"(x{ratio:.2f})")
        if ratio < args.min_ratio:
            failures.append(
                f"{key}: {now:.3g}/s is below {args.min_ratio} x baseline "
                f"{base:.3g}/s"
            )

    if failures:
        print(f"\nbench regression gate FAILED ({len(failures)} keys):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"\nbench regression gate passed: {len(keys)} gated keys "
          f"within {args.min_ratio}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
