#!/usr/bin/env python3
"""Run every library scenario once and print a compact cycle report.

Usage: python3 scripts/run_examples.py [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import sys

from szilard import (
    SCENARIO_NAMES,
    evaluate_features,
    run_cycle,
    scenario_library,
)


def _flag(value: bool) -> str:
    return "yes" if value else "no"


def describe(name: str) -> dict:
    config = scenario_library(name)
    result = run_cycle(config)
    report = evaluate_features(result, config)
    led = result.ledger
    print(f"== {name}")
    print(f"   conforming engine:        {_flag(config.conforming)}")
    print(
        "   features (repeatable, weight-entropy invariant, positive work): "
        f"{report.triple}"
    )
    for b in result.branches:
        print(
            f"   branch {str(b.outcome):>3}: p = {b.probability:.4f}  "
            f"W = {b.work:+.6f}  dS_W = {b.weight_entropy_change:+.6f}"
        )
    print(
        f"   work: coarse = {led.w_coarse:+.6f}  avg = {led.w_avg:+.6f}  "
        f"concavity gap = {led.concavity_gap:.6f}"
    )
    print(
        f"   erasure: heat = {result.erasure.q:.6f}  "
        f"reset work = {result.erasure.w_r:.6f}  "
        f"landauer optimal = {_flag(result.erasure.landauer_optimal)}"
    )
    print(
        f"   net: coarse = {led.w_net_coarse:+.6f}  "
        f"avg = {led.w_net_avg:+.6f}  "
        f"second-law slack = {led.slack_second_law:+.6f}"
    )
    print(
        f"   order gap = {result.objectification_order_gap:.2e}  "
        f"marginal deviation = {result.marginal_deviation:.2e}"
    )
    return {
        "scenario": name,
        "conforming": config.conforming,
        "features": list(report.triple),
        "branches": [
            {
                "outcome": str(b.outcome),
                "probability": b.probability,
                "work": b.work,
                "weight_entropy_change": b.weight_entropy_change,
            }
            for b in result.branches
        ],
        "ledger": {
            "w_coarse": led.w_coarse,
            "w_avg": led.w_avg,
            "q": result.erasure.q,
            "w_r": result.erasure.w_r,
            "w_net_coarse": led.w_net_coarse,
            "w_net_avg": led.w_net_avg,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", default=None, help="also write records here")
    ns = parser.parse_args(argv)
    records = [describe(name) for name in SCENARIO_NAMES]
    if ns.json:
        with open(ns.json, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=2)
        print(f"wrote {ns.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
