#!/usr/bin/env python3
"""Compare two result sets of ``bench/run.py`` (A = base, B = candidate).

    python3 bench/compare.py bench/results/A.json bench/results/B.json

One row per (workload, end-to-end metric): both medians, the ratio B/A with
its base, the wider of the two run-to-run spreads, the regression bound, and
a verdict:

``regressed``   B's median is worse than A's by more than the bound;
``unresolved``  the spread is wider than the bound, so "no change" cannot be
                told from a change of the bound's size — unless every run of
                B reads better than every run of A;
``ok``          otherwise.

``failed_frac`` regresses on any increase.  Exit status is 1 if any row
regressed, else 0.
"""

from __future__ import annotations

import json
import sys


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """(verdict, the wider of the two spreads)."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    spread = max(a["spread"], b["spread"])
    if worse_by > bound:
        return "regressed", spread
    all_better = (
        max(b["values"]) < min(a["values"]) if better == "lower"
        else min(b["values"]) > max(a["values"])
    )
    if spread > bound and not all_better:
        return "unresolved", spread
    return "ok", spread


def main(argv) -> int:
    if len(argv) != 3:
        sys.exit(__doc__)
    with open(argv[1]) as fa, open(argv[2]) as fb:
        a, b = json.load(fa), json.load(fb)
    bounds = a["bounds"]
    regressed = 0
    print(f"{'workload':18s} {'metric':24s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'spread':>7s} {'bound':>6s}  verdict")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None or "skipped" in wa or "skipped" in wb:
            reason = "missing in B" if wb is None else (wa.get("skipped") or wb.get("skipped"))
            print(f"{name:18s} skipped: {reason}")
            continue
        for metric, decl in bounds.items():
            ma, mb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            word, spread = verdict(ma, mb, decl["better"], decl["bound"])
            regressed += word == "regressed"
            print(f"{name:18s} {metric:24s} {ma['median']:12.5g} {mb['median']:12.5g} "
                  f"{mb['median'] / ma['median']:7.3f} {spread:7.2%} {decl['bound']:6.0%}  "
                  f"{word} (base A = {ma['median']:.5g} {ma['unit']})")
        fa_, fb_ = wa["failed_frac"], wb["failed_frac"]
        word = "regressed" if fb_ > fa_ else "ok"
        regressed += word == "regressed"
        print(f"{name:18s} {'failed_frac':24s} {fa_:12.5g} {fb_:12.5g} "
              f"{'':7s} {'':7s} {'0%':>6s}  {word}")
        # Counts are taken over the same first steps of every traced run,
        # so between two runs of one program they repeat exactly.
        counts = [m for m, v in wa["per_layer"].items() if v["unit"] in ("count", "B")]
        moved = [m for m in counts
                 if wa["per_layer"][m]["value"] != wb["per_layer"][m]["value"]]
        print(f"{name:18s} {len(counts) - len(moved)} of {len(counts)} per-layer counts "
              f"identical" + (f"; differ: {', '.join(moved)}" if moved else ""))
    print(f"\n{regressed} regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
