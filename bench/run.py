#!/usr/bin/env python3
"""The repository benchmark: one workload per process, or all of them.

Contract entry (what ``BENCHMARK.json`` names and the acceptance driver runs)::

    python3 bench/run.py --workload blast2d_cext --seed 0 --seconds 8 --trace 0

measures one workload in this process and prints, as the last line of
stdout, ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--workload`` it runs every workload as fresh subprocesses
(interleaved reps, then one traced rep each), prints every metric by name
and unit, and writes ``bench/results/latest.json`` for ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
RESULTS = BENCH / "results"
#: set-up is measured this many times per run (this process + fresh
#: subprocesses) and the median reported
SETUP_SAMPLES = 3
#: exit code of a workload that cannot run honestly on this host
EXIT_SKIPPED = 3
#: untraced reps per workload of a full run; compare.py's spread is taken
#: over this many values, so two result sets never differ in it
REPS = 3
#: window a --smoke run asks for: every workload falls back to its minimum
SMOKE_SECONDS = 0.3
#: one workload per compiled module (2-D, 1-D): setting them up fills the cache
PRIMERS = ("blast2d_cext", "serve_sweep96")
#: prctl(2) option, from <linux/prctl.h>
PR_SET_CHILD_SUBREAPER = 36


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def enter_checkout() -> None:
    """Make ``repro`` (from this checkout only) and ``bench`` importable and
    pin the compiled-kernel cache inside the checkout."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    # The script directory would shadow the stdlib ``trace`` module.
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    os.environ["REPRO_CEXT_CACHE"] = str(BENCH / ".cache")


def worker_command(workload: str, seed: int, *flags: str) -> list[str]:
    return [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), *flags]


# ---------------------------------------------------------------------------
# No process outlives a run
# ---------------------------------------------------------------------------


def adopt_descendants() -> None:
    """Make orphaned descendants re-parent to this process, not to init.

    ``multiprocessing`` starts a resource tracker next to the first worker
    or shared-memory segment, and the tracker ends only after the process
    that started it has: the tracker of a ``--setup-only`` child would be
    left to init, which on a container host may never reap it.
    """
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def child_pids() -> list[int]:
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            except OSError:
                continue  # ended while we were looking
            if ppid == me:
                found.append(int(entry))
    return found


def stop_descendants(grace_s: float = 5.0) -> None:
    """Wait until every process this one started or adopted has ended;
    one still running after *grace_s* (a path out that skipped the driver's
    ``close()``) is killed first."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        # Our own tracker waits for its pipe to close, which is otherwise
        # at our exit; _stop() closes it and waits for the tracker.
        tracker._resource_tracker._stop()
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() > deadline:
                for child in child_pids():
                    os.kill(child, signal.SIGKILL)
            time.sleep(0.01)


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------


def setup_in_subprocess(args) -> float:
    """Set-up time of a fresh interpreter doing the same set-up."""
    out = subprocess.run(
        worker_command(args.workload, args.seed, "--setup-only"),
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def run_workload(args) -> int:
    enter_checkout()
    from bench import host
    from bench.trace import Tracer
    from bench.workloads import WORKLOADS, percentile

    load0 = os.getloadavg()[0]
    spec = declared()
    wl = WORKLOADS[args.workload](args.seed)
    if wl.workers > host.usable_cpus():
        print(
            f"bench: {wl.name} skipped: {wl.workers} workers > "
            f"{host.usable_cpus()} usable cpus (no wall-clock claim without the cores)",
            file=sys.stderr,
        )
        return EXIT_SKIPPED

    tracer = Tracer() if args.trace else None
    traced = tracer.installed if tracer else nullcontext
    if tracer:
        wl.attach(tracer)
    with traced():
        wl.setup()
    if tracer:
        wl.record_setup(tracer)
    setup_samples = [host.seconds_since_process_start()]
    if args.setup_only:
        wl.close()
        print(json.dumps({"setup_s": setup_samples[0]}))
        return 0

    # --seconds fixes the work of the run (see Workload.units_per_s).
    units = wl.units_for(SMOKE_SECONDS if args.smoke else args.seconds)
    windows = []
    if tracer:
        # Three quarters of the work traced, then the rest untraced: the
        # base of trace.overhead_frac and of the unit.* readings.
        units_traced = max(wl.min_units, round(0.75 * units))
        units -= units_traced
        first_span = len(tracer.spans)
        with traced():
            seen_start = wl.observe()
            win_traced = wl.measure(units_traced, tracer)
            seen_end = wl.observe()
        windows.append(win_traced)
    if not any(w.aborted for w in windows):
        windows.append(wl.measure(max(wl.min_units, units)))
    win = windows[-1]
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    if win.aborted:
        # A driver that raised is in no state to be hashed or compared, and
        # an unfinished window has no honest timings: report the failure
        # first, so that it stands whatever closing the driver does.
        for line in wl.failed_checks:
            print(f"# FAILED {line}")
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}), flush=True)
        wl.close()
        return 1
    rss_mb = host.peak_rss_mb(wl.pids())
    wl.close()
    wl.checks(traced=bool(tracer), smoke=args.smoke)
    if not (tracer or args.smoke):
        setup_samples += [setup_in_subprocess(args) for _ in range(SETUP_SAMPLES - 1)]

    # Window timings are read against the host's measured speed (see
    # bench.host.Calibration): "cal" seconds are seconds on a host running
    # at nominal speed.  The raw readings are printed alongside.
    end_to_end = {
        "setup_s": statistics.median(setup_samples),
        "cal_zone_updates_per_s": win.zone_updates / win.wall_s * win.slowdown,
        "cal_latency_s_p50": win.cal_latency_p50(),
        "peak_rss_mb": rss_mb,
    }
    raw = {
        "zone_updates_per_s": win.zone_updates / win.wall_s,
        "latency_s_p50": percentile(win.latencies, 0.50),
        "host_slowdown": win.slowdown,
    }
    per_layer = {}
    if tracer:
        per_layer = wl.layer_metrics(tracer, first_span, seen_start, seen_end, win_traced)
        per_layer.update({
            "unit.latency_s_p50": raw["latency_s_p50"],
            "unit.latency_s_p90": percentile(win.latencies, 0.90),
            "unit.cpu_us_per_zone_update": 1e6 * win.cpu_s / win.zone_updates,
            "host.slowdown": win.slowdown,
        })
        per_layer["trace.overhead_frac"] = (
            win_traced.cal_latency_p50() / end_to_end["cal_latency_s_p50"] - 1.0
        )
        tracer.write_chrome_trace(RESULTS / f"trace_{wl.name}.json", first_span)

    attempted += wl.n_checks
    failed += len(wl.failed_checks)

    def with_units(values: dict, section: str) -> dict:
        """Every declared metric of *section*, in declared order; a layer
        metric that does not apply to this workload reads 0."""
        names = {m["name"]: m["unit"] for m in spec[section]}
        undeclared = sorted(set(values) - set(names))
        if undeclared:
            sys.exit(f"bench: {section} metrics not in BENCHMARK.json: {undeclared}")
        return {n: {"value": values.get(n, 0.0), "unit": u} for n, u in names.items()}

    end_to_end = with_units(end_to_end, "end_to_end")
    per_layer = with_units(per_layer, "per_layer") if tracer else {}

    fingerprint = host.fingerprint(args.seed, args.smoke)
    fingerprint["loadavg_1min_start"] = load0
    print(f"# {wl.name}: {wl.why}")
    print(f"# host {json.dumps(fingerprint)}")
    print(f"# {len(win.latencies)} {wl.unit} samples over {win.wall_s:.3f} s, "
          f"{wl.n_checks} checks, failed_frac {failed / attempted:.4g}")
    print("# raw " + " ".join(f"{name}={value:.6g}" for name, value in raw.items()))
    for line in wl.failed_checks:
        print(f"# FAILED {line}")
    for name, metric in {**end_to_end, **per_layer}.items():
        print(f"{name:42s} {metric['value']:>16.6g} {metric['unit']}")

    verdict = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if args.out:
        record = {
            "workload": wl.name, "host": fingerprint, "samples": len(win.latencies),
            "failed_checks": wl.failed_checks, **verdict,
            "end_to_end": end_to_end, "per_layer": per_layer,
        }
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    print(json.dumps({**verdict, "metrics": per_layer if tracer else end_to_end}))
    return 0


# ---------------------------------------------------------------------------
# Every workload, as subprocesses
# ---------------------------------------------------------------------------


def run_one(job) -> dict:
    name, rep, traced, args = job
    out = RESULTS / "runs" / f"{name}.{'trace' if traced else rep}.json"
    flags = ["--seconds", str(args.seconds), "--trace", str(int(traced)), "--out", str(out)]
    if args.smoke:
        flags.append("--smoke")
    proc = subprocess.run(worker_command(name, args.seed, *flags),
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode == EXIT_SKIPPED:
        return {"workload": name, "skipped": proc.stderr.strip()}
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"bench: {name} exited with {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def run_all(args) -> int:
    enter_checkout()
    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    t_start = time.perf_counter()

    # Untimed priming: every measured process then loads compiled kernels
    # from a warm cache, so setup_s is always the warm-cache figure.
    for name in PRIMERS:
        subprocess.run(worker_command(name, args.seed, "--setup-only"),
                       cwd=ROOT, capture_output=True, timeout=900, check=True)
    if args.smoke:
        # Smoke checks behaviour, not speed: one traced run per workload
        # (it reports the end-to-end metrics too), two at a time.
        with ThreadPoolExecutor(max_workers=2) as pool:
            untraced = traced = list(pool.map(run_one, [(n, 0, True, args) for n in names]))
    else:
        # Reps interleave round-robin so drift in the host hits every
        # workload alike.
        untraced = [run_one((n, rep, False, args)) for rep in range(REPS) for n in names]
        traced = [run_one((n, 0, True, args)) for n in names]

    result = {"host": None, "bounds": bounds, "workloads": {}}
    any_failed = False
    for name in names:
        mine = [r for r in untraced if r["workload"] == name]
        if "skipped" in mine[0]:
            result["workloads"][name] = {"skipped": mine[0]["skipped"]}
            print(f"\n== {name}: SKIPPED — {mine[0]['skipped']}")
            continue
        result["host"] = result["host"] or mine[0]["host"]
        trace_run = next(r for r in traced if r["workload"] == name)
        runs = mine if trace_run in mine else mine + [trace_run]
        entry = {"end_to_end": {}, "per_layer": trace_run["per_layer"], "runs": len(mine)}
        print(f"\n== {name} ({len(mine)} reps)")
        for metric in bounds:
            values = [r["end_to_end"][metric]["value"] for r in mine]
            median = statistics.median(values)
            spread = (max(values) - min(values)) / median
            unit = mine[0]["end_to_end"][metric]["unit"]
            entry["end_to_end"][metric] = {
                "median": median, "spread": spread, "values": values, "unit": unit,
            }
            print(f"{metric:42s} {median:>16.6g} {unit:6s} spread {spread:6.2%}")
        for metric, v in entry["per_layer"].items():
            print(f"  {metric:40s} {v['value']:>16.6g} {v['unit']}")
        entry["failed_frac"] = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
        print(f"{'failed_frac':42s} {entry['failed_frac']:>16.6g}")
        for r in runs:
            for line in r["failed_checks"]:
                print(f"FAILED {line}")
        any_failed = any_failed or entry["failed_frac"] > 0
        result["workloads"][name] = entry

    out = Path(args.out) if args.out else RESULTS / "latest.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1)
    print(f"\nwrote {out} in {time.perf_counter() - t_start:.1f} s")
    return 1 if any_failed else 0


def main() -> int:
    adopt_descendants()
    try:
        return dispatch()
    finally:
        stop_descendants()


def dispatch() -> int:
    parser =argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed window (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimum windows, one set-up sample: checks behaviour, not speed")
    parser.add_argument("--out", help="also write the full record to this JSON file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    spec = declared()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload is None:
        return run_all(args)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
