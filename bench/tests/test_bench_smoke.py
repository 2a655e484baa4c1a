"""Smoke test of the repository benchmark (``pytest bench/tests``).

Outside tier-1 ``testpaths``: it spawns the real workloads, compiled kernels
and worker processes included.
"""

import ctypes
import json
import os
import re
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "bench" / "run.py")]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    # Compile into the bench-owned cache first, off the clock: the time
    # limit is for a warm cache.
    for workload in ("blast2d_cext", "serve_sweep96"):
        subprocess.run(RUN + ["--workload", workload, "--setup-only"],
                       cwd=ROOT, check=True, capture_output=True, timeout=900)
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    t0 = time.perf_counter()
    proc = subprocess.run(RUN + ["--seed", "0", "--smoke", "--out", str(out)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text()), elapsed


def ran(result):
    return {n: w for n, w in result["workloads"].items() if "skipped" not in w}


def test_smoke_is_quick(smoke):
    _, elapsed = smoke
    assert elapsed < 30.0


def test_every_declared_name_is_emitted(smoke):
    result, _ = smoke
    names = [w["name"] for w in DECLARED["workloads"]]
    assert list(result["workloads"]) == names
    end_to_end = [m["name"] for m in DECLARED["end_to_end"]]
    per_layer = [m["name"] for m in DECLARED["per_layer"]]
    for name in names + end_to_end + per_layer:
        assert NAME.fullmatch(name), name
    for name, entry in result["workloads"].items():
        if "skipped" in entry:
            # only the multi-process workload may refuse, and must say why
            assert name == "blast2d_proc2" and "usable cpus" in entry["skipped"]
            continue
        assert list(entry["end_to_end"]) == end_to_end
        assert list(entry["per_layer"]) == per_layer
        for metric in entry["end_to_end"].values():
            assert metric["median"] > 0


def test_nothing_failed(smoke):
    result, _ = smoke
    for name, entry in ran(result).items():
        assert entry["failed_frac"] == 0, name


def test_host_fingerprint(smoke):
    result, _ = smoke
    for key in ("nproc", "usable_cpus", "loadavg_1min", "loadavg_1min_start",
                "toolchain", "cflags", "numpy", "cffi", "git_commit", "seed", "smoke"):
        assert key in result["host"], key
    assert result["host"]["smoke"] is True


def test_interaction_table_zeros(smoke):
    result, _ = smoke
    layers = {n: {m: v["value"] for m, v in w["per_layer"].items()}
              for n, w in ran(result).items()}
    cext = layers["blast2d_cext"]
    assert cext["reconstruct.reconstruct_s"] == 0 and cext["riemann.solve_s"] == 0
    assert all(v == 0 for m, v in cext.items() if m.startswith("comm."))
    assert cext["codegen.face_flux_s"] > 0
    assert layers["kh2d_ppm_cext"]["codegen.face_flux_s"] == 0
    assert layers["kh2d_ppm_cext"]["reconstruct.reconstruct_s"] > 0
    assert layers["blast2d_ranks16"]["comm.exchange_halos_s"] > 0
    for name in ("blast2d_cext", "kh2d_ppm_cext", "blast2d_ranks16", "amr_blast2d"):
        assert layers[name]["trace.accounted_frac"] >= 0.9, name


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_trace_nests_and_self_times_add_up(smoke, workload):
    result, _ = smoke
    if workload not in ran(result):
        pytest.skip(result["workloads"][workload]["skipped"])
    path = ROOT / "bench" / "results" / f"trace_{workload}.json"
    events = json.loads(path.read_text())["traceEvents"]
    by_id = {e["args"]["id"]: e for e in events}
    children = defaultdict(float)
    eps = 1e-3  # µs; float noise from rebasing the timestamps
    for e in events:
        parent = e["args"]["parent"]
        if parent == -1:
            assert e["name"].startswith("bench.")
            continue
        p = by_id[parent]
        assert p["ts"] - eps <= e["ts"], (e, p)
        assert e["ts"] + e["dur"] <= p["ts"] + p["dur"] + eps, (e, p)
        assert e["args"]["step"] == p["args"]["step"]
        children[parent] += e["dur"]
    self_times = [e["dur"] - children[e["args"]["id"]] for e in events]
    assert min(self_times) >= -eps
    roots = sum(e["dur"] for e in events if e["args"]["parent"] == -1)
    assert roots > 0
    assert abs(sum(self_times) - roots) <= 0.01 * roots


def test_compare_verdicts_and_exit_code(smoke, tmp_path):
    result, _ = smoke
    name = next(iter(ran(result)))
    metric = "cal_latency_s_p50"  # lower is better, bound 25%

    def variant(factor, spread):
        other = json.loads(json.dumps(result))
        m = other["workloads"][name]["end_to_end"][metric]
        m.update(median=m["median"] * factor, spread=spread,
                 values=[v * factor for v in m["values"]])
        path = tmp_path / f"x{factor}_{spread}.json"
        path.write_text(json.dumps(other))
        return str(path)

    def compare(a, b):
        proc = subprocess.run([sys.executable, str(ROOT / "bench" / "compare.py"), a, b],
                              capture_output=True, text=True)
        row = next(line for line in proc.stdout.splitlines()
                   if line.startswith(name) and f" {metric} " in line)
        return proc.returncode, row

    base = variant(1.0, 0.0)
    code, row = compare(base, base)
    assert code == 0 and " ok " in row
    code, row = compare(base, variant(1.5, 0.0))
    assert code == 1 and "regressed" in row
    code, row = compare(base, variant(1.1, 0.4))
    assert code == 0 and "unresolved" in row
    # wide spread, but every run of B beats every run of A: resolved
    code, row = compare(base, variant(0.5, 0.4))
    assert code == 0 and " ok " in row


def test_no_process_outlives_a_run(smoke):
    """The worker processes, the ``--setup-only`` children and every
    ``multiprocessing`` resource tracker have ended when the run returns."""
    # As a subreaper this process would inherit whatever the run orphaned.
    ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    proc = subprocess.run(
        RUN + ["--workload", "blast2d_proc2", "--seed", "0", "--seconds", "0.3", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode == 3:
        pytest.skip(proc.stderr.strip())
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
