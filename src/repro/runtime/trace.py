"""Timeline export and visualization for simulated executions.

Converts a :class:`~repro.runtime.task.Timeline` into:

- Chrome trace-event JSON (loadable in ``chrome://tracing`` / Perfetto),
  the interchange format HPC tracing tools speak;
- a plain-text Gantt chart for terminal inspection;
- a per-device utilization summary;
- the structured metrics schema of :mod:`repro.obs` (``source:
  "modelled"``), so simulated executions are directly comparable with
  measured solver runs, record for record.
"""

from __future__ import annotations

import json

from ..obs.events import SCHEMA_VERSION
from ..utils.errors import SchedulerError
from .task import Timeline


def to_chrome_trace(timeline: Timeline) -> str:
    """Serialize as Chrome trace-event JSON (microsecond timestamps)."""
    events = []
    devices = sorted({r.device for r in timeline.records})
    tid_of = {name: i for i, name in enumerate(devices)}
    for record in sorted(timeline.records, key=lambda r: r.start):
        events.append(
            {
                "name": record.task.id,
                "cat": record.task.kernel,
                "ph": "X",  # complete event
                "ts": record.start * 1e6,
                "dur": record.duration * 1e6,
                "pid": 0,
                "tid": tid_of[record.device],
                "args": {
                    "kernel": record.task.kernel,
                    "n_cells": record.task.n_cells,
                    "block": record.task.block,
                },
            }
        )
    meta = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "args": {"name": device},
        }
        for device, tid in tid_of.items()
    ]
    return json.dumps({"traceEvents": meta + events}, indent=1)


def save_chrome_trace(timeline: Timeline, path) -> None:
    with open(path, "w") as fh:
        fh.write(to_chrome_trace(timeline))


def ascii_gantt(timeline: Timeline, width: int = 72) -> str:
    """Terminal Gantt chart: one row per device, one glyph per time slot."""
    if not timeline.records:
        return "(empty timeline)"
    if width < 10:
        raise SchedulerError("gantt width must be at least 10")
    span = timeline.makespan
    devices = sorted({r.device for r in timeline.records})
    name_w = max(len(d) for d in devices)
    glyphs = {}

    def glyph(kernel):
        if kernel not in glyphs:
            palette = "#*+=o%@&x"
            glyphs[kernel] = palette[len(glyphs) % len(palette)]
        return glyphs[kernel]

    rows = []
    for device in devices:
        lane = [" "] * width
        for r in timeline.records:
            if r.device != device:
                continue
            lo = int(r.start / span * (width - 1))
            hi = max(int(r.end / span * (width - 1)), lo)
            for i in range(lo, hi + 1):
                lane[i] = glyph(r.task.kernel)
        rows.append(f"{device:<{name_w}} |{''.join(lane)}|")
    legend = "  ".join(f"{g}={k}" for k, g in sorted(glyphs.items(), key=lambda kv: kv[1]))
    header = f"makespan = {span:.6g} s, imbalance = {timeline.imbalance():.3f}"
    return "\n".join([header, *rows, legend])


def utilization(timeline: Timeline) -> dict[str, float]:
    """Busy fraction of the makespan per device."""
    span = timeline.makespan
    if span == 0:
        return {}
    return {dev: busy / span for dev, busy in sorted(timeline.busy_time().items())}


def to_metrics_records(timeline: Timeline, meta: dict | None = None) -> list[dict]:
    """Export a simulated timeline in the :mod:`repro.obs` event schema.

    The whole timeline becomes one ``step`` record (``source: "modelled"``)
    whose ``kernel_seconds`` are the per-kernel modelled busy times and
    whose ``wall_seconds`` is the makespan — the same keys a measured
    solver run emits, so modelled and measured streams diff directly.
    Per-device busy seconds land in ``gauges``.
    """
    kernels: dict[str, float] = {}
    n_cells_total = 0
    for r in timeline.records:
        kernels[r.task.kernel] = kernels.get(r.task.kernel, 0.0) + r.duration
        n_cells_total += r.task.n_cells
    gauges = {
        f"device.{dev}.busy_seconds": busy
        for dev, busy in sorted(timeline.busy_time().items())
    }
    common = {"schema": SCHEMA_VERSION, "source": "modelled"}
    return [
        {
            **common,
            "event": "run_start",
            "meta": {
                "n_tasks": len(timeline.records),
                "devices": sorted({r.device for r in timeline.records}),
                **(meta or {}),
            },
        },
        {
            **common,
            "event": "step",
            "step": 1,
            "t": timeline.makespan,
            "dt": timeline.makespan,
            "wall_seconds": timeline.makespan,
            "kernel_seconds": kernels,
            "counters": {"tasks.cells": n_cells_total},
            "gauges": gauges,
        },
        {
            **common,
            "event": "run_end",
            "steps": 1,
            "kernel_seconds_total": kernels,
            "counters_total": {"tasks.cells": n_cells_total},
            "makespan": timeline.makespan,
            "imbalance": timeline.imbalance(),
        },
    ]
