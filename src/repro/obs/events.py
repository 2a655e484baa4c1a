"""Structured JSONL event stream: the export format of the metrics layer.

One JSON object per line, every record carrying ``schema`` (version),
``event`` (record kind) and ``source`` (``"measured"`` for wall-clock runs,
``"modelled"`` for the simulated heterogeneous runtime — identical schema so
the two are directly comparable). Record kinds:

``run_start``
    Run metadata (problem, grid, scheme, ranks, ...).
``step``
    One solver step: ``step``, ``t``, ``dt``, ``wall_seconds``, per-kernel
    ``kernel_seconds`` deltas, per-counter ``counters`` deltas, current
    ``gauges``, plus driver-specific extras (halo bytes, leaf counts).
``run_end``
    Cumulative totals for the whole run.
"""

from __future__ import annotations

import json

from ..utils.errors import ConfigurationError

#: version stamp written into every record
SCHEMA_VERSION = 1


class EventSink:
    """Destination for structured event records."""

    def emit(self, record: dict) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release any underlying resource (idempotent)."""

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class BufferSink(EventSink):
    """In-memory sink: records accumulate on :attr:`records`."""

    def __init__(self):
        self.records: list[dict] = []

    def emit(self, record: dict) -> None:
        self.records.append(record)


class JsonlEventSink(EventSink):
    """Append events to a JSONL file, one record per line, flushed eagerly
    so a crashed run still leaves every completed step on disk."""

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "w")

    def emit(self, record: dict) -> None:
        if self._fh is None:
            raise ConfigurationError(f"event sink {self.path!r} already closed")
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class TeeSink(EventSink):
    """Fan one event stream out to several sinks."""

    def __init__(self, *sinks: EventSink):
        self.sinks = sinks

    def emit(self, record: dict) -> None:
        for sink in self.sinks:
            sink.emit(record)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


def read_events(path) -> list[dict]:
    """Load a JSONL metrics file back into a list of records."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def steps_of(records) -> list[dict]:
    """The ``step`` records of an event stream, in order."""
    return [r for r in records if r.get("event") == "step"]


#: metric-name suffixes that mark wall-clock-derived values (never stable
#: run to run, so excluded from golden streams)
_TIMING_SUFFIXES = ("_s", "_seconds", "_frac")

#: metric-name prefixes that describe the transport substrate rather than
#: the numerics (e.g. real shared-memory bytes/waits of the process
#: backend, modelled distributed-AMR ghost traffic, the supervisor's
#: failure/recovery accounting, or which kernel target a fallen-back
#: ``cext`` run ended up on) — excluded so serial, process,
#: fault-recovered and ``cext``-as-``flat`` streams canonicalize equal
_SUBSTRATE_PREFIXES = ("comm.shm.", "comm.amr.", "supervision.", "codegen.")

#: exact metric names with the same substrate character (a recovered run
#: must canonicalize byte-identical to a fault-free one; rank counts and
#: rebalance bookkeeping describe how the forest was executed, not what
#: it computed, so an N-rank distributed-AMR stream canonicalizes equal
#: to the serial one)
_SUBSTRATE_NAMES = frozenset(
    {
        "resilience.worker_restarts",
        "amr.imbalance",
        "amr.migrated_blocks",
        "amr.repartitions",
    }
)

#: non-step event kinds describing the execution substrate, dropped from
#: the canonical projection entirely
_SUBSTRATE_EVENTS = frozenset({"supervision", "amr_rebalance"})

#: the executor-independent part of a step record's ``amr`` block — the
#: distributed extras (imbalance, migrations, per-rank block counts) are
#: projected away for the same reason as the substrate metrics above
_AMR_CANONICAL_KEYS = ("n_leaves", "cells_updated", "regrids", "leaves_by_level")


def _is_timing_metric(name: str) -> bool:
    return (
        name.endswith(_TIMING_SUFFIXES)
        or name.startswith(_SUBSTRATE_PREFIXES)
        or name in _SUBSTRATE_NAMES
    )


def _filter_metrics(mapping: dict) -> dict:
    return {k: v for k, v in mapping.items() if not _is_timing_metric(k)}


def canonical_stream(records) -> str:
    """Deterministic JSONL projection of an event stream for golden tests.

    Keeps everything that is a pure function of the numerics — the
    ``run_start`` metadata, per-step ``step``/``t``/``dt``, counter deltas,
    gauges, histogram summaries, and the ``comm`` byte accounting — and
    drops every wall-clock-derived field: ``wall_seconds``,
    ``kernel_seconds``, and any metric whose name ends in ``_s``,
    ``_seconds``, or ``_frac``.  Substrate records are dropped too:
    ``supervision`` events, ``supervision.*`` counters and
    ``resilience.worker_restarts`` describe how the run was executed and
    recovered, not what it computed, so a supervised run that survived a
    rank failure canonicalizes identical to a fault-free one.  The
    distributed-AMR bookkeeping (``amr_rebalance`` events, ``amr.imbalance``
    and migration counters, per-rank block counts) is dropped the same way:
    an N-rank run canonicalizes identical to the serial forest.  Rendered
    with sorted keys, the result is
    byte-stable across runs of the same build, so committed fixtures catch
    metric renames, schema drift, and numerical regressions loudly.
    """
    lines = []
    for r in records:
        event = r.get("event")
        if event in _SUBSTRATE_EVENTS:
            continue
        if event == "step":
            proj = {
                "schema": r.get("schema"),
                "event": event,
                "source": r.get("source"),
                "step": r.get("step"),
                "t": r.get("t"),
                "dt": r.get("dt"),
                "counters": _filter_metrics(r.get("counters", {})),
                "gauges": _filter_metrics(r.get("gauges", {})),
                "histograms": _filter_metrics(r.get("histograms", {})),
            }
            if "comm" in r:
                proj["comm"] = r["comm"]
            if "amr" in r:
                proj["amr"] = {
                    k: r["amr"][k] for k in _AMR_CANONICAL_KEYS if k in r["amr"]
                }
        else:
            proj = {
                k: v
                for k, v in r.items()
                if k not in ("wall_seconds", "kernel_seconds_total")
                and not (isinstance(v, (int, float)) and _is_timing_metric(k))
            }
            if "counters_total" in proj:
                proj["counters_total"] = _filter_metrics(proj["counters_total"])
        lines.append(json.dumps(proj, sort_keys=True))
    return "\n".join(lines) + "\n"
