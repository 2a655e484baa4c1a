"""Metrics primitives: counters, gauges, histograms, and a registry.

The observability layer every hot path reports through. Three instrument
kinds cover the measurement needs of a CLUSTER-style systems study:

- :class:`Counter` — monotone totals (cells recovered, bytes sent, cells
  floored to atmosphere);
- :class:`Gauge` — last-written values (current dt, deepest Newton
  iteration count of the latest sweep);
- :class:`Histogram` — streaming min/max/mean/count plus log-spaced
  buckets over observations (per-step dt, per-sweep Newton iteration
  maxima, message sizes), so tail quantiles (p50/p99) survive without
  storing samples.

A :class:`MetricsRegistry` names and owns instruments; snapshots are plain
dicts so per-step *deltas* (what the structured-event recorder emits) are a
dictionary subtraction away.

Histogram summaries are *mergeable*: bucket counts are integers, so
combining per-rank summaries with :func:`merge_histogram_summaries`
reproduces exactly the summary a single shared registry would have
produced — the property the process executor's bit-exactness contract
rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..utils.errors import ConfigurationError

#: log2 bucket resolution: 4 buckets per octave keeps any quantile's
#: bucket-edge representative within ~19% of the true sample value.
BUCKETS_PER_OCTAVE = 4


def bucket_index(value: float) -> int:
    """Bucket of a positive observation: smallest i with 2**(i/B) >= value."""
    return math.ceil(BUCKETS_PER_OCTAVE * math.log2(value))


def bucket_edge(index: int) -> float:
    """Upper edge (inclusive) of bucket *index*."""
    return 2.0 ** (index / BUCKETS_PER_OCTAVE)


def empty_histogram_summary() -> dict:
    return {
        "count": 0,
        "sum": 0.0,
        "min": 0.0,
        "max": 0.0,
        "mean": 0.0,
        "p50": 0.0,
        "p99": 0.0,
        "nonpos": 0,
        "buckets": {},
    }


def _normalize_buckets(buckets: dict) -> dict[int, int]:
    """Bucket counts keyed by int index, summing int/str key collisions.

    Bucket keys may be ints (live registry) or strings (JSON round-trip) —
    or *both at once*, e.g. a live registry summary merged with one read
    back from a JSONL stream.  Key collisions (``3`` and ``"3"``) are
    summed so no sample is dropped.
    """
    out: dict[int, int] = {}
    for k, v in buckets.items():
        idx = int(k)
        out[idx] = out.get(idx, 0) + v
    return out


def _quantile(
    q: float, count: int, nonpos: int, buckets: dict, vmin: float, vmax: float
) -> float:
    """The q-quantile as a bucket upper edge, clamped to [vmin, vmax].

    Observations <= 0 (the ``nonpos`` bucket) sort below every log bucket
    and are represented by the sample minimum.  Bucket keys are normalized
    up front (see :func:`_normalize_buckets`), so summaries holding a mix
    of int and str keys for the same index count every sample exactly once.
    """
    if count <= 0:
        return 0.0
    normalized = _normalize_buckets(buckets)
    rank = min(max(math.ceil(q * count), 1), count)
    if rank <= nonpos:
        return min(vmin, 0.0)
    acc = nonpos
    for idx in sorted(normalized):
        acc += normalized[idx]
        if rank <= acc:
            return min(max(bucket_edge(idx), vmin), vmax)
    return vmax


def summary_quantile(summary: dict, q: float) -> float:
    """Quantile of a stored histogram summary (JSON round-trip safe)."""
    return _quantile(
        q,
        summary.get("count", 0),
        summary.get("nonpos", 0),
        summary.get("buckets", {}),
        summary.get("min", 0.0),
        summary.get("max", 0.0),
    )


def merge_histogram_summaries(cur: dict | None, new: dict | None) -> dict:
    """Combine two histogram summaries exactly.

    Bucket counts are integers, so the merged summary is bit-identical to
    the one a single registry observing both sample streams would emit
    (float ``sum`` re-association is exact for the canonical
    integer-valued observations).  Either side may be ``None`` or empty.
    """
    if new is None or new.get("count", 0) == 0:
        new = None
    if cur is None or cur.get("count", 0) == 0:
        cur = None
    if cur is None and new is None:
        return empty_histogram_summary()
    if cur is None or new is None:
        # One-sided merge still re-derives the quantiles: the surviving
        # summary may predate the p50/p99 fields (an older stream) or
        # carry stale values — propagating them unrepaired would poison
        # every downstream merge.
        src = cur if new is None else new
        out = dict(src)
        count = src.get("count", 0)
        nonpos = src.get("nonpos", 0)
        raw = src.get("buckets", {})
        vmin = src.get("min", 0.0)
        vmax = src.get("max", 0.0)
        out["buckets"] = {
            str(k): v for k, v in sorted(_normalize_buckets(raw).items())
        }
        out["p50"] = _quantile(0.5, count, nonpos, raw, vmin, vmax)
        out["p99"] = _quantile(0.99, count, nonpos, raw, vmin, vmax)
        return out
    count = cur["count"] + new["count"]
    total = cur["sum"] + new["sum"]
    vmin = min(cur["min"], new["min"])
    vmax = max(cur["max"], new["max"])
    nonpos = cur.get("nonpos", 0) + new.get("nonpos", 0)
    buckets: dict[str, int] = {}
    for src in (cur, new):
        for k, v in _normalize_buckets(src.get("buckets", {})).items():
            key = str(k)
            buckets[key] = buckets.get(key, 0) + v
    return {
        "count": count,
        "sum": total,
        "min": vmin,
        "max": vmax,
        "mean": total / count,
        "p50": _quantile(0.5, count, nonpos, buckets, vmin, vmax),
        "p99": _quantile(0.99, count, nonpos, buckets, vmin, vmax),
        "nonpos": nonpos,
        "buckets": dict(sorted(buckets.items(), key=lambda kv: int(kv[0]))),
    }


@dataclass
class Counter:
    """Monotonically increasing total."""

    name: str = ""
    value: float = 0.0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0


@dataclass
class Gauge:
    """Last-written value (not monotone)."""

    name: str = ""
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def max(self, value: float) -> None:
        """Keep the running maximum (e.g. deepest iteration count)."""
        value = float(value)
        if value > self.value:  # max(self.value, value), without the call
            self.value = value

    def reset(self) -> None:
        self.value = 0.0


@dataclass
class Histogram:
    """Streaming summary of observed samples.

    Alongside count/sum/min/max, observations land in log-spaced buckets
    (:data:`BUCKETS_PER_OCTAVE` per power of two, keyed by integer bucket
    index) so the summary can answer tail-quantile questions — what a mean
    over thousands of steps hides.  Observations <= 0 (or non-finite) are
    pooled in a single ``nonpos`` underflow bucket below every log bucket.
    """

    name: str = ""
    count: int = 0
    total: float = 0.0
    vmin: float = field(default=float("inf"))
    vmax: float = field(default=float("-inf"))
    nonpos: int = 0
    buckets: dict[int, int] = field(default_factory=dict)

    def observe(self, value: float, n: int = 1) -> None:
        """Record *value* as *n* samples — the summary of *n* single calls,
        byte for byte wherever ``value * n`` and the running sum are exact
        (integer samples, such as iteration counts)."""
        value = float(value)
        self.count += n
        self.total += value * n
        if value < self.vmin:  # min() / max() keep the first on a tie or NaN
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        if 0.0 < value < math.inf:  # positive and finite
            idx = bucket_index(value)
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        else:
            self.nonpos += n

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The q-quantile (0..1) from the bucket counts; see module docs."""
        return _quantile(
            q, self.count, self.nonpos, self.buckets,
            self.vmin if self.count else 0.0,
            self.vmax if self.count else 0.0,
        )

    def summary(self) -> dict:
        if not self.count:
            return empty_histogram_summary()
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
            "nonpos": self.nonpos,
            # str keys so a live summary equals its JSON round-trip.
            "buckets": {str(k): v for k in sorted(self.buckets)
                        if (v := self.buckets[k])},
        }

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")
        self.nonpos = 0
        self.buckets = {}

    def restore_summary(self, summary: dict) -> None:
        """Reset, then adopt the state captured by :meth:`summary`.

        The round trip is exact: a restored histogram's next
        :meth:`summary` is equal to the one it was restored from (bucket
        counts are integers; ``sum`` is carried verbatim).
        """
        self.reset()
        count = int(summary.get("count", 0))
        if not count:
            return
        self.count = count
        self.total = float(summary.get("sum", 0.0))
        self.vmin = float(summary.get("min", 0.0))
        self.vmax = float(summary.get("max", 0.0))
        self.nonpos = int(summary.get("nonpos", 0))
        self.buckets = {
            int(k): int(v) for k, v in summary.get("buckets", {}).items()
        }


class MetricsRegistry:
    """Named collection of instruments; one name maps to one kind."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        #: bumped by :meth:`restore`, which replaces every instrument: a
        #: caller that keeps instrument handles re-resolves them when it moves
        self.generation = 0

    def _check_free(self, name: str, kind: dict) -> None:
        for pool in (self._counters, self._gauges, self._histograms):
            if pool is not kind and name in pool:
                raise ConfigurationError(
                    f"metric {name!r} already registered with a different kind"
                )

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._check_free(name, self._counters)
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._check_free(name, self._gauges)
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._check_free(name, self._histograms)
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-dict view of every instrument's current state."""
        return {
            "counters": {n: c.value for n, c in self._counters.items()},
            "gauges": {n: g.value for n, g in self._gauges.items()},
            "histograms": {n: h.summary() for n, h in self._histograms.items()},
        }

    def reset(self) -> None:
        for pool in (self._counters, self._gauges, self._histograms):
            for instrument in pool.values():
                instrument.reset()

    def restore(self, snapshot: dict) -> None:
        """Replace the registry's whole state with a prior :meth:`snapshot`.

        Instruments not present in *snapshot* are dropped (a partially
        executed step may have registered instruments the snapshot
        predates), so after restoring, :meth:`snapshot` returns exactly
        the dict that was passed in. Used by the supervised process
        executor to roll a rank back to the last consistent step boundary.
        Handles taken before it are stale: :attr:`generation` moves.
        """
        self.generation += 1
        self._counters = {
            n: Counter(n, float(v))
            for n, v in snapshot.get("counters", {}).items()
        }
        self._gauges = {
            n: Gauge(n, float(v)) for n, v in snapshot.get("gauges", {}).items()
        }
        self._histograms = {}
        for n, summ in snapshot.get("histograms", {}).items():
            hist = Histogram(n)
            hist.restore_summary(summ)
            self._histograms[n] = hist


def counter_deltas(new: dict, old: dict | None) -> dict[str, float]:
    """Per-counter increments between two :meth:`MetricsRegistry.snapshot`\\ s.

    Counters absent from *old* are treated as having been zero, so the
    first delta after an instrument appears reports its full value.

    A counter whose *new* value is **smaller** than its *old* value can only
    mean the registry was reset between the snapshots (counters are
    monotone). The naive difference would be negative — and counters the
    reset removed entirely would be dropped — silently corrupting per-step
    deltas. Both cases re-baseline from zero: the delta is the counter's
    full post-reset value.
    """
    prev = (old or {}).get("counters", {})
    out = {}
    for name, value in new.get("counters", {}).items():
        base = prev.get(name, 0.0)
        out[name] = value - base if value >= base else value
    return out
