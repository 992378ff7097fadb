"""Zero-dependency metrics: counters, gauges, histograms, Prometheus text.

:class:`MetricsRegistry` is a process-local registry of named metric
*families* — :class:`Counter`, :class:`Gauge`, and :class:`Histogram` —
each fanning out into labeled series (one child per label-value
combination). Everything is stdlib-only and deliberately small:

- **Injectable clock.** Every latency measurement goes through
  ``registry.clock`` (default ``time.perf_counter``). Tests swap in a
  deterministic ticker and two identical runs produce *bit-identical*
  snapshots — the clock seam is the whole determinism story, so no
  instrumentation may call ``time`` directly (DESIGN.md, "Metrics
  conventions").
- **Cheap disablement.** ``registry.enabled = False`` turns every
  mutation into an early-return no-op (timers skip the clock entirely;
  ``tests/test_obs.py`` counts zero reads).
- **Bounded cardinality.** A family refuses to mint more than
  ``max_series`` children — unbounded label values are a memory leak
  wearing a telemetry costume, so the bound is an error, not a clamp.
- **Deterministic output.** :meth:`MetricsRegistry.snapshot` (nested
  plain dicts), :meth:`MetricsRegistry.wire` (the tuple form carried by
  the ``MetricsReply`` envelope), and :func:`render_prometheus` (text
  exposition format 0.0.4) all emit in sorted family/series order.

Histogram buckets are **fixed log-spaced** upper bounds (four per decade
from 10µs to 10s by default); :meth:`Histogram.percentile` answers the
nearest-rank percentile over those bounds with exactly the rank rule the
serving benchmark always used (``index = min(n - 1, int(n * q))`` into
the sorted sample), so the serving benchmark could swap its ad-hoc
sorted-list math for the shared histogram without moving a reported
number (``tests/test_obs.py`` holds the two identical on a
fixed sample).
"""

from __future__ import annotations

import math
import re
import threading
import time
from bisect import bisect_left

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_MAX_SERIES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_prometheus",
]

#: Fixed log-spaced latency buckets: four per decade, 10µs .. 10s.
#: Fixed (not adaptive) so two runs of the same workload always land
#: observations in the same buckets — a precondition for bit-identical
#: snapshots under the injectable clock.
DEFAULT_BUCKETS = tuple(
    round(10.0 ** (exponent / 4.0), 12) for exponent in range(-20, 5)
)

#: Default per-family series bound (see the cardinality convention).
DEFAULT_MAX_SERIES = 64

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")


def _format_number(value) -> str:
    """One sample value in exposition form (ints bare, floats via repr)."""
    if isinstance(value, bool):  # pragma: no cover - not a metric value
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _escape_label(text: str) -> str:
    return (
        text.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


class _Family:
    """Shared machinery of one named metric family (all kinds)."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames=(),
        *,
        registry: "MetricsRegistry | None" = None,
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labelnames = tuple(labelnames)
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        if len(set(labelnames)) != len(labelnames):
            raise ValueError(f"duplicate label names {labelnames!r}")
        self.name = name
        self.help = str(help)
        self.labelnames = labelnames
        self.max_series = int(max_series)
        self._registry = registry
        self._lock = threading.Lock()
        self._children: dict = {}

    # ------------------------------------------------------------- series --

    def labels(self, **labelvalues):
        """The child series for one label-value combination (created on
        first use; bounded by ``max_series``)."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {list(self.labelnames)}, "
                f"got {sorted(labelvalues)}"
            )
        key = tuple(str(labelvalues[label]) for label in self.labelnames)
        child = self._children.get(key)
        if child is not None:
            return child
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if len(self._children) >= self.max_series:
                    raise ValueError(
                        f"{self.name}: label cardinality bound "
                        f"({self.max_series} series) exceeded by {key!r} — "
                        "label values must come from a bounded set"
                    )
                child = self._make_child()
                self._children[key] = child
        return child

    def _default(self):
        """The single series of a label-less family (convenience ops)."""
        if self.labelnames:
            raise ValueError(
                f"{self.name} is labeled by {list(self.labelnames)}; "
                "address a series via .labels(...)"
            )
        return self.labels()

    def _make_child(self):  # pragma: no cover - overridden per kind
        raise NotImplementedError

    # ------------------------------------------------------------ output --

    def _sorted_series(self):
        with self._lock:
            items = sorted(self._children.items())
        return items

    def _snapshot(self) -> dict:
        out = {
            "kind": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "series": [
                {"labels": dict(zip(self.labelnames, key)), **child._state()}
                for key, child in self._sorted_series()
            ],
        }
        return out

    def _wire(self):
        return [
            (self.name, self.kind, tuple(zip(self.labelnames, key)), child._value())
            for key, child in self._sorted_series()
        ]

    def _reset(self) -> None:
        with self._lock:
            self._children.clear()

    def _enabled(self) -> bool:
        registry = self._registry
        return registry is None or registry.enabled

    def _clock(self):
        registry = self._registry
        return time.perf_counter if registry is None else registry.clock


class _CounterChild:
    __slots__ = ("_family", "value")

    def __init__(self, family) -> None:
        self._family = family
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not self._family._enabled():
            return
        amount = float(amount)
        if amount < 0.0:
            raise ValueError(f"counters only go up, got inc({amount})")
        with self._family._lock:
            self.value += amount

    def _state(self) -> dict:
        return {"value": self.value}

    def _value(self) -> float:
        return float(self.value)


class Counter(_Family):
    """A monotonically increasing sum (resets only via the registry)."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild(self)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    @property
    def value(self) -> float:
        return self._default().value


class _GaugeChild:
    __slots__ = ("_family", "value")

    def __init__(self, family) -> None:
        self._family = family
        self.value = 0.0

    def set(self, value: float) -> None:
        if not self._family._enabled():
            return
        with self._family._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not self._family._enabled():
            return
        with self._family._lock:
            self.value += float(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-float(amount))

    def _state(self) -> dict:
        return {"value": self.value}

    def _value(self) -> float:
        return float(self.value)


class Gauge(_Family):
    """A value that goes both ways (queue depths, ratios)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild(self)

    def set(self, value: float) -> None:
        self._default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    @property
    def value(self) -> float:
        return self._default().value


class _Timer:
    """Context manager observing elapsed registry-clock time.

    Captures the clock at ``__enter__`` so a test swapping
    ``registry.clock`` mid-span cannot mix timebases; skips the clock
    entirely while the registry is disabled (the no-op must cost no
    syscalls, or disabling would not prove the overhead bound)."""

    __slots__ = ("_child", "_clock", "_begin")

    def __init__(self, child) -> None:
        self._child = child
        self._clock = None
        self._begin = 0.0

    def __enter__(self) -> "_Timer":
        family = self._child._family
        if family._enabled():
            self._clock = family._clock()
            self._begin = self._clock()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._clock is not None:
            self._child.observe(self._clock() - self._begin)
            self._clock = None


class _HistogramChild:
    __slots__ = ("_family", "counts", "sum", "count", "max")

    def __init__(self, family) -> None:
        self._family = family
        # One slot per finite upper bound plus the +Inf overflow slot.
        self.counts = [0] * (len(family.buckets) + 1)
        self.sum = 0.0
        self.count = 0
        self.max = 0.0

    def observe(self, value: float) -> None:
        family = self._family
        if not family._enabled():
            return
        value = float(value)
        index = bisect_left(family.buckets, value)
        with family._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1
            if value > self.max:
                self.max = value

    def time(self) -> _Timer:
        return _Timer(self)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the bucket upper bounds.

        The rank rule is ``index = min(n - 1, int(n * q))`` into the
        sorted sample — byte-for-byte the rule the serving benchmark
        applied to its sorted latency list, so a sample whose values sit on
        bucket bounds answers identically through either path."""
        q = float(q)
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"percentile wants q in [0, 1], got {q}")
        with self._family._lock:
            total = self.count
            if total == 0:
                return 0.0
            rank = min(total - 1, int(total * q))
            cumulative = 0
            for upper, bucket_count in zip(self._family.buckets, self.counts):
                cumulative += bucket_count
                if cumulative > rank:
                    return upper
            return self.max  # the rank lives in the +Inf overflow slot

    def _state(self) -> dict:
        return {
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "max": self.max,
        }

    def _value(self):
        return (
            tuple(self._family.buckets),
            tuple(self.counts),
            float(self.sum),
            int(self.count),
        )


class Histogram(_Family):
    """Observations bucketed under fixed upper bounds, plus sum/count."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames=(),
        *,
        buckets=DEFAULT_BUCKETS,
        registry: "MetricsRegistry | None" = None,
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> None:
        super().__init__(
            name, help, labelnames, registry=registry, max_series=max_series
        )
        buckets = tuple(float(b) for b in buckets)
        if not buckets:
            raise ValueError(f"{name}: a histogram needs at least one bucket")
        if list(buckets) != sorted(set(buckets)):
            raise ValueError(
                f"{name}: buckets must be strictly increasing, got {buckets}"
            )
        if any(math.isinf(b) for b in buckets):
            raise ValueError(
                f"{name}: the +Inf bucket is implicit; pass finite bounds"
            )
        self.buckets = buckets

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    def time(self) -> _Timer:
        return self._default().time()

    def percentile(self, q: float) -> float:
        return self._default().percentile(q)

    @property
    def count(self) -> int:
        return self._default().count

    @property
    def sum(self) -> float:
        return self._default().sum


class MetricsRegistry:
    """Named metric families plus the two seams tests lean on: the
    injectable ``clock`` and the ``enabled`` kill switch."""

    def __init__(self, *, clock=time.perf_counter) -> None:
        self.clock = clock
        self.enabled = True
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    # -------------------------------------------------------- definition --

    def counter(
        self,
        name: str,
        help: str = "",
        labelnames=(),
        *,
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> Counter:
        return self._register(
            Counter(name, help, labelnames, registry=self, max_series=max_series)
        )

    def gauge(
        self,
        name: str,
        help: str = "",
        labelnames=(),
        *,
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> Gauge:
        return self._register(
            Gauge(name, help, labelnames, registry=self, max_series=max_series)
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames=(),
        *,
        buckets=DEFAULT_BUCKETS,
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> Histogram:
        return self._register(
            Histogram(
                name,
                help,
                labelnames,
                buckets=buckets,
                registry=self,
                max_series=max_series,
            )
        )

    def _register(self, family: _Family) -> _Family:
        """Get-or-create: re-registration with an identical shape returns
        the existing family (module reloads, repeated fixtures); a
        conflicting shape is a programming error and raises."""
        with self._lock:
            existing = self._families.get(family.name)
            if existing is None:
                self._families[family.name] = family
                return family
        if (
            type(existing) is not type(family)
            or existing.labelnames != family.labelnames
            or getattr(existing, "buckets", None) != getattr(family, "buckets", None)
        ):
            raise ValueError(
                f"metric {family.name!r} is already registered with a "
                "different kind, labels, or buckets"
            )
        return existing

    # ------------------------------------------------------------ output --

    def families(self) -> dict:
        with self._lock:
            return dict(sorted(self._families.items()))

    def snapshot(self) -> dict:
        """Every family's full state as nested plain dicts, sorted — two
        identical instrumented runs under a fixed clock produce equal
        (``==``, bit-identical floats) snapshots."""
        return {
            name: family._snapshot()
            for name, family in self.families().items()
        }

    def wire(self) -> tuple:
        """The flat tuple form a ``MetricsReply`` envelope carries:
        ``(name, kind, ((label, value), ...), value)`` per series, where
        a histogram's value is ``(buckets, counts, sum, count)``. Tuples
        and scalars only, so the envelope round-trips exactly."""
        entries: list = []
        for family in self.families().values():
            entries.extend(family._wire())
        return tuple(entries)

    def reset(self) -> None:
        """Drop every series (families stay registered) — test isolation."""
        for family in self.families().values():
            family._reset()

    def render(self) -> str:
        return render_prometheus(self)


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format 0.0.4.

    ``# HELP``/``# TYPE`` per family, one sample line per series;
    histograms expose cumulative ``_bucket{le=...}`` counts ending in
    ``+Inf``, plus ``_sum`` and ``_count`` (``tests/promparse.py`` is the
    strict validity check)."""
    lines: list[str] = []
    for name, family in registry.families().items():
        if family.help:
            lines.append(f"# HELP {name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {name} {family.kind}")
        for key, child in family._sorted_series():
            pairs = list(zip(family.labelnames, key))
            if family.kind == "histogram":
                cumulative = 0
                for upper, count in zip(family.buckets, child.counts):
                    cumulative += count
                    lines.append(
                        _sample(
                            f"{name}_bucket",
                            pairs + [("le", _format_number(upper))],
                            cumulative,
                        )
                    )
                lines.append(
                    _sample(
                        f"{name}_bucket", pairs + [("le", "+Inf")], child.count
                    )
                )
                lines.append(_sample(f"{name}_sum", pairs, child.sum))
                lines.append(_sample(f"{name}_count", pairs, child.count))
            else:
                lines.append(_sample(name, pairs, child.value))
    return "\n".join(lines) + "\n"


def _sample(name: str, pairs, value) -> str:
    if pairs:
        labels = ",".join(
            f'{label}="{_escape_label(str(text))}"' for label, text in pairs
        )
        return f"{name}{{{labels}}} {_format_number(value)}"
    return f"{name} {_format_number(value)}"
