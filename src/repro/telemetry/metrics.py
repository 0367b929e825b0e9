"""Aggregated metrics: counters, gauges and histograms.

Where the :class:`~repro.telemetry.tracer.Tracer` records *every* event,
a :class:`MetricsRegistry` keeps cheap running aggregates — totals,
last values, and log-bucketed distributions — suitable for a flat
end-of-run dump (``repro replay --metrics-out``) or programmatic
assertions.

Instruments are created lazily and idempotently: ``registry.counter(
"out.maps_finished")`` returns the existing counter or makes one, so
instrumented code never has to pre-declare anything.  Like the tracer,
the registry is a pure observer and cannot perturb a simulation.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ConfigurationError


class Counter:
    """Monotonically increasing total (events, bytes, decisions...)."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount


class Gauge:
    """Last-write-wins value (utilization, backlog, capacity in use)."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Distribution sketch over base-2 logarithmic buckets.

    Exact count/sum/min/max plus bucket counts; quantiles are estimated
    at the geometric midpoint of the containing bucket, which is within
    a factor of ~1.4 of the true value — plenty for "where did the time
    go" questions without retaining every observation.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_buckets", "_zeros")

    kind = "histogram"

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        #: bucket exponent -> observations with 2**e <= value < 2**(e+1)
        self._buckets: Dict[int, int] = {}
        self._zeros = 0

    def observe(self, value: float) -> None:
        if value < 0:
            raise ConfigurationError(
                f"histogram {self.name!r} observations must be >= 0: {value}"
            )
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if value <= 0.0:
            self._zeros += 1
            return
        exponent = math.floor(math.log2(value))
        self._buckets[exponent] = self._buckets.get(exponent, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (q in [0, 1]) from the buckets."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1]: {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = self._zeros
        if rank <= seen:
            return 0.0
        for exponent in sorted(self._buckets):
            seen += self._buckets[exponent]
            if rank <= seen:
                # Geometric midpoint of [2**e, 2**(e+1)).
                return 2.0 ** (exponent + 0.5)
        return self.max

    def summary(self) -> Dict[str, float]:
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named instruments, created on first use.

    Asking for an existing name with a different instrument kind is a
    :class:`~repro.errors.ConfigurationError` — silent kind confusion
    would corrupt the dump.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    def _get(self, name: str, cls: type) -> Instrument:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise ConfigurationError(
                f"metric {name!r} is a {instrument.kind}, not a {cls.kind}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)  # type: ignore[return-value]

    def get(self, name: str) -> Optional[Instrument]:
        """The instrument called ``name``, or None."""
        return self._instruments.get(name)

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    # -- dumping ----------------------------------------------------------

    def dump(self) -> Dict[str, float]:
        """Flat ``{metric_name: value}`` mapping, histogram fields
        flattened as ``name.count`` / ``name.mean`` / ``name.p99`` etc."""
        flat: Dict[str, float] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                for key, value in instrument.summary().items():
                    flat[f"{name}.{key}"] = value
            else:
                flat[name] = instrument.value
        return flat

    def rows(self) -> List[Tuple[str, str, float]]:
        """``(name, kind, value)`` rows for table rendering; histograms
        contribute one row per summary field."""
        out: List[Tuple[str, str, float]] = []
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                for key, value in instrument.summary().items():
                    out.append((f"{name}.{key}", "histogram", value))
            else:
                out.append((name, instrument.kind, instrument.value))
        return out


__all__ = ["Counter", "Gauge", "Histogram", "Instrument", "MetricsRegistry"]
