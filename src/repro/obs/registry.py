"""Process-wide, thread-safe metrics registry.

The paper's evaluation is built on counters (registration counts,
record counts) and timings (registration latency vs marshal latency);
this module is the runtime home for both, so the cost split the paper
measured offline — 2-4x registration-time RDM against near-zero
steady-state marshaling overhead — is observable from a *running*
process.

Three metric types, all label-capable:

* :class:`Counter`   — monotone totals (``_total`` names by
  convention);
* :class:`Gauge`     — point-in-time values (queue depth, client
  count);
* :class:`Histogram` — fixed **log-scale** buckets precomputed at
  declaration, so ``observe()`` is a bisect plus two adds.

Hot-path discipline: every series carries a plain ``int``/``float``
mutated under a **striped lock** (a small shared pool of locks,
assigned by series hash), so concurrent writers rarely contend and a
single increment is one lock round-trip.  Reads of a single word are
atomic under the GIL and taken without the lock.

``snapshot()`` returns plain dicts/lists (JSON-safe) — the single
source for the Prometheus/JSON exposition in
:mod:`repro.obs.exposition`.

Registries also accept **collectors**: callables sampled at snapshot
time that contribute counter/gauge series for state that is cheaper to
read on demand than to mirror per-operation (per-client transport
queues, buffer-pool reuse).  Collectors registered for a bound method
are held weakly, so instrumented objects die normally.

Per-owner counting (an endpoint's records, a publisher's frames) is
:class:`Tally`: cells only the calling thread writes, summed when
somebody reads.  One collector turns every owner's cells — living or
collected — into the process-wide series.
"""

from __future__ import annotations

import threading
import weakref
from bisect import bisect_left
from collections import deque
from threading import get_ident
from typing import Callable, Iterable

#: shared lock pool; every series takes one stripe by hash so that a
#: counter increment never allocates a lock and rarely contends
_N_STRIPES = 16
_STRIPES = tuple(threading.Lock() for _ in range(_N_STRIPES))


def _stripe(key) -> threading.Lock:
    return _STRIPES[hash(key) % _N_STRIPES]


#: Held by :meth:`MetricsRegistry.snapshot` across its two reads (the
#: declared series, then the collectors) and by every retire across
#: "stop reporting live" + "fold into what persists", so no scrape
#: finds a total in neither place.  Re-entrant: a collector may import
#: a module whose import creates a :class:`Tally`.
FOLD_LOCK = threading.RLock()


def log_buckets(start: float = 1e-6, factor: float = 2.0,
                count: int = 24) -> tuple[float, ...]:
    """Fixed log-scale bucket bounds: ``start * factor**i``.

    The default spans 1us .. ~8.4s in powers of two — wide enough for
    both a fused encode (microseconds) and a cold discovery fetch
    (seconds) in one scheme.
    """
    if start <= 0 or factor <= 1.0 or count < 1:
        raise ValueError("log_buckets needs start>0, factor>1, count>=1")
    return tuple(start * factor ** i for i in range(count))


DEFAULT_SECONDS_BUCKETS = log_buckets()


class _Series:
    """One (metric, label-values) time series."""

    __slots__ = ("labels", "_lock")

    def __init__(self, metric: "Metric", labels: tuple[str, ...]) -> None:
        self.labels = labels
        self._lock = _stripe((metric.name, labels))


class _CounterSeries(_Series):
    __slots__ = ("_value",)

    def __init__(self, metric, labels):
        super().__init__(metric, labels)
        self._value = 0

    def inc(self, n: float = 1) -> None:
        with self._lock:
            self._value += n

    add = inc

    @property
    def value(self):
        return self._value


class _GaugeSeries(_Series):
    __slots__ = ("_value",)

    def __init__(self, metric, labels):
        super().__init__(metric, labels)
        self._value = 0

    def set(self, value: float) -> None:
        self._value = value  # single-store: atomic under the GIL

    def inc(self, n: float = 1) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1) -> None:
        self.inc(-n)

    def max(self, value: float) -> None:
        """High-water update: keep the larger of current and *value*."""
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self):
        return self._value


class _HistogramSeries(_Series):
    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, metric, labels):
        super().__init__(metric, labels)
        self.bounds = metric.buckets          # precomputed, shared
        self.counts = [0] * (len(self.bounds) + 1)  # +1 = +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[idx] += 1
            self.sum += value
            self.count += 1


_SERIES_TYPES = {"counter": _CounterSeries, "gauge": _GaugeSeries,
                 "histogram": _HistogramSeries}


class Metric:
    """A named metric plus its labeled children.

    An unlabeled metric acts as its own single series (``inc`` /
    ``set`` / ``observe`` delegate to the default child); a labeled
    one hands out children via :meth:`labels`.
    """

    def __init__(self, name: str, mtype: str, help: str,
                 label_names: tuple[str, ...],
                 buckets: tuple[float, ...] | None = None) -> None:
        if mtype not in _SERIES_TYPES:
            raise ValueError(f"unknown metric type {mtype!r}")
        self.name = name
        self.type = mtype
        self.help = help
        self.label_names = tuple(label_names)
        self.buckets = tuple(buckets) if buckets is not None else \
            (DEFAULT_SECONDS_BUCKETS if mtype == "histogram" else None)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], _Series] = {}
        self._default: _Series | None = None
        if not self.label_names:
            self._default = self._child(())

    def _child(self, values: tuple[str, ...]) -> _Series:
        child = self._children.get(values)
        if child is None:
            with self._lock:
                child = self._children.get(values)
                if child is None:
                    child = _SERIES_TYPES[self.type](self, values)
                    self._children[values] = child
        return child

    def labels(self, *args: str, **kwargs: str):
        """The child series for these label values.

        Accepts positional values in declared order, or keywords."""
        if args and kwargs:
            raise ValueError("pass label values positionally or by "
                             "keyword, not both")
        if kwargs:
            try:
                values = tuple(str(kwargs[n]) for n in self.label_names)
            except KeyError as exc:
                raise ValueError(
                    f"{self.name}: missing label {exc.args[0]!r} "
                    f"(declared: {list(self.label_names)})") from None
            if len(kwargs) != len(self.label_names):
                extra = set(kwargs) - set(self.label_names)
                raise ValueError(
                    f"{self.name}: unknown labels {sorted(extra)}")
        else:
            if len(args) != len(self.label_names):
                raise ValueError(
                    f"{self.name}: expected {len(self.label_names)} "
                    f"label values, got {len(args)}")
            values = tuple(str(a) for a in args)
        return self._child(values)

    # -- unlabeled convenience ------------------------------------------------

    def _require_default(self) -> _Series:
        if self._default is None:
            raise ValueError(
                f"{self.name} declares labels "
                f"{list(self.label_names)}; use .labels(...)")
        return self._default

    def inc(self, n: float = 1) -> None:
        self._require_default().inc(n)

    add = inc

    def dec(self, n: float = 1) -> None:
        self._require_default().dec(n)

    def set(self, value: float) -> None:
        self._require_default().set(value)

    def observe(self, value: float) -> None:
        self._require_default().observe(value)

    @property
    def value(self):
        return self._require_default().value

    # -- snapshot -------------------------------------------------------------

    def _snapshot_series(self) -> list[dict]:
        out = []
        with self._lock:
            children = list(self._children.items())
        for values, child in sorted(children):
            labels = dict(zip(self.label_names, values))
            if self.type == "histogram":
                with child._lock:
                    out.append({"labels": labels,
                                "bounds": list(child.bounds),
                                "counts": list(child.counts),
                                "sum": child.sum,
                                "count": child.count})
            else:
                out.append({"labels": labels, "value": child.value})
        return out

    def _reset(self) -> None:
        with self._lock:
            for child in self._children.values():
                if self.type == "histogram":
                    with child._lock:
                        child.counts = [0] * (len(child.bounds) + 1)
                        child.sum = 0.0
                        child.count = 0
                else:
                    child._value = 0


#: collector protocol: () -> iterable of sample dicts, each
#:   {"name": str, "type": "counter"|"gauge", "help": str,
#:    "labels": {str: str}, "value": number}
Collector = Callable[[], Iterable[dict]]


class MetricsRegistry:
    """Name -> :class:`Metric`, plus snapshot-time collectors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}
        self._collectors: list = []   # weakref.WeakMethod | Collector

    # -- declaration ----------------------------------------------------------

    def _declare(self, name: str, mtype: str, help: str,
                 labels: tuple[str, ...],
                 buckets: tuple[float, ...] | None = None) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if metric.type != mtype or \
                        metric.label_names != tuple(labels):
                    raise ValueError(
                        f"metric {name!r} already declared as "
                        f"{metric.type}{list(metric.label_names)}")
                return metric
            metric = Metric(name, mtype, help, tuple(labels),
                            buckets=buckets)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labels: tuple[str, ...] = ()) -> Metric:
        return self._declare(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "",
              labels: tuple[str, ...] = ()) -> Metric:
        return self._declare(name, "gauge", help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: tuple[str, ...] = (),
                  buckets: tuple[float, ...] | None = None) -> Metric:
        return self._declare(name, "histogram", help, labels,
                             buckets=buckets)

    def get(self, name: str) -> Metric | None:
        with self._lock:
            return self._metrics.get(name)

    # -- collectors -----------------------------------------------------------

    def register_collector(self, fn: Collector) -> None:
        """Sample *fn* at every snapshot.

        A bound method is held via :class:`weakref.WeakMethod`, so
        registering an object's collector does not keep it alive;
        plain callables are held strongly.
        """
        with self._lock:
            if hasattr(fn, "__self__"):
                self._collectors.append(weakref.WeakMethod(fn))
            else:
                self._collectors.append(fn)

    def _collect(self) -> list[dict]:
        with self._lock:
            entries = list(self._collectors)
        samples: list[dict] = []
        dead = []
        for entry in entries:
            fn = entry() if isinstance(entry, weakref.WeakMethod) \
                else entry
            if fn is None:
                dead.append(entry)
                continue
            samples.extend(fn())
        if dead:
            with self._lock:
                for entry in dead:
                    try:
                        self._collectors.remove(entry)
                    except ValueError:
                        pass
        return samples

    # -- snapshot -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything, as plain JSON-safe dicts.

        Shape: ``{name: {"type", "help", "label_names", "series"}}``
        where each series entry carries ``labels`` plus either
        ``value`` (counter/gauge) or ``bounds/counts/sum/count``
        (histogram).  Collector samples with the same (name, labels)
        are summed — N live instances of an instrumented object read
        as one process-wide total.
        """
        with self._lock:
            metrics = list(self._metrics.items())
        out: dict[str, dict] = {}
        with FOLD_LOCK:
            for name, metric in sorted(metrics):
                out[name] = {"type": metric.type, "help": metric.help,
                             "label_names": list(metric.label_names),
                             "series": metric._snapshot_series()}
            samples = self._collect()
        for sample in samples:
            name = sample["name"]
            entry = out.get(name)
            if entry is None:
                entry = out[name] = {
                    "type": sample.get("type", "gauge"),
                    "help": sample.get("help", ""),
                    "label_names": sorted(sample.get("labels", {})),
                    "series": []}
            labels = dict(sample.get("labels", {}))
            for series in entry["series"]:
                if series["labels"] == labels:
                    series["value"] += sample["value"]
                    break
            else:
                entry["series"].append({"labels": labels,
                                        "value": sample["value"]})
        return out

    def reset(self) -> None:
        """Zero every series (tests); declarations and handed-out
        children stay valid."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric._reset()


#: the process-wide registry every instrumented subsystem reports to
REGISTRY = MetricsRegistry()


# -- per-owner counting -------------------------------------------------------

#: guards the *shape* of a tally's rows (a new thread's row, a new
#: open cell) against a reader walking them; a leaf lock, so counting
#: is safe under whatever lock the caller already holds
_ROW_LOCK = threading.Lock()

#: ``id(rows)`` -> ``(class, labels, rows)`` for every tally not yet
#: folded — the rows are held here, so an owner's last counts outlive
#: it until :func:`_sweep` has moved them into ``_RETIRED``
_OWNERS: dict[int, tuple] = {}
#: keys of ``_OWNERS`` whose owner was collected (appended by
#: ``Tally.__del__``, which may run on any thread at any point, so it
#: takes no lock)
_DEAD: deque[int] = deque()
#: ``(metric name, label values)`` -> total over every folded owner;
#: one entry per series, however many owners have come and gone
_RETIRED: dict[tuple, int] = {}


class Tally:
    """One owner's named counting cells.

    A subclass is a declaration: ``_COUNTERS`` names the cells that
    add up, ``_HIGH_WATER`` maps each cell that keeps a maximum to the
    gauge it surfaces as, ``_METRIC`` is the counter family the
    counters surface in (one series per cell: the owner's *labels*,
    then the cell — a tuple cell gives several label values; None
    keeps them out of the registry).  An empty ``_COUNTERS`` leaves
    the set open: cells appear as they are first counted.

    Every writing thread gets its own row of cells, and only that
    thread ever writes it, without a lock — totals are exact because
    no two threads share a word, not because an increment is atomic.
    Reads sum (or max) the rows.  Process-wide series come from
    :func:`_collect_tallies`; once the owner is collected its final
    values are folded into ``_RETIRED`` and keep being reported.
    """

    _COUNTERS: tuple = ()
    _HIGH_WATER: dict = {}
    _METRIC: str | None = None
    _CELLS: tuple = ()  # every declared cell, counters first

    __slots__ = ("_rows",)

    def __init_subclass__(cls) -> None:
        # declared cells read as attributes; properties rather than
        # __getattr__, which would slow every method lookup on the
        # counting path
        cls._CELLS = cls._COUNTERS + tuple(cls._HIGH_WATER)
        for cell in cls._CELLS:
            setattr(cls, cell, property(
                lambda self, cell=cell: self.as_dict()[cell]))

    def __init__(self, *labels: str) -> None:
        self._rows: dict[int, dict] = {}
        with FOLD_LOCK:
            _OWNERS[id(self._rows)] = (type(self), labels, self._rows)
            _sweep()  # here, so owners nobody scrapes are folded too

    def __del__(self, _retire=_DEAD.append) -> None:
        _retire(id(self._rows))

    # -- writing (the calling thread's row only) ----------------------------

    def row(self) -> dict:
        """The calling thread's cells.  The caller may add to them in
        place (``row[cell] += n``) and must not hand the row to
        another thread."""
        try:
            return self._rows[get_ident()]
        except KeyError:
            with _ROW_LOCK:
                row = self._rows[get_ident()] = dict.fromkeys(
                    self._CELLS, 0)
            return row

    def count(self, cell, n: int = 1) -> None:
        row = self.row()
        try:
            row[cell] += n
        except KeyError:
            if self._COUNTERS:
                raise AttributeError(
                    f"{type(self).__name__} has no cell {cell!r}") \
                    from None
            with _ROW_LOCK:
                row[cell] = n

    def mark(self, cell: str, value: int) -> None:
        """Raise high-water *cell* to *value* if it is below it."""
        row = self.row()
        if value > row[cell]:
            row[cell] = value

    # -- reading ------------------------------------------------------------

    @classmethod
    def _combine(cls, rows: dict) -> dict:
        out = dict.fromkeys(cls._CELLS, 0)
        with _ROW_LOCK:
            for row in rows.values():
                for cell, value in row.items():
                    if cell in cls._HIGH_WATER:
                        out[cell] = max(out[cell], value)
                    else:
                        out[cell] = out.get(cell, 0) + value
        return out

    def as_dict(self) -> dict:
        """Every cell, over all writing threads."""
        return self._combine(self._rows)

    snapshot = as_dict

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"{type(self).__name__}({inner})"


def _fold(into: dict, cls: type, labels: tuple, rows: dict) -> None:
    """Merge one owner's cells into *into*, keyed by series."""
    for cell, value in cls._combine(rows).items():
        gauge = cls._HIGH_WATER.get(cell)
        if gauge is not None:
            into[gauge, ()] = max(into.get((gauge, ()), 0), value)
        elif cls._METRIC is not None:
            key = (cls._METRIC, labels + (
                cell if isinstance(cell, tuple) else (cell,)))
            into[key] = into.get(key, 0) + value


def _sweep() -> None:
    """Fold every collected owner into ``_RETIRED`` (under
    ``FOLD_LOCK``: a scrape sees an owner live or folded, never
    neither)."""
    while _DEAD:
        _fold(_RETIRED, *_OWNERS.pop(_DEAD.popleft()))


def _collect_tallies() -> list[dict]:
    """The one collector behind every tally-backed series: what was
    folded plus what every unfolded owner holds now.  Type and help
    text come from the declaration in :mod:`repro.obs.metrics`."""
    with FOLD_LOCK:
        _sweep()
        totals = dict(_RETIRED)
        for owner in _OWNERS.values():
            _fold(totals, *owner)
    return [{"name": name, "value": value,
             "labels": dict(zip(REGISTRY.get(name).label_names, values))}
            for (name, values), value in totals.items()]


REGISTRY.register_collector(_collect_tallies)
