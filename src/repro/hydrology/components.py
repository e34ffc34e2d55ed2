"""Pipeline components (Fig. 5).

Each component owns an :class:`~repro.pbio.context.IOContext`, loads
the shared Hydrology format set through XMIT (the paper's modification:
"We removed the compiled-in metadata definitions from the application,
and used XMIT to retrieve the message formats from an HTTP server"),
and exchanges PBIO-encoded records over
:class:`~repro.transport.connection.Connection` objects.

Solid arrows in Fig. 5 are the data flow (``SimpleData`` grids plus
``GridMeta``); dashed arrows are control/feedback (``ControlMsg`` from
the GUIs back through the coupler to flow2d, which adjusts its
parameters mid-run).

Because every component loads the same format documents, their
digest-derived format IDs coincide and steady-state records need no
metadata negotiation — precisely the paper's amortization argument.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.toolkit import XMIT
from repro.errors import TransportError
from repro.obs.registry import Tally
from repro.hydrology.datagen import WatershedDataset
from repro.pbio.context import IOContext
from repro.pbio.format_server import FormatServer
from repro.transport.connection import Connection, ReceivedMessage

_POLL = 0.002  # seconds: non-blocking-ish control poll


class ComponentStats(Tally):
    """Per-component message accounting: one cell per ``(format,
    direction)``, counted by the component's worker thread and read
    by the driver as :attr:`received` / :attr:`sent`.  Every
    component's cells surface as
    ``repro_component_messages_total{component,format,direction}``,
    so a pipeline's message flow shows up on ``/metrics``.
    """

    _METRIC = "repro_component_messages_total"

    __slots__ = ()

    def __init__(self, component: str = "") -> None:
        super().__init__(component)

    def _direction(self, direction: str) -> dict[str, int]:
        return {fmt: n for (fmt, d), n in self.as_dict().items()
                if d == direction}

    @property
    def received(self) -> dict[str, int]:
        return self._direction("in")

    @property
    def sent(self) -> dict[str, int]:
        return self._direction("out")


class Component(threading.Thread):
    """Base: an IOContext wired to XMIT-discovered formats.

    ``architecture`` simulates running the component on a different
    machine class (the paper's testbed mixed SPARC and x86 hosts);
    receiver-makes-right conversion keeps mixed pipelines exchanging
    records transparently.

    ``arrays`` selects how this component's connections decode numeric
    arrays (``"list"`` default, ``"numpy"``, or zero-copy read-only
    ``"view"`` — grids then flow from the receive buffer into numpy
    without a Python-list round-trip).
    """

    def __init__(self, name: str, schema_url: str,
                 architecture=None, *, arrays: str = "list") -> None:
        super().__init__(name=f"hydrology-{name}", daemon=True)
        self.component_name = name
        self.arrays = arrays
        kwargs = {} if architecture is None else \
            {"architecture": architecture}
        self.context = IOContext(format_server=FormatServer(),
                                 **kwargs)
        self.xmit = XMIT()
        self.stats = ComponentStats(component=name)
        self.error: BaseException | None = None
        from repro.pbio.machine import all_architectures
        for fmt_name in self.xmit.load_url(schema_url):
            self.xmit.register_with_context(self.context, fmt_name)
            # Pre-warm the local format server with every modeled
            # architecture's variant of the shared formats: records
            # from peers on other machine classes then resolve locally
            # (send-only peers cannot answer metadata requests).
            for arch in all_architectures():
                token = self.xmit.bind(fmt_name, target="pbio",
                                       architecture=arch)
                self.context.format_server.register(token.artifact)

    # -- helpers ------------------------------------------------------------

    def _connect(self, endpoint) -> Connection | None:
        """Accept a Channel (wrapped into a Connection on this
        component's context), an existing Connection, or None."""
        if endpoint is None or isinstance(endpoint, Connection):
            return endpoint
        return Connection(self.context, endpoint, arrays=self.arrays)

    def _send(self, conn: Connection, format_name: str,
              record: dict) -> None:
        conn.send(format_name, record)
        self.stats.count((format_name, "out"))

    def _send_many(self, conn: Connection, format_name: str,
                   records) -> None:
        records = list(records)
        conn.send_many(format_name, records)
        self.stats.count((format_name, "out"), len(records))

    def _recv(self, conn: Connection,
              timeout: float | None = None) -> ReceivedMessage | None:
        msg = conn.receive(timeout)
        if msg is not None:
            self.stats.count((msg.format_name, "in"))
        return msg

    def _poll(self, conn: Connection) -> ReceivedMessage | None:
        """Non-blocking control poll: None when nothing is waiting."""
        try:
            return self._recv(conn, timeout=_POLL)
        except TransportError:
            return None

    def run(self) -> None:  # pragma: no cover - thin thread wrapper
        try:
            self.process()
        except BaseException as exc:  # surfaced by the pipeline joiner
            self.error = exc
        finally:
            # Always release connections: a component dying mid-stream
            # must still deliver end-of-stream downstream, or the rest
            # of the pipeline blocks forever instead of draining.
            self._close_connections()

    def _close_connections(self) -> None:
        for value in vars(self).values():
            candidates = (value if isinstance(value, list)
                          else [value])
            for item in candidates:
                if isinstance(item, Connection):
                    try:
                        item.close()
                    except Exception:  # noqa: BLE001 - best effort
                        pass

    def process(self) -> None:
        raise NotImplementedError


class DataFileReader(Component):
    """Reads the data file and emits one ``GridMeta`` +
    ``SimpleData`` pair per timestep.

    ``source`` may be an in-memory :class:`WatershedDataset` or a path
    to a PBIO data file written by
    :func:`repro.hydrology.datafile.write_watershed_file` — the
    pipeline downstream cannot tell the difference.
    """

    def __init__(self, schema_url: str, source, out, *,
                 batch: int = 1, architecture=None,
                 arrays: str = "list") -> None:
        super().__init__("reader", schema_url, architecture,
                         arrays=arrays)
        if batch < 1:
            raise ValueError("batch size must be >= 1")
        self.source = source
        self.batch = batch
        self.out = self._connect(out)

    def process(self) -> None:
        if isinstance(self.source, WatershedDataset):
            if self.batch > 1:
                self._process_batched()
            else:
                for t in range(self.source.timesteps):
                    self._send(self.out, "GridMeta",
                               self.source.meta_record(t))
                    self._send(self.out, "SimpleData",
                               self.source.as_record(t))
        else:
            from repro.hydrology.datafile import read_watershed_records
            for format_name, record in read_watershed_records(
                    self.source, arrays=self.arrays):
                self._send(self.out, format_name, record)
        self.out.close()

    def _process_batched(self) -> None:
        """Ship the dataset in shared-header batches: one DATA_BATCH of
        ``GridMeta`` then one of ``SimpleData`` per *batch* timesteps.
        Downstream pairs them back up by ``timestep``, so batching is
        invisible above the transport."""
        steps = range(self.source.timesteps)
        for lo in range(0, self.source.timesteps, self.batch):
            chunk = steps[lo:lo + self.batch]
            self._send_many(self.out, "GridMeta",
                            [self.source.meta_record(t) for t in chunk])
            self._send_many(self.out, "SimpleData",
                            [self.source.as_record(t) for t in chunk])


class Presend(Component):
    """Reduces data volume before wide-area transmission.

    Downsamples each grid by ``factor`` in both dimensions (mean
    pooling), rewriting the accompanying ``GridMeta`` accordingly —
    the role the original demo's presend stage played for its
    bandwidth-limited visualization clients.
    """

    def __init__(self, schema_url: str, inbound, out, *,
                 factor: int = 2, architecture=None,
                 arrays: str = "list") -> None:
        super().__init__("presend", schema_url, architecture,
                         arrays=arrays)
        if factor < 1:
            raise ValueError("downsampling factor must be >= 1")
        self.inbound = self._connect(inbound)
        self.out = self._connect(out)
        self.factor = factor
        self._meta: dict | None = None
        #: metadata keyed by timestep: batched senders deliver a run of
        #: GridMeta before the matching run of SimpleData, so pairing
        #: cannot rely on strict interleaving
        self._metas: dict[int, dict] = {}

    def process(self) -> None:
        while True:
            msg = self._recv(self.inbound)
            if msg is None:
                break
            if msg.format_name == "GridMeta":
                self._meta = dict(msg.record)
                self._metas[msg.record["timestep"]] = self._meta
                continue  # forwarded alongside its SimpleData below
            if msg.format_name != "SimpleData" or self._meta is None:
                continue
            meta = self._metas.pop(msg.record["timestep"], None) \
                or self._meta
            grid = np.asarray(msg.record["data"], dtype=np.float32)
            grid = grid.reshape(meta["ny"], meta["nx"])
            reduced = self._downsample(grid)
            meta = dict(meta)
            meta["ny"], meta["nx"] = reduced.shape
            meta["cell_size"] = meta["cell_size"] * self.factor
            meta["mean_depth"] = float(reduced.mean())
            meta["min_depth"] = float(reduced.min())
            meta["max_depth"] = float(reduced.max())
            self._send(self.out, "GridMeta", meta)
            self._send(self.out, "SimpleData", {
                "timestep": msg.record["timestep"],
                "size": reduced.size,
                "data": reduced.ravel()})
        self.out.close()

    def _downsample(self, grid: np.ndarray) -> np.ndarray:
        f = self.factor
        if f == 1:
            return grid
        ny, nx = grid.shape
        ny_r, nx_r = ny - ny % f, nx - nx % f
        view = grid[:ny_r, :nx_r].reshape(ny_r // f, f, nx_r // f, f)
        return view.mean(axis=(1, 3))


class Flow2D(Component):
    """Derives a 2-D flow-magnitude field from each depth grid.

    A simple gradient-driven surface-flow estimate: flow magnitude is
    ``depth * |grad(depth + elevation-proxy)|`` smoothed ``iterations``
    times.  Control feedback (``ControlMsg`` with command
    ``set_viscosity``) adjusts the smoothing weight mid-run, exercising
    Fig. 5's dashed channels.
    """

    def __init__(self, schema_url: str, inbound, out,
                 control=None, *, viscosity: float = 0.2,
                 iterations: int = 2, architecture=None,
                 arrays: str = "list") -> None:
        super().__init__("flow2d", schema_url, architecture,
                         arrays=arrays)
        self.inbound = self._connect(inbound)
        self.out = self._connect(out)
        self.control = self._connect(control)
        self.viscosity = viscosity
        self.iterations = iterations
        self._meta: dict | None = None
        self._metas: dict[int, dict] = {}  # keyed for batched senders
        self.control_applied: list[dict] = []

    def process(self) -> None:
        while True:
            self._drain_control()
            msg = self._recv(self.inbound)
            if msg is None:
                break
            if msg.format_name == "GridMeta":
                self._meta = dict(msg.record)
                self._metas[msg.record["timestep"]] = self._meta
                self._send(self.out, "GridMeta", msg.record)
                continue
            if msg.format_name != "SimpleData" or self._meta is None:
                continue
            self._meta = self._metas.pop(msg.record["timestep"],
                                         None) or self._meta
            flow = self._flow_field(np.asarray(msg.record["data"],
                                               dtype=np.float32))
            self._send(self.out, "FlowParams", {
                "timestep": msg.record["timestep"],
                "nx": self._meta["nx"], "ny": self._meta["ny"],
                "dx": self._meta["cell_size"],
                "dy": self._meta["cell_size"],
                "dt": 1.0, "viscosity": self.viscosity,
                "rainfall": 0.0, "iterations": self.iterations,
                "flags": 0, "elapsed": float(msg.record["timestep"])})
            self._send(self.out, "SimpleData", {
                "timestep": msg.record["timestep"],
                "size": flow.size, "data": flow.ravel()})
        self.out.close()

    def _drain_control(self) -> None:
        if self.control is None:
            return
        while True:
            msg = self._poll(self.control)
            if msg is None:
                return
            if msg.format_name == "ControlMsg" and \
                    msg.record["command"] == "set_viscosity":
                self.viscosity = float(msg.record["value"])
                self.control_applied.append(dict(msg.record))

    def _flow_field(self, flat: np.ndarray) -> np.ndarray:
        meta = self._meta
        depth = flat.reshape(meta["ny"], meta["nx"]).astype(np.float64)
        gy, gx = np.gradient(depth, meta["cell_size"])
        flow = depth * np.hypot(gx, gy)
        for _ in range(self.iterations):
            padded = np.pad(flow, 1, mode="edge")
            neighbor_mean = (padded[:-2, 1:-1] + padded[2:, 1:-1] +
                             padded[1:-1, :-2] + padded[1:-1, 2:]) / 4.0
            flow = (1 - self.viscosity) * flow + \
                self.viscosity * neighbor_mean
        return flow.astype(np.float32)


class Coupler(Component):
    """Fans data out to the visualization clients and routes their
    control feedback upstream."""

    def __init__(self, schema_url: str, inbound, outs,
                 control_out=None, *, architecture=None) -> None:
        super().__init__("coupler", schema_url, architecture)
        self.inbound = self._connect(inbound)
        self.outs = [self._connect(out) for out in outs]
        self.control_out = self._connect(control_out)
        self.control_forwarded = 0

    def process(self) -> None:
        while True:
            msg = self._recv(self.inbound)
            self._route_feedback()
            if msg is None:
                break
            for out in self.outs:
                self._send(out, msg.format_name, msg.record)
        for out in self.outs:
            out.close()
        if self.control_out is not None:
            self.control_out.close()

    def _route_feedback(self) -> None:
        for out in self.outs:
            fb = self._poll(out)
            if fb is not None and fb.format_name == "ControlMsg":
                if self.control_out is not None:
                    self._send(self.control_out, "ControlMsg", fb.record)
                    self.control_forwarded += 1


class BroadcastCoupler(Component):
    """The fan-out deployment of Fig. 5's coupler: instead of two
    wired GUI channels, every record from upstream is encoded once
    and broadcast to however many subscribers have connected — the
    "single servers must provide information to large numbers of
    clients" scenario of the paper's introduction.

    Subscribers attach with an ordinary
    :class:`~repro.transport.connection.Connection` against
    ``host:port``; format metadata is pushed to each of them once per
    format, so their steady-state cost is pure decoding.
    """

    def __init__(self, schema_url: str, inbound, *,
                 host: str = "127.0.0.1", port: int = 0,
                 policy="block",
                 max_queue_bytes: int = 4 * 1024 * 1024,
                 min_subscribers: int = 0,
                 subscriber_timeout: float = 30.0,
                 architecture=None) -> None:
        super().__init__("broadcast", schema_url, architecture)
        from repro.transport.broadcast import BroadcastPublisher
        self.inbound = self._connect(inbound)
        self.min_subscribers = min_subscribers
        self.subscriber_timeout = subscriber_timeout
        self.publisher = BroadcastPublisher(
            self.context, host=host, port=port, policy=policy,
            max_queue_bytes=max_queue_bytes).start()
        self.host, self.port = self.publisher.host, self.publisher.port

    def process(self) -> None:
        try:
            if self.min_subscribers and not \
                    self.publisher.wait_for_subscribers(
                        self.min_subscribers, self.subscriber_timeout):
                raise TransportError(
                    f"only {self.publisher.subscriber_count} of "
                    f"{self.min_subscribers} subscribers arrived "
                    f"within {self.subscriber_timeout}s")
            while True:
                msg = self._recv(self.inbound)
                if msg is None:
                    break
                self.publisher.publish(msg.format_name, msg.record)
                self.stats.count((msg.format_name, "out"))
        finally:
            self.publisher.close()


class Vis5DSink(Component):
    """Stands in for the Vis5D GUI: consumes frames, records render
    statistics, and occasionally sends control feedback upstream."""

    def __init__(self, schema_url: str, inbound, *,
                 gui_name: str = "vis5d",
                 feedback_every: int = 0,
                 feedback_value: float = 0.35,
                 architecture=None) -> None:
        super().__init__(gui_name, schema_url, architecture)
        self.inbound = self._connect(inbound)
        self.feedback_every = feedback_every
        self.feedback_value = feedback_value
        self.frames: list[dict] = []
        self.metas: list[dict] = []
        self.flow_params: list[dict] = []

    def process(self) -> None:
        while True:
            msg = self._recv(self.inbound)
            if msg is None:
                break
            if msg.format_name == "GridMeta":
                self.metas.append(msg.record)
            elif msg.format_name == "FlowParams":
                self.flow_params.append(msg.record)
            elif msg.format_name == "SimpleData":
                data = np.asarray(msg.record["data"], dtype=np.float32)
                self.frames.append({
                    "timestep": msg.record["timestep"],
                    "cells": int(data.size),
                    "min": float(data.min()) if data.size else 0.0,
                    "max": float(data.max()) if data.size else 0.0,
                    "mean": float(data.mean()) if data.size else 0.0,
                })
                if self.feedback_every and \
                        len(self.frames) % self.feedback_every == 0:
                    self._send(self.inbound, "ControlMsg", {
                        "command": "set_viscosity",
                        "target": "flow2d",
                        "timestep": msg.record["timestep"],
                        "value": self.feedback_value})


def render_ascii(grid: np.ndarray, *, width: int = 64,
                 palette: str = " .:-=+*#%@") -> str:
    """A terminal 'Vis5D': render a 2-D field as ASCII intensity art.

    Downsamples to at most *width* columns (mean pooling, aspect
    corrected for terminal cells being ~2x taller than wide) and maps
    normalized values onto *palette*.  Used by the examples to show
    what the GUI sinks received without a display.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2:
        raise ValueError("render_ascii expects a 2-D field")
    ny, nx = grid.shape
    step = max(1, (nx + width - 1) // width)
    ystep = step * 2  # terminal aspect correction
    ny_r, nx_r = ny - ny % ystep, nx - nx % step
    if ny_r and nx_r:
        pooled = grid[:ny_r, :nx_r].reshape(
            ny_r // ystep, ystep, nx_r // step, step).mean(axis=(1, 3))
    else:
        pooled = grid
    lo, hi = float(pooled.min()), float(pooled.max())
    span = (hi - lo) or 1.0
    levels = ((pooled - lo) / span * (len(palette) - 1)).round()
    lines = ["".join(palette[int(v)] for v in row) for row in levels]
    return "\n".join(lines)
