"""Pipeline assembly: wire Fig. 5's components and run them.

Topology::

    data file -> presend -> flow2d -> coupler -> Vis5D GUI (x2)
                               ^                    |
                               +---- control <------+

Channels are in-process by default; ``transport="tcp"`` runs every hop
over loopback TCP instead, demonstrating that nothing in the components
depends on collocation.

:func:`run_publisher_pipeline` swaps the point-to-point coupler for a
:class:`~repro.hydrology.components.BroadcastCoupler`: one broadcast
server streams the Flow2D output to N socket subscribers, each record
encoded once — the many-readers deployment of the same pipeline.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.hydrology.components import (
    BroadcastCoupler, Component, Coupler, DataFileReader, Flow2D,
    Presend, Vis5DSink,
)
from repro.hydrology.datagen import WatershedDataset, generate_watershed
from repro.hydrology.formats import publish_hydrology_schema
from repro.obs import runtime as _obs
from repro.obs.metrics import PIPELINE_RUNS
from repro.obs.spans import span
from repro.transport.inproc import channel_pair
from repro.transport.tcp import tcp_pair


@dataclass
class PipelineReport:
    """What a pipeline run produced."""

    timesteps: int
    elapsed_seconds: float
    frames_per_gui: tuple[int, ...]
    gui_stats: tuple[list, ...]
    control_messages_applied: int
    component_messages: dict[str, dict] = field(default_factory=dict)

    @property
    def total_frames(self) -> int:
        return sum(self.frames_per_gui)


def _pair(transport: str):
    if transport == "inproc":
        return channel_pair()
    if transport == "tcp":
        return tcp_pair()
    raise ReproError(f"unknown transport {transport!r}")


def build_pipeline(source, *,
                   transport: str = "inproc",
                   presend_factor: int = 2,
                   feedback_every: int = 3,
                   arrays: str = "list",
                   schema_url: str | None = None) -> list[Component]:
    """Construct the six components of Fig. 5, fully wired.

    ``source`` is a :class:`WatershedDataset` or the path of a PBIO
    data file.  Returns the components unstarted, reader first, so
    callers (tests) can inspect or replace pieces before running.

    ``arrays`` sets the decode representation on the grid-carrying
    stages (reader/presend/flow2d): ``"view"`` feeds each stage's
    numpy math zero-copy from the receive buffer instead of through a
    Python list per grid.  The GUI sinks keep list records either way,
    so reports are unaffected.
    """
    if schema_url is None:
        schema_url = publish_hydrology_schema()

    reader_out, presend_in = _pair(transport)
    presend_out, flow_in = _pair(transport)
    flow_out, coupler_in = _pair(transport)
    control_out, flow_control = _pair(transport)
    coupler_gui1, gui1_in = _pair(transport)
    coupler_gui2, gui2_in = _pair(transport)

    reader = DataFileReader(schema_url, source, reader_out,
                            arrays=arrays)
    presend = Presend(schema_url, presend_in, presend_out,
                      factor=presend_factor, arrays=arrays)
    flow = Flow2D(schema_url, flow_in, flow_out, flow_control,
                  arrays=arrays)
    coupler = Coupler(schema_url, coupler_in,
                      [coupler_gui1, coupler_gui2], control_out)
    gui1 = Vis5DSink(schema_url, gui1_in, gui_name="vis5d-1",
                     feedback_every=feedback_every)
    gui2 = Vis5DSink(schema_url, gui2_in, gui_name="vis5d-2")
    return [reader, presend, flow, coupler, gui1, gui2]


def run_pipeline(dataset: WatershedDataset | None = None, *,
                 data_file=None,
                 timesteps: int = 8, grid: int = 32,
                 transport: str = "inproc",
                 presend_factor: int = 2,
                 feedback_every: int = 3,
                 arrays: str = "list",
                 timeout: float = 60.0) -> PipelineReport:
    """Build, run, and join the full Hydrology pipeline.

    Pass either an in-memory *dataset* (generated by default) or
    *data_file*, the path of a PBIO data file.  Returns a
    :class:`PipelineReport`; raises the first component error, if any.
    """
    if data_file is not None:
        source = data_file
    else:
        if dataset is None:
            dataset = generate_watershed(nx=grid, ny=grid,
                                         timesteps=timesteps)
        source = dataset
    components = build_pipeline(source, transport=transport,
                                presend_factor=presend_factor,
                                feedback_every=feedback_every,
                                arrays=arrays)
    reader, presend, flow, coupler, gui1, gui2 = components

    start = time.perf_counter()
    with span("pipeline", mode="point-to-point",
              transport=transport):
        for comp in components:
            comp.start()
        for comp in components:
            comp.join(timeout)
            if comp.is_alive():
                raise ReproError(
                    f"component {comp.component_name!r} did not finish "
                    f"within {timeout}s")
    elapsed = time.perf_counter() - start
    for comp in components:
        if comp.error is not None:
            raise comp.error
    if _obs.enabled:
        PIPELINE_RUNS.labels(mode="point-to-point").inc()

    guis = [gui1, gui2]
    return PipelineReport(
        timesteps=(dataset.timesteps if dataset is not None
                   else len(gui1.frames)),
        elapsed_seconds=elapsed,
        frames_per_gui=tuple(len(g.frames) for g in guis),
        gui_stats=tuple(g.frames for g in guis),
        control_messages_applied=len(flow.control_applied),
        component_messages={
            c.component_name: {"in": dict(c.stats.received),
                               "out": dict(c.stats.sent)}
            for c in components},
    )


@dataclass
class PublisherReport:
    """What a broadcast-pipeline run produced."""

    timesteps: int
    elapsed_seconds: float
    subscribers: int
    frames_per_subscriber: tuple[int, ...]
    records_per_subscriber: tuple[dict, ...]
    publisher_stats: dict
    component_messages: dict[str, dict] = field(default_factory=dict)


def run_publisher_pipeline(dataset: WatershedDataset | None = None, *,
                           subscribers: int = 4,
                           timesteps: int = 8, grid: int = 32,
                           transport: str = "inproc",
                           presend_factor: int = 2,
                           policy="block",
                           max_queue_bytes: int = 4 * 1024 * 1024,
                           arrays: str = "list",
                           timeout: float = 60.0) -> PublisherReport:
    """Run reader -> presend -> flow2d -> broadcast with *subscribers*
    loopback-socket readers attached to the broadcast server.

    Each Flow2D output record is encoded once and fanned out to every
    subscriber; subscribers are plain
    :class:`~repro.transport.connection.Connection` endpoints whose
    format metadata arrives by pre-announcement (zero negotiations).
    """
    from repro.pbio.context import IOContext
    from repro.pbio.format_server import FormatServer
    from repro.transport.connection import Connection
    from repro.transport.tcp import TCPChannel

    if dataset is None:
        dataset = generate_watershed(nx=grid, ny=grid,
                                     timesteps=timesteps)
    schema_url = publish_hydrology_schema()
    reader_out, presend_in = _pair(transport)
    presend_out, flow_in = _pair(transport)
    flow_out, coupler_in = _pair(transport)

    reader = DataFileReader(schema_url, dataset, reader_out,
                            arrays=arrays)
    presend = Presend(schema_url, presend_in, presend_out,
                      factor=presend_factor, arrays=arrays)
    flow = Flow2D(schema_url, flow_in, flow_out, arrays=arrays)
    coupler = BroadcastCoupler(schema_url, coupler_in,
                               policy=policy,
                               max_queue_bytes=max_queue_bytes,
                               min_subscribers=subscribers,
                               subscriber_timeout=timeout)
    components: list[Component] = [reader, presend, flow, coupler]

    received: list[dict] = [{} for _ in range(subscribers)]
    errors: list[BaseException | None] = [None] * subscribers

    def subscribe(index: int) -> None:
        try:
            ctx = IOContext(format_server=FormatServer())
            with Connection(ctx, TCPChannel.connect(
                    coupler.host, coupler.port)) as conn:
                while True:
                    msg = conn.receive(timeout=timeout)
                    if msg is None:
                        return
                    counts = received[index]
                    counts[msg.format_name] = \
                        counts.get(msg.format_name, 0) + 1
        except BaseException as exc:  # surfaced after the join
            errors[index] = exc

    readers = [threading.Thread(target=subscribe, args=(i,),
                                name=f"subscriber-{i}", daemon=True)
               for i in range(subscribers)]
    start = time.perf_counter()
    with span("pipeline", mode="publisher", transport=transport):
        for thread in readers:
            thread.start()
        for comp in components:
            comp.start()
        for comp in components:
            comp.join(timeout)
            if comp.is_alive():
                raise ReproError(
                    f"component {comp.component_name!r} did not finish "
                    f"within {timeout}s")
        for thread in readers:
            thread.join(timeout)
            if thread.is_alive():
                raise ReproError(f"{thread.name} did not finish "
                                 f"within {timeout}s")
    elapsed = time.perf_counter() - start
    for comp in components:
        if comp.error is not None:
            raise comp.error
    for exc in errors:
        if exc is not None:
            raise exc
    if _obs.enabled:
        PIPELINE_RUNS.labels(mode="publisher").inc()

    return PublisherReport(
        timesteps=dataset.timesteps,
        elapsed_seconds=elapsed,
        subscribers=subscribers,
        frames_per_subscriber=tuple(
            counts.get("SimpleData", 0) for counts in received),
        records_per_subscriber=tuple(received),
        publisher_stats=coupler.publisher.stats_dict(),
        component_messages={
            c.component_name: {"in": dict(c.stats.received),
                               "out": dict(c.stats.sent)}
            for c in components},
    )
