#!/usr/bin/env python
"""A live rolling upgrade, end to end, on both broadcast topologies.

The paper's restricted evolution (section 5) lets fields be added to a
message "without causing receivers of previous versions of the message
to fail", and its indirect discovery (section 3) centralizes a format
change at the format's URL.  Here the format document is served by a
``MetadataHTTPServer`` and edited in its ``DocumentStore`` while a
stream is live.  One ``XMIT`` loaded it; each ``refresh`` of the URL
that changes the format notifies a listener, which binds the new
version and hands it to ``publisher.cutover`` — the one place the
evolution check runs.  The stream moves to the new version without a
flag day:

1. v1-pinned subscribers negotiate their version (LIN_REQ); an
   un-negotiated follower just reads the stream;
2. the publisher publishes at v1;
3. the document at the URL is edited to v2, and its refresh cuts the
   stream over — new metadata (FMT_RSP) and the grown lineage
   (LIN_RSP) land in every subscriber's queue ahead of v2 data;
4. it keeps publishing, down-converting once per message for the v1
   cohort (on the sharded leg, in each shard that holds a v1
   subscriber);

   *revert*: the document is edited back to v1.  The refresh reports a
   change, and ``cutover`` rejects it (v1 drops v2's fields), so the
   rejection is counted and the stream stays at v2;

   *outage*: the HTTP server stops.  The refresh retries, then serves
   the last-known-good formats and reports no change; the stream stays
   at v2;
5. a late subscriber negotiates v2;
6. the v1 cohort leaves, and down-conversion stops.

The same sequence runs against ``BroadcastPublisher`` (one event loop)
and ``ShardedBroadcastServer`` (two worker processes), then once over a
point-to-point ``Connection``: an old component and an upgraded one
exchange records, each in its own version.  The oracle checks every
refresh's result, the cutovers and the rejection, the discovery
counters, every subscriber's record count, field set and format digest,
and the publisher's counters — on the sharded leg, also the fleet's
merged metrics scrape — and the script exits 1 on any mismatch.

Run:  python examples/rolling_upgrade.py
"""

import sys
import threading
import time

from repro import NATIVE, XMIT, Connection, IOContext
from repro.errors import FormatRegistrationError, ReproError
from repro.http import DocumentStore, MetadataHTTPServer
from repro.pbio.format_server import FormatServer
from repro.transport import (
    BroadcastPublisher, ShardedBroadcastServer, TCPChannel, tcp_pair,
)

NAME = "SimpleData"
V1 = """\
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="SimpleData">
    <xsd:element name="timestep" type="xsd:integer" />
    <xsd:element name="size" type="xsd:integer" />
    <xsd:element name="data" type="xsd:float" maxOccurs="*"
                 dimensionName="size" />
  </xsd:complexType>
</xsd:schema>
"""
V2 = V1.replace(
    "</xsd:complexType>",
    '  <xsd:element name="units" type="xsd:string" />\n'
    '  <xsd:element name="quality" type="xsd:double" />\n'
    "</xsd:complexType>")
V1_FIELDS = {"timestep", "size", "data"}
V2_FIELDS = V1_FIELDS | {"units", "quality"}

#: records published per phase: before the cut, after it, after the
#: late subscriber joined, after the v1 cohort left
BEFORE, AFTER, LATE, GONE = 3, 3, 2, 2
TIMEOUT = 60.0


class FormatSite:
    """The format document on an HTTP server, and the one ``XMIT``
    that loaded it from its URL."""

    PATH = "/rolling.xsd"

    def __init__(self) -> None:
        self.store = DocumentStore()
        self.store.put(self.PATH, V1)
        self.server = MetadataHTTPServer(self.store)
        self.url = self.server.url_for(self.PATH)
        self.xmit = XMIT()
        self.xmit.load_url(self.url)

    def binding(self):
        return self.xmit.bind(NAME, architecture=NATIVE).artifact

    def edit(self, text: str):
        """Put *text* at the URL and refresh: the changed names, or the
        error the refresh raised."""
        self.store.put(self.PATH, text)
        return self.refresh()

    def refresh(self):
        try:
            return self.xmit.refresh(self.url)
        except ReproError as exc:
            return exc


class Cutover:
    """The change listener that drives a publisher: a ``"changed"``
    format is bound and cut over to; a version the evolution check
    rejects is counted, and the stream keeps its version."""

    def __init__(self, site: FormatSite, publisher) -> None:
        self.site = site
        self.publisher = publisher
        self.reached: list = []
        self.rejected: list[str] = []
        site.xmit.subscribe(self)

    def __call__(self, event: str, name: str, fmt) -> None:
        if event != "changed" or name != NAME:
            return
        try:
            self.reached.append(
                self.publisher.cutover(self.site.binding()))
        except FormatRegistrationError as exc:
            self.rejected.append(str(exc))


def make_record(t: int) -> dict:
    """Record *t* at the stream's version then: v2 from the cut on."""
    record = {"timestep": t, "data": [t * 0.5, t + 0.25]}
    if t >= BEFORE:
        record.update(units=f"u{t}", quality=t / 10.0)
    return record


def context_with(*versions) -> IOContext:
    ctx = IOContext(format_server=FormatServer())
    for fmt in versions:
        ctx.register_evolution(fmt)
    return ctx


class Subscriber(threading.Thread):
    """One fleet member: connects, optionally negotiates, then keeps
    ``(format id, field names, timestep)`` per record until BYE — or
    leaves after *leave_after* records."""

    def __init__(self, host: str, port: int, versions, *,
                 negotiate: bool, leave_after: int | None = None):
        super().__init__(daemon=True)
        self.conn = Connection(context_with(*versions),
                               TCPChannel.connect(host, port))
        self.negotiate = negotiate
        self.leave_after = leave_after
        self.chosen = None
        self.records: list = []
        self.error: BaseException | None = None
        self.ready = threading.Event()
        self.start()

    def run(self) -> None:
        try:
            if self.negotiate:
                self.chosen = self.conn.negotiate_version(NAME, TIMEOUT)
            self.ready.set()
            while len(self.records) != self.leave_after:
                msg = self.conn.receive(TIMEOUT)
                if msg is None:
                    break
                self.records.append((msg.format_id, set(msg.record),
                                     msg.record["timestep"]))
        except BaseException as exc:  # noqa: BLE001 - reported below
            self.error = exc
        finally:
            self.ready.set()
            self.conn.close()


class Oracle:
    def __init__(self, label: str) -> None:
        self.label = label
        self.failures: list[str] = []

    def check(self, what: str, got, want) -> None:
        if got != want:
            self.failures.append(
                f"{self.label}: {what}: got {got!r}, want {want!r}")

    def subscriber(self, what: str, sub: Subscriber, chosen,
                   announced, stream) -> None:
        """*stream*: the ``(format id, field names, timestep)`` the
        subscriber must have received, in order."""
        sub.join(TIMEOUT)
        self.check(f"{what} error", sub.error, None)
        self.check(f"{what} negotiated", sub.chosen, chosen)
        self.check(f"{what} announced version",
                   sub.conn.announced_versions.get(NAME), announced)
        self.check(f"{what} record count", len(sub.records), len(stream))
        self.check(f"{what} records", sub.records, stream)


def settle(predicate) -> bool:
    deadline = time.monotonic() + TIMEOUT
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def rolling_upgrade(make_publisher, shards: int | None):
    """Drive the six steps and the revert and outage phases on a
    publisher built by *make_publisher* from a context bound to the
    version discovered at the URL; with *shards*, a publish or cutover
    reaches that many shard workers rather than subscribers.  Returns
    the oracle and the (v1, v2) bindings."""
    site = FormatSite()
    v1 = site.binding()
    publisher = make_publisher(context_with(v1)).start()
    cut = Cutover(site, publisher)
    label = type(publisher).__name__
    oracle = Oracle(label)
    check = oracle.check
    host, port = publisher.host, publisher.port
    sharded = shards is not None

    def publish(steps: range, subscribers: int) -> None:
        for t in steps:
            try:
                reached = publisher.publish(NAME, make_record(t))
            except ReproError as exc:  # the stream is not at v2
                reached = exc
            check(f"publish {t} reached", reached, shards or subscribers)

    # 1. a v1-pinned cohort that negotiates, and a follower that does not
    v1_cohort = [Subscriber(host, port, [v1], negotiate=True,
                            leave_after=BEFORE + AFTER + LATE)
                 for _ in range(2)]
    follower = Subscriber(host, port, [v1], negotiate=False)
    check("subscribers joined", publisher.wait_for_subscribers(3, TIMEOUT),
          True)
    # a pin holds from its LIN_RSP on, on either topology
    for sub in v1_cohort + [follower]:
        sub.ready.wait(TIMEOUT)

    # 2. publish at v1; 3. edit the document to v2: the refresh's
    # "changed" notification cuts the stream over
    publish(range(BEFORE), 3)
    check("refresh to v2", site.edit(V2), (NAME,))
    check("cutover reached", cut.reached, [shards or 3])
    v2 = site.binding()
    check("v2 fields", set(v2.field_list.names()), V2_FIELDS)
    lineage = (v1.format_id, v2.format_id)
    check("lineage", publisher.context.format_server.lineage(NAME),
          lineage)

    def down_converted(what: str, pinned: int) -> None:
        """One down-converted variant per message published while the
        v1 cohort was pinned: by the loop serving a pinned subscriber,
        so by each shard holding one, none by a shard without."""
        if not sharded:
            check(what, publisher.stats.frames_down_converted, pinned)
            return
        check(f"{what} by the publisher",
              publisher.stats.frames_down_converted, 0)
        counts = {label: shard["publisher"]["frames_down_converted"]
                  for label, shard in publisher.worker_stats(TIMEOUT).items()}
        check(f"{what} per shard",
              {label: n in (0, pinned) for label, n in counts.items()},
              {f"w{i}": True for i in range(shards)})
        check(f"{what} by the fleet", sum(counts.values()) >= pinned, True)

    # 4. keep publishing: one down-converted variant per message
    publish(range(BEFORE, BEFORE + AFTER), 3)
    down_converted("down-converted after the cut", AFTER)

    # revert: v1 again at the URL is a change, and not an evolution
    check("refresh to the reverted v1", site.edit(V1), (NAME,))
    check("reverted binding", site.binding().format_id, v1.format_id)
    check("revert rejected",
          [("removed=['quality', 'units']" in why) for why in
           cut.rejected], [True])
    check("cutovers after the revert", publisher.stats.cutovers, 1)
    check("lineage after the revert",
          publisher.context.format_server.lineage(NAME), lineage)

    # outage: the server stops; the refresh retries, then falls back
    site.server.close()
    stats = site.xmit.discovery_stats
    fallbacks, retries = stats.fallbacks, stats.retries
    check("refresh during the outage", site.refresh(), ())
    check("fallbacks", stats.fallbacks - fallbacks, 1)
    check("retried", stats.retries > retries, True)
    check("format after the outage",
          publisher.context.lookup_format(NAME).format_id, v2.format_id)

    # 5. a late subscriber negotiates v2
    late = Subscriber(host, port, [v1, v2], negotiate=True)
    check("late subscriber joined",
          publisher.wait_for_subscribers(4, TIMEOUT), True)
    late.ready.wait(TIMEOUT)
    publish(range(BEFORE + AFTER, BEFORE + AFTER + LATE), 4)

    # 6. the v1 cohort leaves; down-conversion stops with it
    check("v1 cohort left",
          settle(lambda: publisher.subscriber_count == 2), True)
    down_converted("down-converted while pinned", AFTER + LATE)
    publish(range(BEFORE + AFTER + LATE, BEFORE + AFTER + LATE + GONE),
            2)
    publisher.flush(TIMEOUT)
    down_converted("down-converted after the cohort left", AFTER + LATE)
    check("cutovers counted", publisher.stats.cutovers, 1)
    if sharded:
        # the fleet's one scrape body: each shard's registry under its
        # worker label, fetched over the control sockets, which no
        # shard counts among its clients
        clients = {
            series["labels"]["worker"]: series["value"]
            for series in publisher.metrics_snapshot(TIMEOUT)[
                "repro_transport_clients"]["series"]}
        workers = {f"w{i}" for i in range(shards)}
        check("workers scraped", workers <= set(clients), True)
        check("clients scraped",
              sum(clients.get(worker, 0) for worker in workers), 2)
    publisher.close()

    old, new = (v1.format_id, V1_FIELDS), (v2.format_id, V2_FIELDS)
    total = BEFORE + AFTER + LATE + GONE
    cut = [old] * BEFORE + [new] * (total - BEFORE)
    for i, sub in enumerate(v1_cohort):
        oracle.subscriber(
            f"v1 subscriber {i}", sub, v1.format_id, v1.format_id,
            [(*old, t) for t in range(BEFORE + AFTER + LATE)])
    oracle.subscriber("follower", follower, None, v2.format_id,
                      [(*cut[t], t) for t in range(total)])
    oracle.subscriber("late subscriber", late, v2.format_id,
                      v2.format_id,
                      [(*new, t) for t in range(BEFORE + AFTER, total)])
    return oracle, (v1, v2)


def point_to_point(v1, v2) -> Oracle:
    """An old component (v1 only) and an upgraded one (v1 and v2) on
    one connection: the old side negotiates and sends at v1, the new
    side reads that record in its own v2 view and answers with
    ``send_negotiated``, which down-converts to the old side's v1."""
    oracle = Oracle("Connection")
    old_channel, new_channel = tcp_pair()
    old = Connection(context_with(v1), old_channel)
    new = Connection(context_with(v1, v2), new_channel)
    got = {}

    def old_component() -> None:
        try:
            got["chosen"] = old.negotiate_version(NAME, TIMEOUT)
            old.send(NAME, {"timestep": 1, "data": [0.5]})
            got["reply"] = old.receive(TIMEOUT)
        except BaseException as exc:  # noqa: BLE001 - reported below
            got["error"] = exc

    thread = threading.Thread(target=old_component, daemon=True)
    thread.start()
    # receive_as services the LIN_REQ on the way to the v1 record
    request = new.receive_as(NAME, TIMEOUT)
    new.send_negotiated(NAME, make_record(BEFORE))
    thread.join(TIMEOUT)
    old.close()
    new.close()
    oracle.check("error", got.get("error"), None)
    oracle.check("negotiated", got.get("chosen"), v1.format_id)
    oracle.check("request in the v2 view",
                 request and (set(request), request["units"]),
                 (V2_FIELDS, None))
    reply = got.get("reply")
    oracle.check("reply", reply and (reply.format_id, set(reply.record)),
                 (v1.format_id, V1_FIELDS))
    return oracle


def main() -> int:
    broadcast, versions = rolling_upgrade(BroadcastPublisher, None)
    sharded, _ = rolling_upgrade(
        lambda ctx: ShardedBroadcastServer(ctx, workers=2), 2)
    failures = []
    for oracle in (broadcast, sharded, point_to_point(*versions)):
        print(f"{oracle.label}: "
              f"{'ok' if not oracle.failures else 'MISMATCH'}")
        failures += oracle.failures
    for line in failures:
        print(f"  {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
