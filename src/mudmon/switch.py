"""Discrete-event SDN switch simulation.

Each registered device owns an ordered flow table of concrete entries.
Packets are matched against the highest-priority entry (first-inserted wins
on ties), counters accumulate per entry, mirror-action hits produce mirror
events, and DNS answers seen on mirrored replies instantiate the templates
that name the answered domain. Reactive entries (DNS-bound service rules,
stage-3 microflows) expire on idle timeouts; MUD-derived proactive rules
and mitigation blocks are permanent. The switch keeps no record of DNS
answers beyond the entries they install.

A table holds its entries in three tiers, each in ``(-priority, seq)``
order: the mitigation blocks above ``PRIORITY_MICROFLOW``, the live
microflows, and the proactive and DNS-bound entries below. A lookup scans
the blocks, then looks the packet's 5-tuple up in a hash of the microflow
tier (one probe per wildcard pattern in use, the earliest-inserted match
winning), then scans the tier below. A packet that matches nothing hits the
table-miss entry: the lowest-priority entry, matching everything, as in
OpenFlow 1.3. It counts like any other entry but is not listed among the
table's entries.

Microflows are indexed by flow id, which already names the 5-tuple, and
DNS-bound entries by ``(flow_id, bound IP)``. The two indexes answer
whether a reactive entry is already installed (a repeated DNS answer or
microflow refreshes it instead of duplicating it), their sizes add up to
the count held against ``tcam_capacity``, and they hold exactly the entries
that expiry and microflow teardown may remove. The switch also maps each
domain to the (table, template slot) pairs it binds, so a DNS answer visits
only the templates that name it.

Timestamps are integer microseconds. Counter polling happens on a minutely
cadence and yields per-flow-id deltas (entries sharing a flow id, e.g. the
per-IP instances of one reactive rule, are aggregated).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from enum import Enum
from operator import attrgetter
from typing import Callable, Iterable

from .errors import NoDeviceError, SchemaError, TableFullError
from .mud import (
    Action,
    FlowRuleTemplate,
    MatchSpec,
    PRIORITY_BLOCK,
    PRIORITY_MICROFLOW,
)

US_PER_SEC = 1_000_000
US_PER_MIN = 60 * US_PER_SEC

MISS_FLOW_ID = "_miss"
# Flow-id grammar of the entries the switch inserts: a microflow is
# "<parent flow id>~<5-tuple>", a mitigation block is "block:<label>".
MICROFLOW_MARK = "~"
BLOCK_PREFIX = "block:"


class Origin(str, Enum):
    MUD_PROACTIVE = "mud_proactive"
    MUD_REACTIVE_DNS = "mud_reactive_dns"
    STAGE3_MICROFLOW = "stage3_microflow"
    MITIGATION_BLOCK = "mitigation_block"


@dataclass(frozen=True, slots=True)
class DnsAnswer:
    domain: str
    ips: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class ArpInfo:
    sender_ip: str
    sender_mac: str
    op: int  # 1 request, 2 reply


@dataclass(frozen=True, slots=True)
class PacketRecord:
    ts: int  # microseconds
    src_mac: str
    dst_mac: str
    eth_type: int
    length: int
    src_ip: str | None = None
    dst_ip: str | None = None
    proto: int | None = None
    src_port: int | None = None
    dst_port: int | None = None
    icmp_type: int | None = None
    icmp_code: int | None = None
    payload_hint: DnsAnswer | ArpInfo | None = None

    def __post_init__(self) -> None:
        # Registered MACs and rule matches are lower case. A MAC that already
        # is stays the caller's string, so a trace's packets share one copy.
        for name in ("src_mac", "dst_mac"):
            mac = getattr(self, name)
            if mac != (lower := mac.lower()):
                object.__setattr__(self, name, lower)


@dataclass(frozen=True, slots=True)
class FiveTuple:
    src_ip: str
    dst_ip: str
    proto: int
    src_port: int | None
    dst_port: int | None

    def __str__(self) -> str:
        sp = "" if self.src_port is None else self.src_port
        dp = "" if self.dst_port is None else self.dst_port
        return f"{self.src_ip}:{sp}>{self.dst_ip}:{dp}/{self.proto}"

    @staticmethod
    def of(pkt: PacketRecord) -> "FiveTuple":
        return FiveTuple(pkt.src_ip or "?", pkt.dst_ip or "?", pkt.proto or 0,
                         pkt.src_port, pkt.dst_port)


@dataclass(slots=True)
class FlowEntry:
    flow_id: str
    match: MatchSpec
    priority: int
    action: Action
    origin: Origin
    idle_timeout_sec: int | None = None
    packet_count: int = 0
    byte_count: int = 0
    last_hit: int = 0  # microseconds
    seq: int = 0
    # Polling bookkeeping
    polled_packets: int = 0
    polled_bytes: int = 0

    def expired(self, now: int) -> bool:
        return (self.idle_timeout_sec is not None
                and now - self.last_hit > self.idle_timeout_sec * US_PER_SEC)


@dataclass(frozen=True, slots=True)
class FlowCounterRecord:
    ts_min: int
    device_id: str
    flow_id: str
    packets: int
    bytes: int


@dataclass(frozen=True, slots=True)
class MatchResult:
    device_id: str
    flow_id: str
    action: Action


@dataclass(frozen=True, slots=True)
class Disposition:
    matches: tuple[MatchResult, ...]
    forwarded: bool
    mirrored: bool

    @property
    def matched_flow_id(self) -> str | None:
        return self.matches[0].flow_id if self.matches else None


def _rank(entry: FlowEntry) -> tuple[int, int]:
    return -entry.priority, entry.seq


def _take_unpolled(entry: FlowEntry) -> tuple[int, int]:
    """The entry's (packets, bytes) since the last poll, now marked polled."""
    delta = entry.packet_count - entry.polled_packets, entry.byte_count - entry.polled_bytes
    entry.polled_packets, entry.polled_bytes = entry.packet_count, entry.byte_count
    return delta


def _five_tuple_key(match: MatchSpec) -> tuple[tuple[int, ...], tuple]:
    """The 5-tuple fields a match leaves open (by position) and their values."""
    fields = (match.src_ip, match.dst_ip, match.proto, match.src_port, match.dst_port)
    if None not in fields:
        return (), fields
    return tuple(i for i, v in enumerate(fields) if v is None), fields


class _DeviceTable:
    """Flow table plus DNS-bound template registry for one device."""

    def __init__(self):
        # Each tier sorted by _rank: blocks, then the microflows, then the rest.
        self.above: list[FlowEntry] = []
        self.microflows: dict[str, FlowEntry] = {}  # by flow id, in seq order
        self.below: list[FlowEntry] = []
        # The microflow tier by wildcard pattern, then by 5-tuple, in seq order.
        self.tier: dict[tuple[int, ...], dict[tuple, list[FlowEntry]]] = {}
        self.dns_bound: dict[tuple[str, str], FlowEntry] = {}  # by (flow_id, bound IP)
        self.reactive_templates: list[FlowRuleTemplate] = []
        self.miss = FlowEntry(MISS_FLOW_ID, MatchSpec(), 0, Action.FORWARD,
                              Origin.MUD_PROACTIVE)
        # Un-polled deltas of entries removed between polls, so counter
        # conservation survives expiry and microflow teardown.
        self.residual: dict[str, tuple[int, int]] = {}
        self._seq = 0

    @property
    def entries(self) -> list[FlowEntry]:
        """Every installed entry in rank order; the table-miss entry is not one."""
        return [*self.above, *self.microflows.values(), *self.below]

    def add_entry(self, entry: FlowEntry, bound_ip: str | None = None) -> None:
        entry.seq = self._seq
        self._seq += 1
        if entry.origin is Origin.STAGE3_MICROFLOW:
            self.microflows[entry.flow_id] = entry
            wild, fields = _five_tuple_key(entry.match)
            self.tier.setdefault(wild, {}).setdefault(fields, []).append(entry)
            return
        bisect.insort(self.above if entry.priority > PRIORITY_MICROFLOW else self.below,
                      entry, key=_rank)
        if bound_ip is not None:
            self.dns_bound[entry.flow_id, bound_ip] = entry

    def remove_reactive(self, doomed: Callable[[FlowEntry], bool]) -> list[FlowEntry]:
        """Drop the reactive entries ``doomed`` picks, banking their un-polled deltas.

        Returns them in the order they were installed.
        """
        bound, micro = ([index.pop(key) for key in [key for key, e in index.items() if doomed(e)]]
                        for index in (self.dns_bound, self.microflows))
        if bound:
            gone = {e.seq for e in bound}
            self.below = [e for e in self.below if e.seq not in gone]
        for entry in micro:
            wild, fields = _five_tuple_key(entry.match)
            buckets = self.tier[wild]
            kept = [e for e in buckets[fields] if e is not entry]
            if kept:
                buckets[fields] = kept
            else:
                del buckets[fields]
                if not buckets:
                    del self.tier[wild]
        removed = sorted(bound + micro, key=attrgetter("seq"))
        for entry in removed:
            dp, db = _take_unpolled(entry)
            if dp or db:
                p, b = self.residual.get(entry.flow_id, (0, 0))
                self.residual[entry.flow_id] = (p + dp, b + db)
        return removed

    def lookup(self, pkt: PacketRecord) -> FlowEntry:
        for entry in self.above:
            if entry.match.matches(pkt):
                return entry
        if self.tier:
            best = None
            five = (pkt.src_ip, pkt.dst_ip, pkt.proto, pkt.src_port, pkt.dst_port)
            for wild, buckets in self.tier.items():
                key = tuple(None if i in wild else v for i, v in enumerate(five)) if wild else five
                for entry in buckets.get(key, ()):
                    if entry.match.matches(pkt):
                        if best is None or entry.seq < best.seq:
                            best = entry
                        break
            if best is not None:
                return best
        for entry in self.below:
            if entry.match.matches(pkt):
                return entry
        return self.miss


class SwitchSim:
    """Per-device match-action flow tables with mirroring and telemetry.

    ``on_mirror`` callbacks receive ``(device_id, flow_id, pkt)`` for every
    mirrored packet.
    """

    def __init__(self, tcam_capacity: int = 1024,
                 reactive_idle_sec: int = 120,
                 microflow_idle_sec: int = 60):
        self.tcam_capacity = tcam_capacity
        self.reactive_idle_sec = reactive_idle_sec
        self.microflow_idle_sec = microflow_idle_sec
        self.tables: dict[str, _DeviceTable] = {}
        self.mac_to_device: dict[str, str] = {}
        # Domain -> (table, slot in its reactive_templates) of each template
        # naming it. A slot, not the template: set_flow_action swaps templates.
        self._domain_slots: dict[str, list[tuple[_DeviceTable, int]]] = {}
        self.on_mirror: list[Callable[[str, str, PacketRecord], None]] = []
        self.dropped_packets = 0

    # -- setup ------------------------------------------------------------

    def register_device(self, device_id: str, mac: str,
                        templates: Iterable[FlowRuleTemplate]) -> None:
        """Install a device's templates in a fresh table, replacing any earlier one.

        Raises SchemaError if another device already owns the MAC, or if a
        template ranks with the microflow tier or above it.
        """
        mac = mac.lower()
        owner = self.mac_to_device.get(mac, device_id)
        if owner != device_id:
            raise SchemaError(f"MAC {mac} is registered to {owner!r}, not {device_id!r}")
        templates = list(templates)
        if any(tpl.priority >= PRIORITY_MICROFLOW for tpl in templates):
            raise SchemaError(f"{device_id}: template priority at or above {PRIORITY_MICROFLOW}")
        table = _DeviceTable()
        if (old := self.tables.get(device_id)) is not None:
            for refs in self._domain_slots.values():
                refs[:] = [ref for ref in refs if ref[0] is not old]
            self.mac_to_device = {m: d for m, d in self.mac_to_device.items() if d != device_id}
        for tpl in templates:
            if domain := tpl.match.src_domain or tpl.match.dst_domain:
                self._domain_slots.setdefault(domain, []).append(
                    (table, len(table.reactive_templates)))
                table.reactive_templates.append(tpl)
            else:
                table.add_entry(FlowEntry(
                    flow_id=tpl.flow_id, match=tpl.match, priority=tpl.priority,
                    action=tpl.action, origin=Origin.MUD_PROACTIVE))
        self.tables[device_id] = table
        self.mac_to_device[mac] = device_id

    def _table(self, device_id: str) -> _DeviceTable:
        """The device's table; NoDeviceError if no device has that id."""
        table = self.tables.get(device_id)
        if table is None:
            raise NoDeviceError(f"no registered device {device_id!r}")
        return table

    # -- packet path ------------------------------------------------------

    def process_packet(self, pkt: PacketRecord, now: int | None = None) -> Disposition:
        now = pkt.ts if now is None else now

        device_ids = []
        src_dev = self.mac_to_device.get(pkt.src_mac)
        dst_dev = self.mac_to_device.get(pkt.dst_mac)
        if src_dev is not None:
            device_ids.append(src_dev)
        if dst_dev is not None and dst_dev != src_dev:
            device_ids.append(dst_dev)
        if not device_ids:
            self.dropped_packets += 1
            raise NoDeviceError(f"no registered device for {pkt.src_mac}->{pkt.dst_mac}")

        matches = []
        forwarded = True
        mirrored = False
        for device_id in device_ids:
            table = self.tables[device_id]
            entry = table.lookup(pkt)
            entry.packet_count += 1
            entry.byte_count += pkt.length
            entry.last_hit = now
            matches.append(MatchResult(device_id, entry.flow_id, entry.action))
            if entry.action is Action.BLOCK:
                forwarded = False
            elif entry.action is Action.FORWARD_AND_MIRROR:
                mirrored = True
                for cb in self.on_mirror:
                    cb(device_id, entry.flow_id, pkt)

        if mirrored and isinstance(pkt.payload_hint, DnsAnswer):
            self.handle_dns_answer(pkt.payload_hint.domain, pkt.payload_hint.ips, now)

        return Disposition(tuple(matches), forwarded, mirrored)

    # -- reactive insertion -----------------------------------------------

    def handle_dns_answer(self, domain: str, ips: Iterable[str], now: int) -> list[FlowEntry]:
        """Instantiate the templates naming ``domain``, one entry per resolved IP.

        Idempotent: an already-live (flow_id, ip) instance is refreshed, not
        duplicated. A domain no template names binds nothing.
        """
        ips = list(ips)
        inserted: list[FlowEntry] = []
        for table, slot in self._domain_slots.get(domain, ()):
            tpl = table.reactive_templates[slot]
            bind = "src" if tpl.match.src_domain else "dst"
            for ip in ips:
                live = table.dns_bound.get((tpl.flow_id, ip))
                if live is not None:
                    live.last_hit = now
                    continue
                entry = FlowEntry(
                    flow_id=tpl.flow_id,
                    match=replace(tpl.match, **{f"{bind}_ip": ip, f"{bind}_domain": None}),
                    priority=tpl.priority, action=tpl.action,
                    origin=Origin.MUD_REACTIVE_DNS,
                    idle_timeout_sec=self.reactive_idle_sec, last_hit=now)
                table.add_entry(entry, ip)
                inserted.append(entry)
        return inserted

    def insert_microflow(self, device_id: str, five_tuple: FiveTuple,
                         parent_flow_id: str, now: int) -> FlowEntry:
        """Install a highest-priority 5-tuple entry to stop per-packet mirroring.

        Raises TableFullError once the reactive entry count reaches capacity;
        sustained insertion pressure is itself a distributed-attack signal.
        """
        table = self._table(device_id)
        flow_id = f"{parent_flow_id}{MICROFLOW_MARK}{five_tuple}"
        live = table.microflows.get(flow_id)
        if live is not None:
            live.last_hit = now
            return live
        if len(table.dns_bound) + len(table.microflows) >= self.tcam_capacity:
            raise TableFullError(
                f"{device_id}: reactive capacity {self.tcam_capacity} reached")
        match = MatchSpec(
            eth_type=0x0800, src_ip=five_tuple.src_ip, dst_ip=five_tuple.dst_ip,
            proto=five_tuple.proto, src_port=five_tuple.src_port,
            dst_port=five_tuple.dst_port)
        entry = FlowEntry(
            flow_id=flow_id, match=match, priority=PRIORITY_MICROFLOW,
            action=Action.FORWARD, origin=Origin.STAGE3_MICROFLOW,
            idle_timeout_sec=self.microflow_idle_sec, last_hit=now)
        table.add_entry(entry)
        return entry

    def insert_block(self, device_id: str, match: MatchSpec, label: str,
                     now: int) -> FlowEntry:
        """Install a permanent block above every other entry, as ``block:<label>``.

        Raises SchemaError if the label holds ``MICROFLOW_MARK``, which would
        make the block's flow id read as a microflow's.
        """
        if MICROFLOW_MARK in label:
            raise SchemaError(f"block label {label!r} holds {MICROFLOW_MARK!r}")
        table = self._table(device_id)
        entry = FlowEntry(
            flow_id=f"{BLOCK_PREFIX}{label}", match=match, priority=PRIORITY_BLOCK,
            action=Action.BLOCK, origin=Origin.MITIGATION_BLOCK,
            last_hit=now)
        table.add_entry(entry)
        return entry

    def remove_microflows(self, device_id: str, parent_flow_ids: set[str] | None = None
                          ) -> list[str]:
        """Drop stage-3 microflow entries (all, or those under given parents)."""
        removed = self._table(device_id).remove_reactive(
            lambda e: e.origin is Origin.STAGE3_MICROFLOW
            and (parent_flow_ids is None or e.flow_id.split(MICROFLOW_MARK, 1)[0] in parent_flow_ids))
        return [e.flow_id for e in removed]

    def set_flow_action(self, device_id: str, flow_ids: Iterable[str],
                        action: Action) -> None:
        flow_ids = set(flow_ids)
        table = self._table(device_id)
        for entry in table.entries:
            if entry.flow_id in flow_ids:
                entry.action = action
        templates = table.reactive_templates
        for i, tpl in enumerate(templates):
            if tpl.flow_id in flow_ids:
                templates[i] = replace(tpl, action=action)

    # -- maintenance ------------------------------------------------------

    def expire_idle(self, now: int) -> list[tuple[str, str]]:
        """Remove idle-timed-out entries; returns (device_id, flow_id) pairs."""
        return [(device_id, e.flow_id) for device_id, table in self.tables.items()
                for e in table.remove_reactive(lambda e: e.expired(now))]

    def poll_counters(self, ts_min: int) -> list[FlowCounterRecord]:
        """Per-flow-id counter deltas since the previous poll.

        Every known flow id is reported each poll (zero deltas included);
        entries sharing one flow id are aggregated.
        """
        records: list[FlowCounterRecord] = []
        for device_id, table in self.tables.items():
            per_flow: dict[str, tuple[int, int]] = {}
            for entry in table.entries:
                dp, db = _take_unpolled(entry)
                p, b = per_flow.get(entry.flow_id, (0, 0))
                per_flow[entry.flow_id] = (p + dp, b + db)
            for flow_id, (rp, rb) in table.residual.items():
                p, b = per_flow.get(flow_id, (0, 0))
                per_flow[flow_id] = (p + rp, b + rb)
            table.residual = {}
            # Reactive rules awaiting DNS bindings still report zero deltas.
            for tpl in table.reactive_templates:
                per_flow.setdefault(tpl.flow_id, (0, 0))
            for flow_id, (p, b) in per_flow.items():
                records.append(FlowCounterRecord(ts_min, device_id, flow_id, p, b))
            dp, db = _take_unpolled(table.miss)
            if dp:  # the table-miss entry is reported only when it was hit, and last
                records.append(FlowCounterRecord(ts_min, device_id, MISS_FLOW_ID, dp, db))
        return records

    def entry_count(self, device_id: str) -> int:
        table = self._table(device_id)
        return len(table.above) + len(table.microflows) + len(table.below)
