"""Single-threaded replay of a generated trace through the three mudmon stages.

Stage 1: every simulated minute, poll the switch counters, feed each
device's records to its ``VolumetricExtractor`` and score each scope with
the (device type, scope) model trained by ``strategy.train_strategy``.
Stage 2: a service scope alarmed in two consecutive minutes (or a channel
scope, which then escalates the channel's busiest service) has its flows
set to ``FORWARD_AND_MIRROR``; mirrored packets feed ``EntropyWindows``
over the rules' ``wildcarded_headers()``, and ready windows are scored by
``train_dispersion`` models. Dispersion alarms in two consecutive minutes
block the service's attacked flows with ``insert_block``.
Stage 3: every mirrored packet of an escalated service gets a 5-tuple
``insert_microflow``; microflow scopes are scored with ``predict_batch``.
While stage 1 still flags the service, a few anomalous 5-tuples are
blocked one by one; many are a distributed flood, left to stage 2 unless
the table refuses the service's microflows, which blocks the service.

Calibration devices are mirrored (with microflows) during training, which
gives the dispersion and microflow models benign data.

All calls into the package go through ``Layers.call``, which counts
attempts and ``MudmonError`` failures, records any other exception as a
defect, and (in a traced replay) wraps the call in a span.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from mudmon import mud, strategy, worker
from mudmon.errors import MudmonError
from mudmon.features import EntropyWindows, FeatureLayout, ScopeKind, VolumetricExtractor
from mudmon.mud import Action, FlowRuleTemplate, Scope
from mudmon.switch import DnsAnswer, FiveTuple, FlowCounterRecord, SwitchSim, US_PER_MIN
from mudmon.worker import TrainConfig

from spans import SpanRecorder
from tracegen import GATEWAY_IP, GATEWAY_MAC, US_PER_EPOCH, Trace

# Replay costs are CPU seconds of this single-threaded process: equal to wall
# time on an idle host, and far less moved than wall time by other processes.
cpu = time.process_time

PACKET = "switch.process_packet"
DNS_REPLY = "switch.process_packet.dns_reply"
# An escalated service returns to its MUD actions after this many minutes
# without a stage-1 alarm on it.
RELEASE_AFTER_QUIET_MIN = 3
# More anomalous microflows than this in one service and minute is a
# distributed flood, too many sources to block one by one.
MAX_5TUPLE_BLOCKS = 16
# Reactive (DNS-bound plus microflow) entries each device table may hold:
# twice SwitchSim's default, so that a spoofed flood fills a table to
# thousands of entries. Filling 4096 costs about 7 s of CPU per table with
# today's insert path (a scan and a sort per insert), too long for a replay.
TCAM_CAPACITY = 2048
# Tables at least this large count towards `switch.entries.big_table_minutes`.
BIG_TABLE = 1000


class Layers:
    """Gateway for every call into the package: counts, failures and spans."""

    def __init__(self, spans: SpanRecorder | None):
        self.spans = spans
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()  # (call name, exception type) -> count
        self.escaped: list[str] = []

    def call(self, name: str, fn, *args, units: int = 1):
        """``fn(*args)``; a ``MudmonError`` is counted and yields None."""
        self.attempted += 1
        span = self.spans.open(name, units) if self.spans is not None else -1
        try:
            return fn(*args)
        except MudmonError as exc:
            self.failed += 1
            self.errors[name, type(exc).__name__] += 1
            return None
        except Exception as exc:  # a layer leaked a non-package error: a defect
            self.escaped.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        finally:
            if span >= 0:
                self.spans.close(span)

    def nested(self, name: str, fn):
        """Wrap a function one layer calls in another, so it gets its own span."""
        spans = self.spans

        def traced(*args, **kwargs):
            span = spans.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                spans.close(span)
        return traced


class SetupError(RuntimeError):
    """A layer refused the generated fleet; the replay cannot continue."""


def _required(value, what: str):
    if value is None:
        raise SetupError(f"{what} failed")
    return value


@dataclass
class Escalation:
    windows: EntropyWindows
    calibration: bool
    quiet: int = 0
    dispersed: bool = False  # a dispersion alarm in the previous minute
    refused: bool = False  # a microflow insert found the table full this minute
    flows_seen: set[str] = field(default_factory=set)
    ready: list = field(default_factory=list)  # newest ready entropy vectors


@dataclass
class DeviceState:
    device_id: str
    type_name: str
    templates: dict[str, FlowRuleTemplate]  # flow id -> template
    groups: dict[str, list[FlowRuleTemplate]]  # service letter -> rules
    extractor: VolumetricExtractor
    prev: dict = field(default_factory=dict)
    alarmed: set = field(default_factory=set)  # scopes alarmed in the previous minute
    escalated: dict[str, Escalation] = field(default_factory=dict)
    blocked_services: set[str] = field(default_factory=set)
    microflows: dict = field(default_factory=dict)  # microflow id -> match
    blocked_microflows: set[str] = field(default_factory=set)

    def letter(self, flow_id: str) -> str | None:
        tpl = self.templates.get(flow_id)
        return tpl.group if tpl is not None and tpl.group in self.groups else None

    def channel_letters(self, scope: Scope) -> list[str]:
        return [g for g, rules in self.groups.items() if rules[0].scope is scope]


@dataclass
class ReplayResult:
    setup_s: float
    train_s: float
    replay_s: float  # collection + detection minutes, training excluded
    packet_s: float  # per-packet replay only
    total_s: float  # the whole replay, setup and training included
    packets: int
    mirrored: int
    device_minutes: int
    latencies_ms: list[float]
    attacked_minutes: int
    attacked_flagged: int
    benign_minutes: int
    benign_flagged: int
    detect_delays: list[int]
    verdict_digest: str
    model_digest: str
    conservation_errors: list[str]
    layers: Layers
    counts: Counter
    samples: dict[str, list[float]]


def conservation_errors(polled: dict[str, list[int]], touched: dict[str, list[int]]
                        ) -> list[str]:
    """Devices whose polled packet/byte deltas differ from the traffic they saw.

    Both maps hold ``device id -> [packets, bytes]``: summed over every
    ``poll_counters`` record (``_miss``, residuals and blocks included) and
    over every packet whose disposition touched the device's table.
    """
    errors = []
    for dev in sorted(set(polled) | set(touched)):
        p, t = polled.get(dev, [0, 0]), touched.get(dev, [0, 0])
        if p != t:
            errors.append(f"{dev}: polled {p[0]} pkts/{p[1]} B, saw {t[0]} pkts/{t[1]} B")
    return errors


def replay_gateways(traces: list[Trace], spans: SpanRecorder | None = None) -> ReplayResult:
    """Replay each gateway's trace through its own pipeline; sum the results."""
    results = [Replay(trace, spans).run() for trace in traces]
    if len(results) == 1:
        return results[0]
    layers = Layers(spans)
    counts: Counter = Counter()
    samples: dict[str, list[float]] = defaultdict(list)
    for r in results:
        layers.attempted += r.layers.attempted
        layers.failed += r.layers.failed
        layers.errors.update(r.layers.errors)
        layers.escaped += r.layers.escaped
        counts.update(r.counts)
        for k, v in r.samples.items():
            samples[k] += v

    def total(attr):
        return sum(getattr(r, attr) for r in results)

    def joined(attr):
        return [x for r in results for x in getattr(r, attr)]

    def digest(attr):
        return hashlib.sha256(" ".join(getattr(r, attr) for r in results).encode()).hexdigest()

    return ReplayResult(
        setup_s=total("setup_s"), train_s=total("train_s"), replay_s=total("replay_s"),
        packet_s=total("packet_s"), total_s=total("total_s"), packets=total("packets"),
        mirrored=total("mirrored"), device_minutes=total("device_minutes"),
        latencies_ms=joined("latencies_ms"), attacked_minutes=total("attacked_minutes"),
        attacked_flagged=total("attacked_flagged"), benign_minutes=total("benign_minutes"),
        benign_flagged=total("benign_flagged"), detect_delays=joined("detect_delays"),
        verdict_digest=digest("verdict_digest"), model_digest=digest("model_digest"),
        conservation_errors=joined("conservation_errors"), layers=layers, counts=counts,
        samples=samples)


def with_microflows_in_parents(records: list[FlowCounterRecord]) -> list[FlowCounterRecord]:
    """Records with each microflow's deltas also credited to its parent rule.

    A stage-3 microflow takes over packets its parent MUD rule matched
    before; stage 1 keeps seeing the rule's whole volume, and the microflow
    record stays for stage 3.
    """
    moved: dict[str, list[int]] = {}
    for rec in records:
        if "~" in rec.flow_id and not rec.flow_id.startswith("block:"):
            got = moved.setdefault(rec.flow_id.split("~", 1)[0], [0, 0])
            got[0] += rec.packets
            got[1] += rec.bytes
    if not moved:
        return records
    return [FlowCounterRecord(r.ts_min, r.device_id, r.flow_id, r.packets + moved[r.flow_id][0],
                              r.bytes + moved[r.flow_id][1]) if r.flow_id in moved else r
            for r in records]


class Replay:
    def __init__(self, trace: Trace, spans: SpanRecorder | None = None):
        self.trace = trace
        self.spans = spans
        self.layers = Layers(spans)
        self.layout = FeatureLayout()
        self.cfg = TrainConfig.small()
        self.states: dict[str, DeviceState] = {}
        self.windowed: dict[str, DeviceState] = {}
        self.models: dict[tuple[str, str], worker.WorkerModel] = {}
        self.rows: dict[tuple[str, str], dict[str, list]] = {}
        self.calib_rows: dict[tuple[str, str, str], list] = defaultdict(list)
        self.micro_rows: dict[tuple[str, str], list] = defaultdict(list)
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.log = hashlib.sha256()
        self.polled: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.touched: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.looked_up: dict[str, int] = defaultdict(int)  # packets seen by last minute's end
        self.latencies: list[float] = []
        self.mirrored = 0
        self.packet_s = 0.0
        self.tally = Counter()
        self.first_flag: dict[str, int] = {}

    # -- run ------------------------------------------------------------------

    def run(self) -> ReplayResult:
        tr = self.trace
        t0 = cpu()
        self.setup()
        t1 = cpu()
        for m in range(tr.train_minutes):
            if m == tr.train_minutes - self.layout.max_window_min:
                self.end_calibration()
            self.minute(m, detect=False)
        t2 = cpu()
        self.train()
        t3 = cpu()
        for m in range(tr.train_minutes, tr.minutes):
            self.minute(m, detect=True)
        t4 = cpu()
        delays = []
        for dev, attack in sorted(tr.attacks.items()):
            first = self.first_flag.get(dev)
            length = tr.minutes - attack.onset_min
            delays.append(first - attack.onset_min + 1 if first is not None else length + 1)
        model_digest = hashlib.sha256()
        for key in sorted(self.models):
            model_digest.update(f"{key}\n{self.models[key].to_json()}\n".encode())
        return ReplayResult(
            setup_s=t1 - t0, train_s=t3 - t2, replay_s=(t2 - t1) + (t4 - t3),
            packet_s=self.packet_s, total_s=t4 - t0, packets=tr.packet_count(),
            mirrored=self.mirrored, device_minutes=len(tr.devices) * tr.minutes,
            latencies_ms=self.latencies,
            attacked_minutes=self.tally["attack"], attacked_flagged=self.tally["attack_flagged"],
            benign_minutes=self.tally["benign"], benign_flagged=self.tally["benign_flagged"],
            detect_delays=delays, verdict_digest=self.log.hexdigest(),
            model_digest=model_digest.hexdigest(),
            conservation_errors=conservation_errors(self.polled, self.touched),
            layers=self.layers, counts=self.counts, samples=self.samples)

    def record(self, *fields) -> None:
        self.log.update("|".join(map(str, fields)).encode() + b"\n")

    # -- setup ----------------------------------------------------------------

    def setup(self) -> None:
        call, tr = self.layers.call, self.trace
        self.sw = _required(call("switch.SwitchSim", SwitchSim, TCAM_CAPACITY), "SwitchSim")
        self.sw.on_mirror.append(self.on_mirror)
        for dev in tr.devices:
            profile = _required(call("mud.parse_profile", mud.parse_profile,
                                     tr.profiles[dev.type_name]), "parse_profile")
            rules = _required(call("mud.translate", mud.translate, profile, dev.mac,
                                   GATEWAY_MAC, GATEWAY_IP), "translate")
            call("switch.register_device", self.sw.register_device, dev.device_id, dev.mac, rules)
            groups = _required(call("mud.service_groups", mud.service_groups, rules),
                               "service_groups")
            extractor = _required(call("features.VolumetricExtractor", VolumetricExtractor,
                                       dev.device_id, rules, self.layout), "VolumetricExtractor")
            self.states[dev.device_id] = DeviceState(
                dev.device_id, dev.type_name, {r.flow_id: r for r in rules}, groups, extractor)
        for dev_id in tr.calibration:
            st = self.states[dev_id]
            for letter in st.groups:
                self.escalate(st, letter, -1, calibration=True)

    # -- per packet -----------------------------------------------------------

    def on_mirror(self, device_id: str, flow_id: str, pkt) -> None:
        st = self.states[device_id]
        letter = st.letter(flow_id)
        esc = st.escalated.get(letter) if letter is not None else None
        if esc is None:
            return
        w = esc.windows
        self.layers.call("features.entropy_observe", w.observe,
                         {h: getattr(pkt, h) for h in w.headers})
        if pkt.src_ip is None:
            return
        esc.flows_seen.add(flow_id)
        entry = self.layers.call(
            "switch.insert_microflow", self.sw.insert_microflow, device_id,
            FiveTuple(pkt.src_ip, pkt.dst_ip, pkt.proto or 0, pkt.src_port, pkt.dst_port),
            flow_id, pkt.ts)
        if entry is not None:
            st.microflows[entry.flow_id] = entry.match
        else:
            esc.refused = True

    # -- per minute -----------------------------------------------------------

    def minute(self, m: int, detect: bool) -> None:
        call, sw = self.layers.call, self.sw
        if self.spans is not None:
            self.spans.minute = m
        touched, mirrored = self.touched, 0
        for e, pkts in enumerate(self.trace.epochs[m]):
            t = cpu()
            for pkt in pkts:
                disp = call(DNS_REPLY if isinstance(pkt.payload_hint, DnsAnswer) else PACKET,
                            sw.process_packet, pkt)
                if disp is None:
                    continue
                mirrored += disp.mirrored
                for match in disp.matches:
                    seen = touched[match.device_id]
                    seen[0] += 1
                    seen[1] += pkt.length
            self.packet_s += cpu() - t
            self.roll(m * US_PER_MIN + (e + 1) * US_PER_EPOCH)
        self.mirrored += mirrored
        self.sample_tables()

        now = (m + 1) * US_PER_MIN
        t0 = cpu()
        records = call("switch.poll_counters", sw.poll_counters, m) or []
        removed = call("switch.expire_idle", sw.expire_idle, now) or []
        self.counts["poll_records"] += len(records)
        self.counts["expired"] += len(removed)
        by_device = defaultdict(list)
        for rec in records:
            by_device[rec.device_id].append(rec)
            got = self.polled[rec.device_id]
            got[0] += rec.packets
            got[1] += rec.bytes
        for dev_id, st in self.states.items():
            recs = by_device.get(dev_id, [])
            vectors = call("features.add_minute", st.extractor.add_minute, m,
                           with_microflows_in_parents(recs)) or []
            self.counts["vectors"] += len(vectors)
            self.counts["microflow_vectors"] += sum(
                v.scope.kind is ScopeKind.MICROFLOW for v in vectors)
            if detect:
                self.detect(st, m, now, vectors, recs)
                self.latencies.append((cpu() - t0) * 1e3)
            elif dev_id in self.trace.calibration:
                # Mirroring and microflows change how calibration devices' MUD
                # rules count (DNS-bound entries starve), so they train stages
                # 2 and 3 but not stage 1.
                for vec in vectors:
                    if vec.scope.kind is ScopeKind.MICROFLOW:
                        letter = st.letter(vec.scope.name.split("~", 1)[0])
                        self.micro_rows[st.type_name, letter].append(vec.values)
            else:
                for vec in vectors:
                    key = (st.type_name, str(vec.scope))
                    self.rows.setdefault(key, {}).setdefault(dev_id, []).append(vec.values)

    def sample_tables(self) -> None:
        """Each table's size at the end of a minute's packets, and the
        packets looked up in it during the minute (for a packet-weighted mean)."""
        for dev_id in self.states:
            entries = self.layers.call("switch.entry_count", self.sw.entry_count, dev_id)
            if entries is None:
                continue
            seen = self.touched[dev_id][0]
            self.samples["entries"].append(entries)
            self.counts["entry_lookups"] += entries * (seen - self.looked_up[dev_id])
            self.counts["lookups"] += seen - self.looked_up[dev_id]
            self.counts["big_table_minutes"] += entries >= BIG_TABLE
            self.looked_up[dev_id] = seen

    def roll(self, epoch_end: int) -> None:
        for st in self.windowed.values():
            for letter, esc in st.escalated.items():
                vectors = self.layers.call("features.entropy_roll", esc.windows.roll, epoch_end)
                ready = [v for v in vectors or () if v.ready]
                if esc.calibration:
                    for v in ready:
                        self.calib_rows[st.type_name, letter, v.header].append(v.values)
                elif ready:
                    esc.ready = ready

    # -- escalation -----------------------------------------------------------

    def escalate(self, st: DeviceState, letter: str, m: int, calibration: bool = False) -> None:
        call = self.layers.call
        rules = st.groups[letter]
        call("switch.set_flow_action", self.sw.set_flow_action, st.device_id,
             [r.flow_id for r in rules], Action.FORWARD_AND_MIRROR)
        headers: list[str] = []
        for r in rules:
            for h in call("mud.wildcarded_headers", r.match.wildcarded_headers) or ():
                if h not in headers:
                    headers.append(h)
        windows = _required(call("features.EntropyWindows", EntropyWindows, st.device_id,
                                 letter, headers), "EntropyWindows")
        st.escalated[letter] = Escalation(windows, calibration)
        self.windowed[st.device_id] = st
        if not calibration:
            self.record("escalate", m, st.device_id, letter)

    def release(self, st: DeviceState, letter: str, m: int) -> None:
        by_action = defaultdict(list)
        for r in st.groups[letter]:
            by_action[r.action].append(r.flow_id)
        for action, flow_ids in by_action.items():
            self.layers.call("switch.set_flow_action", self.sw.set_flow_action,
                             st.device_id, flow_ids, action)
        del st.escalated[letter]
        if not st.escalated:
            del self.windowed[st.device_id]
        if m >= 0:
            self.record("release", m, st.device_id, letter)

    def block(self, st: DeviceState, match, label: str, m: int, now: int) -> None:
        self.layers.call("switch.insert_block", self.sw.insert_block, st.device_id, match,
                         label, now)
        self.record("block", m, st.device_id, label)

    def block_service(self, st: DeviceState, letter: str, flow_ids, m: int, now: int) -> None:
        for flow_id in sorted(flow_ids):
            self.block(st, st.templates[flow_id].match, flow_id, m, now)
        st.blocked_services.add(letter)
        if letter in st.escalated:
            self.release(st, letter, m)

    # -- training -------------------------------------------------------------

    def end_calibration(self) -> None:
        """Stop mirroring the calibration devices and drop their microflows.

        Done one feature window before training ends: reactive entries that
        starved under the microflows have expired, and the devices' traffic
        settles back onto re-bound MUD rules before detection starts.
        """
        for dev_id in self.trace.calibration:
            st = self.states[dev_id]
            for letter in list(st.escalated):
                self.release(st, letter, -1)
            self.layers.call("switch.remove_microflows", self.sw.remove_microflows, dev_id)
            st.microflows.clear()

    def train(self) -> None:
        call = self.layers.call
        original = strategy.train
        if self.spans is not None:
            strategy.train = self.layers.nested("worker.train", original)
        try:
            for seed, ((type_name, scope), per_device) in enumerate(self.rows.items()):
                units = [np.asarray(rows, dtype=float) for rows in per_device.values()]
                result = call("strategy.train_strategy", strategy.train_strategy, units,
                              strategy.Strategy.UNIVERSAL_TYPE, self.cfg, seed)
                if result is not None:
                    self.counts["train_instances"] += result.train_instances
                    self.keep_model((type_name, scope), result.models[0][1])
        finally:
            strategy.train = original
        for seed, ((type_name, letter), rows) in enumerate(sorted(self.micro_rows.items())):
            model = call("worker.train", worker.train, np.asarray(rows, dtype=float),
                         self.cfg, seed)
            if model is not None:
                self.keep_model((type_name, f"microflow:{letter}"), model)
        for seed, ((type_name, letter, header), rows) in enumerate(sorted(self.calib_rows.items())):
            model = call("worker.train_dispersion", worker.train_dispersion,
                         np.asarray(rows, dtype=float), self.cfg, seed)
            if model is not None:
                self.models[type_name, f"dispersion:{letter}:{header}"] = model

    def keep_model(self, key: tuple[str, str], model: worker.WorkerModel) -> None:
        self.models[key] = model
        self.samples["clusters"].append(model.clusters.heads.shape[0])
        if model.pca is not None:
            self.samples["pca_retained"].append(model.pca.retained)

    # -- detection ------------------------------------------------------------

    def detect(self, st: DeviceState, m: int, now: int, vectors, recs) -> None:
        call, dev = self.layers.call, st.device_id
        alarms = []
        micro = defaultdict(list)
        for vec in vectors:
            if vec.scope.kind is ScopeKind.MICROFLOW:
                micro[st.letter(vec.scope.name.split("~", 1)[0])].append(vec)
                continue
            key = (st.type_name, str(vec.scope))
            model = self.models.get(key)
            if model is None:
                continue
            scored = call("worker.predict", model.predict, vec.values, st.prev.get(key))
            if scored is None:
                continue
            verdict, st.prev[key] = scored
            self.record("v", m, dev, vec.scope, int(verdict.anomalous))
            if verdict.anomalous:
                alarms.append(vec.scope)
        self.counts["alarms"] += len(alarms)
        flagged = bool(alarms)

        # Stage 3: microflows whose volume leaves their parent's benign envelope
        # are blocked while stage 1 still flags the service they belong to.
        service_alarms = {s.name for s in alarms if s.kind is ScopeKind.SERVICE}
        for letter, vecs in micro.items():
            model = self.models.get((st.type_name, f"microflow:{letter}"))
            if model is None:
                continue
            mask = call("worker.predict_batch", model.predict_batch,
                        np.array([v.values for v in vecs]), units=len(vecs))
            if mask is None:
                continue
            bad = []
            for vec, anomalous in zip(vecs, mask):
                self.record("mf", m, dev, vec.scope.name, int(anomalous))
                if anomalous:
                    bad.append(vec.scope.name)
            self.counts["alarms"] += len(bad)
            flagged |= bool(bad)
            if (letter in st.blocked_services or letter not in service_alarms
                    or len(bad) > MAX_5TUPLE_BLOCKS):
                continue
            for name in bad:
                match = st.microflows.get(name)
                if match is not None and name not in st.blocked_microflows:
                    st.blocked_microflows.add(name)
                    # "~" marks microflow ids; a block label must not look like one.
                    self.block(st, match, name.replace("~", "@"), m, now)

        # Stage 2: dispersion of the mirrored headers of escalated services.
        for letter, esc in list(st.escalated.items()):
            dispersed = False
            for vec in esc.ready:
                model = self.models.get((st.type_name, f"dispersion:{letter}:{vec.header}"))
                if model is None:
                    continue
                scored = call("worker.predict", model.predict, vec.values)
                if scored is None:
                    continue
                self.record("d", m, dev, letter, vec.header, int(scored[0].anomalous))
                dispersed |= scored[0].anomalous
            esc.ready = []
            if dispersed:
                self.counts["alarms"] += 1
                flagged = True
            full, esc.refused = esc.refused, False
            if (dispersed and esc.dispersed) or (full and letter in service_alarms):
                # Persistent dispersion, or a flagged service whose microflows
                # no longer fit in the table: a distributed flood.
                self.block_service(st, letter, esc.flows_seen, m, now)
                continue
            esc.dispersed = dispersed
            if dispersed or letter in service_alarms:
                esc.quiet = 0
            else:
                esc.quiet += 1
                if esc.quiet >= RELEASE_AFTER_QUIET_MIN:
                    self.release(st, letter, m)

        # Stage 1 -> 2: escalate services alarmed in two consecutive minutes;
        # a persistent channel alarm that no service alarm explains escalates
        # the channel's busiest service. One-minute alarms are only reported.
        persistent = [s for s in alarms if s in st.alarmed]
        st.alarmed = set(alarms)
        targets = [s.name for s in persistent if s.kind is ScopeKind.SERVICE]
        per_letter = Counter()
        for rec in recs:
            letter = st.letter(rec.flow_id)
            if letter is not None:
                per_letter[letter] += rec.packets
        for scope in persistent:
            if scope.kind is ScopeKind.SERVICE:
                continue
            channel = Scope.LOCAL if scope.kind is ScopeKind.CHANNEL_LOCAL else Scope.INTERNET
            letters = st.channel_letters(channel)
            if not any(g in targets for g in letters):
                busiest = max(letters, key=lambda g: per_letter[g], default=None)
                if busiest is not None and per_letter[busiest] > 0:
                    targets.append(busiest)
        for letter in targets:
            if letter not in st.escalated and letter not in st.blocked_services:
                self.escalate(st, letter, m)

        if any(rec.packets for rec in recs if rec.flow_id.startswith("block:")):
            flagged = True
        phase = self.trace.phase(dev, m)
        if phase == "attack":
            self.tally["attack"] += 1
            self.tally["attack_flagged"] += flagged
            if flagged:
                self.first_flag.setdefault(dev, m)
        else:
            self.tally["benign"] += 1
            self.tally["benign_flagged"] += flagged
