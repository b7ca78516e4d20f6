"""Deterministic synthetic gateway traces for the replay benchmark.

A trace is a fleet of devices (each with a MUD profile built here in the
RFC 8520 subset ``mudmon.mud.parse_profile`` accepts) plus every packet the
gateway switch sees, bucketed by simulated minute and 15-second epoch.
Benign traffic follows what the devices' own services do: cloud polling and
NTP sync over DNS-bound addresses, DNS re-resolution when a cached answer
expires (domains are shared across the fleet), gateway pings, ARP, and
use of a phone app on the local port. Attacks start at a labelled
onset minute and last until the trace ends.

Everything derives from ``random.Random`` seeded by the workload seed, so
the same seed gives the same packets. Nothing is downloaded.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from mudmon.mud import BROADCAST_MAC, ETH_ARP, ETH_IPV4, PROTO_ICMP, PROTO_TCP, PROTO_UDP
from mudmon.switch import ArpInfo, DnsAnswer, PacketRecord, US_PER_MIN, US_PER_SEC

EPOCHS_PER_MIN = 4
US_PER_EPOCH = US_PER_MIN // EPOCHS_PER_MIN

GATEWAY_MAC = "02:00:00:00:00:01"
GATEWAY_IP = "10.0.0.1"
PHONE_MAC = "02:aa:00:00:00:01"
PHONE_IP = "10.0.250.10"
ATTACKER_MAC = "02:bb:00:00:00:66"
ATTACKER_IP = "10.0.250.66"

NTP_DOMAIN = "pool.ntp.example"

# Address pools the gateway resolver rotates through; two addresses per answer.
DOMAIN_POOLS = {
    NTP_DOMAIN: [f"198.51.100.{i}" for i in range(10, 18)],
    "cloud.plug.example": [f"203.0.113.{i}" for i in range(20, 24)],
    "cloud.cam.example": [f"203.0.113.{i}" for i in range(40, 44)],
    "relay.cam.example": [f"203.0.113.{i}" for i in range(60, 62)],
    "mqtt.hub.example": [f"203.0.113.{i}" for i in range(80, 83)],
}
DOMAIN_TTL_SEC = {
    NTP_DOMAIN: 150,
    "cloud.plug.example": 300,
    "cloud.cam.example": 300,
    "relay.cam.example": 600,
    "mqtt.hub.example": 600,
}


@dataclass(frozen=True)
class DeviceType:
    """Services of one device model; drives both its profile and its traffic."""

    name: str
    cloud: tuple[str, int, int]  # (domain, proto, remote port)
    extra_internet: tuple[tuple[str, int, int], ...]
    local_port: tuple[int, int]  # (proto, device port) reached by the phone app
    local_icmp: bool
    gateway_icmp: bool
    cloud_period_sec: int
    ntp_period_sec: int
    upload_chance: float  # per-minute chance of a bulk upload to the cloud
    app_chance: float  # per-minute chance the phone app is used


PLUG = DeviceType("plug", ("cloud.plug.example", PROTO_TCP, 50443), (),
                  (PROTO_TCP, 9999), True, True, 30, 600, 0.0, 0.3)
CAMERA = DeviceType("camera", ("cloud.cam.example", PROTO_TCP, 443),
                    (("relay.cam.example", PROTO_UDP, 3478),),
                    (PROTO_TCP, 554), False, False, 30, 480, 0.15, 0.2)
HUB = DeviceType("hub", ("mqtt.hub.example", PROTO_TCP, 8883), (),
                 (PROTO_UDP, 5683), False, True, 60, 900, 0.0, 0.25)
DEVICE_TYPES = {t.name: t for t in (PLUG, CAMERA, HUB)}


def _ace(name: str, matches: dict) -> dict:
    return {"name": name, "matches": matches, "actions": {"forwarding": "accept"}}


def _l4(proto: int, src_port: int | None, dst_port: int | None) -> dict:
    node = {}
    if src_port is not None:
        node["source-port"] = {"operator": "eq", "port": src_port}
    if dst_port is not None:
        node["destination-port"] = {"operator": "eq", "port": dst_port}
    return {"tcp" if proto == PROTO_TCP else "udp": node}


def profile_json(dtype: DeviceType) -> str:
    """The type's MUD profile as JSON text."""
    gateway = {"ietf-mud:mud": {"controller": "urn:ietf:params:mud:gateway"}}
    local = {"ietf-mud:mud": {"local-networks": [None]}}
    from_aces, to_aces = [], []
    internet = [(NTP_DOMAIN, PROTO_UDP, 123), dtype.cloud, *dtype.extra_internet]
    for i, (domain, proto, port) in enumerate(internet):
        from_aces.append(_ace(f"inet{i}", {
            "ipv4": {"protocol": proto, "ietf-acldns:dst-dnsname": domain},
            **_l4(proto, None, port)}))
        to_aces.append(_ace(f"inet{i}", {
            "ipv4": {"protocol": proto, "ietf-acldns:src-dnsname": domain},
            **_l4(proto, port, None)}))
    if dtype.gateway_icmp:
        for aces in (from_aces, to_aces):
            aces.append(_ace("gw-icmp", {"ipv4": {"protocol": PROTO_ICMP}, **gateway}))
    from_aces.append(_ace("dns", {"ipv4": {"protocol": PROTO_UDP},
                                  **_l4(PROTO_UDP, None, 53), **gateway}))
    to_aces.append(_ace("dns", {"ipv4": {"protocol": PROTO_UDP},
                                **_l4(PROTO_UDP, 53, None), **gateway}))
    proto, port = dtype.local_port
    from_aces.append(_ace("app", {"ipv4": {"protocol": proto}, **_l4(proto, port, None), **local}))
    to_aces.append(_ace("app", {"ipv4": {"protocol": proto}, **_l4(proto, None, port), **local}))
    if dtype.local_icmp:
        for aces in (from_aces, to_aces):
            aces.append(_ace("local-icmp", {"ipv4": {"protocol": PROTO_ICMP}, **local}))
    return json.dumps({
        "ietf-mud:mud": {
            "mud-version": 1,
            "mud-url": f"https://mud.example/{dtype.name}.json",
            "systeminfo": dtype.name,
            "last-update": "2023-04-01T00:00:00+00:00",
            "from-device-policy": {"access-lists": {"access-list": [{"name": "from"}]}},
            "to-device-policy": {"access-lists": {"access-list": [{"name": "to"}]}},
        },
        "ietf-access-control-list:acls": {"acl": [
            {"name": "from", "type": "ipv4-acl-type", "aces": {"ace": from_aces}},
            {"name": "to", "type": "ipv4-acl-type", "aces": {"ace": to_aces}},
        ]},
    }, sort_keys=True)


@dataclass(frozen=True)
class Device:
    device_id: str
    type_name: str
    mac: str
    ip: str


@dataclass(frozen=True)
class Attack:
    kind: str
    onset_min: int
    spoofed: bool
    rate_pps: float


@dataclass
class Trace:
    workload: str
    seed: int
    gateway: int
    profiles: dict[str, str]  # type name -> MUD JSON
    devices: list[Device]
    train_minutes: int  # phase benign-train: minutes [0, train_minutes)
    minutes: int  # phase benign-detect / attack: [train_minutes, minutes)
    attacks: dict[str, Attack]  # device id -> attack (lasts until the end)
    calibration: list[str]  # device ids mirrored during training for stage 2
    epochs: list[list[list[PacketRecord]]]  # [minute][epoch] -> packets by ts
    spoofed_packets: int = 0
    attack_packets: int = 0

    def phase(self, device_id: str, minute: int) -> str:
        if minute < self.train_minutes:
            return "benign-train"
        attack = self.attacks.get(device_id)
        if attack is not None and minute >= attack.onset_min:
            return "attack"
        return "benign-detect"

    def packet_count(self) -> int:
        return sum(len(e) for m in self.epochs for e in m)

    def summary(self) -> dict:
        packets = self.packet_count()
        dns = sum(1 for m in self.epochs for e in m for p in e
                  if isinstance(p.payload_hint, DnsAnswer))
        detect = len(self.devices) * (self.minutes - self.train_minutes)
        attacked = sum(self.minutes - a.onset_min for a in self.attacks.values())
        return {
            "workload": self.workload, "seed": self.seed, "gateway": self.gateway,
            "devices": len(self.devices), "minutes": self.minutes,
            "train_minutes": self.train_minutes, "packets": packets,
            "device_minutes": len(self.devices) * self.minutes,
            "attacked_devices": len(self.attacks),
            "attacked_share": round(attacked / detect, 4),
            "dns_reply_share": round(dns / packets, 4),
            "spoofed_share": round(self.spoofed_packets / packets, 4),
            "attack_share": round(self.attack_packets / packets, 4),
        }


class _Buckets:
    """Accumulates packets into minute/epoch buckets."""

    def __init__(self, minutes: int):
        self.minutes = minutes
        self.buckets: list[list[PacketRecord]] = [[] for _ in range(minutes * EPOCHS_PER_MIN)]

    def add(self, pkt: PacketRecord) -> None:
        slot = pkt.ts // US_PER_EPOCH
        if 0 <= slot < len(self.buckets):
            self.buckets[slot].append(pkt)

    def epochs(self) -> list[list[list[PacketRecord]]]:
        out = []
        for m in range(self.minutes):
            out.append([sorted(self.buckets[m * EPOCHS_PER_MIN + e], key=lambda p: p.ts)
                        for e in range(EPOCHS_PER_MIN)])
        return out


class _Resolver:
    """Gateway resolver: rotates each domain's pool, two addresses per answer."""

    def __init__(self):
        self.turn = {d: 0 for d in DOMAIN_POOLS}

    def answer(self, domain: str) -> tuple[str, ...]:
        pool = DOMAIN_POOLS[domain]
        i = self.turn[domain]
        self.turn[domain] = i + 1
        return (pool[i % len(pool)], pool[(i + 1) % len(pool)])


class _DeviceTraffic:
    """Benign behaviour of one device over the whole trace."""

    def __init__(self, dev: Device, dtype: DeviceType, rng: random.Random,
                 resolver: _Resolver, out: _Buckets):
        self.dev, self.dtype, self.rng, self.resolver, self.out = dev, dtype, rng, resolver, out
        self.dns_expiry: dict[str, int] = {}
        self.dns_ips: dict[str, tuple[str, ...]] = {}
        self.next_port = 40000 + rng.randrange(20000)

    def port(self) -> int:
        self.next_port = 40000 + (self.next_port - 40000 + 1 + self.rng.randrange(7)) % 20000
        return self.next_port

    def pkt(self, ts: int, outbound: bool, peer_mac: str, peer_ip: str, proto: int,
            dev_port: int | None, peer_port: int | None, length: int, **extra) -> None:
        d = self.dev
        if outbound:
            p = PacketRecord(ts, d.mac, peer_mac, ETH_IPV4, length, d.ip, peer_ip, proto,
                             dev_port, peer_port, **extra)
        else:
            p = PacketRecord(ts, peer_mac, d.mac, ETH_IPV4, length, peer_ip, d.ip, proto,
                             peer_port, dev_port, **extra)
        self.out.add(p)

    def resolve(self, ts: int, domain: str) -> tuple[int, str]:
        """Address to use for ``domain``, querying the gateway if the cache expired."""
        if self.dns_expiry.get(domain, -1) <= ts:
            port = self.port()
            self.pkt(ts, True, GATEWAY_MAC, GATEWAY_IP, PROTO_UDP, port, 53, 70 + len(domain))
            ips = self.resolver.answer(domain)
            ts += 2000 + self.rng.randrange(8000)
            self.pkt(ts, False, GATEWAY_MAC, GATEWAY_IP, PROTO_UDP, port, 53, 90 + 16 * len(ips),
                     payload_hint=DnsAnswer(domain, ips))
            self.dns_expiry[domain] = ts + DOMAIN_TTL_SEC[domain] * US_PER_SEC
            self.dns_ips[domain] = ips
            ts += 1000
        return ts, self.dns_ips[domain][0]

    def exchange(self, ts: int, peer_mac: str, peer_ip: str, proto: int, dev_port: int,
                 peer_port: int, n_out: int, n_in: int, out_len: tuple[int, int],
                 in_len: tuple[int, int], outbound_first: bool = True) -> None:
        rng = self.rng
        order = [True] * n_out + [False] * n_in
        if not outbound_first:
            order.reverse()
        for outbound in order:
            lo, hi = out_len if outbound else in_len
            self.pkt(ts, outbound, peer_mac, peer_ip, proto, dev_port, peer_port,
                     rng.randint(lo, hi))
            ts += 500 + rng.randrange(30000)

    def periodic(self, period_sec: int, total_us: int):
        rng = self.rng
        t = rng.randrange(period_sec * US_PER_SEC)
        while t < total_us:
            yield t
            t += int(period_sec * US_PER_SEC * rng.uniform(0.85, 1.15))

    def generate(self, total_us: int) -> None:
        dt, rng = self.dtype, self.rng
        domain, proto, rport = dt.cloud
        lproto, lport = dt.local_port
        events = []  # (time, callback); run in time order so DNS caching is causal

        def cloud(t):
            t, ip = self.resolve(t, domain)
            n = rng.randint(1, 3)
            self.exchange(t, GATEWAY_MAC, ip, proto, self.port(), rport, n, n,
                          (90, 400), (60, 600))

        def upload(t):
            t, ip = self.resolve(t, domain)
            n = rng.randint(40, 120)
            self.exchange(t, GATEWAY_MAC, ip, proto, self.port(), rport, n, n // 4,
                          (1200, 1400), (60, 60))

        def extra(edomain, eproto, eport):
            def keepalive(t):
                t, ip = self.resolve(t, edomain)
                self.exchange(t, GATEWAY_MAC, ip, eproto, 50000, eport, 1, 1, (60, 90), (60, 90))
            return keepalive

        def ntp(t):
            t, ip = self.resolve(t, NTP_DOMAIN)
            self.exchange(t, GATEWAY_MAC, ip, PROTO_UDP, self.port(), 123, 1, 1, (90, 90), (90, 90))

        def ping_gateway(t):
            self.pkt(t, True, GATEWAY_MAC, GATEWAY_IP, PROTO_ICMP, None, None, 98,
                     icmp_type=8, icmp_code=0)
            self.pkt(t + 800, False, GATEWAY_MAC, GATEWAY_IP, PROTO_ICMP, None, None, 98,
                     icmp_type=0, icmp_code=0)

        def arp(t):
            d = self.dev
            self.out.add(PacketRecord(t, d.mac, BROADCAST_MAC, ETH_ARP, 42,
                                      payload_hint=ArpInfo(d.ip, d.mac, 1)))
            self.out.add(PacketRecord(t + 600, GATEWAY_MAC, d.mac, ETH_ARP, 42,
                                      payload_hint=ArpInfo(GATEWAY_IP, GATEWAY_MAC, 2)))

        def app_use(t):
            n = rng.randint(3, 12)
            if dt is CAMERA:
                n *= 5  # a live view streams frames back to the phone
            self.exchange(t, PHONE_MAC, PHONE_IP, lproto, lport, self.port(), n,
                          rng.randint(3, 12), (200, 1300), (60, 200), outbound_first=False)

        def app_ping(t):
            for k in range(rng.randint(1, 3)):
                self.pkt(t + k * US_PER_SEC, False, PHONE_MAC, PHONE_IP, PROTO_ICMP, None,
                         None, 98, icmp_type=8, icmp_code=0)
                self.pkt(t + k * US_PER_SEC + 700, True, PHONE_MAC, PHONE_IP, PROTO_ICMP,
                         None, None, 98, icmp_type=0, icmp_code=0)

        events += [(t, cloud) for t in self.periodic(dt.cloud_period_sec, total_us)]
        for service in dt.extra_internet:
            events += [(t, extra(*service)) for t in self.periodic(20, total_us)]
        events += [(t, ntp) for t in self.periodic(dt.ntp_period_sec, total_us)]
        if dt.gateway_icmp:
            events += [(t, ping_gateway) for t in self.periodic(60, total_us)]
        events += [(t, arp) for t in self.periodic(240, total_us)]
        for minute in range(total_us // US_PER_MIN):
            base = minute * US_PER_MIN
            if rng.random() < dt.upload_chance:
                events.append((base + rng.randrange(50 * US_PER_SEC), upload))
            if rng.random() < dt.app_chance:
                events.append((base + rng.randrange(50 * US_PER_SEC), app_use))
            if dt.local_icmp and rng.random() < 0.25:
                events.append((base + rng.randrange(55 * US_PER_SEC), app_ping))
        events.sort(key=lambda e: e[0])
        for t, callback in events:
            callback(t)


def _attack_packets(dev: Device, dtype: DeviceType, attack: Attack, end_us: int,
                    rng: random.Random, traffic: _DeviceTraffic) -> tuple[int, int]:
    """Emit one flood from its onset to the end; returns (packets, spoofed packets)."""
    t = attack.onset_min * US_PER_MIN + rng.randrange(5 * US_PER_SEC)
    gap = US_PER_SEC / attack.rate_pps
    fixed_ip, fixed_port = ATTACKER_IP, 1024 + rng.randrange(60000)
    # The attacker sends monlist requests, spoofed as the device, to every
    # server of the pool the device syncs with.
    ntp_ips = DOMAIN_POOLS[NTP_DOMAIN]
    lproto, lport = dtype.local_port
    n = 0
    while t < end_us:
        if attack.spoofed:
            src_ip = f"{rng.randrange(1, 224)}.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}"
            src_port = 1024 + rng.randrange(64000)
        else:
            src_ip, src_port = fixed_ip, fixed_port
        if attack.kind == "syn":
            pkt = PacketRecord(t, ATTACKER_MAC, dev.mac, ETH_IPV4, 60, src_ip, dev.ip, lproto,
                               src_port, lport)
        elif attack.kind == "icmp":
            pkt = PacketRecord(t, ATTACKER_MAC, dev.mac, ETH_IPV4, 98, src_ip, dev.ip,
                               PROTO_ICMP, icmp_type=8, icmp_code=0)
        else:  # ntp reflection: monlist replies from the servers the device resolved
            dst_port = src_port if attack.spoofed else fixed_port
            pkt = PacketRecord(t, GATEWAY_MAC, dev.mac, ETH_IPV4, 468,
                               ntp_ips[n % len(ntp_ips)], dev.ip, PROTO_UDP, 123, dst_port)
        traffic.out.add(pkt)
        n += 1
        t += int(gap * rng.uniform(0.5, 1.5))
    return n, n if attack.spoofed else 0


# Devices of each type mirrored during training to calibrate stages 2 and 3.
CALIBRATION_PER_TYPE = 2


@dataclass(frozen=True)
class WorkloadSpec:
    fleet: tuple[tuple[str, int], ...]  # (type name, count) per gateway
    train_minutes: int
    minutes: int
    # One tuple per gateway, each gateway with its own fleet, switch and
    # models: (device type, kind, spoofed) per attacked device, onsets
    # spread over `onset_range`.
    attacks: tuple[tuple[tuple[str, str, bool], ...], ...]
    onset_range: tuple[int, int]  # minutes after train_minutes
    rate_pps: float


FLEET_ATTACKS = (
    ("plug", "syn", False), ("plug", "syn", False), ("camera", "syn", False),
    ("camera", "syn", False), ("plug", "ntp", False), ("camera", "ntp", False),
    ("hub", "ntp", False), ("hub", "ntp", False), ("plug", "icmp", False),
    ("plug", "icmp", False))

WORKLOADS = {
    # Many devices, light per-device traffic, a late low-rate attack on a few.
    # Two gateways per run, so that the false-alarm rate averages two sets
    # of type models.
    "fleet": WorkloadSpec(
        fleet=(("plug", 68), ("camera", 45), ("hub", 37)),
        train_minutes=16, minutes=28, attacks=(FLEET_ATTACKS, FLEET_ATTACKS),
        onset_range=(7, 8), rate_pps=6.0),
    # A handful of devices under high-rate floods. Each gateway has one
    # spoofed-source SYN or ICMP flood, which fills the victim's table with
    # single-packet microflows up to its capacity, and fixed-source floods
    # of the other kinds. (A spoofed NTP reflection is mirrored only while
    # the victim holds DNS bindings for the reflecting servers, so whether
    # it fills the table would turn on the seed.) Three gateways average the
    # false-alarm rates and fitting costs of three sets of type models. The
    # detection phase is long enough that the verdicts of the few minutes
    # with a full table stay well under 5% of all, so that they do not set
    # the 95th percentile.
    "flood": WorkloadSpec(
        fleet=(("plug", 7), ("camera", 5)),
        train_minutes=90, minutes=186,
        attacks=(
            (("plug", "syn", True), ("camera", "ntp", False), ("plug", "icmp", False)),
            (("plug", "icmp", True), ("camera", "syn", False), ("plug", "ntp", False)),
            (("camera", "syn", True), ("plug", "ntp", False), ("plug", "icmp", False))),
        onset_range=(34, 40), rate_pps=20.0),
}


def generate(workload: str, seed: int) -> list[Trace]:
    """Build the traces of ``workload``'s gateways from ``seed``."""
    spec = WORKLOADS[workload]
    return [_gateway(workload, spec, f"{workload}:{seed}:{k}", seed, k, attacks)
            for k, attacks in enumerate(spec.attacks)]


def _gateway(workload: str, spec: WorkloadSpec, key: str, seed: int, gateway: int,
             attack_list: tuple[tuple[str, str, bool], ...]) -> Trace:
    rng = random.Random(key)
    devices: list[Device] = []
    for type_name, count in spec.fleet:
        for _ in range(count):
            i = len(devices)
            devices.append(Device(f"{type_name}{i:03d}", type_name,
                                  f"02:10:00:00:{i >> 8:02x}:{i & 255:02x}",
                                  f"10.0.{1 + i // 200}.{2 + i % 200}"))
    out = _Buckets(spec.minutes)
    resolver = _Resolver()
    total_us = spec.minutes * US_PER_MIN
    traffic = {}
    for dev in devices:
        traffic[dev.device_id] = _DeviceTraffic(
            dev, DEVICE_TYPES[dev.type_name], random.Random(f"{key}:{dev.device_id}"),
            resolver, out)
        traffic[dev.device_id].generate(total_us)

    attacks: dict[str, Attack] = {}
    lo, hi = spec.onset_range
    for i, (type_name, kind, spoofed) in enumerate(attack_list):
        candidates = [d for d in devices
                      if d.type_name == type_name and d.device_id not in attacks]
        dev = rng.choice(candidates)
        onset = spec.train_minutes + lo + (hi - lo) * i // max(1, len(attack_list) - 1)
        attacks[dev.device_id] = Attack(kind, onset + rng.randrange(2), spoofed, spec.rate_pps)
    trace = Trace(workload, seed, gateway,
                  {n: profile_json(DEVICE_TYPES[n]) for n, _ in spec.fleet},
                  devices, spec.train_minutes, spec.minutes, attacks, [], [])
    for dev in devices:
        attack = attacks.get(dev.device_id)
        if attack is not None:
            n, spoofed = _attack_packets(dev, DEVICE_TYPES[dev.type_name], attack, total_us,
                                         random.Random(f"{key}:attack:{dev.device_id}"),
                                         traffic[dev.device_id])
            trace.attack_packets += n
            trace.spoofed_packets += spoofed
    per_type: dict[str, int] = {}
    for dev in devices:
        if dev.device_id in attacks:
            continue
        if per_type.get(dev.type_name, 0) < CALIBRATION_PER_TYPE:
            per_type[dev.type_name] = per_type.get(dev.type_name, 0) + 1
            trace.calibration.append(dev.device_id)
    trace.epochs = out.epochs()
    return trace
