"""Switch invariants beyond the worked examples of ``test_switch``.

The property test draws every public switch operation at random, with time
moving forward. After each step the flow tables stay sorted and hold no
duplicate reactive entry; a microflow insert is refused exactly when it is
new and the DNS-bound plus microflow entries already fill the table; and at
the end the polled counters add up to every packet (and byte) the tables
saw, across expiry, microflow teardown and blocks.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mudmon.errors import TableFullError
from mudmon.mud import MatchSpec, parse_profile, translate
from mudmon.switch import DnsAnswer, FiveTuple, Origin, PacketRecord, SwitchSim, US_PER_SEC

from test_mud import DEV_MAC, GW_IP, GW_MAC, LOCAL, ace, make_profile, tplink_like_profile
from test_switch import APP_IP, APP_MAC, DEV_IP, tcp_pkt

PEER_MAC = "02:00:00:00:00:12"  # a second registered device
PEER_IP = "192.168.1.21"
CLOUD_IPS = ("93.184.216.34", "198.51.100.1")
DOMAINS = ("pool.ntp.example", "cloud.plug.example", "unknown.example")
PARENTS = ("i.1", "i.2", "b.2")
CAPACITY = 6
REACTIVE = (Origin.MUD_REACTIVE_DNS, Origin.STAGE3_MICROFLOW)


def make_switch():
    sw = SwitchSim(tcam_capacity=CAPACITY, reactive_idle_sec=20, microflow_idle_sec=10)
    profile = parse_profile(tplink_like_profile())
    sw.register_device("plug", DEV_MAC, translate(profile, DEV_MAC, GW_MAC, GW_IP))
    sw.register_device("peer", PEER_MAC, translate(profile, PEER_MAC, GW_MAC, GW_IP))
    return sw


def tcp(ts, src, dst, sport, dport, length):
    """A TCP packet between two (MAC, IP) hosts."""
    return tcp_pkt(ts, src[0], dst[0], src[1], dst[1], sport, dport, length)


# Hosts as (MAC, IP); APP is an unregistered local host.
DEV, PEER, APP = (DEV_MAC, DEV_IP), (PEER_MAC, PEER_IP), (APP_MAC, APP_IP)
LOCAL_HOSTS = st.sampled_from([PEER, APP])
SPORTS = st.sampled_from([50000, 50001])
LENGTHS = st.integers(60, 1500)


@st.composite
def packets(draw, ts):
    kind = draw(st.sampled_from(["to_app", "from_app", "cloud", "dns", "miss"]))
    length = draw(LENGTHS)
    if kind == "to_app":
        return tcp(ts, draw(LOCAL_HOSTS), DEV, draw(SPORTS), 9999, length)
    if kind == "from_app":
        return tcp(ts, DEV, draw(LOCAL_HOSTS), 9999, draw(SPORTS), length)
    if kind == "cloud":
        return tcp(ts, DEV, (GW_MAC, draw(st.sampled_from(CLOUD_IPS))), 40000, 50443, length)
    if kind == "dns":
        ips = tuple(draw(st.lists(st.sampled_from(CLOUD_IPS), min_size=1, max_size=2)))
        return PacketRecord(ts=ts, src_mac=GW_MAC, dst_mac=DEV_MAC, eth_type=0x0800,
                            length=length, src_ip=GW_IP, dst_ip=DEV_IP, proto=17,
                            src_port=53, dst_port=5353,
                            payload_hint=DnsAnswer(draw(st.sampled_from(DOMAINS)), ips))
    return PacketRecord(ts=ts, src_mac=DEV_MAC, dst_mac=APP_MAC, eth_type=0x0800,
                        length=length, src_ip=DEV_IP, dst_ip=APP_IP, proto=17,
                        src_port=5, dst_port=6)


def check_tables(sw):
    for table in sw.tables.values():
        order = [(-e.priority, e.seq) for e in table.entries]
        assert order == sorted(order)
        reactive = [(e.flow_id, e.match) for e in table.entries if e.origin in REACTIVE]
        assert len(reactive) == len(set(reactive))


OPS = ["packet"] * 4 + ["dns", "microflow", "microflow", "block", "expire", "remove", "poll"]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_operations_conserve_counters_and_refuse_at_capacity(data):
    sw = make_switch()
    seen = Counter()  # (device_id, "packets"|"bytes") -> total the tables saw
    polled = Counter()
    now, minute = 0, 0

    def poll():
        nonlocal minute
        for rec in sw.poll_counters(minute):
            polled[rec.device_id, "packets"] += rec.packets
            polled[rec.device_id, "bytes"] += rec.bytes
        minute += 1

    for op in data.draw(st.lists(st.sampled_from(OPS), max_size=60)):
        now += data.draw(st.integers(0, 4 * US_PER_SEC))
        device_id = data.draw(st.sampled_from(["plug", "peer"]))
        if op == "packet":
            pkt = data.draw(packets(now))
            for match in sw.process_packet(pkt).matches:
                seen[match.device_id, "packets"] += 1
                seen[match.device_id, "bytes"] += pkt.length
        elif op == "dns":
            ips = data.draw(st.lists(st.sampled_from(CLOUD_IPS), min_size=1, max_size=2))
            sw.handle_dns_answer(data.draw(st.sampled_from(DOMAINS)), ips, now)
        elif op == "microflow":
            pkt = data.draw(packets(now))
            parent = data.draw(st.sampled_from(PARENTS))
            five_tuple = FiveTuple.of(pkt)
            table = sw.tables[device_id]
            live = [e for e in table.entries if e.origin is Origin.STAGE3_MICROFLOW
                    and e.flow_id == f"{parent}~{five_tuple}"]
            reactive = sum(e.origin in REACTIVE for e in table.entries)
            if not live and reactive >= CAPACITY:
                with pytest.raises(TableFullError):
                    sw.insert_microflow(device_id, five_tuple, parent, now)
            else:
                entry = sw.insert_microflow(device_id, five_tuple, parent, now)
                assert entry.last_hit == now
                assert not live or entry is live[0]
        elif op == "block":
            host = data.draw(st.sampled_from([APP_IP, PEER_IP, *CLOUD_IPS]))
            sw.insert_block(device_id, MatchSpec(eth_type=0x0800, src_ip=host), host, now)
        elif op == "expire":
            sw.expire_idle(now)
        elif op == "remove":
            parents = data.draw(st.none() | st.sets(st.sampled_from(PARENTS)))
            sw.remove_microflows(device_id, parents)
            assert not any(e.origin is Origin.STAGE3_MICROFLOW
                           and (parents is None or e.flow_id.split("~")[0] in parents)
                           for e in sw.tables[device_id].entries)
        else:
            poll()
        check_tables(sw)
        assert all(sw.entry_count(d) == len(t.entries) for d, t in sw.tables.items())

    poll()
    assert polled == seen


def test_upper_case_packet_macs_hit_the_device_rules():
    sw = make_switch()
    upper = DEV_MAC.upper()
    disp = sw.process_packet(tcp(1, (APP_MAC.upper(), APP_IP), (upper, DEV_IP), 50000, 9999, 90))
    assert [m.flow_id for m in disp.matches] == ["i.2"]
    disp = sw.process_packet(tcp(2, (upper, DEV_IP), (APP_MAC, APP_IP), 9999, 50000, 90))
    assert [m.flow_id for m in disp.matches] == ["i.1"]


def test_drop_ace_blocks_the_service():
    telnet = {"ipv4": {"protocol": 6},
              "tcp": {"destination-port": {"operator": "eq", "port": 23}}, **LOCAL}
    deny = dict(ace("telnet", telnet), actions={"forwarding": "drop"})
    rules = translate(parse_profile(make_profile([deny], [])), DEV_MAC, GW_MAC, GW_IP)
    sw = SwitchSim()
    sw.register_device("plug", DEV_MAC, rules)
    disp = sw.process_packet(tcp(1, DEV, APP, 40000, 23, 90))
    assert disp.matched_flow_id == "a.1" and not disp.forwarded
    assert sw.process_packet(tcp(2, DEV, APP, 40000, 24, 90)).forwarded
