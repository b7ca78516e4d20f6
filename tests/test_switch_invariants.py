"""Switch invariants beyond the worked examples of ``test_switch``.

The property test draws every public switch operation at random, with time
moving forward. Every packet's disposition is the one the linear-scan
oracle picks, entry for entry; the tables it runs over hold microflows of
one 5-tuple under two parents, ICMP and port-wildcard microflows, blocks
that overlap microflows, and expiry and teardown between packets. Block
labels are drawn from the characters of flow ids, and one holding the
microflow mark must be refused with the table left as it was. After
each step the flow tables stay sorted and hold no duplicate reactive entry;
a microflow insert is refused exactly when it is new and the DNS-bound plus
microflow entries already fill the table; and at the end the polled
counters add up to every packet (and byte) the tables saw, across expiry,
microflow teardown and blocks.
"""

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mudmon.errors import NoDeviceError, SchemaError, TableFullError
from mudmon.mud import Action, MatchSpec, parse_profile, translate
from mudmon.switch import (
    DnsAnswer, FiveTuple, MICROFLOW_MARK, MISS_FLOW_ID, MatchResult, Origin, PacketRecord,
    SwitchSim, US_PER_SEC)

from oracles import linear_lookup
from test_mud import DEV_MAC, GW_IP, GW_MAC, LOCAL, ace, make_profile, tplink_like_profile
from test_switch import APP_IP, APP_MAC, DEV_IP, tcp_pkt

PEER_MAC = "02:00:00:00:00:12"  # a second registered device
PEER_IP = "192.168.1.21"
CLOUD_IPS = ("93.184.216.34", "198.51.100.1")
DOMAINS = ("pool.ntp.example", "cloud.plug.example", "unknown.example")
PARENTS = ("i.1", "i.2", "b.2")
CAPACITY = 6
REACTIVE = (Origin.MUD_REACTIVE_DNS, Origin.STAGE3_MICROFLOW)
# Labels over the characters of flow ids: rule ids, addresses, ports and the marks.
BLOCK_LABELS = st.text(alphabet="abi.0123456789:>/~?", max_size=16)


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
    kind = draw(st.sampled_from(["to_app", "from_app", "cloud", "dns", "ping", "eapol",
                                 "miss"]))
    length = draw(LENGTHS)
    if kind == "to_app":
        return tcp(ts, draw(LOCAL_HOSTS), DEV, draw(SPORTS), 9999, length)
    if kind == "from_app":
        return tcp(ts, DEV, draw(LOCAL_HOSTS), 9999, draw(SPORTS), length)
    if kind == "cloud":
        cloud = (GW_MAC, draw(st.sampled_from(CLOUD_IPS)))
        if draw(st.booleans()):
            return tcp(ts, cloud, DEV, 50443, 40000, length)
        return tcp(ts, DEV, cloud, 40000, 50443, length)
    if kind == "eapol":
        return PacketRecord(ts=ts, src_mac=DEV_MAC, dst_mac="01:80:c2:00:00:03",
                            eth_type=0x888E, length=length)
    if kind == "dns":
        ips = tuple(draw(st.lists(st.sampled_from(CLOUD_IPS), min_size=1, max_size=2)))
        return PacketRecord(ts=ts, src_mac=GW_MAC, dst_mac=DEV_MAC, eth_type=0x0800,
                            length=length, src_ip=GW_IP, dst_ip=DEV_IP, proto=17,
                            src_port=53, dst_port=5353,
                            payload_hint=DnsAnswer(draw(st.sampled_from(DOMAINS)), ips))
    if kind == "ping":  # ICMP carries no ports
        mac, ip = draw(LOCAL_HOSTS)
        return PacketRecord(ts=ts, src_mac=mac, dst_mac=DEV_MAC, eth_type=0x0800,
                            length=length, src_ip=ip, dst_ip=DEV_IP, proto=1,
                            icmp_type=8, icmp_code=0)
    return PacketRecord(ts=ts, src_mac=DEV_MAC, dst_mac=APP_MAC, eth_type=0x0800,
                        length=length, src_ip=DEV_IP, dst_ip=APP_IP, proto=17,
                        src_port=5, dst_port=6)


def expected_devices(sw, pkt):
    """The registered devices a packet touches, source first."""
    return list(dict.fromkeys(sw.mac_to_device[mac] for mac in (pkt.src_mac, pkt.dst_mac)
                              if mac in sw.mac_to_device))


def expected_matches(sw, pkt):
    """The oracle's hit per looked-up table, in the order the switch reports them."""
    return [(device_id, linear_lookup(sw.tables[device_id].entries, pkt))
            for device_id in expected_devices(sw, pkt)]


def check_tables(sw):
    for table in sw.tables.values():
        order = [(-e.priority, e.seq) for e in table.entries]
        assert order == sorted(order)
        reactive = [(e.flow_id, e.match) for e in table.entries if e.origin in REACTIVE]
        assert len(reactive) == len(set(reactive))


OPS = ["packet"] * 5 + ["dns", "microflow", "microflow", "block", "expire", "remove", "poll"]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_random_operations_conserve_counters_and_refuse_at_capacity(data):
    sw = make_switch()
    seen = Counter()  # (device_id, "packets"|"bytes") -> total the tables saw
    polled = Counter()
    now, minute = 0, 0
    recent = []  # packets microflows were cut from, so later packets hit them

    def draw_packet():
        if recent and data.draw(st.booleans()):
            return replace(data.draw(st.sampled_from(recent)), ts=now)
        return data.draw(packets(now))

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
            pkt = draw_packet()
            expected = expected_matches(sw, pkt)
            hits = [(entry, entry.packet_count) for _, entry in expected if entry is not None]
            disp = sw.process_packet(pkt)
            assert disp.matches == tuple(
                MatchResult(device_id, MISS_FLOW_ID, Action.FORWARD) if entry is None
                else MatchResult(device_id, entry.flow_id, entry.action)
                for device_id, entry in expected)
            assert all(entry.packet_count == before + 1 for entry, before in hits)
            for match in disp.matches:
                seen[match.device_id, "packets"] += 1
                seen[match.device_id, "bytes"] += pkt.length
        elif op == "dns":
            ips = data.draw(st.lists(st.sampled_from(CLOUD_IPS), min_size=1, max_size=2))
            sw.handle_dns_answer(data.draw(st.sampled_from(DOMAINS)), ips, now)
        elif op == "microflow":
            recent.append(pkt := data.draw(packets(now)))
            # The table of a device the packet touches, as when its rule mirrored it.
            device_id = data.draw(st.sampled_from(expected_devices(sw, pkt)))
            five_tuple = FiveTuple.of(pkt)
            if data.draw(st.booleans()):  # a microflow that leaves the ports open
                five_tuple = FiveTuple(five_tuple.src_ip, five_tuple.dst_ip,
                                       five_tuple.proto, None, None)
            # Often one 5-tuple under two parents, as when two services mirror it.
            for parent in data.draw(st.lists(st.sampled_from(PARENTS), min_size=1,
                                             max_size=2, unique=True)):
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
            if data.draw(st.booleans()):
                host = data.draw(st.sampled_from([APP_IP, PEER_IP, *CLOUD_IPS]))
                match = MatchSpec(eth_type=0x0800, src_ip=host)
            else:  # one 5-tuple, as stage 3 blocks an anomalous microflow
                ft = FiveTuple.of(draw_packet())
                match = MatchSpec(eth_type=0x0800, src_ip=ft.src_ip, dst_ip=ft.dst_ip,
                                  proto=ft.proto, src_port=ft.src_port, dst_port=ft.dst_port)
            label = data.draw(BLOCK_LABELS)
            if MICROFLOW_MARK in label:  # the block's flow id would read as a microflow's
                before = list(sw.tables[device_id].entries)
                with pytest.raises(SchemaError):
                    sw.insert_block(device_id, match, label, now)
                assert sw.tables[device_id].entries == before
            else:
                sw.insert_block(device_id, match, label, now)
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


def test_first_inserted_microflow_wins_a_shared_5_tuple():
    sw = make_switch()
    ft = FiveTuple(APP_IP, DEV_IP, 6, 50000, 9999)
    first = sw.insert_microflow("plug", ft, "i.2", 0)
    sw.insert_microflow("plug", ft, "b.2", 0)
    sw.insert_microflow("plug", FiveTuple(APP_IP, DEV_IP, 6, None, None), "i.1", 0)
    disp = sw.process_packet(tcp(1, APP, DEV, 50000, 9999, 90))
    assert disp.matched_flow_id == first.flow_id
    sw.remove_microflows("plug", {"i.2"})
    disp = sw.process_packet(tcp(2, APP, DEV, 50000, 9999, 90))
    assert disp.matched_flow_id == f"b.2~{ft}"
    sw.remove_microflows("plug", {"b.2"})
    disp = sw.process_packet(tcp(3, APP, DEV, 50001, 9999, 90))
    assert disp.matched_flow_id == f"i.1~{APP_IP}:>{DEV_IP}:/6"  # ports left open


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


def test_dns_and_arp_drops_block_the_baseline_rules():
    dns = {"ipv4": {"protocol": 17}, "udp": {"destination-port": {"operator": "eq", "port": 53}},
           "ietf-mud:mud": {"controller": "urn:ietf:params:mud:gateway"}}
    arp = {"eth": {"ethertype": "0x0806"}}
    denies = [dict(ace(name, m), actions={"forwarding": "drop"})
              for name, m in (("dns", dns), ("arp", arp))]
    # A service the answer below would bind, were the reply forwarded.
    cloud = ace("cloud", {"ipv4": {"protocol": 6, "ietf-acldns:dst-dnsname": "cloud.plug.example"},
                          "tcp": {"destination-port": {"operator": "eq", "port": 50443}}})
    rules = translate(parse_profile(make_profile([*denies, cloud], [])), DEV_MAC, GW_MAC, GW_IP)
    sw = SwitchSim()
    sw.register_device("plug", DEV_MAC, rules)
    mirrored = []
    sw.on_mirror.append(lambda *hit: mirrored.append(hit))
    reply = PacketRecord(ts=1, src_mac=GW_MAC, dst_mac=DEV_MAC, eth_type=0x0800, length=120,
                         src_ip=GW_IP, dst_ip=DEV_IP, proto=17, src_port=53, dst_port=5353,
                         payload_hint=DnsAnswer("cloud.plug.example", ("93.184.216.34",)))
    disp = sw.process_packet(reply)
    assert disp.matched_flow_id == "f.2" and not disp.forwarded
    assert mirrored == []
    # A dropped reply binds nothing.
    assert not any(e.origin is Origin.MUD_REACTIVE_DNS for e in sw.tables["plug"].entries)
    who_has = PacketRecord(ts=2, src_mac=DEV_MAC, dst_mac="ff:ff:ff:ff:ff:ff",
                           eth_type=0x0806, length=60)
    disp = sw.process_packet(who_has)
    assert disp.matched_flow_id == "h.2" and not disp.forwarded


def test_block_label_holding_the_microflow_mark_is_refused():
    sw = make_switch()
    ft = FiveTuple(APP_IP, DEV_IP, 6, 50000, 9999)
    match = MatchSpec(eth_type=0x0800, src_ip=ft.src_ip, dst_ip=ft.dst_ip, proto=6,
                      src_port=50000, dst_port=9999)
    with pytest.raises(SchemaError):
        sw.insert_block("plug", match, f"i.2~{ft}", 0)
    assert sw.entry_count("plug") == 16
    assert sw.insert_block("plug", match, f"i.2@{ft}", 0).flow_id == f"block:i.2@{ft}"


def test_re_registering_under_a_new_mac_releases_the_old_one():
    sw = make_switch()
    rules = translate(parse_profile(tplink_like_profile()), APP_MAC, GW_MAC, GW_IP)
    sw.register_device("plug", APP_MAC, rules)
    assert sw.mac_to_device == {APP_MAC: "plug", PEER_MAC: "peer"}
    with pytest.raises(NoDeviceError):
        sw.process_packet(tcp(1, DEV, (GW_MAC, CLOUD_IPS[0]), 40000, 50443, 90))


def test_registering_a_mac_another_device_owns_is_refused():
    sw = make_switch()
    rules = translate(parse_profile(tplink_like_profile()), DEV_MAC, GW_MAC, GW_IP)
    with pytest.raises(SchemaError):
        sw.register_device("cam", DEV_MAC.upper(), rules)
    assert set(sw.tables) == {"plug", "peer"}
    assert sw.mac_to_device[DEV_MAC] == "plug"


def test_a_template_ranked_with_the_microflow_tier_is_refused():
    rules = translate(parse_profile(tplink_like_profile()), APP_MAC, GW_MAC, GW_IP)
    sw = make_switch()
    with pytest.raises(SchemaError):
        sw.register_device("cam", APP_MAC, [*rules[:-1], replace(rules[-1], priority=30)])
    assert set(sw.tables) == {"plug", "peer"} and APP_MAC not in sw.mac_to_device
