import pytest

from mudmon.errors import NoDeviceError, TableFullError
from mudmon.mud import Action, MatchSpec, parse_profile, translate
from mudmon.switch import (
    DnsAnswer,
    FiveTuple,
    MISS_FLOW_ID,
    PacketRecord,
    SwitchSim,
    US_PER_SEC,
)

from test_mud import DEV_MAC, GW_IP, GW_MAC, tplink_like_profile

DEV_IP = "192.168.1.20"
APP_IP = "192.168.1.100"
APP_MAC = "02:00:00:00:00:f1"
CLOUD_IP = "93.184.216.34"


def make_switch(**kw):
    sw = SwitchSim(**kw)
    rules = translate(parse_profile(tplink_like_profile()), DEV_MAC, GW_MAC, GW_IP)
    sw.register_device("plug", DEV_MAC, rules)
    return sw


def tcp_pkt(ts, src_mac, dst_mac, src_ip, dst_ip, sport, dport, length=100):
    return PacketRecord(ts=ts, src_mac=src_mac, dst_mac=dst_mac, eth_type=0x0800,
                        length=length, src_ip=src_ip, dst_ip=dst_ip, proto=6,
                        src_port=sport, dst_port=dport)


def dns_reply(ts, domain, ips):
    return PacketRecord(ts=ts, src_mac=GW_MAC, dst_mac=DEV_MAC, eth_type=0x0800,
                        length=150, src_ip=GW_IP, dst_ip=DEV_IP, proto=17,
                        src_port=53, dst_port=5353,
                        payload_hint=DnsAnswer(domain, tuple(ips)))


class TestMatching:
    def test_cloud_traffic_after_binding_matches_b2(self):
        sw = make_switch()
        sw.process_packet(dns_reply(1_000_000, "cloud.plug.example", [CLOUD_IP]))
        disp = sw.process_packet(
            tcp_pkt(2_000_000, DEV_MAC, GW_MAC, DEV_IP, CLOUD_IP, 40000, 50443))
        assert disp.matched_flow_id == "b.2"
        assert disp.forwarded and not disp.mirrored

    def test_unbound_cloud_traffic_hits_internet_default(self):
        sw = make_switch()
        disp = sw.process_packet(
            tcp_pkt(1_000_000, DEV_MAC, GW_MAC, DEV_IP, CLOUD_IP, 40000, 50443))
        assert disp.matched_flow_id == "g.1"
        assert disp.mirrored and disp.forwarded

    def test_dns_reply_forward_and_mirror(self):
        sw = make_switch()
        disp = sw.process_packet(dns_reply(1_000_000, "nowhere.example", ["198.51.100.9"]))
        assert disp.matched_flow_id == "f.2"
        assert disp.forwarded and disp.mirrored

    def test_local_app_traffic_matches_i(self):
        sw = make_switch()
        disp = sw.process_packet(
            tcp_pkt(1_000_000, APP_MAC, DEV_MAC, APP_IP, DEV_IP, 43847, 9999))
        assert disp.matched_flow_id == "i.2"
        disp = sw.process_packet(
            tcp_pkt(1_100_000, DEV_MAC, APP_MAC, DEV_IP, APP_IP, 9999, 43847))
        assert disp.matched_flow_id == "i.1"
        assert not disp.mirrored

    def test_microflow_beats_parent_rule(self):
        sw = make_switch()
        ft = FiveTuple("192.168.1.227", "192.168.1.228", 6, 9999, 43847)
        entry = sw.insert_microflow("plug", ft, "i.1", 1_000_000)
        assert entry.priority == 30
        assert entry.idle_timeout_sec == 60
        disp = sw.process_packet(
            tcp_pkt(2_000_000, DEV_MAC, APP_MAC, "192.168.1.227", "192.168.1.228",
                    9999, 43847))
        assert disp.matched_flow_id == entry.flow_id
        assert disp.forwarded and not disp.mirrored

    def test_unregistered_macs_raise(self):
        sw = make_switch()
        with pytest.raises(NoDeviceError):
            sw.process_packet(tcp_pkt(1, APP_MAC, "02:00:00:00:00:aa",
                                      APP_IP, "192.168.1.55", 1, 2))
        assert sw.dropped_packets == 1

    @pytest.mark.parametrize("call", [
        lambda sw: sw.insert_microflow("ghost", FiveTuple(APP_IP, DEV_IP, 6, 1, 2), "i.2", 1),
        lambda sw: sw.insert_block("ghost", MatchSpec(src_ip=APP_IP), "x", 1),
        lambda sw: sw.remove_microflows("ghost"),
        lambda sw: sw.set_flow_action("ghost", ["i.1"], Action.BLOCK),
        lambda sw: sw.entry_count("ghost"),
    ], ids=["insert_microflow", "insert_block", "remove_microflows", "set_flow_action",
            "entry_count"])
    def test_unknown_device_id_raises_no_device(self, call):
        sw = make_switch()
        before = [(e.flow_id, e.action) for e in sw.tables["plug"].entries]
        with pytest.raises(NoDeviceError):
            call(sw)
        assert [(e.flow_id, e.action) for e in sw.tables["plug"].entries] == before

    def test_local_unmatched_from_device_counts_miss(self):
        sw = make_switch()
        # UDP from the device to a local peer: no local UDP service exists.
        pkt = PacketRecord(ts=1, src_mac=DEV_MAC, dst_mac=APP_MAC, eth_type=0x0800,
                           length=90, src_ip=DEV_IP, dst_ip=APP_IP, proto=17,
                           src_port=1234, dst_port=7777)
        disp = sw.process_packet(pkt)
        assert disp.matched_flow_id == MISS_FLOW_ID


class TestDnsBinding:
    def test_answer_inserts_entry_per_template_per_ip(self):
        sw = make_switch()
        inserted = sw.handle_dns_answer("pool.ntp.example",
                                        ["198.51.100.1", "198.51.100.2"], 1_000_000)
        assert len(inserted) == 4  # a.1/a.2 templates x 2 addresses
        assert {e.flow_id for e in inserted} == {"a.1", "a.2"}

    def test_unknown_domain_binds_nothing(self):
        sw = make_switch()
        before = sw.entry_count("plug")
        inserted = sw.handle_dns_answer("unknown.example", ["203.0.113.9"], 1)
        assert inserted == []
        assert sw.entry_count("plug") == before

    def test_repeated_answer_idempotent(self):
        sw = make_switch()
        first = sw.handle_dns_answer("pool.ntp.example", ["198.51.100.1"], 1)
        again = sw.handle_dns_answer("pool.ntp.example", ["198.51.100.1"], 2)
        assert len(first) == 2 and again == []
        assert sum(1 for e in sw.tables["plug"].entries if e.flow_id == "a.1") == 1


class TestMicroflows:
    def test_duplicate_insert_refreshes(self):
        sw = make_switch()
        ft = FiveTuple(APP_IP, DEV_IP, 6, 50000, 9999)
        e1 = sw.insert_microflow("plug", ft, "i.2", 1_000_000)
        e2 = sw.insert_microflow("plug", ft, "i.2", 5_000_000)
        assert e1 is e2
        assert e2.last_hit == 5_000_000
        assert sw.entry_count("plug") == 17  # 16 installed rules + 1 microflow

    def test_capacity_exhaustion_within_a_second_at_100pps(self):
        sw = make_switch(tcam_capacity=64)
        ts = 0
        inserted = 0
        with pytest.raises(TableFullError):
            for i in range(100):  # 100 packets in one second, new tuple each
                ts = i * (US_PER_SEC // 100)
                sw.insert_microflow("plug", FiveTuple(f"10.0.0.{i}", DEV_IP, 6, 50000, 9999),
                                    "i.2", ts)
                inserted += 1
        assert inserted == 64
        assert ts < US_PER_SEC

    def test_mirror_stops_after_insert(self):
        sw = make_switch()
        sw.set_flow_action("plug", ["i.1", "i.2"], Action.FORWARD_AND_MIRROR)
        mirrored = []
        sw.on_mirror.append(lambda d, f, p: mirrored.append(f))
        pkt = tcp_pkt(1_000_000, APP_MAC, DEV_MAC, APP_IP, DEV_IP, 50001, 9999)
        sw.process_packet(pkt)
        assert mirrored == ["i.2"]
        sw.insert_microflow("plug", FiveTuple.of(pkt), "i.2", 1_000_000)
        sw.process_packet(tcp_pkt(1_200_000, APP_MAC, DEV_MAC, APP_IP, DEV_IP, 50001, 9999))
        assert mirrored == ["i.2"]  # no further mirror events for that tuple

    def test_remove_by_parent_keeps_other_microflows(self):
        sw = make_switch()
        a = FiveTuple(APP_IP, DEV_IP, 6, 50000, 9999)
        b = FiveTuple(DEV_IP, APP_IP, 6, 9999, 50000)
        gone = sw.insert_microflow("plug", a, "i.2", 1_000_000)
        kept = sw.insert_microflow("plug", b, "i.1", 1_000_000)
        sw.process_packet(tcp_pkt(1_500_000, APP_MAC, DEV_MAC, APP_IP, DEV_IP, 50000, 9999))
        assert sw.remove_microflows("plug", {"i.2"}) == [gone.flow_id]
        assert sw.entry_count("plug") == 17
        assert sw.insert_microflow("plug", b, "i.1", 2_000_000) is kept
        assert sw.insert_microflow("plug", a, "i.2", 2_000_000) is not gone
        polled = {r.flow_id: r.packets for r in sw.poll_counters(1)}
        assert polled[gone.flow_id] == 1  # banked before removal


class TestExpiry:
    def test_idle_microflow_expires(self):
        sw = make_switch()
        sw.insert_microflow("plug", FiveTuple(APP_IP, DEV_IP, 6, 50000, 9999), "i.2", 0)
        removed = sw.expire_idle(61 * US_PER_SEC)
        assert [f for _, f in removed] == ["i.2~" + f"{APP_IP}:50000>{DEV_IP}:9999/6"]

    def test_recently_hit_microflow_retained(self):
        sw = make_switch()
        sw.insert_microflow("plug", FiveTuple(APP_IP, DEV_IP, 6, 50000, 9999), "i.2",
                            30 * US_PER_SEC)
        assert sw.expire_idle(60 * US_PER_SEC) == []

    def test_mixed_expiry(self):
        sw = make_switch()
        for i, t in enumerate([0, 0, 0, 50 * US_PER_SEC, 55 * US_PER_SEC]):
            sw.insert_microflow("plug", FiveTuple(f"10.0.0.{i}", DEV_IP, 6, 50000, 9999),
                                "i.2", t)
        removed = sw.expire_idle(61 * US_PER_SEC)
        assert len(removed) == 3
        assert sw.entry_count("plug") == 18  # 16 installed rules + 2 live microflows

    def test_permanent_rules_never_expire(self):
        sw = make_switch()
        assert sw.expire_idle(10**12) == []
        assert sw.entry_count("plug") == 16


class TestCounters:
    def test_zero_deltas_when_idle(self):
        sw = make_switch()
        records = sw.poll_counters(0)
        assert len(records) == 20
        assert all(r.packets == 0 and r.bytes == 0 for r in records)

    def test_accumulation_and_delta(self):
        sw = make_switch()
        for i in range(10):
            sw.process_packet(tcp_pkt(i * 1000, DEV_MAC, APP_MAC, DEV_IP, APP_IP,
                                      9999, 43847, length=100))
        recs = {r.flow_id: r for r in sw.poll_counters(0)}
        assert recs["i.1"].packets == 10 and recs["i.1"].bytes == 1000
        # Second poll: nothing new.
        recs = {r.flow_id: r for r in sw.poll_counters(1)}
        assert recs["i.1"].packets == 0

    def test_conservation_including_miss(self):
        sw = make_switch()
        pkts = [
            tcp_pkt(1, DEV_MAC, APP_MAC, DEV_IP, APP_IP, 9999, 43847),
            tcp_pkt(2, APP_MAC, DEV_MAC, APP_IP, DEV_IP, 43847, 9999),
            dns_reply(3, "x.example", ["198.51.100.3"]),
            PacketRecord(ts=4, src_mac=DEV_MAC, dst_mac=APP_MAC, eth_type=0x0800,
                         length=70, src_ip=DEV_IP, dst_ip=APP_IP, proto=17,
                         src_port=5, dst_port=6),  # miss
        ]
        for p in pkts:
            sw.process_packet(p)
        total = sum(r.packets for r in sw.poll_counters(0))
        assert total == len(pkts)

    def test_replay_determinism(self):
        def run():
            sw = make_switch()
            pkts = [tcp_pkt(i * 1000, APP_MAC, DEV_MAC, APP_IP, DEV_IP, 43000 + i, 9999)
                    for i in range(50)]
            for p in pkts:
                sw.process_packet(p)
            return sorted((r.flow_id, r.packets, r.bytes) for r in sw.poll_counters(0))
        assert run() == run()

    def test_expired_entry_deltas_survive_via_residual(self):
        sw = make_switch()
        sw.insert_microflow("plug", FiveTuple(APP_IP, DEV_IP, 6, 50000, 9999), "i.2", 0)
        sw.process_packet(tcp_pkt(1000, APP_MAC, DEV_MAC, APP_IP, DEV_IP, 50000, 9999))
        sw.expire_idle(120 * US_PER_SEC)
        recs = {r.flow_id: r for r in sw.poll_counters(2)}
        mf = [r for f, r in recs.items() if f.startswith("i.2~")]
        assert mf and mf[0].packets == 1
