"""DNS binding semantics the switch keeps while indexing templates by domain.

A mirrored DNS answer instantiates every reactive template that names the
domain, in every registered table, with the template's current action.
"""

from dataclasses import replace

from mudmon.mud import Action, parse_profile, translate
from mudmon.switch import Origin, US_PER_SEC

from test_mud import DEV_MAC, GW_IP, GW_MAC, make_profile, tplink_like_profile
from test_switch import CLOUD_IP, DEV_IP, make_switch, tcp_pkt

PEER_MAC = "02:00:00:00:00:12"
PEER_IP = "192.168.1.21"
CLOUD = "cloud.plug.example"  # b.1 (src-dnsname, inbound) and b.2 (dst-dnsname)
NTP = "pool.ntp.example"  # a.1 and a.2


def two_plugs():
    sw = make_switch()
    rules = translate(parse_profile(tplink_like_profile()), PEER_MAC, GW_MAC, GW_IP)
    sw.register_device("peer", PEER_MAC, rules)
    return sw


def dns_entries(sw, device_id):
    return {(e.flow_id, e.match.src_ip, e.match.dst_ip)
            for e in sw.tables[device_id].entries if e.origin is Origin.MUD_REACTIVE_DNS}


def test_answer_after_set_flow_action_installs_the_new_action():
    sw = make_switch()
    sw.set_flow_action("plug", ["b.1", "b.2"], Action.FORWARD_AND_MIRROR)
    inserted = sw.handle_dns_answer(CLOUD, [CLOUD_IP], US_PER_SEC)
    assert {e.flow_id for e in inserted} == {"b.1", "b.2"}
    assert all(e.action is Action.FORWARD_AND_MIRROR for e in inserted)
    disp = sw.process_packet(tcp_pkt(2 * US_PER_SEC, DEV_MAC, GW_MAC, DEV_IP, CLOUD_IP,
                                     40000, 50443))
    assert disp.matched_flow_id == "b.2" and disp.mirrored

    sw.set_flow_action("plug", ["b.1", "b.2"], Action.FORWARD)
    inserted = sw.handle_dns_answer(CLOUD, ["198.51.100.7"], 3 * US_PER_SEC)
    assert len(inserted) == 2 and all(e.action is Action.FORWARD for e in inserted)


def test_one_domain_binds_every_table_that_names_it():
    sw = two_plugs()
    inserted = sw.handle_dns_answer(CLOUD, [CLOUD_IP], US_PER_SEC)
    assert len(inserted) == 4
    assert dns_entries(sw, "plug") == dns_entries(sw, "peer") == {
        ("b.1", CLOUD_IP, None), ("b.2", None, CLOUD_IP)}
    for mac, ip, device_id in ((DEV_MAC, DEV_IP, "plug"), (PEER_MAC, PEER_IP, "peer")):
        disp = sw.process_packet(tcp_pkt(2 * US_PER_SEC, mac, GW_MAC, ip, CLOUD_IP,
                                         40000, 50443))
        assert [(m.device_id, m.flow_id) for m in disp.matches] == [(device_id, "b.2")]


def test_src_dnsname_template_binds_src_ip():
    sw = make_switch()
    inserted = {e.flow_id: e for e in sw.handle_dns_answer(NTP, ["198.51.100.1"], 1)}
    inbound, outbound = inserted["a.1"].match, inserted["a.2"].match
    assert (inbound.src_ip, inbound.src_domain, inbound.dst_ip) == ("198.51.100.1", None, None)
    assert (outbound.dst_ip, outbound.dst_domain, outbound.src_ip) == ("198.51.100.1", None, None)
    reply = replace(tcp_pkt(2, GW_MAC, DEV_MAC, "198.51.100.1", DEV_IP, 123, 40000),
                    proto=17)
    assert sw.process_packet(reply).matched_flow_id == "a.1"


def test_re_answer_refreshes_then_reinserts_after_idle_expiry():
    sw = make_switch(reactive_idle_sec=120)
    first = sw.handle_dns_answer(CLOUD, [CLOUD_IP], 0)
    assert sw.handle_dns_answer(CLOUD, [CLOUD_IP], 100 * US_PER_SEC) == []
    assert sw.expire_idle(150 * US_PER_SEC) == []  # the refresh kept them live
    removed = sw.expire_idle(221 * US_PER_SEC)
    assert sorted(f for _, f in removed) == ["b.1", "b.2"]
    assert dns_entries(sw, "plug") == set()
    again = sw.handle_dns_answer(CLOUD, [CLOUD_IP], 222 * US_PER_SEC)
    assert [e.flow_id for e in again] == [e.flow_id for e in first]
    assert all(a is not b for a, b in zip(again, first))
    assert dns_entries(sw, "plug") == {("b.1", CLOUD_IP, None), ("b.2", None, CLOUD_IP)}


def test_re_registered_device_binds_only_its_new_templates():
    sw = two_plugs()
    sw.register_device("plug", DEV_MAC,
                       translate(parse_profile(make_profile([], [])), DEV_MAC, GW_MAC, GW_IP))
    inserted = sw.handle_dns_answer(CLOUD, [CLOUD_IP], 1)
    assert sorted(e.flow_id for e in inserted) == ["b.1", "b.2"]  # the peer's only
    assert dns_entries(sw, "plug") == set()
    assert len(dns_entries(sw, "peer")) == 2
