import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mudmon.errors import MudmonError, ParseError, SchemaError
from mudmon.mud import (
    Action,
    EndpointKind,
    FlowRuleTemplate,
    MatchSpec,
    RuleRole,
    Scope,
    feature_rules,
    parse_profile,
    service_groups,
    translate,
)

DEV_MAC = "02:00:00:00:00:11"
GW_MAC = "02:00:00:00:00:01"
GW_IP = "192.168.1.1"


def make_profile(from_aces, to_aces, name="test-device"):
    return json.dumps({
        "ietf-mud:mud": {
            "mud-version": 1,
            "systeminfo": name,
            "last-update": "2020-01-01T00:00:00+00:00",
            "from-device-policy": {"access-lists": {"access-list": [{"name": "from"}]}},
            "to-device-policy": {"access-lists": {"access-list": [{"name": "to"}]}},
        },
        "ietf-access-control-list:acls": {"acl": [
            {"name": "from", "type": "ipv4-acl-type", "aces": {"ace": from_aces}},
            {"name": "to", "type": "ipv4-acl-type", "aces": {"ace": to_aces}},
        ]},
    })


def ace(name, matches):
    return {"name": name, "matches": matches, "actions": {"forwarding": "accept"}}


def tplink_like_profile():
    """Profile shaped like a smart plug: NTP, cloud, gateway ICMP/DNS,
    local TCP 9999, local ICMP."""
    from_aces = [
        ace("ntp", {"ipv4": {"protocol": 17, "ietf-acldns:dst-dnsname": "pool.ntp.example"},
                    "udp": {"destination-port": {"operator": "eq", "port": 123}}}),
        ace("cloud", {"ipv4": {"protocol": 6, "ietf-acldns:dst-dnsname": "cloud.plug.example"},
                      "tcp": {"destination-port": {"operator": "eq", "port": 50443}}}),
        ace("gw-icmp", {"ipv4": {"protocol": 1},
                        "ietf-mud:mud": {"controller": "urn:ietf:params:mud:gateway"}}),
        ace("dns", {"ipv4": {"protocol": 17},
                    "udp": {"destination-port": {"operator": "eq", "port": 53}},
                    "ietf-mud:mud": {"controller": "urn:ietf:params:mud:gateway"}}),
        ace("local-app", {"ipv4": {"protocol": 6},
                          "tcp": {"source-port": {"operator": "eq", "port": 9999}},
                          "ietf-mud:mud": {"local-networks": [None]}}),
        ace("local-icmp", {"ipv4": {"protocol": 1},
                           "ietf-mud:mud": {"local-networks": [None]}}),
    ]
    to_aces = [
        ace("ntp", {"ipv4": {"protocol": 17, "ietf-acldns:src-dnsname": "pool.ntp.example"},
                    "udp": {"source-port": {"operator": "eq", "port": 123}}}),
        ace("cloud", {"ipv4": {"protocol": 6, "ietf-acldns:src-dnsname": "cloud.plug.example"},
                      "tcp": {"source-port": {"operator": "eq", "port": 50443}}}),
        ace("gw-icmp", {"ipv4": {"protocol": 1},
                        "ietf-mud:mud": {"controller": "urn:ietf:params:mud:gateway"}}),
        ace("dns", {"ipv4": {"protocol": 17},
                    "udp": {"source-port": {"operator": "eq", "port": 53}},
                    "ietf-mud:mud": {"controller": "urn:ietf:params:mud:gateway"}}),
        ace("local-app", {"ipv4": {"protocol": 6},
                          "tcp": {"destination-port": {"operator": "eq", "port": 9999}},
                          "ietf-mud:mud": {"local-networks": [None]}}),
        ace("local-icmp", {"ipv4": {"protocol": 1},
                           "ietf-mud:mud": {"local-networks": [None]}}),
    ]
    return make_profile(from_aces, to_aces, name="plug")


class TestParse:
    def test_single_cloud_ace(self):
        text = make_profile(
            [ace("cloud", {"ipv4": {"protocol": 6,
                                    "ietf-acldns:dst-dnsname": "devs.tplinkcloud.com"},
                           "tcp": {"destination-port": {"operator": "eq", "port": 50443}}})],
            [])
        profile = parse_profile(text)
        assert len(profile.aces_from_device) == 1
        assert len(profile.aces_to_device) == 0
        a = profile.aces_from_device[0]
        assert a.scope is Scope.INTERNET
        assert a.endpoint_kind is EndpointKind.DOMAIN
        assert a.endpoint_value == "devs.tplinkcloud.com"
        assert a.protocol == 6
        assert a.remote_port == 50443

    def test_empty_access_lists(self):
        profile = parse_profile(make_profile([], []))
        assert profile.aces == ()

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_profile("{not json")

    def test_icmp_with_port_rejected(self):
        text = make_profile(
            [ace("bad", {"ipv4": {"protocol": 1},
                         "tcp": {"destination-port": {"operator": "eq", "port": 80}},
                         "ietf-mud:mud": {"local-networks": [None]}})],
            [])
        with pytest.raises(SchemaError) as err:
            parse_profile(text)
        assert "ACE #0" in str(err.value)

    def test_missing_protocol_rejected(self):
        text = make_profile(
            [ace("bad", {"ietf-mud:mud": {"local-networks": [None]}})], [])
        with pytest.raises(SchemaError):
            parse_profile(text)

    def test_empty_dns_name_rejected(self):
        # A template is DNS-bound by the domain it names, so the domain may not be empty.
        text = make_profile(
            [ace("bad", {"ipv4": {"protocol": 6, "ietf-acldns:dst-dnsname": ""},
                         "tcp": {"destination-port": {"operator": "eq", "port": 443}}})],
            [])
        with pytest.raises(SchemaError):
            parse_profile(text)

    def test_domain_requires_internet_scope(self):
        text = make_profile(
            [ace("bad", {"ipv4": {"protocol": 6, "ietf-acldns:dst-dnsname": "x.example"},
                         "ietf-mud:mud": {"local-networks": [None]}})],
            [])
        with pytest.raises(SchemaError):
            parse_profile(text)


LOCAL = {"ietf-mud:mud": {"local-networks": [None]}}


def _profile_with(from_ace):
    return make_profile([from_ace], [])


def _acls_as_list():
    doc = json.loads(make_profile([], []))
    doc["ietf-access-control-list:acls"] = [{"name": "from"}]
    return json.dumps(doc)


def _string_policy():
    doc = json.loads(make_profile([], []))
    doc["ietf-mud:mud"]["from-device-policy"] = "from"
    return json.dumps(doc)


MALFORMED = {
    "acls_list": _acls_as_list(),
    "ace_not_object": _profile_with("cloud"),
    "string_policy": _string_policy(),
    "ethertype_not_hex": _profile_with(ace("arp", {"eth": {"ethertype": "zz"}})),
    "tcp_node_list": _profile_with(ace("app", {
        "ipv4": {"protocol": 6},
        "tcp": [{"destination-port": {"operator": "eq", "port": 80}}], **LOCAL})),
    "port_bool": _profile_with(ace("app", {
        "ipv4": {"protocol": 6},
        "tcp": {"destination-port": {"operator": "eq", "port": True}}, **LOCAL})),
    "icmp_type_string": _profile_with(ace("ping", {
        "ipv4": {"protocol": 1}, "icmp": {"type": "a"}, **LOCAL})),
    "no_actions": _profile_with({"name": "ping", "matches": {"ipv4": {"protocol": 1}, **LOCAL}}),
    "actions_string": _profile_with(dict(ace("ping", {"ipv4": {"protocol": 1}, **LOCAL}),
                                         actions="drop")),
    "unknown_forwarding": _profile_with(dict(ace("ping", {"ipv4": {"protocol": 1}, **LOCAL}),
                                             actions={"forwarding": "allow"})),
    "forwarding_list": _profile_with(dict(ace("ping", {"ipv4": {"protocol": 1}, **LOCAL}),
                                          actions={"forwarding": ["drop"]})),
}

JSON_KEYS = st.sampled_from([
    "ietf-mud:mud", "from-device-policy", "to-device-policy", "access-lists",
    "access-list", "name", "ietf-access-control-list:acls", "acl", "aces", "ace",
    "matches", "ipv4", "eth", "ethertype", "protocol", "tcp", "udp", "icmp", "type",
    "code", "source-port", "destination-port", "operator", "port", "controller",
    "local-networks", "ietf-acldns:dst-dnsname", "destination-ipv4-network",
]) | st.text(max_size=4)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 70000) | st.floats()
    | st.sampled_from(["eq", "0x0806", "zz", "urn:ietf:params:mud:gateway"]) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(JSON_KEYS, inner, max_size=4),
    max_leaves=12)


def _paths(node, prefix=()):
    """Every (container path, key) position in a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


class TestParseFailsClosed:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_rejected_with_schema_error(self, name):
        with pytest.raises(SchemaError):
            parse_profile(MALFORMED[name])

    @settings(deadline=None)
    @given(JSON)
    def test_arbitrary_json_raises_only_mudmon_errors(self, doc):
        try:
            parse_profile(json.dumps(doc))
        except MudmonError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mutated_profile_raises_only_mudmon_errors(self, data):
        doc = json.loads(tplink_like_profile())
        path = data.draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(JSON)
        try:
            translate(parse_profile(json.dumps(doc)), DEV_MAC, GW_MAC, GW_IP)
        except MudmonError:
            pass


class TestTranslate:
    @pytest.mark.parametrize("forwarding", ["drop", "reject"])
    def test_deny_ace_becomes_block_pair(self, forwarding):
        telnet = {"ipv4": {"protocol": 6},
                  "tcp": {"destination-port": {"operator": "eq", "port": 23}}, **LOCAL}
        deny = dict(ace("telnet", telnet), actions={"forwarding": forwarding})
        profile = parse_profile(make_profile([deny, ace("telnet-ok", telnet)], []))
        rules = translate(profile, DEV_MAC, GW_MAC, GW_IP)
        services = {r.flow_id: r.action for r in rules if r.role is RuleRole.SERVICE}
        # The accept for the same service is not merged into the drop.
        assert services == {"a.1": Action.BLOCK, "a.2": Action.BLOCK,
                            "b.1": Action.FORWARD, "b.2": Action.FORWARD}
        outbound = next(r for r in rules if r.flow_id == "a.1")
        assert (outbound.match.src_mac, outbound.match.dst_port) == (DEV_MAC, 23)

    @pytest.mark.parametrize("matches, covering", [
        ({"ipv4": {"protocol": 17}, "udp": {"destination-port": {"operator": "eq", "port": 53}},
          "ietf-mud:mud": {"controller": "urn:ietf:params:mud:gateway"}}, {"f.1", "f.2"}),
        ({"eth": {"ethertype": "0x0806"}}, {"h.1", "h.2"}),
        ({"eth": {"ethertype": "0x888e"}}, {"c"}),
    ], ids=["dns", "arp", "eapol"])
    def test_deny_of_a_baseline_service_blocks_its_rules(self, matches, covering):
        deny = dict(ace("deny", matches), actions={"forwarding": "drop"})
        accepted = translate(parse_profile(make_profile([ace("ok", matches)], [])),
                             DEV_MAC, GW_MAC, GW_IP)
        denied = translate(parse_profile(make_profile([deny], [])), DEV_MAC, GW_MAC, GW_IP)
        assert [r.flow_id for r in denied] == [r.flow_id for r in accepted]
        for ok, rule in zip(accepted, denied):
            assert rule.action is (Action.BLOCK if rule.flow_id in covering else ok.action)
            assert ok.action is not Action.BLOCK

    def test_letters_never_run_out(self):
        aces = [ace(f"svc{i}", {"ipv4": {"protocol": 6},
                                "tcp": {"destination-port": {"operator": "eq", "port": 1000 + i}},
                                **LOCAL}) for i in range(1000)]
        rules = translate(parse_profile(make_profile(aces, [])), DEV_MAC, GW_MAC, GW_IP)
        ids = [r.flow_id for r in rules]
        assert len(ids) == len(set(ids))
        groups = {r.group for r in rules if r.role is RuleRole.SERVICE}
        assert len(groups) == 1000 and not groups & set("cdfghk")

    def test_plug_profile_matches_reference_structure(self):
        profile = parse_profile(tplink_like_profile())
        rules = translate(profile, DEV_MAC, GW_MAC, GW_IP)
        ids = [r.flow_id for r in rules]
        assert ids == ["a.1", "a.2", "b.1", "b.2", "c", "d.1", "d.2",
                       "e.1", "e.2", "f.1", "f.2", "g.1", "g.2",
                       "h.1", "h.2", "i.1", "i.2", "j.1", "j.2", "k"]
        # Monitored (non-default) rules: the count that drives device features.
        assert len(feature_rules(rules)) == 17
        tcpudpicmp = [r for r in rules
                      if r.role is RuleRole.SERVICE or r.role in (RuleRole.DHCP, RuleRole.DNS)]
        assert len(tcpudpicmp) == 14
        arp = [r for r in rules if r.role is RuleRole.ARP]
        assert len(arp) == 2
        mirrors = [r.flow_id for r in rules if r.action is Action.FORWARD_AND_MIRROR]
        assert mirrors == ["f.2", "g.1", "g.2", "k"]

    def test_plug_rule_details(self):
        profile = parse_profile(tplink_like_profile())
        rules = {r.flow_id: r for r in translate(profile, DEV_MAC, GW_MAC, GW_IP)}
        a1 = rules["a.1"]
        assert (a1.match.src_domain, a1.match.dst_domain) == ("pool.ntp.example", None)
        assert a1.priority == 20
        assert a1.match.src_mac == GW_MAC and a1.match.dst_mac == DEV_MAC
        assert a1.match.proto == 17 and a1.match.src_port == 123
        b2 = rules["b.2"]
        assert b2.match.dst_domain == "cloud.plug.example"
        assert b2.match.dst_port == 50443
        i1 = rules["i.1"]
        assert i1.priority == 6
        assert i1.match.src_mac == DEV_MAC and i1.match.dst_mac is None
        assert i1.match.proto == 6 and i1.match.src_port == 9999
        assert rules["h.1"].priority == 7
        assert rules["g.1"].priority == 10
        assert rules["k"].priority == 5
        assert rules["k"].match.dst_mac == DEV_MAC
        assert rules["c"].match.eth_type == 0x888E
        assert rules["d.1"].match.dst_port == 67
        assert rules["f.2"].match.src_ip == GW_IP and rules["f.2"].match.src_port == 53

    def test_zero_ace_profile_emits_baseline(self):
        profile = parse_profile(make_profile([], []))
        rules = translate(profile, DEV_MAC, GW_MAC, GW_IP)
        roles = {r.role for r in rules}
        assert roles == {RuleRole.EAPOL, RuleRole.DHCP, RuleRole.DNS, RuleRole.ARP,
                         RuleRole.DEFAULT_INTERNET, RuleRole.DEFAULT_LOCAL}
        mirrors = [r for r in rules if r.action is Action.FORWARD_AND_MIRROR]
        assert len(mirrors) == 4  # DNS reply + both Internet defaults + local default
        assert len(rules) == 10

    def test_single_ntp_ace_reactive_priority(self):
        text = make_profile(
            [ace("ntp", {"ipv4": {"protocol": 17,
                                  "ietf-acldns:dst-dnsname": "pool.ntp.example"},
                         "udp": {"destination-port": {"operator": "eq", "port": 123}}})],
            [ace("ntp", {"ipv4": {"protocol": 17,
                                  "ietf-acldns:src-dnsname": "pool.ntp.example"},
                         "udp": {"source-port": {"operator": "eq", "port": 123}}})])
        rules = translate(parse_profile(text), DEV_MAC, GW_MAC, GW_IP)
        ab = [r for r in rules if r.flow_id in ("a.1", "a.2")]
        assert len(ab) == 2
        assert all((r.match.src_domain or r.match.dst_domain) == "pool.ntp.example" for r in ab)
        assert all(r.priority == 20 for r in ab)

    def test_translation_deterministic(self):
        profile = parse_profile(tplink_like_profile())
        r1 = translate(profile, DEV_MAC, GW_MAC, GW_IP)
        r2 = translate(profile, DEV_MAC, GW_MAC, GW_IP)
        assert r1 == r2

    def test_domain_aces_reactive_ip_aces_proactive(self):
        text = make_profile(
            [ace("static", {"ipv4": {"protocol": 6,
                                     "destination-ipv4-network": "198.51.100.7/32"},
                            "tcp": {"destination-port": {"operator": "eq", "port": 443}}})],
            [])
        rules = translate(parse_profile(text), DEV_MAC, GW_MAC, GW_IP)
        svc = [r for r in rules if r.role is RuleRole.SERVICE]
        assert all(r.match.src_domain is None and r.match.dst_domain is None for r in svc)
        assert svc[0].match.src_ip == "198.51.100.7"

    def test_priority_tiers(self):
        profile = parse_profile(tplink_like_profile())
        rules = translate(profile, DEV_MAC, GW_MAC, GW_IP)
        by_id = {r.flow_id: r for r in rules}
        k = by_id["k"]
        assert all(k.priority < r.priority for r in rules if r.flow_id != "k")
        # Internet defaults sit below the reactive and gateway-service tiers.
        for g in ("g.1", "g.2"):
            assert by_id[g].priority < 20 and by_id[g].priority < 11

    def test_no_duplicate_match_priority(self):
        profile = parse_profile(tplink_like_profile())
        rules = translate(profile, DEV_MAC, GW_MAC, GW_IP)
        seen = {(r.match, r.priority) for r in rules}
        assert len(seen) == len(rules)

    def test_same_mac_rejected(self):
        profile = parse_profile(make_profile([], []))
        with pytest.raises(SchemaError):
            translate(profile, DEV_MAC, DEV_MAC, GW_IP)

    def test_same_mac_differing_in_case_rejected(self):
        profile = parse_profile(make_profile([], []))
        with pytest.raises(SchemaError):
            translate(profile, "02:00:00:00:00:AA", "02:00:00:00:00:aa", GW_IP)

    def test_service_groups_exclude_defaults(self):
        profile = parse_profile(tplink_like_profile())
        groups = service_groups(translate(profile, DEV_MAC, GW_MAC, GW_IP))
        assert set(groups) == {"a", "b", "c", "d", "e", "f", "h", "i", "j"}
        assert "g" not in groups and "k" not in groups


class TestTranslateFields:
    """Every field of every rule for one profile covering each service kind."""

    def test_every_rule_field_pinned(self):
        text = make_profile([
            ace("cloud", {"ipv4": {"protocol": 6, "ietf-acldns:dst-dnsname": "cloud.example"},
                          "tcp": {"destination-port": {"operator": "eq", "port": 443}}}),
            ace("static", {"ipv4": {"protocol": 17,
                                    "destination-ipv4-network": "198.51.100.7/32"},
                           "udp": {"destination-port": {"operator": "eq", "port": 123}}}),
            ace("gw-icmp", {"ipv4": {"protocol": 1}, "icmp": {"type": 8, "code": 0},
                            "ietf-mud:mud": {"controller": "urn:ietf:params:mud:gateway"}}),
            ace("local-app", {"ipv4": {"protocol": 6},
                              "tcp": {"source-port": {"operator": "eq", "port": 9999}},
                              "ietf-mud:mud": {"local-networks": [None]}}),
        ], [])
        rules = translate(parse_profile(text), DEV_MAC, GW_MAC, GW_IP)

        fwd, mirror = Action.FORWARD, Action.FORWARD_AND_MIRROR
        svc, inet, local = RuleRole.SERVICE, Scope.INTERNET, Scope.LOCAL
        ip4 = 0x0800

        def rule(flow_id, priority, action, role, scope, **match):
            return FlowRuleTemplate(flow_id, MatchSpec(**match), priority, action,
                                    role, flow_id[0], scope)

        expected = [
            rule("a.1", 20, fwd, svc, inet, src_mac=GW_MAC, dst_mac=DEV_MAC,
                 eth_type=ip4, src_domain="cloud.example", proto=6, src_port=443),
            rule("a.2", 20, fwd, svc, inet, src_mac=DEV_MAC, dst_mac=GW_MAC,
                 eth_type=ip4, dst_domain="cloud.example", proto=6, dst_port=443),
            rule("b.1", 20, fwd, svc, inet, src_mac=GW_MAC, dst_mac=DEV_MAC,
                 eth_type=ip4, src_ip="198.51.100.7", proto=17, src_port=123),
            rule("b.2", 20, fwd, svc, inet, src_mac=DEV_MAC, dst_mac=GW_MAC,
                 eth_type=ip4, dst_ip="198.51.100.7", proto=17, dst_port=123),
            rule("c", 11, fwd, RuleRole.EAPOL, local, src_mac=DEV_MAC, eth_type=0x888E),
            rule("d.1", 11, fwd, RuleRole.DHCP, local, src_mac=DEV_MAC,
                 dst_mac="ff:ff:ff:ff:ff:ff", eth_type=ip4, proto=17, dst_port=67),
            rule("d.2", 11, fwd, RuleRole.DHCP, local, src_mac=GW_MAC, dst_mac=DEV_MAC,
                 eth_type=ip4, proto=17, src_port=67),
            rule("e.1", 11, fwd, svc, local, src_mac=GW_MAC, dst_mac=DEV_MAC,
                 eth_type=ip4, src_ip=GW_IP, proto=1, icmp_type=8, icmp_code=0),
            rule("e.2", 11, fwd, svc, local, src_mac=DEV_MAC, dst_mac=GW_MAC,
                 eth_type=ip4, dst_ip=GW_IP, proto=1, icmp_type=8, icmp_code=0),
            rule("f.1", 11, fwd, RuleRole.DNS, local, src_mac=DEV_MAC, dst_mac=GW_MAC,
                 eth_type=ip4, dst_ip=GW_IP, proto=17, dst_port=53),
            rule("f.2", 11, mirror, RuleRole.DNS, local, src_mac=GW_MAC, dst_mac=DEV_MAC,
                 eth_type=ip4, src_ip=GW_IP, proto=17, src_port=53),
            rule("g.1", 10, mirror, RuleRole.DEFAULT_INTERNET, None, src_mac=DEV_MAC,
                 dst_mac=GW_MAC, eth_type=ip4),
            rule("g.2", 10, mirror, RuleRole.DEFAULT_INTERNET, None, src_mac=GW_MAC,
                 dst_mac=DEV_MAC, eth_type=ip4),
            rule("h.1", 7, fwd, RuleRole.ARP, local, dst_mac=DEV_MAC, eth_type=0x0806),
            rule("h.2", 7, fwd, RuleRole.ARP, local, src_mac=DEV_MAC, eth_type=0x0806),
            rule("i.1", 6, fwd, svc, local, src_mac=DEV_MAC, eth_type=ip4, proto=6,
                 src_port=9999),
            rule("i.2", 6, fwd, svc, local, dst_mac=DEV_MAC, eth_type=ip4, proto=6,
                 dst_port=9999),
            rule("k", 5, mirror, RuleRole.DEFAULT_LOCAL, None, dst_mac=DEV_MAC,
                 eth_type=ip4),
        ]
        assert [r.flow_id for r in rules] == [r.flow_id for r in expected]
        for got, want in zip(rules, expected):
            assert got == want, got.flow_id


# A service of the supported subset, as (endpoint kind, which of two remote
# endpoints, protocol, remote port, device port, icmp type, icmp code,
# forwarding).
_SERVICES = st.tuples(
    st.sampled_from(["domain", "ip", "gateway", "local"]),
    st.integers(0, 1),
    st.sampled_from(["tcp", "udp", "icmp"]),
    st.none() | st.sampled_from([53, 123, 443]),
    st.none() | st.sampled_from([53, 9999]),
    st.none() | st.integers(0, 8),
    st.none() | st.integers(0, 1),
    st.sampled_from(["accept", "drop"]))
_PROTOCOLS = {"icmp": 1, "tcp": 6, "udp": 17}
_REMOTES = {"domain": ("cloud.example", "pool.ntp.example"),
            "ip": ("198.51.100.7/32", "198.51.100.8/32")}


def _service_ace(service, from_device):
    """The ACE listing a service in one direction: endpoint and ports mirrored."""
    kind, which, proto, remote, device, icmp_type, icmp_code, forwarding = service
    side = "dst" if from_device else "src"
    ipv4 = {"protocol": _PROTOCOLS[proto]}
    matches = {"ipv4": ipv4}
    if kind == "domain":
        ipv4[f"ietf-acldns:{side}-dnsname"] = _REMOTES[kind][which]
    elif kind == "ip":
        ipv4[f"{'destination' if from_device else 'source'}-ipv4-network"] = _REMOTES[kind][which]
    elif kind == "gateway":
        matches["ietf-mud:mud"] = {"controller": "urn:ietf:params:mud:gateway"}
    else:
        matches.update(LOCAL)
    if proto == "icmp":
        matches["icmp"] = {k: v for k, v in (("type", icmp_type), ("code", icmp_code))
                           if v is not None}
    else:
        src, dst = (device, remote) if from_device else (remote, device)
        matches[proto] = {f"{end}-port": {"operator": "eq", "port": port}
                          for end, port in (("source", src), ("destination", dst))
                          if port is not None}
    return dict(ace("svc", matches), actions={"forwarding": forwarding})


class TestPairing:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_SERVICES, max_size=6))
    def test_a_service_translates_alike_from_either_direction_or_both(self, services):
        def rules(from_device, to_device):
            text = make_profile([_service_ace(s, True) for s in services] if from_device else [],
                                [_service_ace(s, False) for s in services] if to_device else [])
            return translate(parse_profile(text), DEV_MAC, GW_MAC, GW_IP)

        both = rules(True, True)
        assert rules(True, False) == both
        assert rules(False, True) == both
