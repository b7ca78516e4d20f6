"""MUD profile parsing and translation into prioritized switch flow rules.

A profile is the RFC 8520 JSON subset: an ``ietf-mud:mud`` envelope whose
from-device / to-device policies reference named ACLs under
``ietf-access-control-list:acls``. Supported matches: ipv4 protocol,
dns-name endpoints, ipv4 network literals, tcp/udp single ports, icmp
type/code, the ``controller`` (gateway) and ``local-networks`` node
abstractions, and eth ethertype (ARP / EAPOL). Each ACE's
``actions.forwarding`` must be ``accept`` (forward) or ``drop``/``reject``
(block).

An ACE names its ports from the device's side (remote and device port), not
by packet direction, so the from-device and to-device ACEs of one service
are equal: an ACE is its own pairing key. Translation emits one
bidirectional template pair per distinct ACE (an accept and a drop of one
service stay apart), plus a fixed baseline: EAPOL, DHCP, DNS (reply
mirrored), the two Internet default mirror rules, the ARP pair, and the
local default mirror rule. A drop or reject ACE for a service the baseline
covers turns the covering baseline rules into blocks: ARP ``h.1``/``h.2``,
EAPOL ``c`` and DNS with the gateway ``f.1``/``f.2``.
Flow-ids follow a deterministic convention: the baseline roles own the
reserved letters c/d/f/g/h/k, and ACE-derived pairs take the remaining
letters in order (Internet services first, then gateway services, then
local services). ``<letter>.1`` is the inbound direction for Internet,
gateway and ARP groups and the outbound direction for DHCP, DNS and local
groups.
A template is DNS-bound when its match names a domain (``src_domain`` or
``dst_domain``): the switch installs it once per IP a DNS answer gives for
that domain. Every other template is installed as it stands.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterator

from .errors import ParseError, SchemaError

ETH_IPV4 = 0x0800
ETH_ARP = 0x0806
ETH_EAPOL = 0x888E

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

BROADCAST_MAC = "ff:ff:ff:ff:ff:ff"

# Priority tiers. Reactive DNS-bound entries sit just above the Internet
# default mirrors; stage-3 microflows outrank everything MUD-derived.
PRIORITY_MICROFLOW = 30
PRIORITY_BLOCK = 31
PRIORITY_REACTIVE = 20
PRIORITY_NAMED_SERVICE = 11
PRIORITY_DEFAULT_INTERNET = 10
PRIORITY_ARP = 7
PRIORITY_PORT_EXPOSED = 6
PRIORITY_DEFAULT_LOCAL = 5

GATEWAY_CONTROLLER_URN = "urn:ietf:params:mud:gateway"

_RESERVED_LETTERS = frozenset("cdfghk")


class Scope(str, Enum):
    LOCAL = "local"
    INTERNET = "internet"


class EndpointKind(str, Enum):
    DOMAIN = "domain-name"
    IP_LITERAL = "ip-literal"
    GATEWAY = "gateway"
    ANY_LOCAL = "any-local"


class Direction(str, Enum):
    FROM_DEVICE = "from-device"
    TO_DEVICE = "to-device"


class Action(str, Enum):
    FORWARD = "forward"
    FORWARD_AND_MIRROR = "forward_and_mirror"
    BLOCK = "block"


class RuleRole(str, Enum):
    """What a rule is for; downstream logic keys on this, not on letters."""

    SERVICE = "service"
    EAPOL = "eapol"
    DHCP = "dhcp"
    DNS = "dns"
    ARP = "arp"
    DEFAULT_INTERNET = "default_internet"
    DEFAULT_LOCAL = "default_local"


@dataclass(frozen=True)
class Ace:
    """One access control entry, normalized from the profile JSON, with no
    direction: the from-device and to-device ACEs of one service are equal."""

    scope: Scope
    endpoint_kind: EndpointKind
    endpoint_value: str | None  # domain or CIDR/IP; None for gateway/any-local
    protocol: int | str  # 1/6/17, "arp" or "eapol"
    remote_port: int | None = None
    device_port: int | None = None
    icmp_type: int | None = None
    icmp_code: int | None = None
    action: Action = Action.FORWARD  # BLOCK for a drop or reject ACE


@dataclass(frozen=True)
class MudProfile:
    aces_from_device: tuple[Ace, ...]
    aces_to_device: tuple[Ace, ...]

    @property
    def aces(self) -> tuple[Ace, ...]:
        return self.aces_from_device + self.aces_to_device


@dataclass(frozen=True)
class MatchSpec:
    """Concrete match fields; None means wildcard.

    ``src_domain``/``dst_domain`` are unresolved placeholders carried only
    by DNS-bound templates; concrete entries always have them as None.
    """

    src_mac: str | None = None
    dst_mac: str | None = None
    eth_type: int | None = None
    src_ip: str | None = None
    dst_ip: str | None = None
    src_domain: str | None = None
    dst_domain: str | None = None
    proto: int | None = None
    src_port: int | None = None
    dst_port: int | None = None
    icmp_type: int | None = None
    icmp_code: int | None = None

    def matches(self, pkt) -> bool:
        """Whether a packet record satisfies every non-wildcard field."""
        if self.src_mac is not None and pkt.src_mac != self.src_mac:
            return False
        if self.dst_mac is not None and pkt.dst_mac != self.dst_mac:
            return False
        if self.eth_type is not None and pkt.eth_type != self.eth_type:
            return False
        if self.src_ip is not None and pkt.src_ip != self.src_ip:
            return False
        if self.dst_ip is not None and pkt.dst_ip != self.dst_ip:
            return False
        if self.proto is not None and pkt.proto != self.proto:
            return False
        if self.src_port is not None and pkt.src_port != self.src_port:
            return False
        if self.dst_port is not None and pkt.dst_port != self.dst_port:
            return False
        if self.icmp_type is not None and pkt.icmp_type != self.icmp_type:
            return False
        if self.icmp_code is not None and pkt.icmp_code != self.icmp_code:
            return False
        return True

    def wildcarded_headers(self) -> tuple[str, ...]:
        """IP/transport header fields left dynamic by this rule.

        Port fields only apply to TCP/UDP, type/code only to ICMP.
        """
        out = []
        if self.src_ip is None and self.src_domain is None:
            out.append("src_ip")
        if self.dst_ip is None and self.dst_domain is None:
            out.append("dst_ip")
        if self.proto in (PROTO_TCP, PROTO_UDP):
            if self.src_port is None:
                out.append("src_port")
            if self.dst_port is None:
                out.append("dst_port")
        elif self.proto == PROTO_ICMP:
            if self.icmp_type is None:
                out.append("icmp_type")
            if self.icmp_code is None:
                out.append("icmp_code")
        return tuple(out)


@dataclass(frozen=True)
class FlowRuleTemplate:
    flow_id: str
    match: MatchSpec
    priority: int
    action: Action
    role: RuleRole
    # Letter grouping shared by the two directions of a pair ("a" for a.1/a.2).
    group: str = ""
    scope: Scope | None = None


# ---------------------------------------------------------------------------
# Parsing


def _ace_error(index: int, direction: str, msg: str) -> SchemaError:
    return SchemaError(f"ACE #{index} ({direction}): {msg}")


def _member(node: dict, key: str, kind: type, where: str) -> Any:
    """``node[key]``, empty when absent; SchemaError if of another JSON type."""
    value = node.get(key, kind())
    if not isinstance(value, kind):
        raise SchemaError(f"{where}: {key!r} must be a {kind.__name__}")
    return value


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_port(node: Any, index: int, direction: str) -> int | None:
    if node is None:
        return None
    if isinstance(node, dict):
        op = node.get("operator", "eq")
        if op != "eq":
            raise _ace_error(index, direction, f"unsupported port operator {op!r}")
        port = node.get("port")
    else:
        port = node
    if not _is_int(port) or not 0 < port < 65536:
        raise _ace_error(index, direction, f"bad port value {port!r}")
    return port


# RFC 8519 forwarding actions; drop and reject both keep the traffic out.
_FORWARDING = {"accept": Action.FORWARD, "drop": Action.BLOCK, "reject": Action.BLOCK}


def _parse_one_ace(raw: Any, direction: Direction, index: int) -> Ace:
    dirname = direction.value
    where = f"ACE #{index} ({dirname})"
    matches = raw.get("matches") if isinstance(raw, dict) else None
    if not isinstance(matches, dict):
        raise _ace_error(index, dirname, "missing matches")

    ipv4 = _member(matches, "ipv4", dict, where)
    eth = _member(matches, "eth", dict, where)
    mud_nodes = _member(matches, "ietf-mud:mud", dict, where)

    protocol: int | str | None = None
    if "ethertype" in eth:
        ethertype = eth["ethertype"]
        if isinstance(ethertype, str):
            try:
                ethertype = int(ethertype, 16) if ethertype.startswith("0x") else int(ethertype)
            except ValueError:
                pass
        if not _is_int(ethertype):
            raise _ace_error(index, dirname, f"bad ethertype {eth['ethertype']!r}")
        if ethertype == ETH_ARP:
            protocol = "arp"
        elif ethertype == ETH_EAPOL:
            protocol = "eapol"
        else:
            raise _ace_error(index, dirname, f"unsupported ethertype {ethertype:#x}")
    elif "protocol" in ipv4:
        protocol = ipv4["protocol"]
        if not _is_int(protocol) or protocol not in (PROTO_ICMP, PROTO_TCP, PROTO_UDP):
            raise _ace_error(index, dirname, f"unsupported ip protocol {protocol!r}")
    elif "tcp" in matches:
        protocol = PROTO_TCP
    elif "udp" in matches:
        protocol = PROTO_UDP
    elif "icmp" in matches:
        protocol = PROTO_ICMP

    if protocol is None:
        raise _ace_error(index, dirname, "no protocol specified")

    src_port = dst_port = None
    for proto_key, proto_num in (("tcp", PROTO_TCP), ("udp", PROTO_UDP)):
        if proto_key not in matches:
            continue
        node = _member(matches, proto_key, dict, where)
        if protocol != proto_num:
            raise _ace_error(index, dirname, f"{proto_key} ports with protocol {protocol}")
        src_port = _parse_port(node.get("source-port"), index, dirname)
        dst_port = _parse_port(node.get("destination-port"), index, dirname)

    icmp_type = icmp_code = None
    if "icmp" in matches:
        icmp = _member(matches, "icmp", dict, where)
        if protocol != PROTO_ICMP:
            raise _ace_error(index, dirname, "icmp fields with non-icmp protocol")
        icmp_type = icmp.get("type")
        icmp_code = icmp.get("code")
        for value in (icmp_type, icmp_code):
            if value is not None and not (_is_int(value) and 0 <= value <= 255):
                raise _ace_error(index, dirname, f"bad icmp type/code {value!r}")

    forwarding = _member(raw, "actions", dict, where).get("forwarding")
    if not isinstance(forwarding, str) or forwarding not in _FORWARDING:
        raise _ace_error(index, dirname, f"unsupported forwarding action {forwarding!r}")

    # Endpoint + scope
    domain = ipv4.get("ietf-acldns:src-dnsname") or ipv4.get("ietf-acldns:dst-dnsname")
    network = ipv4.get("source-ipv4-network") or ipv4.get("destination-ipv4-network")
    controller = mud_nodes.get("controller")
    local_networks = "local-networks" in mud_nodes
    for value in (domain, network):
        if value is not None and not (isinstance(value, str) and value):
            raise _ace_error(index, dirname, f"bad endpoint {value!r}")

    if domain is not None:
        if local_networks:
            raise _ace_error(index, dirname, "domain endpoints are Internet scope only")
        endpoint = (Scope.INTERNET, EndpointKind.DOMAIN, domain)
    elif controller is not None:
        if controller != GATEWAY_CONTROLLER_URN:
            raise _ace_error(index, dirname, f"unsupported controller {controller!r}")
        endpoint = (Scope.LOCAL, EndpointKind.GATEWAY, None)
    elif network is not None:
        scope = Scope.LOCAL if local_networks else Scope.INTERNET
        endpoint = (scope, EndpointKind.IP_LITERAL, network.split("/")[0])
    elif local_networks or protocol in ("arp", "eapol"):
        endpoint = (Scope.LOCAL, EndpointKind.ANY_LOCAL, None)
    else:
        raise _ace_error(index, dirname,
                         "no endpoint (dnsname/controller/local-networks/network)")
    # (remote, device) ports: a to-device packet comes from the remote side.
    ports = (src_port, dst_port) if direction is Direction.TO_DEVICE else (dst_port, src_port)
    return Ace(*endpoint, protocol, *ports, icmp_type, icmp_code, _FORWARDING[forwarding])


def parse_profile(json_text: str) -> MudProfile:
    """Parse a MUD profile document.

    Raises ParseError for malformed JSON and SchemaError (naming the ACE
    index) for entries that violate the supported subset.
    """
    try:
        doc = json.loads(json_text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top-level document must be an object")

    mud = doc.get("ietf-mud:mud")
    if not isinstance(mud, dict):
        raise SchemaError("missing ietf-mud:mud envelope")

    acls: dict[str, list] = {}
    acl_root = _member(doc, "ietf-access-control-list:acls", dict, "document")
    for acl in _member(acl_root, "acl", list, "acls"):
        name = acl.get("name") if isinstance(acl, dict) else None
        if not name or not isinstance(name, str):
            raise SchemaError("ACL without a name")
        acls[name] = _member(_member(acl, "aces", dict, name), "ace", list, name)

    def collect(policy_key: str, direction: Direction) -> list[Ace]:
        out: list[Ace] = []
        policy = _member(mud, policy_key, dict, "ietf-mud:mud")
        refs = _member(_member(policy, "access-lists", dict, policy_key),
                       "access-list", list, policy_key)
        for ref in refs:
            acl_name = ref.get("name") if isinstance(ref, dict) else None
            if not isinstance(acl_name, str) or acl_name not in acls:
                raise SchemaError(f"{policy_key} references unknown ACL {acl_name!r}")
            for i, raw in enumerate(acls[acl_name]):
                out.append(_parse_one_ace(raw, direction, i))
        return out

    return MudProfile(
        aces_from_device=tuple(collect("from-device-policy", Direction.FROM_DEVICE)),
        aces_to_device=tuple(collect("to-device-policy", Direction.TO_DEVICE)),
    )


# ---------------------------------------------------------------------------
# Translation


def _baseline_role(ace: Ace) -> RuleRole | None:
    """The baseline role whose rules cover a service, if any."""
    if ace.protocol == "arp":
        return RuleRole.ARP
    if ace.protocol == "eapol":
        return RuleRole.EAPOL
    if (ace.endpoint_kind is EndpointKind.GATEWAY and ace.protocol == PROTO_UDP
            and ace.remote_port == 53):
        return RuleRole.DNS
    return None


def _pair_kind(ace: Ace) -> str | None:
    """The ``_PAIR_SHAPES`` entry a service takes; None if the baseline covers it."""
    if _baseline_role(ace) is not None:
        return None
    if ace.scope is Scope.INTERNET:
        return "domain" if ace.endpoint_kind is EndpointKind.DOMAIN else "ip"
    if ace.endpoint_kind is EndpointKind.GATEWAY:
        return "gateway"
    return "local"


# How each kind of service becomes a rule pair: priority, scope, whether the
# remote side is the gateway MAC (else any MAC), the remote address field
# ("domain" or "ip"; gateway services match the gateway IP), and whether
# <letter>.1 is the to-device direction.
_PAIR_SHAPES: dict[str, tuple[int, Scope, bool, str | None, bool]] = {
    "domain": (PRIORITY_REACTIVE, Scope.INTERNET, True, "domain", True),
    "ip": (PRIORITY_REACTIVE, Scope.INTERNET, True, "ip", True),
    "gateway": (PRIORITY_NAMED_SERVICE, Scope.LOCAL, True, "ip", True),
    "local": (PRIORITY_PORT_EXPOSED, Scope.LOCAL, False, None, False),
}


def _letter_sequence() -> Iterator[str]:
    for i in itertools.count():
        letter = chr(ord("a") + i % 26) + ("" if i < 26 else str(i // 26 + 1))
        if letter not in _RESERVED_LETTERS:
            yield letter


def translate(
    profile: MudProfile,
    device_mac: str,
    gateway_mac: str,
    gateway_ip: str,
) -> list[FlowRuleTemplate]:
    """Translate a profile into the full per-device rule template list.

    Output is deterministic for a given profile and addressing, and contains
    the service pairs derived from ACEs plus the always-on baseline (EAPOL,
    DHCP, DNS, Internet default mirrors, ARP, local default mirror).
    """
    device_mac = device_mac.lower()
    gateway_mac = gateway_mac.lower()
    if device_mac == gateway_mac:
        raise SchemaError("device and gateway MAC must differ")

    # Equal ACEs describe one service whichever direction lists them; keep
    # first-seen order.
    kinds = {ace: _pair_kind(ace) for ace in profile.aces}
    # A deny of a service the baseline covers blocks the covering rules.
    blocked = {_baseline_role(ace) for ace in kinds if ace.action is Action.BLOCK}

    rules: list[FlowRuleTemplate] = []
    letters = _letter_sequence()

    def emit(flow_id: str, match: MatchSpec, priority: int, action: Action,
             role: RuleRole, scope: Scope | None) -> None:
        if role in blocked:
            action = Action.BLOCK
        rules.append(FlowRuleTemplate(flow_id, match, priority, action, role,
                                      flow_id.split(".")[0], scope))

    def emit_services(*wanted: str) -> None:
        for ace, kind in kinds.items():
            if kind not in wanted:
                continue
            priority, scope, via_gateway, address, inbound_first = _PAIR_SHAPES[kind]
            letter = next(letters)
            remote_mac = gateway_mac if via_gateway else None
            value = gateway_ip if kind == "gateway" else ace.endpoint_value
            src_addr = {f"src_{address}": value} if address else {}
            dst_addr = {f"dst_{address}": value} if address else {}
            common = dict(eth_type=ETH_IPV4, proto=ace.protocol,
                          icmp_type=ace.icmp_type, icmp_code=ace.icmp_code)
            inbound = MatchSpec(src_mac=remote_mac, dst_mac=device_mac, **src_addr,
                                src_port=ace.remote_port, dst_port=ace.device_port, **common)
            outbound = MatchSpec(src_mac=device_mac, dst_mac=remote_mac, **dst_addr,
                                 src_port=ace.device_port, dst_port=ace.remote_port, **common)
            pair = (inbound, outbound) if inbound_first else (outbound, inbound)
            for n, match in enumerate(pair, 1):
                emit(f"{letter}.{n}", match, priority, ace.action, RuleRole.SERVICE, scope)

    emit_services("domain", "ip")

    # EAPOL (c) and DHCP (d) always present: device discovery and the binding
    # table depend on them.
    emit("c", MatchSpec(src_mac=device_mac, eth_type=ETH_EAPOL),
         PRIORITY_NAMED_SERVICE, Action.FORWARD, RuleRole.EAPOL, Scope.LOCAL)
    emit("d.1", MatchSpec(src_mac=device_mac, dst_mac=BROADCAST_MAC,
                          eth_type=ETH_IPV4, proto=PROTO_UDP, dst_port=67),
         PRIORITY_NAMED_SERVICE, Action.FORWARD, RuleRole.DHCP, Scope.LOCAL)
    emit("d.2", MatchSpec(src_mac=gateway_mac, dst_mac=device_mac,
                          eth_type=ETH_IPV4, proto=PROTO_UDP, src_port=67),
         PRIORITY_NAMED_SERVICE, Action.FORWARD, RuleRole.DHCP, Scope.LOCAL)

    emit_services("gateway")

    # DNS with the local gateway: replies are mirrored to drive reactive
    # bindings, so the pair exists whether or not the profile lists it.
    emit("f.1", MatchSpec(src_mac=device_mac, dst_mac=gateway_mac,
                          eth_type=ETH_IPV4, dst_ip=gateway_ip,
                          proto=PROTO_UDP, dst_port=53),
         PRIORITY_NAMED_SERVICE, Action.FORWARD, RuleRole.DNS, Scope.LOCAL)
    emit("f.2", MatchSpec(src_mac=gateway_mac, dst_mac=device_mac,
                          eth_type=ETH_IPV4, src_ip=gateway_ip,
                          proto=PROTO_UDP, src_port=53),
         PRIORITY_NAMED_SERVICE, Action.FORWARD_AND_MIRROR, RuleRole.DNS, Scope.LOCAL)

    emit("g.1", MatchSpec(src_mac=device_mac, dst_mac=gateway_mac, eth_type=ETH_IPV4),
         PRIORITY_DEFAULT_INTERNET, Action.FORWARD_AND_MIRROR, RuleRole.DEFAULT_INTERNET, None)
    emit("g.2", MatchSpec(src_mac=gateway_mac, dst_mac=device_mac, eth_type=ETH_IPV4),
         PRIORITY_DEFAULT_INTERNET, Action.FORWARD_AND_MIRROR, RuleRole.DEFAULT_INTERNET, None)

    emit("h.1", MatchSpec(dst_mac=device_mac, eth_type=ETH_ARP),
         PRIORITY_ARP, Action.FORWARD, RuleRole.ARP, Scope.LOCAL)
    emit("h.2", MatchSpec(src_mac=device_mac, eth_type=ETH_ARP),
         PRIORITY_ARP, Action.FORWARD, RuleRole.ARP, Scope.LOCAL)

    emit_services("local")

    # Local default: only the to-device direction, mirrored.
    emit("k", MatchSpec(dst_mac=device_mac, eth_type=ETH_IPV4),
         PRIORITY_DEFAULT_LOCAL, Action.FORWARD_AND_MIRROR, RuleRole.DEFAULT_LOCAL, None)

    return rules


def feature_rules(rules: list[FlowRuleTemplate]) -> list[FlowRuleTemplate]:
    """Rules monitored by anomaly workers: everything except the defaults."""
    return [r for r in rules
            if r.role not in (RuleRole.DEFAULT_INTERNET, RuleRole.DEFAULT_LOCAL)]


def service_groups(rules: list[FlowRuleTemplate]) -> dict[str, list[FlowRuleTemplate]]:
    """Feature-bearing rules grouped by letter, insertion order preserved."""
    groups: dict[str, list[FlowRuleTemplate]] = {}
    for rule in feature_rules(rules):
        groups.setdefault(rule.group, []).append(rule)
    return groups

