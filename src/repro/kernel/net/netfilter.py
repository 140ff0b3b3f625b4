"""Netfilter: rule chains evaluated on the packet paths.

Protego's raw-socket design (paper, sections 2 and 4.1.1): any user
may create a raw or packet socket, but outgoing packets from
*unprivileged* raw sockets traverse additional netfilter rules that
whitelist safe packet shapes (ICMP echo, traceroute probes, ARP) and
drop anything that could spoof another process's TCP/UDP socket.

The ``applies_to_unprivileged_raw_only`` flag models the paper's
"modest extensions to the Linux netfilter framework" (the 100-line
netfilter component of Table 2): stock netfilter cannot scope a rule
to packets from capability-less raw sockets.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterable, List, Optional

from repro.kernel.net.packets import HeaderOrigin, ICMPType, Packet, Protocol
from repro.kernel.net.socket import Socket
from repro.kernel.pathindex import BoundedTable


class Verdict(str, enum.Enum):
    ACCEPT = "accept"
    DROP = "drop"


class Chain(str, enum.Enum):
    OUTPUT = "OUTPUT"
    INPUT = "INPUT"
    # Protego's unprivileged-raw default rules live in their own
    # chain, consulted only when no administrator OUTPUT rule matched —
    # so "the rules may be changed by the administrator through the
    # iptables utility" (section 4.1.1) without fighting rule order.
    PROTEGO_RAW = "PROTEGO_RAW"


@dataclasses.dataclass
class Rule:
    """One netfilter rule. ``None`` fields match anything."""

    verdict: Verdict
    chain: Chain = Chain.OUTPUT
    protocol: Optional[Protocol] = None
    icmp_types: Optional[frozenset] = None
    dst_port: Optional[int] = None
    dst_ports: Optional[frozenset] = None
    owner_uid: Optional[int] = None
    header_origin: Optional[HeaderOrigin] = None
    spoofed_transport: Optional[bool] = None
    applies_to_unprivileged_raw_only: bool = False
    comment: str = ""

    def matches(self, packet: Packet, socket: Optional[Socket]) -> bool:
        if self.applies_to_unprivileged_raw_only:
            if socket is None or not socket.unprivileged_raw:
                return False
        if self.protocol is not None and packet.protocol != self.protocol:
            return False
        if self.icmp_types is not None and packet.icmp_type not in self.icmp_types:
            return False
        if self.dst_port is not None and packet.dst_port != self.dst_port:
            return False
        if self.dst_ports is not None and packet.dst_port not in self.dst_ports:
            return False
        if self.owner_uid is not None and packet.sender_uid != self.owner_uid:
            return False
        if self.header_origin is not None and packet.header_origin != self.header_origin:
            return False
        if self.spoofed_transport is not None and packet.is_spoofed_transport() != self.spoofed_transport:
            return False
        return True


class _PolicyMap(dict):
    """Per-chain default verdicts. Assigning a policy is a rule-set
    change like any other, so it runs the flow-cache invalidation."""

    def __init__(self, table: "NetfilterTable", *args):
        super().__init__(*args)
        self._table = table

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self._table.invalidate_flows()


class NetfilterTable:
    """Ordered rule lists per chain, with per-chain default policy.

    A **flow cache** (modelled on Linux flowtables) memoizes the first
    full chain traversal for a flow: the key captures every packet and
    socket attribute a :class:`Rule` can match on — protocol, ICMP
    type, the 5-tuple, sender uid, header origin, the spoofed-
    transport predicate, and the socket's identity (id + the
    unprivileged-raw mark) — so two packets with equal keys are
    indistinguishable to *any* rule and the cached verdict is exact.
    Every ``append``/``insert``/``extend``/``flush`` and every policy
    assignment bumps the generation and empties the cache, so a rule
    change can never be masked by a stale verdict. Rule objects must
    not be mutated in place after insertion — route changes through
    these methods.

    The cache decides the *verdict only*. Injected wire faults
    (drop/dup/reorder) act on the send path strictly after
    ``evaluate`` returns, cached or not.
    """

    FLOW_CACHE_SIZE = 4096

    def __init__(self):
        self._chains = {chain: [] for chain in Chain}
        self.generation = 0
        self.flow_cache_enabled = True
        #: flow key -> (verdict, matched-a-rule)
        self._flows = BoundedTable(self.FLOW_CACHE_SIZE)
        self.stats = {"evaluated": 0, "dropped": 0, "accepted": 0,
                      "flow_hits": 0, "flow_misses": 0,
                      "flow_invalidations": 0}
        self.policy = _PolicyMap(self, {chain: Verdict.ACCEPT for chain in Chain})

    def append(self, rule: Rule) -> None:
        self._chains[rule.chain].append(rule)
        self.invalidate_flows()

    def insert(self, rule: Rule, index: int = 0) -> None:
        """Insert at *index* (iptables -I semantics: default head)."""
        self._chains[rule.chain].insert(index, rule)
        self.invalidate_flows()

    def extend(self, rules: Iterable[Rule]) -> None:
        for rule in rules:
            self._chains[rule.chain].append(rule)
        self.invalidate_flows()

    def flush(self, chain: Optional[Chain] = None) -> None:
        chains = [chain] if chain else list(Chain)
        for c in chains:
            self._chains[c].clear()
        self.invalidate_flows()

    def rules(self, chain: Chain = Chain.OUTPUT) -> List[Rule]:
        return list(self._chains[chain])

    # ------------------------------------------------------------------
    # The flow cache
    # ------------------------------------------------------------------
    def invalidate_flows(self) -> None:
        """A rule or policy changed: orphan every memoized verdict."""
        self.generation += 1
        self._flows.clear()
        self.stats["flow_invalidations"] += 1

    @staticmethod
    def _flow_key(chain: Chain, packet: Packet,
                  socket: Optional[Socket]) -> tuple:
        return (
            chain, packet.protocol, packet.icmp_type,
            packet.src_ip, packet.dst_ip, packet.src_port, packet.dst_port,
            packet.sender_uid, packet.header_origin,
            packet.is_spoofed_transport(),
            None if socket is None else (socket.sock_id, socket.unprivileged_raw),
        )

    def flow_cache_len(self) -> int:
        return len(self._flows)

    def render(self) -> str:
        """The flow-cache block of /proc/protego/policy."""
        s = self.stats
        lookups = s["flow_hits"] + s["flow_misses"]
        hit_rate = s["flow_hits"] / lookups if lookups else 0.0
        rule_count = sum(len(rules) for rules in self._chains.values())
        return (
            f"entries={len(self._flows)} generation={self.generation} "
            f"rules={rule_count} enabled={int(self.flow_cache_enabled)}\n"
            f"hits={s['flow_hits']} misses={s['flow_misses']} "
            f"invalidations={s['flow_invalidations']} hit_rate={hit_rate:.3f}\n"
            f"evaluated={s['evaluated']} accepted={s['accepted']} "
            f"dropped={s['dropped']}\n"
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate_detailed(self, chain: Chain, packet: Packet,
                          socket: Optional[Socket] = None):
        """Flow-cache probe, else walk the chain (first matching rule
        wins, falling back to the chain policy) and memoize. Returns
        (verdict, matched-a-rule); the accepted/dropped tallies count
        every packet, hit or miss."""
        self.stats["evaluated"] += 1
        key = None
        if self.flow_cache_enabled:
            key = self._flow_key(chain, packet, socket)
            entry = self._flows.get(key)
            if entry is not None:
                self.stats["flow_hits"] += 1
                return self._tally(entry[0]), entry[1]
            self.stats["flow_misses"] += 1
        verdict, matched = self.policy[chain], False
        for rule in self._chains[chain]:
            if rule.matches(packet, socket):
                verdict, matched = rule.verdict, True
                break
        if key is not None:
            self._flows.put(key, (verdict, matched))
        return self._tally(verdict), matched

    def _tally(self, verdict: Verdict) -> Verdict:
        if verdict is Verdict.DROP:
            self.stats["dropped"] += 1
        else:
            self.stats["accepted"] += 1
        return verdict

    def evaluate(self, chain: Chain, packet: Packet,
                 socket: Optional[Socket] = None) -> Verdict:
        verdict, _matched = self.evaluate_detailed(chain, packet, socket)
        return verdict


def default_protego_output_rules() -> List[Rule]:
    """The default policy mined from the studied setuid binaries.

    Unprivileged raw sockets may emit: ICMP echo requests/replies and
    traceroute-style probes (ICMP with any TTL), and ARP requests
    (arping). Everything else from an unprivileged raw socket — in
    particular user-crafted TCP/UDP segments — is dropped.
    """
    safe_icmp = frozenset(
        {ICMPType.ECHO_REQUEST, ICMPType.ECHO_REPLY, ICMPType.TIME_EXCEEDED,
         ICMPType.DEST_UNREACHABLE}
    )
    return [
        Rule(
            Verdict.ACCEPT,
            protocol=Protocol.ICMP,
            icmp_types=safe_icmp,
            applies_to_unprivileged_raw_only=True,
            comment="safe ICMP from unprivileged raw sockets (ping/traceroute/mtr)",
        ),
        Rule(
            Verdict.ACCEPT,
            protocol=Protocol.ARP,
            applies_to_unprivileged_raw_only=True,
            comment="ARP probes (arping)",
        ),
        Rule(
            Verdict.DROP,
            applies_to_unprivileged_raw_only=True,
            comment="default-deny unprivileged raw socket traffic",
        ),
    ]
