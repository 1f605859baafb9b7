"""Cluster network topology and routing.

Endpoints and switches are joined into one graph (kept as a networkx
graph for inspection) so the transfer model can resolve paths
(endpoint → switch → ... → endpoint) and find the bottleneck bandwidth
and accumulated forwarding latency along them.  The testbed topology is
a single switch, but the TCO analysis reasons about multi-switch
fabrics (989 SBCs across 21 ToR switches), so paths through multiple
switches are supported via inter-switch trunk edges.

Routing does not search the graph per request.  The first request from
a source switch runs one breadth-first search over the switch skeleton
and keeps the result as a route table (parent, bottleneck trunk, depth
and cumulative forwarding latency of every reachable switch); each later
path or property lookup from that switch is read off the table.  Every
fabric the repo builds is a tree, so the table's path is *the* path; on
a cyclic skeleton it is one shortest path.  Tables are dropped with the
path memos on any topology mutation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.net.link import Endpoint, Link
from repro.net.switch import Switch

#: Switch name -> ``(parent, bottleneck_bps, depth, latency_s)`` as seen
#: from one source switch; the source itself has parent ``None``.
RouteTable = Dict[str, Tuple[Optional[str], float, int, float]]

#: ``(bottleneck_bps, switch_latency_s, links, switches, path)``; see
#: :meth:`NetworkTopology.path_elements`.
PathElements = Tuple[float, float, List[Link], List[Switch], List[str]]


class NetworkTopology:
    """Endpoints and switches joined into one resolvable graph."""

    def __init__(self):
        self.graph = nx.Graph()
        self.endpoints: Dict[str, Endpoint] = {}
        self.switches: Dict[str, Switch] = {}
        self.links: Dict[str, Link] = {}
        # Switch-only skeleton of the fabric.  Endpoints always have
        # degree 1 (attached to exactly one switch), so every path is
        # "src, src's switch, ..switches.., dst's switch, dst" and the
        # search only ever needs to run over this skeleton — a BFS over
        # tens of switches instead of thousands of endpoint nodes.
        self._switch_graph = nx.Graph()
        self._endpoint_switch: Dict[str, str] = {}
        # Endpoint -> link bandwidth, fixed at attach time.
        self._endpoint_bandwidth: Dict[str, float] = {}
        # Resolved-path memo, flushed on any topology mutation.  Edge
        # bandwidths and switch forwarding latencies are fixed at attach
        # time, so cached entries stay valid until the graph changes.
        self._path_cache: Dict[Tuple[str, str], List[str]] = {}
        self._props_cache: Dict[Tuple[str, str], Tuple[float, float, int]] = {}
        self._elements_cache: Dict[Tuple[str, str], PathElements] = {}
        # Route tables keyed by (source switch, source is an endpoint
        # behind it); see _route_table.
        self._route_tables: Dict[Tuple[str, bool], RouteTable] = {}

    def _invalidate_paths(self) -> None:
        self._path_cache.clear()
        self._props_cache.clear()
        self._elements_cache.clear()
        self._route_tables.clear()

    def add_switch(self, switch: Switch) -> None:
        if switch.name in self.switches:
            raise ValueError(f"duplicate switch name {switch.name!r}")
        self.switches[switch.name] = switch
        self.graph.add_node(switch.name, kind="switch")
        self._switch_graph.add_node(switch.name)
        self._invalidate_paths()

    def attach_endpoint(self, endpoint: Endpoint, switch_name: str) -> Link:
        """Attach ``endpoint`` to the named switch."""
        if endpoint.name in self.endpoints:
            raise ValueError(f"duplicate endpoint name {endpoint.name!r}")
        switch = self.switches[switch_name]
        link = switch.attach(endpoint)
        self.endpoints[endpoint.name] = endpoint
        self.links[endpoint.name] = link
        bandwidth = link.effective_bandwidth_bps
        self.graph.add_node(endpoint.name, kind="endpoint")
        self.graph.add_edge(
            endpoint.name, switch_name, bandwidth_bps=bandwidth
        )
        self._endpoint_switch[endpoint.name] = switch_name
        self._endpoint_bandwidth[endpoint.name] = bandwidth
        self._invalidate_paths()
        return link

    def attach_endpoints(
        self, endpoints: List[Endpoint], switch_name: str
    ) -> List[Link]:
        """Attach many endpoints to one switch in a single operation.

        Equivalent to calling :meth:`attach_endpoint` once per endpoint
        in order — same port accounting, same graph node and edge
        insertion order — but with the dup checks hoisted, the graph
        populated through networkx's bulk adders, and one cache flush
        instead of one per endpoint.  Blueprint-driven builds attach a
        whole switch span at a time through this path.
        """
        endpoints = list(endpoints)
        switch = self.switches[switch_name]
        links: List[Link] = []
        for endpoint in endpoints:
            if endpoint.name in self.endpoints:
                raise ValueError(
                    f"duplicate endpoint name {endpoint.name!r}"
                )
            link = switch.attach(endpoint)
            self.endpoints[endpoint.name] = endpoint
            self.links[endpoint.name] = link
            self._endpoint_switch[endpoint.name] = switch_name
            self._endpoint_bandwidth[endpoint.name] = (
                link.effective_bandwidth_bps
            )
            links.append(link)
        self.graph.add_nodes_from(
            (endpoint.name, {"kind": "endpoint"}) for endpoint in endpoints
        )
        self.graph.add_edges_from(
            (
                endpoint.name,
                switch_name,
                {"bandwidth_bps": self._endpoint_bandwidth[endpoint.name]},
            )
            for endpoint in endpoints
        )
        self._invalidate_paths()
        return links

    def connect_switches(
        self,
        a: str,
        b: str,
        trunk_bandwidth_bps: float = 1e9,
    ) -> None:
        """Join two switches with a trunk link."""
        if a not in self.switches or b not in self.switches:
            raise KeyError(f"both {a!r} and {b!r} must be switches")
        self.switches[a].reserve_trunk(b)
        self.switches[b].reserve_trunk(a)
        self.graph.add_edge(a, b, bandwidth_bps=trunk_bandwidth_bps)
        self._switch_graph.add_edge(a, b, bandwidth_bps=trunk_bandwidth_bps)
        self._invalidate_paths()

    def path(self, src: str, dst: str) -> List[str]:
        """Shortest node path from ``src`` to ``dst`` (memoized).

        Cache misses are read off the source switch's route table: the
        switch spine follows parent pointers from the destination's
        switch back to the source's, and the endpoints are spliced on.
        """
        cached = self._path_cache.get((src, dst))
        if cached is None:
            cached = self._resolve_path(src, dst)
            self._path_cache[(src, dst)] = cached
            self._path_cache[(dst, src)] = cached[::-1]
        return cached

    def _resolve_path(self, src: str, dst: str) -> List[str]:
        route = self._route(src, dst)
        if route is None:
            return [src]
        table, dst_switch = route
        nodes = [dst] if dst in self._endpoint_switch else []
        node: Optional[str] = dst_switch
        while node is not None:
            nodes.append(node)
            node = table[node][0]
        if src in self._endpoint_switch:
            nodes.append(src)
        nodes.reverse()
        return nodes

    def path_properties(self, src: str, dst: str) -> Tuple[float, float, int]:
        """Resolve (bottleneck_bps, switch_latency_s, hop_count) for a path.

        ``switch_latency_s`` is the summed store-and-forward latency of
        every switch traversed.  Memoized: the graph is undirected, so
        the same tuple serves both directions.
        """
        props = self._props_cache.get((src, dst))
        if props is not None:
            return props
        props = self._resolve_properties(src, dst)
        self._props_cache[(src, dst)] = props
        self._props_cache[(dst, src)] = props
        return props

    def path_elements(self, src: str, dst: str) -> PathElements:
        """Everything fault-aware pricing reads of the path from ``src``
        to ``dst``, in one memoized lookup: the bottleneck and switch
        latency of :meth:`path_properties`, the links of the terminals
        that are endpoints (``src``'s first), the switches between the
        terminals, and :meth:`path` itself."""
        elements = self._elements_cache.get((src, dst))
        if elements is None:
            bottleneck, switch_latency, _hops = self.path_properties(
                src, dst
            )
            path = self.path(src, dst)
            links = self.links
            switches = self.switches
            elements = (
                bottleneck,
                switch_latency,
                [links[name] for name in (src, dst) if name in links],
                [switches[node] for node in path[1:-1]],
                path,
            )
            self._elements_cache[(src, dst)] = elements
        return elements

    def _resolve_properties(
        self, src: str, dst: str
    ) -> Tuple[float, float, int]:
        route = self._route(src, dst)
        if route is None:
            return (float("inf"), 0.0, 0)
        table, dst_switch = route
        parent, bottleneck, hops, latency = table[dst_switch]
        bandwidth = self._endpoint_bandwidth
        if src in bandwidth:
            bottleneck = min(bandwidth[src], bottleneck)
            hops += 1
        if dst in bandwidth:
            bottleneck = min(bottleneck, bandwidth[dst])
            hops += 1
        else:
            # A switch terminal is an end of the path, not a hop through
            # it: stop the latency sum at its parent.
            latency = 0.0 if parent is None else table[parent][3]
        return (bottleneck, latency, hops)

    def _route(self, src: str, dst: str) -> Optional[Tuple[RouteTable, str]]:
        """``(route table of src's switch, dst's switch)``, or ``None`` if
        ``src == dst``.

        Raises the errors ``nx.shortest_path`` would: ``NodeNotFound``
        for an unknown terminal, ``NetworkXNoPath`` for an unreachable
        one.
        """
        src_switch = self._endpoint_switch.get(src, src)
        dst_switch = self._endpoint_switch.get(dst, dst)
        if src_switch not in self.switches:
            raise nx.NodeNotFound(f"Source {src} is not in G")
        if dst_switch not in self.switches:
            raise nx.NodeNotFound(f"Target {dst} is not in G")
        if src == dst:
            return None
        table = self._route_table(src_switch, src != src_switch)
        if dst_switch not in table:
            raise nx.NetworkXNoPath(
                f"No path between {src_switch} and {dst_switch}."
            )
        return table, dst_switch

    def _route_table(self, root: str, count_root: bool) -> RouteTable:
        """Route table from switch ``root`` (memoized)."""
        key = (root, count_root)
        table = self._route_tables.get(key)
        if table is None:
            table = self._build_route_table(root, count_root)
            self._route_tables[key] = table
        return table

    def _build_route_table(self, root: str, count_root: bool) -> RouteTable:
        """One breadth-first search over the switch skeleton from ``root``.

        Maps every reachable switch to ``(parent, bottleneck_bps, depth,
        latency_s)``: the bottleneck is the slowest trunk on the way
        from ``root``, and the latency sums forwarding latencies from
        ``root`` outward — including ``root``'s own when the source is
        an endpoint behind it (``count_root``), excluding it when the
        source is ``root`` itself — in the order a per-hop walk adds
        them, so the floats match one bit for bit.
        """
        switches = self.switches
        latency = 0.0
        if count_root:
            latency += switches[root].forwarding_latency_s
        table = {root: (None, float("inf"), 0, latency)}
        adjacency = self._switch_graph.adj
        queue = [root]
        # ``queue`` grows while it is iterated: a FIFO without popping.
        for node in queue:
            _parent, bottleneck, depth, latency = table[node]
            for peer, trunk in adjacency[node].items():
                if peer not in table:
                    table[peer] = (
                        node,
                        min(bottleneck, trunk["bandwidth_bps"]),
                        depth + 1,
                        latency + switches[peer].forwarding_latency_s,
                    )
                    queue.append(peer)
        return table

    def endpoint(self, name: str) -> Endpoint:
        return self.endpoints[name]

    def __contains__(self, name: str) -> bool:
        return name in self.graph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NetworkTopology endpoints={len(self.endpoints)} "
            f"switches={len(self.switches)}>"
        )


__all__ = ["NetworkTopology"]
