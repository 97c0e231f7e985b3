"""Network topology: which devices can reach which, over what links.

The home network is a graph (networkx) whose nodes are device names and
whose edges carry :class:`~repro.net.link.Link` objects. The common case is
a star around a Wi-Fi access point — created with :meth:`Topology.add_wifi`
— where all attached devices contend for one shared radio medium, exactly
the condition under which the paper's baseline (which ships frames back and
forth) loses to co-located modules.

Message delivery walks the shortest path hop by hop, so a two-hop
phone→AP→desktop transfer pays airtime twice on the shared medium, as a real
Wi-Fi frame relay does. Resolved routes are kept in a table that every
method able to change the graph or the partition set empties; delays are
never kept, so a link's current state is priced on every query.
"""

from __future__ import annotations

import networkx as nx

from ..errors import LinkDown, NetworkError
from ..sim.kernel import Kernel
from ..sim.resources import Resource
from ..sim.rng import RngStreams, ScopedRng
from ..sim.signals import Signal
from .link import LOOPBACK, WAN_METRO, Link, LinkSpec


class Topology:
    """The device connectivity graph plus per-edge links."""

    def __init__(self, kernel: Kernel, rng: RngStreams | ScopedRng | None = None) -> None:
        self.kernel = kernel
        self.rng = rng if rng is not None else RngStreams(seed=0)
        self.graph = nx.Graph()
        self._loopbacks: dict[str, Link] = {}
        self._shared_media: dict[str, Resource] = {}
        self._down: set[str] = set()
        self._partitioned: set[str] = set()
        #: (src, dst) -> links of the resolved route; emptied by every edit.
        self._routes: dict[tuple[str, str], tuple[Link, ...]] = {}
        #: Metered WAN uplinks, keyed by the cloud device behind each.
        self._wan_links: dict[str, Link] = {}

    # -- construction --------------------------------------------------------
    def add_device(self, name: str) -> None:
        """Register a device node (idempotent)."""
        self.graph.add_node(name, kind="device")
        self._routes.clear()

    def add_wifi(self, name: str = "wifi", spec: LinkSpec | None = None) -> None:
        """Create a Wi-Fi access point with a single shared airtime medium."""
        if name in self._shared_media:
            raise NetworkError(f"wifi network {name!r} already exists")
        self.graph.add_node(name, kind="ap", spec=spec or LinkSpec())
        self._shared_media[name] = Resource(self.kernel, 1, f"{name}.medium")
        self._routes.clear()

    def attach(self, device: str, ap: str, spec: LinkSpec | None = None) -> None:
        """Attach *device* to access point *ap*, sharing the AP's medium."""
        medium = self._shared_media.get(ap)
        if medium is None:
            raise NetworkError(f"unknown wifi network {ap!r}")
        self.add_device(device)
        link_spec = spec or self.graph.nodes[ap]["spec"]
        link = Link(
            self.kernel,
            link_spec,
            self.rng.stream(f"link/{device}-{ap}"),
            name=f"{device}<->{ap}",
            medium=medium,
        )
        self.graph.add_edge(device, ap, link=link)
        self._routes.clear()

    def add_cloud(
        self,
        name: str = "cloud",
        spec: LinkSpec | None = None,
        ap: str | None = None,
    ) -> Link:
        """Attach a cloud-tier device behind the access point *ap* (default:
        the home's only AP) over a dedicated, metered WAN uplink.

        The cloud node is a regular device — services deploy to it and the
        shortest path from any home device crosses the AP and then the WAN
        link — but every byte on the WAN link counts toward
        :meth:`wan_egress_bytes`, which is what the fleet cost model bills
        as cloud egress. The uplink has its own medium (the last mile is
        not the home radio), so cloud traffic only contends for Wi-Fi
        airtime on its in-home hop.
        """
        if name in self._wan_links or name in self.graph:
            raise NetworkError(f"device {name!r} already attached")
        if ap is None:
            if not self._shared_media:
                raise NetworkError("add an access point before add_cloud()")
            ap = next(iter(self._shared_media))
        elif ap not in self._shared_media:
            raise NetworkError(f"unknown wifi network {ap!r}")
        self.add_device(name)
        link = Link(
            self.kernel,
            spec or WAN_METRO,
            self.rng.stream(f"wan/{name}"),
            name=f"{ap}<->{name}",
        )
        self.graph.add_edge(ap, name, link=link)
        self._routes.clear()
        self._wan_links[name] = link
        return link

    def is_cloud(self, name: str) -> bool:
        """True when *name* is a device attached via :meth:`add_cloud`."""
        return name in self._wan_links

    def cloud_devices(self) -> list[str]:
        """Cloud-tier devices, in attachment order."""
        return list(self._wan_links)

    def wan_egress_bytes(self) -> int:
        """Total bytes that crossed any metered WAN uplink (both
        directions — requests out of the home and replies back in)."""
        return sum(link.bytes_sent for link in self._wan_links.values())

    def add_wired(self, a: str, b: str, spec: LinkSpec | None = None) -> None:
        """Connect two devices with a dedicated point-to-point link."""
        self.add_device(a)
        self.add_device(b)
        link = Link(
            self.kernel,
            spec or LinkSpec(),
            self.rng.stream(f"link/{a}-{b}"),
            name=f"{a}<->{b}",
        )
        self.graph.add_edge(a, b, link=link)
        self._routes.clear()

    # -- failure surface --------------------------------------------------------
    def set_device_up(self, name: str, up: bool = True) -> None:
        """Mark a device as powered on/off. A down device neither sends nor
        receives; the :class:`~repro.net.transport.Transport` consults this
        flag at both ends of every delivery."""
        if name not in self.graph:
            raise NetworkError(f"unknown device {name!r}")
        if up:
            self._down.discard(name)
        else:
            self._down.add(name)

    def device_is_up(self, name: str) -> bool:
        return name not in self._down

    def partition(self, name: str) -> None:
        """Cut *name* off from the network (device stays up — the classic
        'fell off Wi-Fi' fault). Loopback traffic is unaffected."""
        if name not in self.graph:
            raise NetworkError(f"unknown node {name!r}")
        self._partitioned.add(name)
        self._routes.clear()

    def heal(self, name: str) -> None:
        """Undo :meth:`partition` (idempotent)."""
        self._partitioned.discard(name)
        self._routes.clear()

    def is_partitioned(self, name: str) -> bool:
        return name in self._partitioned

    def incident_links(self, name: str) -> list[Link]:
        """Every link touching *name* (for latency-spike fault injection)."""
        if name not in self.graph:
            raise NetworkError(f"unknown node {name!r}")
        return [
            self.graph.edges[name, nbr]["link"]
            for nbr in self.graph.neighbors(name)
        ]

    # -- queries ---------------------------------------------------------------
    def has_device(self, name: str) -> bool:
        return name in self.graph and self.graph.nodes[name].get("kind") == "device"

    def devices(self) -> list[str]:
        return [n for n, d in self.graph.nodes(data=True) if d.get("kind") == "device"]

    def loopback(self, device: str) -> Link:
        """The in-process 'link' used for same-device delivery."""
        link = self._loopbacks.get(device)
        if link is None:
            link = Link(
                self.kernel,
                LOOPBACK,
                self.rng.stream(f"loopback/{device}"),
                name=f"{device}.loopback",
            )
            self._loopbacks[device] = link
        return link

    def path_links(self, src: str, dst: str) -> list[Link]:
        """Links along the shortest path from *src* to *dst*.

        Same-device traffic returns the loopback link. Raises
        :class:`~repro.errors.LinkDown` when no path exists. The shortest
        path is searched once per pair and kept until the next edit; the
        caller gets its own list.
        """
        if src == dst:
            return [self.loopback(src)]
        route = self._routes.get((src, dst))
        if route is None:
            route = self._routes[src, dst] = self._resolve(src, dst)
        return list(route)

    def _resolve(self, src: str, dst: str) -> tuple[Link, ...]:
        if src not in self.graph or dst not in self.graph:
            raise LinkDown(f"unknown device in route {src!r} -> {dst!r}")
        for endpoint in (src, dst):
            if endpoint in self._partitioned:
                raise LinkDown(f"{endpoint!r} is partitioned from the network")
        graph = self.graph
        if self._partitioned:
            graph = nx.subgraph_view(
                self.graph, filter_node=lambda n: n not in self._partitioned
            )
        try:
            path = nx.shortest_path(graph, src, dst)
        except nx.NetworkXNoPath as exc:
            raise LinkDown(f"no route from {src!r} to {dst!r}") from exc
        return tuple(
            self.graph.edges[a, b]["link"] for a, b in zip(path[:-1], path[1:])
        )

    def expected_delay(self, src: str, dst: str, nbytes: int) -> float:
        """Uncontended expected transfer time along the route (planning)."""
        return sum(link.expected_delay(nbytes) for link in self.path_links(src, dst))

    # -- transfer ---------------------------------------------------------------
    def transfer(self, src: str, dst: str, nbytes: int) -> Signal:
        """Move *nbytes* from *src* to *dst* hop by hop.

        Returns a signal resolving with the arrival time — the relay's own
        ``Process.done``, resolved in the last hop's last event; it fails if
        the relay dies. The route is resolved eagerly so routing errors
        raise at call time.
        """
        links = self.path_links(src, dst)
        return self.kernel.process(self._relay(links, nbytes), name="relay").done

    def _relay(self, links: list[Link], nbytes: int):
        for link in links:
            yield link.transfer(nbytes)
        return self.kernel.now
