"""Network topology: which devices can reach which, over what links.

The home network is an adjacency dict, ``{node: {neighbour: Link}}``, whose
edges carry :class:`~repro.net.link.Link` objects. The common case is a
star around a Wi-Fi access point — created with :meth:`Topology.add_wifi` —
where all attached devices contend for one shared radio medium, exactly the
condition under which the paper's baseline (which ships frames back and
forth) loses to co-located modules.

Message delivery walks the shortest path hop by hop (the neighbour attached
first wins a tie), so a two-hop phone→AP→desktop transfer pays airtime
twice on the shared medium, as a real Wi-Fi frame relay does. Resolved
routes are kept in a table that every method able to change the graph or
the partition set empties; delays are never kept, so a link's current state
is priced on every query.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from ..errors import LinkDown, NetworkError
from ..sim.kernel import Kernel
from ..sim.rng import RngStreams, ScopedRng
from ..sim.signals import wake
from .link import LOOPBACK, WAN_METRO, Link, LinkSpec, Medium


class Topology:
    """The device connectivity graph plus per-edge links."""

    def __init__(self, kernel: Kernel, rng: RngStreams | ScopedRng | None = None) -> None:
        self.kernel = kernel
        self.rng = rng if rng is not None else RngStreams(seed=0)
        #: node -> {neighbour: link}, both in attachment order.
        self.graph: dict[str, dict[str, Link]] = {}
        self._loopbacks: dict[str, Link] = {}
        #: access point -> its shared medium and its default link spec.
        self._aps: dict[str, tuple[Medium, LinkSpec]] = {}
        self._down: set[str] = set()
        self._partitioned: set[str] = set()
        #: (src, dst) -> links of the resolved route; emptied by every edit.
        self._routes: dict[tuple[str, str], tuple[Link, ...]] = {}
        #: Metered WAN uplinks, keyed by the cloud device behind each.
        self._wan_links: dict[str, Link] = {}

    # -- construction --------------------------------------------------------
    def add_device(self, name: str) -> None:
        """Register a device node (idempotent)."""
        self.graph.setdefault(name, {})
        self._routes.clear()

    def add_wifi(self, name: str = "wifi", spec: LinkSpec | None = None) -> None:
        """Create a Wi-Fi access point with a single shared airtime medium."""
        if name in self._aps:
            raise NetworkError(f"wifi network {name!r} already exists")
        self.graph.setdefault(name, {})
        self._aps[name] = (Medium(), spec or LinkSpec())
        self._routes.clear()

    def attach(self, device: str, ap: str, spec: LinkSpec | None = None) -> None:
        """Attach *device* to access point *ap*, sharing the AP's medium."""
        if ap not in self._aps:
            raise NetworkError(f"unknown wifi network {ap!r}")
        medium, ap_spec = self._aps[ap]
        self.add_device(device)
        link = Link(
            self.kernel,
            spec or ap_spec,
            partial(self.rng.stream, f"link/{device}-{ap}"),
            name=f"{device}<->{ap}",
            medium=medium,
        )
        self._connect(device, ap, link)

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
            if not self._aps:
                raise NetworkError("add an access point before add_cloud()")
            ap = next(iter(self._aps))
        elif ap not in self._aps:
            raise NetworkError(f"unknown wifi network {ap!r}")
        self.add_device(name)
        link = Link(
            self.kernel,
            spec or WAN_METRO,
            partial(self.rng.stream, f"wan/{name}"),
            name=f"{ap}<->{name}",
        )
        self._connect(ap, name, link)
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
            partial(self.rng.stream, f"link/{a}-{b}"),
            name=f"{a}<->{b}",
        )
        self._connect(a, b, link)

    def _connect(self, a: str, b: str, link: Link) -> None:
        """Put *link* on the edge a–b (a new edge, or in the old one's place)."""
        self.graph[a][b] = self.graph[b][a] = link
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
        return list(self.graph[name].values())

    # -- queries ---------------------------------------------------------------
    def has_device(self, name: str) -> bool:
        return name in self.graph and name not in self._aps

    def loopback(self, device: str) -> Link:
        """The in-process 'link' used for same-device delivery."""
        link = self._loopbacks.get(device)
        if link is None:
            link = Link(
                self.kernel,
                LOOPBACK,
                partial(self.rng.stream, f"loopback/{device}"),
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
        return list(self._route(src, dst))

    def _route(self, src: str, dst: str) -> tuple[Link, ...]:
        if src == dst:
            return (self.loopback(src),)
        route = self._routes.get((src, dst))
        if route is None:
            route = self._routes[src, dst] = self._resolve(src, dst)
        return route

    def _resolve(self, src: str, dst: str) -> tuple[Link, ...]:
        if src not in self.graph or dst not in self.graph:
            raise LinkDown(f"unknown device in route {src!r} -> {dst!r}")
        for endpoint in (src, dst):
            if endpoint in self._partitioned:
                raise LinkDown(f"{endpoint!r} is partitioned from the network")
        # breadth-first around partitioned nodes, neighbours in attachment order
        routes: dict[str, tuple[Link, ...]] = {src: ()}
        frontier = [src]
        for node in frontier:  # grows as the search reaches new nodes
            for nbr, link in self.graph[node].items():
                if nbr not in routes and nbr not in self._partitioned:
                    routes[nbr] = routes[node] + (link,)
                    frontier.append(nbr)
        if dst not in routes:
            raise LinkDown(f"no route from {src!r} to {dst!r}")
        return routes[dst]

    def expected_delay(self, src: str, dst: str, nbytes: int) -> float:
        """Uncontended expected transfer time along the route (planning)."""
        return sum(link.expected_delay(nbytes) for link in self.path_links(src, dst))

    # -- transfer ---------------------------------------------------------------
    def transfer(self, src: str, dst: str, nbytes: int,
                 then: Callable[..., None], *args: Any) -> None:
        """Move *nbytes* from *src* to *dst* hop by hop, then call
        ``then(*args, arrived_at, None)`` — a waiter's shape — in the last
        hop's arrival event, as :func:`~repro.sim.signals.wake` calls a
        timeout's waiters.

        Each hop is one :meth:`~repro.net.link.Link.transfer`, started by
        the previous hop's arrival event (the first at the call), and its
        arrival is one event at the instant the link returns. The route is
        resolved eagerly so routing errors raise at call time.
        """
        hops = iter(self._route(src, dst))
        at = next(hops).transfer(nbytes)
        self.kernel.schedule_at(at, self._arrive, hops, nbytes, then, args, at)

    def _arrive(self, hops, nbytes: int, then: Callable[..., None],
                args: tuple, at: float) -> None:
        link = next(hops, None)
        if link is None:
            wake(self.kernel, ((then, args),), at, None)
        else:  # relay: this arrival starts the next hop
            at = link.transfer(nbytes)
            self.kernel.schedule_at(at, self._arrive, hops, nbytes, then, args, at)
