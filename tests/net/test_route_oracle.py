"""Oracle: every route is a shortest path, by networkx's count.

networkx is a dev extra. On random homes with up to three access points,
wired links, a cloud uplink and partitioned nodes, ``path_links`` must
refuse exactly the pairs networkx finds no path between (with the
partitioned nodes taken out), and otherwise return a chain of links from
*src* to *dst* as long as ``nx.shortest_path_length``.

``REPRO_FUZZ_N`` scales the example budget like the other fuzz suites.
"""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LinkDown
from repro.net import Topology
from repro.sim import Kernel, RngStreams

nx = pytest.importorskip("networkx")

FUZZ_N = int(os.environ.get("REPRO_FUZZ_N", "200"))


def random_home(rng: random.Random) -> tuple[Topology, nx.Graph]:
    """A random topology, and the graph of what it was built from."""
    topo = Topology(Kernel(), RngStreams(seed=1))
    edges = []
    aps = [f"w{i}" for i in range(rng.randint(1, 3))]
    for ap in aps:
        topo.add_wifi(ap)
    devices = [f"d{i}" for i in range(rng.randint(2, 6))]
    for device in devices:
        topo.add_device(device)
        for ap in rng.sample(aps, rng.randint(0, len(aps))):
            topo.attach(device, ap)
            edges.append((device, ap))
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(devices, 2)
        topo.add_wired(a, b)
        edges.append((a, b))
    if rng.random() < 0.5:
        ap = rng.choice(aps)
        topo.add_cloud("k", ap=ap)
        edges.append((ap, "k"))
    for node in rng.sample([*aps, *devices], rng.randint(0, 2)):
        topo.partition(node)
    graph = nx.Graph(edges)
    graph.add_nodes_from([*aps, *devices])
    return topo, graph


def ends_of(topo: Topology, nodes) -> dict[int, set[str]]:
    """Each link's two end nodes, read through ``incident_links``."""
    ends: dict[int, set[str]] = {}
    for node in nodes:
        for link in topo.incident_links(node):
            ends.setdefault(id(link), set()).add(node)
    return ends


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=FUZZ_N, derandomize=True, deadline=None)
def test_route_lengths_equal_networkx(seed):
    topo, graph = random_home(random.Random(seed))
    ends = ends_of(topo, graph)
    live = nx.subgraph_view(graph, filter_node=lambda n: not topo.is_partitioned(n))
    for src in graph:
        for dst in graph:
            if src == dst:
                continue
            if src not in live or dst not in live or not nx.has_path(live, src, dst):
                with pytest.raises(LinkDown):
                    topo.path_links(src, dst)
                continue
            route = topo.path_links(src, dst)
            assert len(route) == nx.shortest_path_length(live, src, dst)
            at = src
            for link in route:  # the links chain from src to dst
                assert at in ends[id(link)]
                (at,) = ends[id(link)] - {at}
            assert at == dst
