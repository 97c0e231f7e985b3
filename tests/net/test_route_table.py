"""Stateful property test: the route table never answers for an old graph.

``Topology.path_links`` keeps each resolved route until the next edit of
the graph or the partition set. This machine interleaves every such edit
(``add_device`` / ``add_wifi`` / ``attach`` / ``add_wired`` / ``add_cloud``
/ ``partition`` / ``heal``) with ``set_device_up``, latency spikes on links
and callers that scribble on the routes they were handed, and after every
step compares *every* pair's answer — the links by identity, or the
``LinkDown`` by message — with ``reference_route``, a search of the current
graph that remembers nothing.

The rule the table follows is broader than it strictly needs: **every**
edit empties it, including the three that only ever grow an unconnected
node or a leaf and so cannot re-route an existing pair (``add_device``,
``add_wifi``, ``add_cloud``). That rule needs no argument about which edits
can re-route, so it is the one pinned here, on the table itself; the
answers pin its consequences. ``test_an_edit_that_keeps_the_table_is_caught``
shows the machine notices each of the seven going missing.

``REPRO_FUZZ_N`` scales the example budget like the other fuzz suites
(default 200 -> 50 examples of up to 20 steps, about two seconds).
"""

import os

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.errors import LinkDown, NetworkError
from repro.net import LinkSpec, Topology
from repro.sim import Kernel, RngStreams

FUZZ_N = int(os.environ.get("REPRO_FUZZ_N", "200"))
DEVICES = ("a", "b", "c")
APS = ("w1", "w2")
NODES = (*DEVICES, *APS, "k")  # "k" only ever joins as a cloud device
#: The methods that edit the graph or the partition set.
EDITS = ("add_device", "add_wifi", "attach", "add_cloud", "add_wired",
         "partition", "heal")
NBYTES = 42_000


def reference_route(topo: Topology, src: str, dst: str) -> list:
    """``path_links`` as it was before it kept a table: a breadth-first
    search of the graph as it is now, around the partitioned nodes, trying
    neighbours in attachment order (so between equal-length routes the one
    through the neighbour attached first)."""
    if src == dst:
        return [topo.loopback(src)]
    if src not in topo.graph or dst not in topo.graph:
        raise LinkDown(f"unknown device in route {src!r} -> {dst!r}")
    for endpoint in (src, dst):
        if topo.is_partitioned(endpoint):
            raise LinkDown(f"{endpoint!r} is partitioned from the network")
    routes, frontier = {src: []}, [src]
    for node in frontier:
        for nbr, link in topo.graph[node].items():
            if nbr not in routes and not topo.is_partitioned(nbr):
                routes[nbr] = [*routes[node], link]
                frontier.append(nbr)
    if dst not in routes:
        raise LinkDown(f"no route from {src!r} to {dst!r}")
    return routes[dst]


def outcome(resolve, *args):
    """A route's links, or the refusal's message."""
    try:
        return resolve(*args)
    except LinkDown as exc:
        return str(exc)


def same(got, want) -> bool:
    """Equal refusals, or the same links by identity."""
    if isinstance(got, str) or isinstance(want, str):
        return got == want
    return [id(link) for link in got] == [id(link) for link in want]


class RouteTableMachine(RuleBasedStateMachine):
    topology_class = Topology

    def __init__(self):
        super().__init__()
        self.topo = self.topology_class(Kernel(), RngStreams(seed=1))

    def _edit(self, method, *args):
        """One edit. A refused one (``NetworkError``) changed nothing; one
        that went through must leave no route behind."""
        try:
            getattr(self.topo, method)(*args)
        except NetworkError:
            return
        assert not self.topo._routes, f"{method}{args} kept {self.topo._routes}"

    @rule(name=st.sampled_from(DEVICES))
    def add_device(self, name):
        self._edit("add_device", name)

    @rule(name=st.sampled_from(APS))
    def add_wifi(self, name):
        self._edit("add_wifi", name, LinkSpec(jitter_cv=0.0))

    @rule(device=st.sampled_from(DEVICES), ap=st.sampled_from(APS))
    def attach(self, device, ap):
        self._edit("attach", device, ap)

    @rule(ends=st.permutations(DEVICES))
    def add_wired(self, ends):
        self._edit("add_wired", ends[0], ends[1], LinkSpec(jitter_cv=0.0))

    @rule(ap=st.sampled_from((None, *APS)))
    def add_cloud(self, ap):
        self._edit("add_cloud", "k", None, ap)

    @rule(name=st.sampled_from(NODES))
    def partition(self, name):
        self._edit("partition", name)

    @rule(name=st.sampled_from(NODES))
    def heal(self, name):
        self._edit("heal", name)

    @rule(name=st.sampled_from(NODES), up=st.booleans())
    def set_device_up(self, name, up):
        # not an edit: routing never looked at power state
        try:
            self.topo.set_device_up(name, up)
        except NetworkError:
            pass

    @rule(pick=st.integers(0, 50), extra_s=st.sampled_from([0.0, 0.05, 1.5]))
    def spike(self, pick, extra_s):
        """A latency-spike fault: delays are never tabled, so the very next
        ``expected_delay`` (in the invariant below) must price it."""
        links = [link for node in self.topo.graph
                 for link in self.topo.incident_links(node)]
        if links:
            links[pick % len(links)].extra_latency_s = extra_s

    @rule(src=st.sampled_from(NODES), dst=st.sampled_from(NODES))
    def scribble(self, src, dst):
        """A caller may do what it likes with the list it was handed."""
        try:
            route = self.topo.path_links(src, dst)
        except LinkDown:
            return
        route.reverse()
        route.append(None)

    @rule(src=st.sampled_from((*NODES, "ghost")),
          dst=st.sampled_from((*NODES, "ghost")))
    def unknown_endpoint(self, src, dst):
        assert same(
            outcome(self.topo.path_links, src, dst),
            outcome(reference_route, self.topo, src, dst),
        )

    @invariant()
    def every_pair_answers_for_the_current_graph(self):
        topo = self.topo
        for src in NODES:
            for dst in NODES:
                want = outcome(reference_route, topo, src, dst)
                assert same(outcome(topo.path_links, src, dst), want), (src, dst)
                if isinstance(want, str):
                    with pytest.raises(LinkDown):
                        topo.expected_delay(src, dst, NBYTES)
                else:
                    assert topo.expected_delay(src, dst, NBYTES) == sum(
                        link.expected_delay(NBYTES) for link in want
                    ), (src, dst)


TestRouteTable = RouteTableMachine.TestCase
TestRouteTable.settings = settings(
    max_examples=max(1, FUZZ_N // 4),
    stateful_step_count=20,
    derandomize=True,
    deadline=None,
)


def _without_invalidation(method: str) -> type:
    """A ``Topology`` whose *method* leaves the table as it found it (for
    ``attach``, ``add_wired`` and ``add_cloud`` that also undoes the
    ``add_device`` they call)."""
    edit = getattr(Topology, method)

    def keeps_the_table(self, *args, **kwargs):
        kept = dict(self._routes)
        result = edit(self, *args, **kwargs)
        self._routes.update(kept)
        return result

    return type("Mutant", (Topology,), {method: keeps_the_table})


@pytest.mark.parametrize("method", EDITS)
def test_an_edit_that_keeps_the_table_is_caught(method):
    """Each of the seven invalidations, taken away in turn."""
    machine = type("MutantMachine", (RouteTableMachine,), {
        "topology_class": _without_invalidation(method),
    })
    with pytest.raises(AssertionError):
        run_state_machine_as_test(machine, settings=settings(
            max_examples=200, stateful_step_count=20, derandomize=True,
            deadline=None, phases=(Phase.generate,),
        ))


def _reroutes(topology_class: type) -> None:
    """Each edit that *can* re-route a resolved pair, doing so."""
    wifi = LinkSpec(jitter_cv=0.0)
    topo = topology_class(Kernel(), RngStreams(seed=1))
    topo.add_wifi("w1", wifi)
    topo.add_wifi("w2", wifi)
    for device in ("a", "b"):
        topo.attach(device, "w1")
        topo.attach(device, "w2")
    topo.attach("c", "w1")
    via_w1 = topo.path_links("a", "b")
    topo.partition("w1")
    via_w2 = topo.path_links("a", "b")
    assert len(via_w2) == 2 and not set(via_w1) & set(via_w2)
    topo.heal("w1")
    assert topo.path_links("a", "b") == via_w1
    assert len(topo.path_links("c", "w2")) == 3  # c-w1-a-w2 or c-w1-b-w2
    topo.attach("c", "w2")
    assert len(topo.path_links("c", "w2")) == 1
    assert len(topo.path_links("a", "b")) == 2
    topo.add_wired("a", "b", wifi)
    assert len(topo.path_links("a", "b")) == 1


def test_edits_reroute_resolved_pairs():
    _reroutes(Topology)


@pytest.mark.parametrize("method", ["attach", "add_wired", "partition", "heal"])
def test_answers_alone_catch_a_stale_route(method):
    """Without looking at the table: the four edits that can change an
    existing pair's route are caught by the answers they leave stale."""
    with pytest.raises(AssertionError):
        _reroutes(_without_invalidation(method))
