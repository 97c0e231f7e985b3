"""``CostModel.score`` against a from-scratch reference, bit for bit.

The model answers from tables it fills once per planning call (walk order,
serving hosts, per-placement charges). ``reference_score`` below keeps no
table: for one candidate it walks the modules and their services, resolves
each serving host by the one rule, and adds the same terms in the same
order. The two must agree on every float of every candidate — compared by
``float.hex``, so the last bit counts — and the reference stays here as the
test-side statement of what a score *is*.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.pipeline import COLOCATED, CostModel, OptimizerConfig
from repro.pipeline.optimizer import REMOTE_CALL_OVERHEAD_S
from repro.runtime.module import Module
from repro.services.stubs import API_MARSHAL_S

from .example_homes import every_candidate, fleet_homes

FIELDS = (
    "critical_path_s", "transfer_s", "compute_s",
    "capacity_penalty_s", "memory_penalty_s", "cloud_penalty_s", "total",
)


def reference_score(config, devices, registry, topology, opt, observed,
                    assignments) -> dict[str, float]:
    """One candidate's score, derived from nothing but the inputs."""
    modules = {module.name: module for module in config.modules}

    def service_s(host) -> float:
        return host.device.spec.compute_time(host.service.reference_cost_s)

    def serving(service: str, caller: str):
        """(host, remote seconds): a live co-located host, else the live
        host cheapest by overhead + request + 512-byte reply + service."""
        live = [h for h in registry.hosts_of(service) if h.up and h.device.up]
        for host in live:
            if host.device.name == caller:
                return host, 0.0
        best = None
        for host in live:
            there = host.device.name
            penalty = (
                REMOTE_CALL_OVERHEAD_S
                + topology.expected_delay(caller, there, opt.edge_bytes)
                + topology.expected_delay(there, caller, 512)
            )
            total = penalty + service_s(host)
            if best is None or total < best[0]:
                best = (total, host, penalty)
        return best[1], best[2]

    def modeled(name: str, device: str) -> float:
        cost = devices[device].spec.compute_time(Module.event_overhead_s)
        for service in modules[name].services:
            host, penalty = serving(service, device)
            cost += service_s(host) + penalty
        return cost

    def module_cost(name: str, device: str) -> float:
        factor = 1.0
        if name in observed:
            seconds, measured_on = observed[name]
            if measured_on in devices:
                factor = min(4.0, max(0.25, seconds / modeled(name, measured_on)))
        return modeled(name, device) * factor

    def transfer(a: str, b: str) -> float:
        if a == b:
            return 0.0001
        return topology.expected_delay(a, b, opt.edge_bytes)

    # latency: the longest path into each module, by recursion
    edges = [(m.name, nxt) for m in config.modules for nxt in m.next_modules]
    node = {name: module_cost(name, assignments[name]) for name in modules}

    def finish(name: str) -> float:
        incoming = [
            finish(a) + transfer(assignments[a], assignments[name])
            for a, b in edges if b == name
        ]
        return node[name] + (max(incoming) if incoming else 0.0)

    critical_path_s = max(finish(name) for name in modules)
    transfer_s = 0.0
    for a, b in edges:
        transfer_s += transfer(assignments[a], assignments[b])

    # capacity, pool queueing and cloud billing: one walk over the calls
    load = {name: 0.0 for name in devices}
    pool_s = 0.0
    cloud_s = 0.0
    for name, device in assignments.items():
        spec = devices[device].spec
        load[device] += opt.fps * spec.compute_time(Module.event_overhead_s)
        for service in modules[name].services:
            host, _ = serving(service, device)
            there = host.device.name
            if there != device:
                load[device] += opt.fps * spec.compute_time(2 * API_MARSHAL_S)
            load[there] = load.get(there, 0.0) + opt.fps * service_s(host)
            if host.pool is not None:
                pool_s += host.pool.contention() * service_s(host)
            if topology.is_cloud(there) and opt.cloud_bias_s:
                cloud_s += opt.cloud_bias_s
    overload = sum(
        max(0.0, seconds / max(1, devices[name].spec.cores) - 1.0)
        for name, seconds in load.items()
    )
    capacity_penalty_s = opt.capacity_weight_s * overload + pool_s

    memory_penalty_s = 0.0
    placed = list(assignments.values())
    for device in dict.fromkeys(placed):
        footprint = placed.count(device) * opt.module_footprint_mb
        budget = max(1.0, devices[device].spec.memory_mb * 0.5)
        if footprint > budget:
            memory_penalty_s += opt.memory_weight_s * (footprint - budget) / budget

    return {
        "critical_path_s": critical_path_s,
        "transfer_s": transfer_s,
        "compute_s": sum(node.values()),
        "capacity_penalty_s": capacity_penalty_s,
        "memory_penalty_s": memory_penalty_s,
        "cloud_penalty_s": cloud_s,
        "total": (critical_path_s + capacity_penalty_s + memory_penalty_s
                  + cloud_s),
    }


def _homes_of_every_size(cloud: bool):
    """The first home of each size (2-5 devices, plus the cloud device when
    *cloud*) of a seeded fleet population, with its pipeline's config."""
    by_size = {}
    for _, home, pipeline in fleet_homes(11, 16, cloud, COLOCATED):
        by_size.setdefault(len(home.devices) - cloud, (home, pipeline.config))
    assert sorted(by_size) == [2, 3, 4, 5]
    return [by_size[size] for size in sorted(by_size)]


def _load_up(home, config):
    """The same home with every optional term switched on: calibration from
    observed seconds (clamped low, in range, clamped high), cloud billing,
    tight memory, a hot frame rate, one module pinned, and the hub's hosts
    on a shared pool that already has a backlog."""
    camera, hub = list(home.devices)[:2]
    pool = home.device(hub).enable_replica_pool(slots=2)
    for _ in range(pool.slots.capacity + 3):
        pool.slots.request()
    assert pool.contention() > 0.0
    pinned = replace(config, modules=[
        replace(module, device=hub) if module.name == "classify" else module
        for module in config.modules
    ])
    opt = OptimizerConfig(
        fps=30.0, cloud_bias_s=0.004, module_footprint_mb=2000,
    )
    observed = {
        "detect": (0.0001, hub), "classify": (0.011, hub),
        "alert": (5.0, camera), "sink": (0.001, "not-a-device"),
    }
    return pinned, opt, observed


@pytest.mark.parametrize("cloud", [False, True], ids=["edge", "cloud"])
@pytest.mark.parametrize("loaded", [False, True], ids=["plain", "loaded"])
def test_every_candidate_scores_as_the_reference_does(cloud, loaded):
    nonzero = dict.fromkeys(FIELDS, 0)
    for home, config in _homes_of_every_size(cloud):
        opt, observed = OptimizerConfig(), {}
        if loaded:
            config, opt, observed = _load_up(home, config)
        model = CostModel(
            config, home.devices, home.registry, home.topology,
            optimizer=opt, observed_module_s=observed or None,
        )
        for assignments in every_candidate(config, home.devices):
            cost = model.score(assignments)
            got = {
                "critical_path_s": cost.latency.critical_path_s,
                "transfer_s": cost.latency.transfer_s,
                "compute_s": cost.latency.compute_s,
                "capacity_penalty_s": cost.capacity_penalty_s,
                "memory_penalty_s": cost.memory_penalty_s,
                "cloud_penalty_s": cost.cloud_penalty_s,
                "total": cost.total,
            }
            want = reference_score(
                config, home.devices, home.registry, home.topology,
                opt, observed, assignments,
            )
            assert {k: v.hex() for k, v in got.items()} == {
                k: v.hex() for k, v in want.items()
            }, assignments
            for name, value in got.items():
                nonzero[name] += value != 0.0
    # not vacuous: the stock knobs price latency only on these homes, the
    # loaded ones make every term non-zero (billing needs a cloud to bill)
    expected_zero = set() if loaded else {
        "capacity_penalty_s", "memory_penalty_s", "cloud_penalty_s"
    }
    if not cloud:
        expected_zero.add("cloud_penalty_s")
    assert {name for name, hits in nonzero.items() if not hits} == expected_zero
