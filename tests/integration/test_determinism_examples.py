"""Integration: every example scenario is deterministic under a seed.

Each ``examples/`` script has a shortened twin in
``repro.audit.scenarios``; this suite runs each twin twice per seed and
diffs the complete kernel event streams plus the scenario fingerprints.
A single out-of-order event anywhere in the home — an ``id()``-keyed
dict, set iteration, an unseeded RNG — fails here with the exact record
where the two runs parted ways.
"""

import json
from pathlib import Path

import pytest

from repro.audit.scenarios import EXAMPLE_SCENARIOS
from repro.monitor import Monitor

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def test_every_example_has_a_scenario():
    examples = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    missing = examples - set(EXAMPLE_SCENARIOS)
    assert not missing, (
        f"examples without a determinism scenario: {sorted(missing)} — add"
        " one to repro.audit.scenarios.EXAMPLE_SCENARIOS"
    )


def work_done(fingerprint) -> list:
    """What a scenario's fingerprint says its home did: per pipeline, the
    frames it completed and the latencies it recorded; for the custom
    pipeline, the results its printer received."""
    if isinstance(fingerprint, dict):
        if "latencies" in fingerprint:
            return [(fingerprint["completed"], len(fingerprint["latencies"]))]
        if "results" in fingerprint:
            return [(len(fingerprint["results"]),)]
        fingerprint = list(fingerprint.values())
    if isinstance(fingerprint, list):
        return [done for part in fingerprint for done in work_done(part)]
    return []


def expected_series(home) -> set[str]:
    """The probe paths a monitor must find in *home*'s snapshot: one per
    device, service host and pipeline, and one per feature that is on."""
    series = {f"device/{name}" for name in home.devices}
    series |= {f"service/{host.service_name}@{host.device.name}"
               for name in home.registry.service_names()
               for host in home.registry.hosts_of(name)}
    series |= {f"pipeline/{pipeline.name}" for pipeline in home.pipelines}
    features = {"failures": home.detector or home.injector,
                "tracing": home.tracer, "audit": home.auditor,
                "slo": home.slo}
    return series | {name for name, on in features.items() if on is not None}


@pytest.mark.parametrize("name", sorted(EXAMPLE_SCENARIOS))
def test_example_scenario_is_deterministic(name, assert_deterministic):
    homes = []

    def scenario(seed):
        home, run_fn = EXAMPLE_SCENARIOS[name](seed)
        homes.append(home)
        return home, run_fn

    report = assert_deterministic(scenario, seed=7, name=name)
    # the scenario exercised the home: every pipeline it runs did work (an
    # event count would move with every change to what an event is)
    done = work_done(report.fingerprints[0])
    assert done and all(count > 0 for entry in done for count in entry), done
    # the ran home reads as one JSON-ready snapshot, and a monitor finds a
    # series for every resource and every feature that is on
    home = homes[-1]
    json.dumps(home.snapshot())
    probes = {s.probe for s in Monitor(home.kernel, home.snapshot).sample_once()}
    assert expected_series(home) <= probes
    assert not {"failures", "tracing", "audit", "slo"} & (
        probes - expected_series(home))


def test_different_seeds_produce_different_streams(assert_deterministic):
    """The tap must be sensitive enough to notice a real difference — two
    seeds should not fingerprint identically (jitter, noise, and motion
    all draw from the seeded RNG)."""
    from repro.audit.determinism import record_scenario

    scenario = EXAMPLE_SCENARIOS["quickstart.py"]
    run_a = record_scenario(scenario, 7)
    run_b = record_scenario(scenario, 8)
    assert run_a.fingerprint != run_b.fingerprint
