"""Stateful property test: settlement composes.

Random interleavings of fan-in traffic with everything that ends a frame
early — migrate, swap, canary upgrade/promote/rollback, device crash and
restart, a deploy that rolls back, ``Pipeline.stop`` — with the invariant
auditor as the oracle. Each of those used to carry its own copy of the
drain loop; they now share ``repro.runtime.settlement.settle_payload``, so
what this test can still find is a caller that forgets to call it.

``REPRO_FUZZ_N`` scales the example budget like the other fuzz suites
(default 200 -> 50 examples of up to 30 steps, about a second).
"""

import os

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.core import VideoPipe
from repro.fleet.workload import home_pipeline_config, install_home_services
from repro.liveops import CanaryPolicy
from repro.runtime.settlement import REASONS, SOURCE_BUSY

from ..settlement_sites import (
    SITES,
    FanInSink,
    Stage,
    diamond_config,
    inject_frame,
    plant_events,
)

FUZZ_N = int(os.environ.get("REPRO_FUZZ_N", "200"))
DEVICES = ("phone", "desktop", "tv")
#: Everything but the source: canary mirroring refuses a source module.
MOVABLE = ("producer_a", "producer_b", "sink")
BURSTS = st.integers(0, 4)
#: Seconds of simulated time, from "still at the source" to "all done".
LEADS = st.sampled_from([0.0, 0.001, 0.004, 0.02, 0.2])


class SettlementMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.home = VideoPipe.paper_testbed(seed=0)
        self.home.enable_audit()
        self.liveops = self.home.enable_liveops()
        self.pipeline = self.home.deploy_pipeline(diamond_config(),
                                                  default_device="phone")
        self.collectors = [self.pipeline.metrics]
        self.frame_ids = iter(range(1, 10**6))
        self.swaps = 0

    def _running(self):
        return not self.pipeline.stopped

    def _upgrading(self, module):
        return self.liveops.upgrade_of(self.pipeline.name, module) is not None

    @rule(burst=st.integers(1, 4), lead=LEADS)
    def traffic(self, burst, lead):
        """Inject a burst of frames and let it get *lead* seconds into the
        diamond. Every disruptive rule starts with one (possibly empty), so
        it usually lands on mailboxes that hold something."""
        for _ in range(burst):
            inject_frame(self.pipeline, next(self.frame_ids))
        self.home.run_for(lead)

    @precondition(_running)
    @rule(module=st.sampled_from(MOVABLE), device=st.sampled_from(DEVICES),
          burst=BURSTS, lead=LEADS)
    def migrate(self, module, device, burst, lead):
        self.traffic(burst, lead)
        self.home.migrate_module(self.pipeline, module, device)

    @precondition(_running)
    @rule(module=st.sampled_from(MOVABLE), burst=BURSTS, lead=LEADS)
    def swap(self, module, burst, lead):
        if self._upgrading(module):
            return  # the version-swap law pins the label until the verdict
        self.traffic(burst, lead)
        self.swaps += 1
        fresh = FanInSink() if module == "sink" else Stage()
        self.home.deployer.swap_module(self.pipeline, module, fresh,
                                       version=f"swap{self.swaps}")

    @precondition(_running)
    @rule(module=st.sampled_from(MOVABLE))
    def start_upgrade(self, module):
        if self._upgrading(module):
            return
        upgrade = self.home.upgrade_module(self.pipeline, module,
                                           policy=CanaryPolicy(auto=False))
        self.collectors.append(upgrade.shadow_metrics)

    @rule(which=st.integers(0, 2), promote=st.booleans(),
          burst=BURSTS, lead=LEADS)
    def decide(self, which, promote, burst, lead):
        active = self.liveops.active_upgrades()
        if not active:
            return
        self.traffic(burst, lead)
        upgrade = active[which % len(active)]
        if promote:
            self.liveops.promote(upgrade)
        else:
            self.liveops.rollback(upgrade)

    @rule(device=st.sampled_from(DEVICES), burst=BURSTS, lead=LEADS)
    def crash(self, device, burst, lead):
        self.traffic(burst, lead)
        self.home.crash_device(device)

    @rule(device=st.sampled_from(DEVICES))
    def restart(self, device):
        self.home.restart_device(device)

    @rule()
    def failed_deploy(self):
        frame_id = next(self.frame_ids)
        settled = SITES["rollback"](
            self.home, lambda dep: plant_events(dep, frame_id, copies=2)
        )
        self.collectors.append(settled.ctx.metrics)

    # a stopped module cannot be promoted into; decide the canaries first
    @precondition(lambda self: self._running()
                  and not self.liveops.active_upgrades())
    @rule(burst=BURSTS, lead=LEADS)
    def stop(self, burst, lead):
        self.traffic(burst, lead)
        self.pipeline.stop()

    def teardown(self):
        home = self.home
        for device in DEVICES:
            home.restart_device(device)
        for upgrade in self.liveops.active_upgrades():
            self.liveops.rollback(upgrade)
        home.run()
        # every violation, not only the ones this last check adds: the
        # live-ops laws record theirs at verdict time
        assert home.kernel.pending_events == 0
        home.check_invariants()
        assert home.auditor.violations == [], home.auditor.report()
        for device in DEVICES:
            assert home.device(device).frame_store.live_count == 0, device
        for metrics in self.collectors:
            count = metrics.counter
            assert metrics.frames_in_flight == 0, metrics
            assert count("frames_entered") == (
                count("frames_completed") + count("frames_dropped")
            ), metrics.counters()
            assert count("frames_dropped") == sum(
                count(f"frames_dropped.{reason}")
                for reason in (SOURCE_BUSY, *REASONS)
            ), metrics.counters()


TestSettlement = SettlementMachine.TestCase
TestSettlement.settings = settings(
    max_examples=max(1, FUZZ_N // 4),
    stateful_step_count=30,
    derandomize=True,
    deadline=None,
)


def test_source_busy_drops_are_counted_by_reason():
    """A real source outrunning its pipeline (§2.3): the drops it takes
    itself are the one reason no settlement accounts for, so the per-reason
    counters sum to ``frames_dropped`` on unsettled collectors too."""
    home = VideoPipe.paper_testbed(seed=0)
    home.enable_audit()
    install_home_services(home, "desktop", "phone")
    pipeline = home.deploy_pipeline(
        home_pipeline_config("busy", "phone", fps=60.0, duration_s=1.0))
    home.run()
    count = pipeline.metrics.counter
    assert count("frames_dropped") == count(f"frames_dropped.{SOURCE_BUSY}") > 0
    assert home.check_invariants() == [], home.auditor.report()
