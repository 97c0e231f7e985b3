"""Hot in-place module upgrades with canary mirroring.

The uniform runtime exists so "any processing units in the video
processing pipeline can be executed on any device" (§1) — and, by the same
token, *replaced* without rebuilding the home (§7 "automatic deployment").
The live-operations manager performs that replacement the way production
fleets do:

1. **Shadow deploy** — the candidate version (v2) is deployed *beside* the
   incumbent (v1) on the same device, wired into a private shadow wiring
   whose downstream is a canary sink and whose ``source_module`` is
   ``None`` — so nothing the candidate does can touch the §2.3 credit
   path, and every mirrored frame is conserved on a dedicated shadow
   metrics collector.
2. **Mirror** — a tap on the incumbent's mailbox copies a configurable,
   deterministic fraction of arriving DATA events to the candidate
   (extra frame-store holds, no extra credits).
3. **Judge** — a kernel-paced decision loop compares the candidate's
   health against the incumbent using the runtime's existing signals:
   p99 event sojourn, handler error rate, mailbox backlog (the thresholds
   are the constants below).
4. **Promote or roll back** — promotion atomically swaps the warm
   candidate into the incumbent's address via
   :meth:`~repro.pipeline.deployer.Deployer.swap_module` (queued events
   are salvaged, not dropped — zero frame loss); rollback retires the
   shadow deployment and leaves v1 untouched. Either way exactly one
   version of the module remains live, which the auditor checks on the
   verdict's action.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Any

from ..actions import Action
from ..errors import ConfigError
from ..frames.payloads import add_refs, frame_ids_in, release_refs
from ..metrics.collector import MetricsCollector
from ..net.address import Address
from ..runtime import observe
from ..runtime.events import DATA, ModuleEvent
from ..runtime.module import Module
from ..runtime.registry import create_module
from ..runtime.settlement import SHADOW_RETIRE
from ..runtime.wiring import PipelineWiring
from ..slo.spec import quantile
from .lineage import LineageRecorder
from .policy import CanaryPolicy

if TYPE_CHECKING:  # pragma: no cover
    from ..pipeline.pipeline import Pipeline
    from ..runtime.moduleruntime import DeployedModule
    from ..sim.kernel import Ticker

#: Upgrade lifecycle states.
MIRRORING = "mirroring"
PROMOTED = "promoted"
ROLLED_BACK = "rolled_back"

#: The judge's health thresholds. Candidate handler errors / events above
#: this roll back immediately.
MAX_ERROR_RATE = 0.02
#: Candidate mailbox depth above this rolls back immediately (it cannot
#: keep up with even a fraction of live traffic).
MAX_BACKLOG = 8
#: Candidate p99 sojourn may be at most this multiple of the incumbent's,
#: plus an absolute slack so a near-zero incumbent p99 stays passable.
P99_RATIO_LIMIT = 3.0
P99_SLACK_S = 0.010
#: How often an auto-policy upgrade's decision loop re-evaluates.
CHECK_INTERVAL_S = 0.5


class CanarySinkModule(Module):
    """Terminal module of a shadow wiring: absorbs everything the
    candidate forwards, releasing payload refs and completing each frame
    exactly once on the shadow metrics collector.

    This closes the mirror-conservation loop: the tap *enters* every
    mirrored frame on the shadow collector, the sink (or the candidate's
    own drop path) settles it, and the standard metrics-conservation law
    on the shadow collector becomes the mirror law for free.
    """

    #: The sink is bookkeeping, not simulated work.
    event_overhead_s = 0.0

    def event_received(self, ctx, event: ModuleEvent) -> Any:
        payload = event.payload
        release_refs(payload, ctx._runtime.device.frame_store)
        # a fan-out DAG reaches the sink once per edge; finish completes
        # once, and on this source-less wiring signals nothing
        for frame_id in frame_ids_in(payload):
            ctx.finish(frame_id)


class MirrorTap:
    """The per-upgrade mailbox tap installed on the incumbent.

    Called by the module runtime for every DATA event *after* normal
    enqueue (v1's delivery order is untouched). A deterministic fraction
    accumulator — no randomness, so mirrored runs replay exactly — decides
    which events to copy; copies take extra frame-store holds and travel
    on the shadow wiring, so the credit path never sees them.
    """

    def __init__(self, upgrade: "ModuleUpgrade") -> None:
        self.upgrade = upgrade
        self._acc = 0.0
        #: Frames already admitted on the shadow collector: a fan-in
        #: incumbent receives one event per upstream producer for the same
        #: frame, and later copies must only carry their own refs.
        self._admitted: set[int] = set()

    def __call__(self, event: ModuleEvent) -> None:
        upgrade = self.upgrade
        if upgrade.state != MIRRORING:
            return
        self._acc += upgrade.policy.mirror_fraction
        if self._acc < 1.0 - 1e-12:
            return
        self._acc -= 1.0
        runtime = upgrade.primary_deployed.runtime
        payload = event.payload
        add_refs(payload, runtime.device.frame_store)
        captured = (payload.get("capture_time")
                    if isinstance(payload, dict) else None)
        for frame_id in frame_ids_in(payload):
            if frame_id not in self._admitted:
                self._admitted.add(frame_id)
                # admitted at the candidate, on the shadow wiring
                observe.admitted(upgrade.shadow_deployed.ctx, frame_id, captured)
                upgrade.mirrored_frames += 1
        upgrade.mirrored_events += 1
        # the tap alias (never deployed) is the shadow wiring's name for
        # the incumbent's address; a mirror copy that dies in flight dead-
        # letters onto the *shadow* collector, not the live pipeline's
        runtime.send_to_module(
            upgrade.tap_name, upgrade.shadow_name, payload, {},
            kind=DATA, wiring=upgrade.shadow_wiring,
        )


class ModuleUpgrade:
    """One hot upgrade of one module: state, shadow deployment, verdict."""

    def __init__(
        self,
        pipeline: "Pipeline",
        module_name: str,
        from_version: str,
        to_version: str,
        new_instance: Module,
        policy: CanaryPolicy,
        started_at: float,
    ) -> None:
        self.pipeline = pipeline
        self.module_name = module_name
        self.from_version = from_version
        self.to_version = to_version
        self.new_instance = new_instance
        self.policy = policy
        self.started_at = started_at
        self.state = MIRRORING
        self.decided_at: float | None = None
        self.reason: str | None = None
        self.mirrored_events = 0
        self.mirrored_frames = 0
        self.shadow_name = f"{module_name}!{to_version}"
        self.sink_name = f"{module_name}!canary-sink"
        self.tap_name = f"{module_name}!tap"
        self.shadow_wiring: PipelineWiring | None = None
        self.shadow_metrics: MetricsCollector | None = None
        self.primary_deployed: "DeployedModule | None" = None
        self.shadow_deployed: "DeployedModule | None" = None
        self.sink_deployed: "DeployedModule | None" = None
        #: The auto policy's decision loop while it runs.
        self.judge: "Ticker | None" = None

    def describe(self) -> dict[str, Any]:
        shadow = self.shadow_metrics
        return {
            "pipeline": self.pipeline.name,
            "module": self.module_name,
            "from_version": self.from_version,
            "to_version": self.to_version,
            "state": self.state,
            "reason": self.reason,
            "started_at": self.started_at,
            "decided_at": self.decided_at,
            "mirrored_events": self.mirrored_events,
            "mirrored_frames": self.mirrored_frames,
            "mirror_completed": (
                shadow.counter("frames_completed") if shadow else 0
            ),
            "mirror_dropped": (
                shadow.counter("frames_dropped") if shadow else 0
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ModuleUpgrade {self.pipeline.name}/{self.module_name}"
            f" {self.from_version}->{self.to_version} {self.state}>"
        )


def _bump_version(version: str) -> str:
    """``v1`` -> ``v2``; anything else gets a ``.next`` suffix."""
    match = re.fullmatch(r"([A-Za-z_.-]*?)(\d+)", version)
    if match:
        return f"{match.group(1)}{int(match.group(2)) + 1}"
    return f"{version}.next"


class LiveOpsManager:
    """Home-wide live-operations coordinator (one per
    :class:`~repro.core.videopipe.VideoPipe`, created by
    ``enable_liveops``).

    Attributes:
        upgrades: every upgrade ever started, oldest first.
        actions: the home's action log, where each verdict is recorded.
        lineage: the home's :class:`LineageRecorder`.
    """

    def __init__(self, home) -> None:
        self.home = home
        self.kernel = home.kernel
        self.upgrades: list[ModuleUpgrade] = []
        self.actions: list[Action] = home.actions
        self._active: dict[tuple[str, str], ModuleUpgrade] = {}
        self.lineage = LineageRecorder(home.kernel)

    # -- lifecycle -----------------------------------------------------------
    def start_upgrade(
        self,
        pipeline: "Pipeline",
        module_name: str,
        policy: CanaryPolicy | None = None,
        module_instance: Module | None = None,
    ) -> ModuleUpgrade:
        """Deploy a candidate version of *module_name* beside the incumbent
        and start mirroring live traffic to it.

        The candidate is *module_instance*, or a fresh instance built from
        the module's current config; it is labelled with the current
        version bumped (``v1`` -> ``v2``). With ``policy.auto`` (the
        default) the canary decision loop promotes or rolls back on its
        own; otherwise call :meth:`promote` / :meth:`rollback`.
        """
        if pipeline.stopped:
            raise ConfigError(
                f"pipeline {pipeline.name!r} is stopped; nothing to upgrade"
            )
        module_cfg = pipeline.config.module(module_name)
        if module_name == pipeline.config.source_module:
            raise ConfigError(
                f"module {module_name!r} is the pipeline source; canary"
                " mirroring is input-driven, and a second live source would"
                " capture frames twice — deploy a new pipeline version"
                " instead"
            )
        key = (pipeline.name, module_name)
        if key in self._active:
            raise ConfigError(
                f"module {module_name!r} of pipeline {pipeline.name!r}"
                " already has an upgrade in flight"
            )
        from_version = pipeline.wiring.version_of(module_name)
        if module_instance is None:
            module_instance = create_module(
                module_cfg.include, **module_cfg.params
            )
        upgrade = ModuleUpgrade(
            pipeline, module_name, from_version, _bump_version(from_version),
            module_instance, policy or CanaryPolicy(), self.kernel.now,
        )
        self._deploy_shadow(upgrade, module_cfg)
        self.upgrades.append(upgrade)
        self._active[key] = upgrade
        pipeline.metrics.increment("upgrades_started")
        if upgrade.policy.auto:
            upgrade.judge = self.kernel.every(
                CHECK_INTERVAL_S, self._judge, upgrade)
        return upgrade

    def _deploy_shadow(self, upgrade: ModuleUpgrade, module_cfg) -> None:
        """Install v2 + canary sink on the incumbent's device, wired into a
        private shadow wiring, and arm the mirror tap."""
        pipeline = upgrade.pipeline
        primary = pipeline.module(upgrade.module_name)
        runtime = primary.runtime
        device = runtime.device
        transport = runtime.transport
        shadow_label = f"{pipeline.name}!canary:{upgrade.module_name}"
        metrics = MetricsCollector(shadow_label)
        wiring = PipelineWiring(pipeline_name=shadow_label, metrics=metrics)
        # no source module: the candidate's completion signals no-op
        # instead of granting credits — mirrored traffic never touches the
        # §2.3 flow-control path
        wiring.source_module = None
        shadow_address = Address(
            device.name, transport.ephemeral_port(device.name)
        )
        sink_address = Address(
            device.name, transport.ephemeral_port(device.name)
        )
        wiring.addresses[upgrade.tap_name] = primary.address
        wiring.addresses[upgrade.shadow_name] = shadow_address
        wiring.addresses[upgrade.sink_name] = sink_address
        # every other module name routes to the sink: whether the
        # candidate forwards via call_next or an explicit call_module, the
        # copy terminates in the shadow, never in the live pipeline
        for name in pipeline.config.module_names():
            if name != upgrade.module_name:
                wiring.addresses[name] = sink_address
        wiring.next_modules[upgrade.shadow_name] = list(
            module_cfg.next_modules
        )
        wiring.next_modules[upgrade.sink_name] = []
        wiring.versions[upgrade.shadow_name] = upgrade.to_version
        wiring.versions[upgrade.module_name] = upgrade.from_version
        stubs = self.home.deployer._build_stubs(
            pipeline, module_cfg, device
        )
        upgrade.shadow_wiring = wiring
        upgrade.shadow_metrics = metrics
        upgrade.primary_deployed = primary
        upgrade.shadow_deployed = runtime.deploy(
            upgrade.shadow_name, upgrade.new_instance, shadow_address,
            wiring, stubs,
        )
        upgrade.sink_deployed = runtime.deploy(
            upgrade.sink_name, CanarySinkModule(), sink_address, wiring, {},
        )
        self.home._wire_observers(wiring, traced=False)
        primary.mirror = MirrorTap(upgrade)

    # -- decision loop -------------------------------------------------------
    def _judge(self, upgrade: ModuleUpgrade) -> None:
        verdict, reason = self._evaluate(upgrade)
        if verdict == "promote":
            self.promote(upgrade, reason=reason)
        elif verdict == "rollback":
            self.rollback(upgrade, reason=reason)

    def _evaluate(self, upgrade: ModuleUpgrade) -> tuple[str | None, str]:
        """Score the candidate against the incumbent; returns
        ``("promote"| "rollback" | None, reason)``."""
        policy = upgrade.policy
        shadow = upgrade.shadow_deployed
        errors = len(shadow.errors)
        events = shadow.events_processed
        if events and errors / events > MAX_ERROR_RATE:
            return "rollback", (
                f"candidate error rate {errors}/{events} exceeds"
                f" {MAX_ERROR_RATE:.0%}"
            )
        backlog = shadow.mailbox_depth
        if backlog > MAX_BACKLOG:
            return "rollback", (
                f"candidate backlog {backlog} exceeds {MAX_BACKLOG}:"
                " v2 cannot keep up with mirrored traffic"
            )
        v1_p99 = quantile(list(upgrade.primary_deployed.handler_samples), 0.99)
        v2_p99 = quantile(list(shadow.handler_samples), 0.99)
        bound = v1_p99 * P99_RATIO_LIMIT + P99_SLACK_S
        completed = upgrade.shadow_metrics.counter("frames_completed")
        if completed >= policy.min_mirrored:
            if v2_p99 > bound:
                return "rollback", (
                    f"candidate p99 {v2_p99 * 1e3:.1f}ms exceeds bound"
                    f" {bound * 1e3:.1f}ms (incumbent p99"
                    f" {v1_p99 * 1e3:.1f}ms)"
                )
            if backlog == 0:
                return "promote", (
                    f"{completed} mirrored frames completed; candidate p99"
                    f" {v2_p99 * 1e3:.1f}ms within bound"
                    f" {bound * 1e3:.1f}ms"
                )
        if self.kernel.now - upgrade.started_at >= policy.decision_timeout_s:
            return "rollback", (
                f"no promote verdict within {policy.decision_timeout_s:.1f}s"
                f" ({completed}/{policy.min_mirrored} mirrored frames"
                " completed) — failing safe"
            )
        return None, ""

    # -- verdicts ------------------------------------------------------------
    def promote(self, upgrade: ModuleUpgrade, reason: str = "manual") -> None:
        """Swap the warm candidate into the incumbent's address.

        The shadow deployment is retired first (undelivered mirror copies
        are dropped on the shadow collector), then
        :meth:`~repro.pipeline.deployer.Deployer.swap_module` rebinds the
        incumbent's address to the candidate within one kernel callback —
        peers keep routing unchanged, queued events are salvaged into the
        candidate's mailbox, and no admitted frame is lost.
        """
        if upgrade.state != MIRRORING:
            raise ConfigError(f"upgrade is {upgrade.state}, not mirroring")
        self._retire_shadow(upgrade)
        self.home.deployer.swap_module(
            upgrade.pipeline, upgrade.module_name, upgrade.new_instance,
            upgrade.to_version,
        )
        self._finish(upgrade, PROMOTED, reason)
        upgrade.pipeline.metrics.increment("upgrades_promoted")

    def rollback(self, upgrade: ModuleUpgrade, reason: str = "manual") -> None:
        """Retire the candidate; the incumbent was never touched."""
        if upgrade.state != MIRRORING:
            raise ConfigError(f"upgrade is {upgrade.state}, not mirroring")
        self._retire_shadow(upgrade)
        upgrade.new_instance.shutdown(upgrade.shadow_deployed.ctx)
        self._finish(upgrade, ROLLED_BACK, reason)
        upgrade.pipeline.metrics.increment("upgrades_rolled_back")

    def _retire_shadow(self, upgrade: ModuleUpgrade) -> None:
        """Detach the tap and tear the shadow deployment down, settling
        every mirrored frame still queued there on the shadow collector."""
        upgrade.primary_deployed.mirror = None
        for dep in (upgrade.shadow_deployed, upgrade.sink_deployed):
            dep.runtime.undeploy(dep.name)
            dep.settle_queued(SHADOW_RETIRE)

    def _finish(
        self, upgrade: ModuleUpgrade, state: str, reason: str
    ) -> None:
        upgrade.state = state
        upgrade.decided_at = self.kernel.now
        upgrade.reason = reason
        if upgrade.judge is not None:
            upgrade.judge.cancel()
        self.actions.append(Action(
            upgrade.decided_at, "liveops", state,
            f"{upgrade.pipeline.name}/{upgrade.module_name}", reason,
            {"from_version": upgrade.from_version,
             "to_version": upgrade.to_version,
             "mirrored_frames": upgrade.mirrored_frames},
        ))
        self._active.pop((upgrade.pipeline.name, upgrade.module_name), None)

    # -- inspection ----------------------------------------------------------
    def active_upgrades(self) -> list[ModuleUpgrade]:
        return list(self._active.values())

    def upgrade_of(
        self, pipeline_name: str, module_name: str
    ) -> ModuleUpgrade | None:
        """The in-flight upgrade for one module, or ``None``."""
        return self._active.get((pipeline_name, module_name))

    def snapshot(self) -> dict[str, Any]:
        """The ``liveops`` section of ``VideoPipe.snapshot()``: every
        upgrade's state (the home adds the lineage recorder's counters)."""
        states = {MIRRORING: 0, PROMOTED: 0, ROLLED_BACK: 0}
        for upgrade in self.upgrades:
            states[upgrade.state] += 1
        return {
            "upgrades": [u.describe() for u in self.upgrades],
            "counts": states,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<LiveOpsManager {len(self.upgrades)} upgrade(s),"
            f" {len(self._active)} active>"
        )
