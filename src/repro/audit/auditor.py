"""The runtime invariant auditor: conservation laws, checked while you run.

VideoPipe's core claims — no queues anywhere, frame dropping only at the
source, frames passed by reference id within a device (§3) — reduce to a
small set of conservation laws and ordering invariants. The auditor checks
them continuously and at quiesce, in the deterministic-simulation-testing
tradition (FoundationDB-style): because the whole home runs on one
deterministic kernel, every violation is exactly reproducible under the
same seed.

Invariants covered (see ``docs/AUDIT.md`` for the full statement of each):

* **frame-ref conservation** per :class:`~repro.frames.framestore.FrameStore`
  — every ``put`` is matched by releases, refcounts never go negative, and
  at end-of-run ``live_count == 0`` with per-holder attribution;
* **arena handle conservation** per :class:`~repro.frames.arena.FrameArena`
  — alloc/free/bytes counters agree with the auditor's independent mirror,
  stale handle dereferences are flagged with their retire reason, and at
  quiesce every live slot backs a stored frame (no orphaned pixel memory);
* **message conservation** per :class:`~repro.net.transport.Transport` —
  ``sent == delivered + failed + in-flight`` at all times, with the
  auditor's own in-flight mirror cross-checked against the transport's;
* **sim-kernel hygiene** — clock monotonicity, no event scheduled in the
  past;
* **metrics conservation** per :class:`~repro.metrics.collector
  .MetricsCollector` — frames admitted == completed + dropped + in-flight,
  and the collector's in-flight table agrees with the auditor's mirror;
* **autoscaler pacing** — consecutive scaling decisions for one host are
  separated by the policy cooldown and stay inside
  ``[min_replicas, max_replicas]`` (the pre-fix overlapping-window bug
  bursts replicas and trips this immediately);
* **SLO ladder monotonicity** per :class:`~repro.slo.controller
  .SLOController` — every action moves the ladder depth by exactly one,
  consecutive actions on one pipeline respect the hysteresis spacing (no
  flapping), and restores pop the most recently applied rung (recovery in
  exactly reverse order);
* **admission conservation** — ``deploys_requested == deploys_deployed +
  deploys_rejected + deploys_withdrawn + queued-now``: no deploy request
  vanishes between admission control and the deployer;
* **live-ops version swaps** per :class:`~repro.liveops.upgrade
  .LiveOpsManager` — every hot upgrade started is either still mirroring,
  promoted, or rolled back (none vanish), a finished upgrade leaves
  exactly one version of the module deployed under the right version
  label, and every frame the mirror tap copied was admitted on the shadow
  collector.

Auditing is *passive*: the auditor never schedules kernel events, never
consumes randomness, and never touches message sizes, so an audited run is
bit-for-bit identical to an unaudited one — the same guarantee tracing
makes, and the property ``tests/integration/test_audit.py`` asserts.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..errors import AuditError
from ..pipeline.config import AuditConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..frames.arena import ArenaHandle, FrameArena
    from ..frames.framestore import FrameStore
    from ..metrics.collector import MetricsCollector
    from ..net.transport import Transport
    from ..services.scaling import AutoScaler, ScalingEvent
    from ..sim.events import Event
    from ..sim.kernel import Kernel
    from ..slo.controller import SLOController
    from ..slo.ladder import LadderAction
    from ..slo.spec import AdmissionDecision

#: Tolerance for float time comparisons (kernel times are exact sums of
#: exact delays, but cooldown arithmetic subtracts them).
_EPS = 1e-9

#: Every live auditor, so test harnesses (the ``REPRO_AUDIT`` pytest gate)
#: can sweep for violations without threading references around.
_LIVE_AUDITORS: "weakref.WeakSet[InvariantAuditor]" = weakref.WeakSet()


def live_auditors() -> list["InvariantAuditor"]:
    """Every auditor currently alive in the process (weakly tracked)."""
    return list(_LIVE_AUDITORS)


@dataclass(slots=True)
class Violation:
    """One detected invariant violation.

    Attributes:
        at: simulated time the violation was detected.
        invariant: which law broke (``frame-ref-conservation``,
            ``arena-conservation``, ``arena-stale-access``,
            ``message-conservation``, ``kernel-hygiene``,
            ``metrics-conservation``, ``autoscaler-pacing``,
            ``slo-ladder``, ``admission-conservation``, ``rpc-quiesce``,
            ``liveops-version-swap``, ``liveops-conservation``).
        subject: the component involved (store device, transport class,
            collector name, service@device).
        detail: an actionable description — what was expected, what was
            observed, and where to look.
    """

    at: float
    invariant: str
    subject: str
    detail: str

    def describe(self) -> str:
        return f"[t={self.at:.6f}s] {self.invariant} on {self.subject}: {self.detail}"


@dataclass(slots=True)
class _StoreState:
    """The auditor's mirror of one frame store's live references."""

    refcounts: dict[int, int] = field(default_factory=dict)
    held_since: dict[int, float] = field(default_factory=dict)
    holds: int = 0
    releases: int = 0


@dataclass(slots=True)
class _ArenaState:
    """The auditor's mirror of one frame arena's handle conservation."""

    allocs: int = 0
    frees: int = 0
    bytes_in_use: int = 0
    #: live offsets mirrored independently: offset -> (generation, nbytes).
    live: dict[int, tuple[int, int]] = field(default_factory=dict)
    stale_accesses: int = 0


@dataclass(slots=True)
class _TransportState:
    """Baseline counters and the in-flight mirror for one transport."""

    base_sent: int = 0
    base_delivered: int = 0
    base_failed: int = 0
    in_flight: dict[int, float] = field(default_factory=dict)  # msg_id -> sent at


@dataclass(slots=True)
class _SloState:
    """The auditor's mirror of one SLO controller's ladder and admissions."""

    #: pipeline -> time of the last ladder action (either direction).
    last_action_at: dict[str, float] = field(default_factory=dict)
    #: pipeline -> mirrored stack of applied step names.
    stacks: dict[str, list[str]] = field(default_factory=dict)
    #: counter baselines at watch time (a controller watched mid-run
    #: starts conservation from its current totals).
    base: dict[str, int] = field(default_factory=dict)


@dataclass(slots=True)
class _LiveOpsState:
    """The auditor's mirror of one live-ops manager's upgrade ledger."""

    started: int = 0
    promoted: int = 0
    rolled_back: int = 0


@dataclass(slots=True)
class _MetricsState:
    """Baseline counters and the admitted-frame mirror for one collector."""

    base_entered: int = 0
    base_completed: int = 0
    base_dropped: int = 0
    clean_at_watch: bool = True
    in_flight: set = field(default_factory=set)
    entered: int = 0
    completed_admitted: int = 0
    dropped_admitted: int = 0
    dropped_unadmitted: int = 0


class InvariantAuditor:
    """Watches components and records :class:`Violation` objects.

    One auditor serves a whole home (mirror ``enable_tracing``:
    :meth:`repro.core.videopipe.VideoPipe.enable_audit` creates and wires
    it). Components call the ``on_*`` notification methods at the exact
    points their own bookkeeping changes; the auditor keeps an independent
    mirror and flags any disagreement.

    Attributes:
        violations: recorded violations, oldest first (capped by
            ``AuditConfig.max_violations``).
        dropped_violations: violations past the cap (counted, not stored).
        source: ``"explicit"`` for auditors built through the API,
            ``"env"`` for those auto-enabled by ``REPRO_AUDIT=1``.
    """

    def __init__(
        self,
        kernel: "Kernel",
        config: AuditConfig | None = None,
        source: str = "explicit",
    ) -> None:
        self.kernel = kernel
        self.config = config or AuditConfig()
        self.source = source
        self.violations: list[Violation] = []
        self.dropped_violations = 0
        self.checks_run = 0
        self._stores: dict[int, tuple["FrameStore", _StoreState]] = {}
        self._arenas: dict[int, tuple["FrameArena", _ArenaState]] = {}
        self._transports: dict[int, tuple["Transport", _TransportState]] = {}
        self._metrics: dict[int, tuple["MetricsCollector", _MetricsState]] = {}
        self._scalers: dict[int, tuple["AutoScaler", dict]] = {}
        self._slo: dict[int, tuple["SLOController", "_SloState"]] = {}
        self._liveops: dict[int, tuple[Any, _LiveOpsState]] = {}
        self._last_exec_time: float | None = None
        self._kernel_attached = False
        _LIVE_AUDITORS.add(self)

    # -- recording ------------------------------------------------------------
    @property
    def violation_count(self) -> int:
        """Total violations detected (stored + dropped past the cap)."""
        return len(self.violations) + self.dropped_violations

    def record(self, invariant: str, subject: str, detail: str) -> None:
        """Record one violation (or raise, in strict mode)."""
        violation = Violation(
            at=self.kernel.now, invariant=invariant, subject=subject, detail=detail
        )
        if self.config.strict:
            raise AuditError(violation.describe())
        if len(self.violations) < self.config.max_violations:
            self.violations.append(violation)
        else:
            self.dropped_violations += 1

    def report(self) -> str:
        """A human-readable multi-line report of everything detected."""
        if not self.violation_count:
            return "audit clean: no invariant violations detected"
        lines = [
            f"audit found {self.violation_count} violation(s)"
            + (f" ({self.dropped_violations} past the cap, not stored)"
               if self.dropped_violations else "")
        ]
        lines += [f"  {v.describe()}" for v in self.violations]
        return "\n".join(lines)

    # -- kernel hygiene ---------------------------------------------------------
    def attach_kernel(self, kernel: "Kernel") -> None:
        """Observe *kernel* for clock monotonicity and past-scheduling."""
        if not self._kernel_attached:
            kernel.add_observer(self)
            self._kernel_attached = True

    def on_schedule(self, now: float, event: "Event") -> None:
        if event.time < now - _EPS:
            self.record(
                "kernel-hygiene",
                "kernel",
                f"event scheduled in the past: event time {event.time:.6f}s"
                f" < now {now:.6f}s (seq {event.seq})",
            )

    def on_execute(self, now: float, event: "Event") -> None:
        if event.time < now - _EPS:
            self.record(
                "kernel-hygiene",
                "kernel",
                f"clock would run backwards: popped event at {event.time:.6f}s"
                f" with clock at {now:.6f}s (seq {event.seq}) — the event"
                " queue was corrupted after scheduling",
            )
        last = self._last_exec_time
        if last is not None and event.time < last - _EPS:
            self.record(
                "kernel-hygiene",
                "kernel",
                f"non-monotonic execution order: event at {event.time:.6f}s"
                f" after one at {last:.6f}s",
            )
        else:
            self._last_exec_time = event.time

    # -- frame-ref conservation ---------------------------------------------------
    def watch_store(self, store: "FrameStore") -> None:
        """Mirror *store*'s refcounts; flag negatives now and leaks at quiesce."""
        if id(store) in self._stores:
            return
        store.auditor = self
        state = _StoreState()
        # a store watched mid-run starts with its current live refs mirrored
        for ref_id, count in store._refcounts.items():
            if count > 0:
                state.refcounts[ref_id] = count
                state.held_since[ref_id] = self.kernel.now
        self._stores[id(store)] = (store, state)

    def on_ref_hold(self, store: "FrameStore", ref_id: int, refcount: int) -> None:
        entry = self._stores.get(id(store))
        if entry is None:
            return
        state = entry[1]
        state.holds += 1
        if ref_id not in state.refcounts:
            state.held_since[ref_id] = self.kernel.now
        state.refcounts[ref_id] = refcount

    def on_ref_release(self, store: "FrameStore", ref_id: int, refcount: int) -> None:
        entry = self._stores.get(id(store))
        if entry is None:
            return
        state = entry[1]
        state.releases += 1
        if refcount < 0:
            self.record(
                "frame-ref-conservation",
                f"framestore/{store.device}",
                f"refcount for ref #{ref_id} went negative ({refcount}):"
                " a reference was released more times than it was held",
            )
        if refcount <= 0:
            state.refcounts.pop(ref_id, None)
            state.held_since.pop(ref_id, None)
        else:
            state.refcounts[ref_id] = refcount

    # -- arena handle conservation ------------------------------------------------
    def watch_arena(self, arena: "FrameArena") -> None:
        """Mirror *arena*'s alloc/free accounting; flag stale handle
        accesses now and unreleased slots at quiesce."""
        if id(arena) in self._arenas:
            return
        arena.auditor = self
        state = _ArenaState(
            allocs=arena.allocs,
            frees=arena.frees,
            bytes_in_use=arena.bytes_in_use,
        )
        # an arena watched mid-run starts with its current live slots mirrored
        for offset, handle in arena._live.items():
            state.live[offset] = (handle.generation, handle.nbytes)
        self._arenas[id(arena)] = (arena, state)

    def on_arena_alloc(self, arena: "FrameArena", handle: "ArenaHandle") -> None:
        entry = self._arenas.get(id(arena))
        if entry is None:
            return
        state = entry[1]
        state.allocs += 1
        state.bytes_in_use += handle.nbytes
        if handle.offset in state.live:
            self.record(
                "arena-conservation",
                f"arena/{arena.arena_id}",
                f"offset {handle.offset} allocated while the auditor still"
                f" mirrors it live (generation"
                f" {state.live[handle.offset][0]}) — a free was never"
                " reported",
            )
        state.live[handle.offset] = (handle.generation, handle.nbytes)

    def on_arena_free(
        self, arena: "FrameArena", handle: "ArenaHandle", reason: str
    ) -> None:
        entry = self._arenas.get(id(arena))
        if entry is None:
            return
        state = entry[1]
        state.frees += 1
        state.bytes_in_use -= handle.nbytes
        mirrored = state.live.pop(handle.offset, None)
        if mirrored is None:
            self.record(
                "arena-conservation",
                f"arena/{arena.arena_id}",
                f"free({reason}) of offset {handle.offset} the auditor does"
                " not mirror as live — double free slipped past the"
                " generation check",
            )
        elif mirrored[0] != handle.generation:
            self.record(
                "arena-conservation",
                f"arena/{arena.arena_id}",
                f"free({reason}) of offset {handle.offset} at generation"
                f" {handle.generation} but the auditor mirrors generation"
                f" {mirrored[0]} — a stale handle reached the free path",
            )

    def on_stale_access(
        self, arena: "FrameArena", handle: "ArenaHandle", reason: str
    ) -> None:
        entry = self._arenas.get(id(arena))
        if entry is None:
            return
        entry[1].stale_accesses += 1
        self.record(
            "arena-stale-access",
            f"arena/{arena.arena_id}",
            f"stale handle {handle} dereferenced after the slot was retired"
            f" ({reason}) — a holder kept a handle across"
            f" {'eviction' if reason == 'evicted' else reason} instead of"
            " re-resolving through the frame store",
        )

    # -- message conservation ------------------------------------------------------
    def watch_transport(self, transport: "Transport") -> None:
        """Check ``sent == delivered + failed + in-flight`` on *transport*."""
        if id(transport) in self._transports:
            return
        transport.auditor = self
        state = _TransportState(
            base_sent=transport.sent_count,
            base_delivered=transport.delivered_count,
            base_failed=transport.failed_count,
        )
        self._transports[id(transport)] = (transport, state)

    def on_message_sent(self, transport: "Transport", message: Any) -> None:
        entry = self._transports.get(id(transport))
        if entry is not None:
            entry[1].in_flight[message.msg_id] = self.kernel.now

    def on_message_delivered(self, transport: "Transport", message: Any) -> None:
        entry = self._transports.get(id(transport))
        if entry is not None:
            entry[1].in_flight.pop(message.msg_id, None)

    def on_message_failed(self, transport: "Transport", message: Any) -> None:
        entry = self._transports.get(id(transport))
        if entry is not None:
            entry[1].in_flight.pop(message.msg_id, None)

    # -- metrics conservation -------------------------------------------------------
    def watch_metrics(self, collector: "MetricsCollector") -> None:
        """Check frames admitted == completed + dropped + in-flight on
        *collector*."""
        if id(collector) in self._metrics:
            return
        collector.auditor = self
        state = _MetricsState(
            base_entered=collector.counter("frames_entered"),
            base_completed=collector.counter("frames_completed"),
            base_dropped=collector.counter("frames_dropped"),
            clean_at_watch=collector.frames_in_flight == 0,
        )
        self._metrics[id(collector)] = (collector, state)

    def on_frame_entered(self, collector: "MetricsCollector", frame_id: int) -> None:
        entry = self._metrics.get(id(collector))
        if entry is None:
            return
        state = entry[1]
        state.entered += 1
        state.in_flight.add(frame_id)

    def on_frame_completed(self, collector: "MetricsCollector", frame_id: int) -> None:
        entry = self._metrics.get(id(collector))
        if entry is None:
            return
        state = entry[1]
        if frame_id in state.in_flight:
            state.in_flight.discard(frame_id)
            state.completed_admitted += 1

    def on_frame_dropped(self, collector: "MetricsCollector", frame_id: int) -> None:
        entry = self._metrics.get(id(collector))
        if entry is None:
            return
        state = entry[1]
        if frame_id in state.in_flight:
            state.in_flight.discard(frame_id)
            state.dropped_admitted += 1
        else:
            state.dropped_unadmitted += 1

    # -- autoscaler pacing ------------------------------------------------------------
    def watch_autoscaler(self, scaler: "AutoScaler") -> None:
        """Check cooldown pacing and replica bounds on *scaler*'s events."""
        if id(scaler) in self._scalers:
            return
        scaler.auditor = self
        self._scalers[id(scaler)] = (scaler, {})

    def on_scaling_event(self, scaler: "AutoScaler", event: "ScalingEvent") -> None:
        entry = self._scalers.get(id(scaler))
        if entry is None:
            return
        last_by_host = entry[1]
        key = (event.service, event.device)
        policy = scaler.policy
        subject = f"autoscaler/{event.service}@{event.device}"
        previous = last_by_host.get(key)
        if (
            previous is not None
            and event.at - previous < policy.cooldown_s - _EPS
        ):
            self.record(
                "autoscaler-pacing",
                subject,
                f"scaling events {previous:.3f}s and {event.at:.3f}s are"
                f" {event.at - previous:.3f}s apart, inside the"
                f" {policy.cooldown_s:.3f}s cooldown — the sampler is"
                " re-evaluating overlapping windows (one decision should"
                " consume its window)",
            )
        last_by_host[key] = event.at
        if not (1 <= event.to_replicas <= policy.max_replicas):
            self.record(
                "autoscaler-pacing",
                subject,
                f"replica count left [1, {policy.max_replicas}]:"
                f" {event.from_replicas} -> {event.to_replicas}",
            )

    # -- slo ladder & admission --------------------------------------------------------
    def watch_slo(self, controller: "SLOController") -> None:
        """Check ladder monotonicity and admission conservation on
        *controller*."""
        if id(controller) in self._slo:
            return
        controller.auditor = self
        state = _SloState()
        counters = controller.metrics.counters()
        for key in ("deploys_requested", "deploys_deployed",
                    "deploys_rejected", "deploys_withdrawn"):
            state.base[key] = counters.get(key, 0)
        state.base["queued_now"] = len(controller.queued)
        # enrollments that already carry applied rungs are mirrored as-is
        for enrollment in controller.enrollments:
            name = enrollment.pipeline.config.name
            state.stacks[name] = enrollment.applied_steps()
            if enrollment.last_action_at is not None:
                state.last_action_at[name] = enrollment.last_action_at
        self._slo[id(controller)] = (controller, state)

    def on_slo_action(
        self, controller: "SLOController", action: "LadderAction"
    ) -> None:
        entry = self._slo.get(id(controller))
        if entry is None:
            return
        state = entry[1]
        subject = f"slo/{action.pipeline}"
        previous = state.last_action_at.get(action.pipeline)
        hysteresis = controller.config.hysteresis_s
        if previous is not None and action.at - previous < hysteresis - _EPS:
            self.record(
                "slo-ladder",
                subject,
                f"ladder actions at {previous:.3f}s and {action.at:.3f}s are"
                f" {action.at - previous:.3f}s apart, inside the"
                f" {hysteresis:.3f}s hysteresis — the controller is flapping",
            )
        state.last_action_at[action.pipeline] = action.at
        expected_delta = 1 if action.direction == "degrade" else -1
        if action.depth_after - action.depth_before != expected_delta:
            self.record(
                "slo-ladder",
                subject,
                f"{action.direction} moved ladder depth"
                f" {action.depth_before} -> {action.depth_after}; every"
                " action must move it by exactly one rung",
            )
        stack = state.stacks.setdefault(action.pipeline, [])
        if len(stack) != action.depth_before:
            self.record(
                "slo-ladder",
                subject,
                f"action reports depth_before={action.depth_before} but the"
                f" auditor mirrors {len(stack)} applied rung(s)",
            )
        if action.direction == "degrade":
            stack.append(action.step)
        elif stack:
            top = stack.pop()
            if top != action.step:
                self.record(
                    "slo-ladder",
                    subject,
                    f"restore reverted {action.step!r} while the most"
                    f" recently applied rung is {top!r} — recovery must"
                    " retrace the ladder in reverse order",
                )
        else:
            self.record(
                "slo-ladder",
                subject,
                f"restore of {action.step!r} with no applied rung mirrored",
            )

    def on_admission(
        self, controller: "SLOController", decision: "AdmissionDecision"
    ) -> None:
        entry = self._slo.get(id(controller))
        if entry is None:
            return
        subject = f"slo/{decision.pipeline}"
        if decision.action not in ("admitted", "rejected", "queued"):
            self.record(
                "admission-conservation",
                subject,
                f"admission decision with unknown action {decision.action!r}",
            )
        elif (
            decision.action != "admitted"
            and decision.worst_utilization <= decision.threshold + _EPS
        ):
            self.record(
                "admission-conservation",
                subject,
                f"deploy {decision.action} with predicted utilization"
                f" {decision.worst_utilization:.3f} within threshold"
                f" {decision.threshold:.3f}",
            )

    def _check_slo(self, controller: "SLOController", state: _SloState) -> None:
        counters = controller.metrics.counters()
        requested = counters.get("deploys_requested", 0) - state.base["deploys_requested"]
        deployed = counters.get("deploys_deployed", 0) - state.base["deploys_deployed"]
        rejected = counters.get("deploys_rejected", 0) - state.base["deploys_rejected"]
        withdrawn = counters.get("deploys_withdrawn", 0) - state.base["deploys_withdrawn"]
        queued_now = len(controller.queued) - state.base["queued_now"]
        if requested != deployed + rejected + withdrawn + queued_now:
            self.record(
                "admission-conservation",
                "slo/controller",
                f"requested ({requested}) != deployed ({deployed}) +"
                f" rejected ({rejected}) + withdrawn ({withdrawn}) +"
                f" queued-now ({queued_now}) —"
                f" {requested - deployed - rejected - withdrawn - queued_now}"
                " deploy request(s) vanished between admission and the"
                " deployer",
            )
        for enrollment in controller.enrollments:
            name = enrollment.pipeline.config.name
            depth = enrollment.depth
            if not 0 <= depth <= len(enrollment.ladder):
                self.record(
                    "slo-ladder",
                    f"slo/{name}",
                    f"ladder depth {depth} outside"
                    f" [0, {len(enrollment.ladder)}]",
                )
            mirrored = state.stacks.get(name, [])
            if enrollment.applied_steps() != mirrored:
                self.record(
                    "slo-ladder",
                    f"slo/{name}",
                    f"applied rungs {enrollment.applied_steps()} disagree"
                    f" with the auditor's mirror {mirrored} — a rung was"
                    " applied or reverted without a recorded action",
                )

    # -- live-ops version swaps ---------------------------------------------------------
    def watch_liveops(self, manager: Any) -> None:
        """Check the version-swap conservation law on *manager*: every
        upgrade started either promotes, rolls back, or is still mirroring
        — and a finished upgrade leaves exactly one version of the module
        deployed, under the right version label."""
        if id(manager) in self._liveops:
            return
        manager.auditor = self
        state = _LiveOpsState()
        # a manager watched mid-run starts with its ledger mirrored as-is
        for upgrade in manager.upgrades:
            state.started += 1
            if upgrade.state == "promoted":
                state.promoted += 1
            elif upgrade.state == "rolled_back":
                state.rolled_back += 1
        self._liveops[id(manager)] = (manager, state)

    def on_upgrade_started(self, manager: Any, upgrade: Any) -> None:
        entry = self._liveops.get(id(manager))
        if entry is not None:
            entry[1].started += 1

    def on_upgrade_finished(self, manager: Any, upgrade: Any) -> None:
        entry = self._liveops.get(id(manager))
        if entry is None:
            return
        state = entry[1]
        subject = f"liveops/{upgrade.pipeline.name}/{upgrade.module_name}"
        if upgrade.state == "promoted":
            state.promoted += 1
        elif upgrade.state == "rolled_back":
            state.rolled_back += 1
        else:
            self.record(
                "liveops-version-swap",
                subject,
                f"upgrade finished in state {upgrade.state!r}; every finish"
                " must be a promotion or a rollback",
            )
            return
        # exactly one version of the module may remain live: the shadow
        # deployment and its sink must be gone, the real name deployed
        runtime = upgrade.pipeline.module(upgrade.module_name).runtime
        deployed_names = set(runtime.deployed_names())
        for ghost in (upgrade.shadow_name, upgrade.sink_name):
            if ghost in deployed_names:
                self.record(
                    "liveops-version-swap",
                    subject,
                    f"shadow deployment {ghost!r} still live after the"
                    f" upgrade {upgrade.state}; promotion/rollback must"
                    " retire the canary",
                )
        if upgrade.module_name not in deployed_names:
            self.record(
                "liveops-version-swap",
                subject,
                f"module {upgrade.module_name!r} is not deployed after the"
                f" upgrade {upgrade.state} — the swap dropped the module",
            )
        expected = (
            upgrade.to_version if upgrade.state == "promoted"
            else upgrade.from_version
        )
        labeled = upgrade.pipeline.wiring.version_of(upgrade.module_name)
        if labeled != expected:
            self.record(
                "liveops-version-swap",
                subject,
                f"wiring labels {upgrade.module_name!r} as {labeled!r} after"
                f" a {upgrade.state} upgrade; expected {expected!r}",
            )
        shadow = upgrade.shadow_metrics
        if shadow is not None and upgrade.mirrored_frames != (
            shadow.counter("frames_entered")
        ):
            self.record(
                "liveops-version-swap",
                subject,
                f"mirror tap copied {upgrade.mirrored_frames} frame(s) but"
                f" the shadow collector admitted"
                f" {shadow.counter('frames_entered')} — a mirrored frame"
                " bypassed shadow accounting",
            )

    def _check_liveops(self, manager: Any, state: _LiveOpsState) -> None:
        active = len(manager.active_upgrades())
        if state.started != active + state.promoted + state.rolled_back:
            self.record(
                "liveops-conservation",
                "liveops/manager",
                f"started ({state.started}) != active ({active}) + promoted"
                f" ({state.promoted}) + rolled-back ({state.rolled_back}) —"
                " an upgrade vanished without a verdict",
            )

    # -- checks -------------------------------------------------------------------------
    def check_now(self) -> list[Violation]:
        """Run every invariant that must hold at *any* instant.

        Returns the violations added by this call.
        """
        start = len(self.violations)
        self.checks_run += 1
        for arena, state in self._arenas.values():
            self._check_arena(arena, state)
        for transport, state in self._transports.values():
            self._check_transport(transport, state)
        for collector, state in self._metrics.values():
            self._check_metrics(collector, state)
        for controller, state in self._slo.values():
            self._check_slo(controller, state)
        for manager, state in self._liveops.values():
            self._check_liveops(manager, state)
        return self.violations[start:]

    def check_quiesce(self) -> list[Violation]:
        """Run every invariant, including the end-of-run ones: all frame
        refs released, no in-flight messages, no pending RPCs.

        Call when the home is done (the event queue has drained or the
        caller knows all work has settled). Returns the violations added.
        """
        start = len(self.violations)
        self.check_now()
        for store, state in self._stores.values():
            self._check_store_quiesce(store, state)
        for arena, state in self._arenas.values():
            self._check_arena_quiesce(arena)
        for transport, state in self._transports.values():
            if transport.in_flight and not transport.closed:
                self.record(
                    "message-conservation",
                    f"transport/{type(transport).__name__}",
                    f"{transport.in_flight} message(s) still in flight at"
                    " quiesce: a send's arrival signal never resolved",
                )
            for client in transport.rpc_clients:
                pending = client.pending_count
                if pending:
                    self.record(
                        "rpc-quiesce",
                        f"rpc/{client.reply_address}",
                        f"{pending} RPC request(s) still pending at quiesce:"
                        " a reply or timeout was lost",
                    )
        for collector, state in self._metrics.values():
            if state.clean_at_watch and collector.frames_in_flight:
                self.record(
                    "metrics-conservation",
                    f"metrics/{collector.name}",
                    f"{collector.frames_in_flight} frame(s) still marked"
                    " in-flight at quiesce: frames_entered was never matched"
                    " by frame_completed/frame_dropped — a drop path is not"
                    " reporting to the collector",
                )
        return self.violations[start:]

    # -- check bodies ------------------------------------------------------------
    def _check_transport(self, transport: "Transport", state: _TransportState) -> None:
        subject = f"transport/{type(transport).__name__}"
        sent = transport.sent_count - state.base_sent
        delivered = transport.delivered_count - state.base_delivered
        failed = transport.failed_count - state.base_failed
        in_flight = transport.in_flight
        if sent != delivered + failed + in_flight:
            self.record(
                "message-conservation",
                subject,
                f"sent ({sent}) != delivered ({delivered}) + failed"
                f" ({failed}) + in-flight ({in_flight}) — "
                f"{sent - delivered - failed - in_flight} message(s)"
                " vanished without a delivery or failure",
            )
        if len(state.in_flight) != in_flight:
            examples = sorted(state.in_flight)[:5]
            self.record(
                "message-conservation",
                subject,
                f"auditor mirrors {len(state.in_flight)} in-flight message(s)"
                f" but the transport reports {in_flight}; unsettled msg ids"
                f" (up to 5): {examples} — a pending send was dropped"
                " without resolving its signal",
            )

    def _check_metrics(self, collector: "MetricsCollector", state: _MetricsState) -> None:
        subject = f"metrics/{collector.name}"
        entered = collector.counter("frames_entered") - state.base_entered
        completed = collector.counter("frames_completed") - state.base_completed
        dropped = collector.counter("frames_dropped") - state.base_dropped
        if entered != state.entered:
            self.record(
                "metrics-conservation",
                subject,
                f"frames_entered counter moved by {entered} but the"
                f" collector notified {state.entered} admissions",
            )
        if state.clean_at_watch:
            mirrored = len(state.in_flight)
            if collector.frames_in_flight != mirrored:
                self.record(
                    "metrics-conservation",
                    subject,
                    f"collector reports {collector.frames_in_flight} frame(s)"
                    f" in flight but admitted-minus-settled is {mirrored} —"
                    " frame_dropped/frame_completed is not pruning"
                    " _frame_started (the PR-3 leak class)",
                )
        accounted = (
            state.completed_admitted + state.dropped_admitted + len(state.in_flight)
        )
        if state.entered != accounted:
            self.record(
                "metrics-conservation",
                subject,
                f"admitted ({state.entered}) != completed ({state.completed_admitted})"
                f" + dropped ({state.dropped_admitted})"
                f" + in-flight ({len(state.in_flight)})",
            )
        if dropped < state.dropped_admitted:
            self.record(
                "metrics-conservation",
                subject,
                f"frames_dropped counter ({dropped}) is below the"
                f" admitted drops the collector reported"
                f" ({state.dropped_admitted})",
            )
        if completed < state.completed_admitted:
            self.record(
                "metrics-conservation",
                subject,
                f"frames_completed counter ({completed}) is below the"
                f" admitted completions the collector reported"
                f" ({state.completed_admitted})",
            )

    def _check_arena(self, arena: "FrameArena", state: _ArenaState) -> None:
        subject = f"arena/{arena.arena_id}"
        if arena.allocs != state.allocs or arena.frees != state.frees:
            self.record(
                "arena-conservation",
                subject,
                f"arena counts {arena.allocs} alloc(s) / {arena.frees}"
                f" free(s) but the auditor mirrors {state.allocs} /"
                f" {state.frees} — an alloc or free path skipped its"
                " notification",
            )
        if arena.bytes_in_use != state.bytes_in_use:
            self.record(
                "arena-conservation",
                subject,
                f"arena reports {arena.bytes_in_use} byte(s) in use but the"
                f" auditor mirrors {state.bytes_in_use} — per-slot sizes"
                " disagree between alloc and free",
            )
        if arena.live_count != len(state.live):
            self.record(
                "arena-conservation",
                subject,
                f"arena reports {arena.live_count} live slot(s) but the"
                f" auditor mirrors {len(state.live)}",
            )

    def _check_arena_quiesce(self, arena: "FrameArena") -> None:
        """At quiesce every live arena slot must back a stored frame.

        Retained dedup targets legitimately keep their slots, so the law is
        *no orphans* rather than ``live_count == 0``: a slot the backing
        store no longer maps is pixel memory nothing can ever free."""
        store = None
        for candidate, _ in self._stores.values():
            if candidate.arena is arena:
                store = candidate
                break
        if store is None:
            if arena.live_count:
                self.record(
                    "arena-conservation",
                    f"arena/{arena.arena_id}",
                    f"{arena.live_count} live slot(s) at quiesce on an arena"
                    " with no watched backing store",
                )
            return
        backed = {handle.offset for handle in store._by_handle}
        orphans = sorted(set(arena._live) - backed)
        if orphans:
            self.record(
                "arena-conservation",
                f"arena/{arena.arena_id}",
                f"{len(orphans)} orphaned arena slot(s) at quiesce with no"
                f" backing store entry (offsets, up to 5: {orphans[:5]}) —"
                " pixel memory nothing can ever free",
            )

    def _check_store_quiesce(self, store: "FrameStore", state: _StoreState) -> None:
        subject = f"framestore/{store.device}"
        if store.live_count == 0:
            return
        holders = []
        for ref_id in sorted(state.refcounts)[:5]:
            count = state.refcounts[ref_id]
            since = state.held_since.get(ref_id, 0.0)
            obj = store._objects.get(ref_id)
            holders.append(
                f"#{ref_id} {type(obj).__name__} x{count}"
                f" (held since t={since:.3f}s)"
            )
        attribution = "; ".join(holders) if holders else store._top_holders()
        self.record(
            "frame-ref-conservation",
            subject,
            f"{store.live_count} live reference(s) at quiesce after"
            f" {state.holds} hold(s) / {state.releases} release(s) — a"
            f" module or service is leaking holds. Leaked: {attribution}",
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<InvariantAuditor {len(self._stores)} stores,"
            f" {len(self._transports)} transports, {len(self._metrics)}"
            f" collectors, {self.violation_count} violations>"
        )
