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
  separated by the autoscaler's cooldown and stay inside
  ``[1, max_replicas]`` (the pre-fix overlapping-window bug
  bursts replicas and trips this immediately);
* **SLO ladder monotonicity** per :class:`~repro.slo.controller
  .SLOController` — every action moves the ladder depth by exactly one,
  consecutive actions on one pipeline respect the hysteresis spacing (no
  flapping), and restores pop the most recently applied rung (recovery in
  exactly reverse order);
* **admission conservation** — ``deploys_requested == deploys_deployed +
  deploys_rejected + deploys_withdrawn``: no deploy request
  vanishes between admission control and the deployer;
* **live-ops version swaps** per :class:`~repro.liveops.upgrade
  .LiveOpsManager` — every hot upgrade started is either still mirroring,
  promoted, or rolled back (none vanish), a finished upgrade leaves
  exactly one version of the module deployed under the right version
  label, and every frame the mirror tap copied was admitted on the shadow
  collector.

The auditor only subscribes. Each watched component holds one slot for its
mirror, which ``VideoPipe._wire*`` fills: a frame store, arena or transport
reports its own events to its mirror, a pipeline's frame events reach its
collector's mirror through the wiring's observers, and the controllers'
decisions reach the action mirror through the home's action log. Each
mirror keeps the baseline taken when it was watched and runs its
component's checks. Admission decisions are the one named hook: the SLO
controller calls :meth:`InvariantAuditor.check_admission`.

Auditing is *passive*: the auditor never schedules kernel events, never
consumes randomness, and never touches message sizes, so an audited run is
bit-for-bit identical to an unaudited one — the same guarantee tracing
makes, and the property ``tests/integration/test_audit.py`` asserts.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..runtime.observe import FrameObserver
from ..services.scaling import COOLDOWN_S

if TYPE_CHECKING:  # pragma: no cover
    from ..actions import Action
    from ..frames.arena import ArenaHandle, FrameArena
    from ..frames.framestore import FrameStore
    from ..metrics.collector import MetricsCollector
    from ..net.transport import Transport
    from ..sim.events import Event
    from ..sim.kernel import Kernel
    from ..slo.spec import AdmissionDecision

#: Tolerance for float time comparisons (kernel times are exact sums of
#: exact delays, but cooldown arithmetic subtracts them).
_EPS = 1e-9

#: Violations stored per auditor; past it they are only counted
#: (``dropped_violations``), so a hot failing invariant cannot grow memory
#: without bound.
MAX_VIOLATIONS = 1000

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


#: The SLO controller's counters admission conservation balances.
_DEPLOY_COUNTERS = ("deploys_requested", "deploys_deployed",
                    "deploys_rejected", "deploys_withdrawn")
#: The live-ops verdicts an upgrade may finish with.
_VERDICTS = ("promoted", "rolled_back")


class _Mirror:
    """One watched component's mirror: the baseline taken when it was
    watched, the events the component reports, and its checks."""

    __slots__ = ("auditor", "component", "subject")

    def __init__(self, auditor: "InvariantAuditor", component: Any,
                 subject: str) -> None:
        self.auditor = auditor
        self.component = component
        self.subject = subject

    def record(self, invariant: str, detail: str) -> None:
        self.auditor.record(invariant, self.subject, detail)

    def check_now(self) -> None:
        """The laws that hold at any instant."""

    def check_quiesce(self) -> None:
        """The laws that hold once the home is done."""


class _StoreMirror(_Mirror):
    """Frame-ref conservation for one frame store: its live references,
    mirrored from its hold and release events."""

    __slots__ = ("refcounts", "held_since", "holds", "releases")

    def __init__(self, auditor: "InvariantAuditor", store: "FrameStore") -> None:
        super().__init__(auditor, store, f"framestore/{store.device}")
        # a store watched mid-run starts with its current live refs mirrored
        self.refcounts = {ref_id: count
                          for ref_id, count in store._refcounts.items()
                          if count > 0}
        self.held_since = dict.fromkeys(self.refcounts, auditor.kernel.now)
        self.holds = 0
        self.releases = 0

    def held(self, ref_id: int, refcount: int) -> None:
        self.holds += 1
        if ref_id not in self.refcounts:
            self.held_since[ref_id] = self.auditor.kernel.now
        self.refcounts[ref_id] = refcount

    def released(self, ref_id: int, refcount: int) -> None:
        self.releases += 1
        if refcount < 0:
            self.record(
                "frame-ref-conservation",
                f"refcount for ref #{ref_id} went negative ({refcount}):"
                " a reference was released more times than it was held",
            )
        if refcount <= 0:
            self.refcounts.pop(ref_id, None)
            self.held_since.pop(ref_id, None)
        else:
            self.refcounts[ref_id] = refcount

    def breached(self, actor: str) -> None:
        """Settlement found refs a failed handler had already released."""
        self.record("frame-ref-conservation",
                    f"{actor} raised after releasing its input")

    def check_quiesce(self) -> None:
        store = self.component
        if store.live_count == 0:
            return
        holders = []
        for ref_id in sorted(self.refcounts)[:5]:
            since = self.held_since.get(ref_id, 0.0)
            obj = store._objects.get(ref_id)
            holders.append(
                f"#{ref_id} {type(obj).__name__} x{self.refcounts[ref_id]}"
                f" (held since t={since:.3f}s)"
            )
        attribution = "; ".join(holders) if holders else store._top_holders()
        self.record(
            "frame-ref-conservation",
            f"{store.live_count} live reference(s) at quiesce after"
            f" {self.holds} hold(s) / {self.releases} release(s) — a"
            f" module or service is leaking holds. Leaked: {attribution}",
        )


class _ArenaMirror(_Mirror):
    """Handle conservation for one frame arena: its live slots, mirrored
    from its alloc and free events, and every stale access it reports."""

    __slots__ = ("allocs", "frees", "bytes_in_use", "live")

    def __init__(self, auditor: "InvariantAuditor", arena: "FrameArena") -> None:
        super().__init__(auditor, arena, f"arena/{arena.arena_id}")
        self.allocs = arena.allocs
        self.frees = arena.frees
        self.bytes_in_use = arena.bytes_in_use
        # an arena watched mid-run starts with its current live slots
        # mirrored: offset -> (generation, nbytes)
        self.live = {offset: (handle.generation, handle.nbytes)
                     for offset, handle in arena._live.items()}

    def allocated(self, handle: "ArenaHandle") -> None:
        self.allocs += 1
        self.bytes_in_use += handle.nbytes
        if handle.offset in self.live:
            self.record(
                "arena-conservation",
                f"offset {handle.offset} allocated while the auditor still"
                f" mirrors it live (generation"
                f" {self.live[handle.offset][0]}) — a free was never"
                " reported",
            )
        self.live[handle.offset] = (handle.generation, handle.nbytes)

    def freed(self, handle: "ArenaHandle", reason: str) -> None:
        self.frees += 1
        self.bytes_in_use -= handle.nbytes
        mirrored = self.live.pop(handle.offset, None)
        if mirrored is None:
            self.record(
                "arena-conservation",
                f"free({reason}) of offset {handle.offset} the auditor does"
                " not mirror as live — double free slipped past the"
                " generation check",
            )
        elif mirrored[0] != handle.generation:
            self.record(
                "arena-conservation",
                f"free({reason}) of offset {handle.offset} at generation"
                f" {handle.generation} but the auditor mirrors generation"
                f" {mirrored[0]} — a stale handle reached the free path",
            )

    def stale(self, handle: "ArenaHandle", reason: str) -> None:
        self.record(
            "arena-stale-access",
            f"stale handle {handle} dereferenced after the slot was retired"
            f" ({reason}) — a holder kept a handle across"
            f" {'eviction' if reason == 'evicted' else reason} instead of"
            " re-resolving through the frame store",
        )

    def check_now(self) -> None:
        arena = self.component
        if arena.allocs != self.allocs or arena.frees != self.frees:
            self.record(
                "arena-conservation",
                f"arena counts {arena.allocs} alloc(s) / {arena.frees}"
                f" free(s) but the auditor mirrors {self.allocs} /"
                f" {self.frees} — an alloc or free path skipped its"
                " notification",
            )
        if arena.bytes_in_use != self.bytes_in_use:
            self.record(
                "arena-conservation",
                f"arena reports {arena.bytes_in_use} byte(s) in use but the"
                f" auditor mirrors {self.bytes_in_use} — per-slot sizes"
                " disagree between alloc and free",
            )
        if arena.live_count != len(self.live):
            self.record(
                "arena-conservation",
                f"arena reports {arena.live_count} live slot(s) but the"
                f" auditor mirrors {len(self.live)}",
            )

    def check_quiesce(self) -> None:
        """Every live slot must back a stored frame. Retained dedup targets
        legitimately keep their slots, so the law is *no orphans* rather
        than ``live_count == 0``: a slot the backing store no longer maps
        is pixel memory nothing can ever free."""
        arena = self.component
        store = next((mirror.component for mirror in self.auditor._mirrors
                      if isinstance(mirror, _StoreMirror)
                      and mirror.component.arena is arena), None)
        if store is None:
            if arena.live_count:
                self.record(
                    "arena-conservation",
                    f"{arena.live_count} live slot(s) at quiesce on an arena"
                    " with no watched backing store",
                )
            return
        backed = {handle.offset for handle in store._by_handle}
        orphans = sorted(set(arena._live) - backed)
        if orphans:
            self.record(
                "arena-conservation",
                f"{len(orphans)} orphaned arena slot(s) at quiesce with no"
                f" backing store entry (offsets, up to 5: {orphans[:5]}) —"
                " pixel memory nothing can ever free",
            )


class _TransportMirror(_Mirror):
    """Message conservation for one transport: ``sent == delivered + failed
    + in-flight``, with the in-flight messages mirrored from its events."""

    __slots__ = ("base_sent", "base_delivered", "base_failed", "in_flight")

    def __init__(self, auditor: "InvariantAuditor",
                 transport: "Transport") -> None:
        super().__init__(auditor, transport,
                         f"transport/{type(transport).__name__}")
        self.base_sent = transport.sent_count
        self.base_delivered = transport.delivered_count
        self.base_failed = transport.failed_count
        self.in_flight: set[int] = set()  # msg ids

    def sent(self, message: Any) -> None:
        self.in_flight.add(message.msg_id)

    def settled(self, message: Any) -> None:
        """Delivered, or failed."""
        self.in_flight.discard(message.msg_id)

    def check_now(self) -> None:
        transport = self.component
        sent = transport.sent_count - self.base_sent
        delivered = transport.delivered_count - self.base_delivered
        failed = transport.failed_count - self.base_failed
        in_flight = transport.in_flight
        if sent != delivered + failed + in_flight:
            self.record(
                "message-conservation",
                f"sent ({sent}) != delivered ({delivered}) + failed"
                f" ({failed}) + in-flight ({in_flight}) — "
                f"{sent - delivered - failed - in_flight} message(s)"
                " vanished without a delivery or failure",
            )
        if len(self.in_flight) != in_flight:
            self.record(
                "message-conservation",
                f"auditor mirrors {len(self.in_flight)} in-flight message(s)"
                f" but the transport reports {in_flight}; unsettled msg ids"
                f" (up to 5): {sorted(self.in_flight)[:5]} — a pending send"
                " was dropped without resolving its signal",
            )

    def check_quiesce(self) -> None:
        transport = self.component
        if transport.in_flight and not transport.closed:
            self.record(
                "message-conservation",
                f"{transport.in_flight} message(s) still in flight at"
                " quiesce: a send's arrival signal never resolved",
            )
        for client in transport.rpc_clients:
            pending = client.pending_count
            if pending:
                self.auditor.record(
                    "rpc-quiesce",
                    f"rpc/{client.reply_address}",
                    f"{pending} RPC request(s) still pending at quiesce:"
                    " a reply or timeout was lost",
                )


class _FrameMirror(_Mirror, FrameObserver):
    """Metrics conservation for one collector: it subscribes to the
    collector's wiring (``runtime/observe.py``), so it counts each frame
    event on its own, apart from the collector."""

    __slots__ = ("base_entered", "base_completed", "base_dropped",
                 "clean_at_watch", "in_flight", "entered",
                 "completed_admitted", "dropped_admitted")

    def __init__(self, auditor: "InvariantAuditor",
                 collector: "MetricsCollector") -> None:
        super().__init__(auditor, collector, f"metrics/{collector.name}")
        self.base_entered = collector.counter("frames_entered")
        self.base_completed = collector.counter("frames_completed")
        self.base_dropped = collector.counter("frames_dropped")
        self.clean_at_watch = collector.frames_in_flight == 0
        self.in_flight: set[int] = set()
        self.entered = 0
        self.completed_admitted = 0
        self.dropped_admitted = 0

    def admitted(self, ctx: Any, frame_id: int) -> None:
        self.entered += 1
        self.in_flight.add(frame_id)

    def completed(self, ctx: Any, frame_id: int) -> None:
        if frame_id in self.in_flight:
            self.in_flight.discard(frame_id)
            self.completed_admitted += 1

    def dropped(self, wiring: Any, frame_id: int, reason: str, device: str,
                actor: str) -> None:
        if frame_id in self.in_flight:
            self.in_flight.discard(frame_id)
            self.dropped_admitted += 1

    def check_now(self) -> None:
        collector = self.component
        entered = collector.counter("frames_entered") - self.base_entered
        completed = collector.counter("frames_completed") - self.base_completed
        dropped = collector.counter("frames_dropped") - self.base_dropped
        in_flight = len(self.in_flight)
        if entered != self.entered:
            self.record(
                "metrics-conservation",
                f"frames_entered counter moved by {entered} but the"
                f" frame events notified {self.entered} admissions",
            )
        if self.clean_at_watch and collector.frames_in_flight != in_flight:
            self.record(
                "metrics-conservation",
                f"collector reports {collector.frames_in_flight} frame(s)"
                f" in flight but admitted-minus-settled is {in_flight} —"
                " frame_dropped/frame_completed is not pruning"
                " _frame_started",
            )
        if self.entered != (self.completed_admitted + self.dropped_admitted
                            + in_flight):
            self.record(
                "metrics-conservation",
                f"admitted ({self.entered}) != completed"
                f" ({self.completed_admitted}) + dropped"
                f" ({self.dropped_admitted}) + in-flight ({in_flight})",
            )
        if dropped < self.dropped_admitted:
            self.record(
                "metrics-conservation",
                f"frames_dropped counter ({dropped}) is below the"
                f" admitted drops the collector reported"
                f" ({self.dropped_admitted})",
            )
        if completed < self.completed_admitted:
            self.record(
                "metrics-conservation",
                f"frames_completed counter ({completed}) is below the"
                f" admitted completions the collector reported"
                f" ({self.completed_admitted})",
            )

    def check_quiesce(self) -> None:
        collector = self.component
        if self.clean_at_watch and collector.frames_in_flight:
            self.record(
                "metrics-conservation",
                f"{collector.frames_in_flight} frame(s) still marked"
                " in-flight at quiesce: frames_entered was never matched"
                " by frame_completed/frame_dropped — a drop path is not"
                " reporting to the collector",
            )


class _ActionMirror(_Mirror):
    """The controllers' decisions, taken from the home's action log:
    autoscaler pacing, the SLO ladder and the live-ops verdicts; at any
    instant, admission conservation and the live-ops ledger. *home* is
    anything with ``autoscaler``, ``slo`` and ``liveops`` attributes."""

    __slots__ = ("scaled_at", "laddered_at", "stacks", "deploys", "verdicts")

    def __init__(self, auditor: "InvariantAuditor", home: Any) -> None:
        super().__init__(auditor, home, "controllers")
        self.scaled_at: dict[str, float] = {}  # host -> last scaling action
        self.laddered_at: dict[str, float] = {}  # pipeline -> last rung moved
        self.stacks: dict[str, list[str]] = {}  # pipeline -> applied rungs
        # controllers built before the audit start from their current state
        self.deploys = dict.fromkeys(_DEPLOY_COUNTERS, 0)
        slo = home.slo
        if slo is not None:
            counters = slo.metrics.counters()
            for key in _DEPLOY_COUNTERS:
                self.deploys[key] = counters.get(key, 0)
            for enrollment in slo.enrollments:
                name = enrollment.pipeline.config.name
                self.stacks[name] = enrollment.applied_steps()
                if enrollment.last_action_at is not None:
                    self.laddered_at[name] = enrollment.last_action_at
        upgrades = home.liveops.upgrades if home.liveops is not None else ()
        self.verdicts = Counter(upgrade.state for upgrade in upgrades
                                if upgrade.state in _VERDICTS)

    def appended(self, action: "Action") -> None:
        if action.controller == "autoscaler":
            self._scaled(action)
        elif action.controller == "slo":
            self._laddered(action)
        elif action.controller == "liveops":
            self._judged(action)

    def _scaled(self, action: "Action") -> None:
        max_replicas = self.component.autoscaler.policy.max_replicas
        subject = f"autoscaler/{action.target}"
        previous = self.scaled_at.get(action.target)
        if previous is not None and action.at - previous < COOLDOWN_S - _EPS:
            self.auditor.record(
                "autoscaler-pacing",
                subject,
                f"scaling events {previous:.3f}s and {action.at:.3f}s are"
                f" {action.at - previous:.3f}s apart, inside the"
                f" {COOLDOWN_S:.3f}s cooldown — the sampler is"
                " re-evaluating overlapping windows (one decision should"
                " consume its window)",
            )
        self.scaled_at[action.target] = action.at
        before = action.evidence["from_replicas"]
        after = action.evidence["to_replicas"]
        if not 1 <= after <= max_replicas:
            self.auditor.record(
                "autoscaler-pacing",
                subject,
                f"replica count left [1, {max_replicas}]: {before} -> {after}",
            )

    def _laddered(self, action: "Action") -> None:
        record = self.auditor.record
        pipeline = action.target
        step = action.evidence["step"]
        depth_before = action.evidence["depth_before"]
        depth_after = action.evidence["depth_after"]
        subject = f"slo/{pipeline}"
        previous = self.laddered_at.get(pipeline)
        hysteresis = self.component.slo.config.hysteresis_s
        if previous is not None and action.at - previous < hysteresis - _EPS:
            record(
                "slo-ladder",
                subject,
                f"ladder actions at {previous:.3f}s and {action.at:.3f}s are"
                f" {action.at - previous:.3f}s apart, inside the"
                f" {hysteresis:.3f}s hysteresis — the controller is flapping",
            )
        self.laddered_at[pipeline] = action.at
        expected_delta = 1 if action.kind == "degrade" else -1
        if depth_after - depth_before != expected_delta:
            record(
                "slo-ladder",
                subject,
                f"{action.kind} moved ladder depth"
                f" {depth_before} -> {depth_after}; every"
                " action must move it by exactly one rung",
            )
        stack = self.stacks.setdefault(pipeline, [])
        if len(stack) != depth_before:
            record(
                "slo-ladder",
                subject,
                f"action reports depth_before={depth_before} but the"
                f" auditor mirrors {len(stack)} applied rung(s)",
            )
        if action.kind == "degrade":
            stack.append(step)
        elif stack:
            top = stack.pop()
            if top != step:
                record(
                    "slo-ladder",
                    subject,
                    f"restore reverted {step!r} while the most"
                    f" recently applied rung is {top!r} — recovery must"
                    " retrace the ladder in reverse order",
                )
        else:
            record(
                "slo-ladder",
                subject,
                f"restore of {step!r} with no applied rung mirrored",
            )

    def _judged(self, action: "Action") -> None:
        """A verdict is logged before the manager retires the upgrade, so
        it is still the active upgrade of its module."""
        record = self.auditor.record
        upgrade = self.component.liveops.upgrade_of(
            *action.target.rsplit("/", 1))
        subject = f"liveops/{action.target}"
        if upgrade.state not in _VERDICTS:
            record(
                "liveops-version-swap",
                subject,
                f"upgrade finished in state {upgrade.state!r}; every finish"
                " must be a promotion or a rollback",
            )
            return
        self.verdicts[upgrade.state] += 1
        # exactly one version of the module may remain live: the shadow
        # deployment and its sink must be gone, the real name deployed
        runtime = upgrade.pipeline.module(upgrade.module_name).runtime
        deployed_names = set(runtime.deployed_names())
        for ghost in (upgrade.shadow_name, upgrade.sink_name):
            if ghost in deployed_names:
                record(
                    "liveops-version-swap",
                    subject,
                    f"shadow deployment {ghost!r} still live after the"
                    f" upgrade {upgrade.state}; promotion/rollback must"
                    " retire the canary",
                )
        if upgrade.module_name not in deployed_names:
            record(
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
            record(
                "liveops-version-swap",
                subject,
                f"wiring labels {upgrade.module_name!r} as {labeled!r} after"
                f" a {upgrade.state} upgrade; expected {expected!r}",
            )
        shadow = upgrade.shadow_metrics
        if shadow is not None and upgrade.mirrored_frames != (
            shadow.counter("frames_entered")
        ):
            record(
                "liveops-version-swap",
                subject,
                f"mirror tap copied {upgrade.mirrored_frames} frame(s) but"
                f" the shadow collector admitted"
                f" {shadow.counter('frames_entered')} — a mirrored frame"
                " bypassed shadow accounting",
            )

    def check_now(self) -> None:
        home = self.component
        if home.slo is not None:
            self._check_slo(home.slo)
        if home.liveops is not None:
            active = len(home.liveops.active_upgrades())
            started = len(home.liveops.upgrades)
            promoted, rolled_back = (self.verdicts[v] for v in _VERDICTS)
            if started != active + promoted + rolled_back:
                self.auditor.record(
                    "liveops-conservation",
                    "liveops/manager",
                    f"started ({started}) != active ({active}) + promoted"
                    f" ({promoted}) + rolled-back ({rolled_back}) —"
                    " an upgrade vanished without a verdict",
                )

    def _check_slo(self, controller: Any) -> None:
        counters = controller.metrics.counters()
        requested, deployed, rejected, withdrawn = (
            counters.get(key, 0) - self.deploys[key]
            for key in _DEPLOY_COUNTERS)
        if requested != deployed + rejected + withdrawn:
            self.auditor.record(
                "admission-conservation",
                "slo/controller",
                f"requested ({requested}) != deployed ({deployed}) +"
                f" rejected ({rejected}) + withdrawn ({withdrawn}) —"
                f" {requested - deployed - rejected - withdrawn}"
                " deploy request(s) vanished between admission and the"
                " deployer",
            )
        for enrollment in controller.enrollments:
            name = enrollment.pipeline.config.name
            depth = enrollment.depth
            if not 0 <= depth <= len(enrollment.ladder):
                self.auditor.record(
                    "slo-ladder",
                    f"slo/{name}",
                    f"ladder depth {depth} outside"
                    f" [0, {len(enrollment.ladder)}]",
                )
            mirrored = self.stacks.get(name, [])
            if enrollment.applied_steps() != mirrored:
                self.auditor.record(
                    "slo-ladder",
                    f"slo/{name}",
                    f"applied rungs {enrollment.applied_steps()} disagree"
                    f" with the auditor's mirror {mirrored} — a rung was"
                    " applied or reverted without a recorded action",
                )


class InvariantAuditor:
    """Records :class:`Violation` objects, one mirror per component.

    One auditor serves a whole home (mirror ``enable_tracing``:
    :meth:`repro.core.videopipe.VideoPipe.enable_audit` creates it, and the
    home's ``_wire*`` functions install its mirrors). Each ``watch_*``
    returns the component's mirror, the same one on every call.

    Attributes:
        violations: recorded violations, oldest first (capped by
            :data:`MAX_VIOLATIONS`).
        dropped_violations: violations past the cap (counted, not stored).
        source: ``"explicit"`` for auditors built through the API,
            ``"env"`` for those auto-enabled by ``REPRO_AUDIT=1``.
    """

    def __init__(
        self,
        kernel: "Kernel",
        source: str = "explicit",
    ) -> None:
        self.kernel = kernel
        self.source = source
        self.violations: list[Violation] = []
        self.dropped_violations = 0
        self.checks_run = 0
        self._mirrors: list[_Mirror] = []
        self._last_exec_time: float | None = None
        self._kernel_attached = False
        _LIVE_AUDITORS.add(self)

    # -- recording ------------------------------------------------------------
    @property
    def violation_count(self) -> int:
        """Total violations detected (stored + dropped past the cap)."""
        return len(self.violations) + self.dropped_violations

    def record(self, invariant: str, subject: str, detail: str) -> None:
        """Record one violation."""
        if len(self.violations) < MAX_VIOLATIONS:
            self.violations.append(Violation(
                at=self.kernel.now, invariant=invariant, subject=subject,
                detail=detail,
            ))
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

    # -- mirrors ------------------------------------------------------------------
    def _watch(self, mirror_class: type, component: Any) -> Any:
        for mirror in self._mirrors:
            if mirror.component is component:
                return mirror
        mirror = mirror_class(self, component)
        self._mirrors.append(mirror)
        return mirror

    def watch_store(self, store: "FrameStore") -> _StoreMirror:
        """The mirror of *store*'s refcounts: negatives now, leaks at quiesce."""
        return self._watch(_StoreMirror, store)

    def watch_arena(self, arena: "FrameArena") -> _ArenaMirror:
        """The mirror of *arena*'s slots: stale accesses now, orphaned slots
        at quiesce."""
        return self._watch(_ArenaMirror, arena)

    def watch_transport(self, transport: "Transport") -> _TransportMirror:
        """The mirror of *transport*'s in-flight messages."""
        return self._watch(_TransportMirror, transport)

    def watch_metrics(self, collector: "MetricsCollector") -> _FrameMirror:
        """The frame mirror of *collector*, to subscribe to its wiring."""
        return self._watch(_FrameMirror, collector)

    def watch_actions(self, home: Any) -> _ActionMirror:
        """The mirror of *home*'s controllers, to subscribe to its action
        log."""
        return self._watch(_ActionMirror, home)

    def check_admission(self, decision: "AdmissionDecision") -> None:
        """The SLO controller's hook: each admission decision as it is
        made (admission is not an action)."""
        subject = f"slo/{decision.pipeline}"
        if decision.action not in ("admitted", "rejected"):
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

    # -- checks -------------------------------------------------------------------
    def check_now(self) -> list[Violation]:
        """Run every invariant that must hold at *any* instant.

        Returns the violations added by this call.
        """
        start = len(self.violations)
        self.checks_run += 1
        for mirror in self._mirrors:
            mirror.check_now()
        return self.violations[start:]

    def check_quiesce(self) -> list[Violation]:
        """Run every invariant, including the end-of-run ones: all frame
        refs released, no in-flight messages, no pending RPCs.

        Call when the home is done (the event queue has drained or the
        caller knows all work has settled). Returns the violations added.
        """
        start = len(self.violations)
        self.check_now()
        for mirror in self._mirrors:
            mirror.check_quiesce()
        return self.violations[start:]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<InvariantAuditor {len(self._mirrors)} mirrors,"
            f" {self.violation_count} violations>"
        )
