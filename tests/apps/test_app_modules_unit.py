"""Focused unit tests for the application modules' logic.

The integration suites exercise whole pipelines; these tests pin down the
tricky per-module behaviours: fan-out ref accounting, display overlay
merging, gesture debounce, and the fall-detector's posture math.
"""

import numpy as np
import pytest

from repro.apps.modules import (
    ActivityRecognitionModule,
    DisplayModule,
    FallDetectionModule,
    GestureControlModule,
)
from repro.motion import Squat, SubjectParams, subject_pose
from repro.motion.exercises import Fall, Stand


class FakeContext:
    """A minimal ModuleContext double for pure-logic tests."""

    def __init__(self, next_modules=()):
        self.now = 0.0
        self._next = list(next_modules)
        self.sent = []  # (target, payload)
        self.released = []
        self.addrefs = []
        self.counters = {}

    @property
    def next_modules(self):
        return list(self._next)

    def call_module(self, target, payload, headers=None):
        self.sent.append((target, payload))

    def release(self, ref):
        self.released.append(ref)

    def add_ref(self, ref):
        self.addrefs.append(ref)
        return ref

    class _Metrics:
        def __init__(self, outer):
            self.outer = outer

        def increment(self, name, amount=1):
            self.outer.counters[name] = self.outer.counters.get(name, 0) + amount

    @property
    def metrics(self):
        return FakeContext._Metrics(self)


class TestActivityFanOut:
    def make(self):
        return ActivityRecognitionModule()

    def test_frame_goes_only_to_display_targets(self):
        ctx = FakeContext(next_modules=["rep_counter_module", "display_module"])
        module = self.make()
        module._fan_out(ctx, {"frame": "REF", "keypoints": 1})
        by_target = dict(ctx.sent)
        assert "frame" not in by_target["rep_counter_module"]
        assert by_target["display_module"]["frame"] == "REF"
        assert ctx.released == []  # the single hold moved to display

    def test_two_display_targets_take_extra_hold(self):
        ctx = FakeContext(next_modules=["display_a", "display_b"])
        self.make()._fan_out(ctx, {"frame": "REF"})
        assert ctx.addrefs == ["REF"]  # one extra hold for the second send
        assert len(ctx.sent) == 2

    def test_no_display_target_releases_frame(self):
        ctx = FakeContext(next_modules=["rep_counter_module"])
        self.make()._fan_out(ctx, {"frame": "REF"})
        assert ctx.released == ["REF"]
        assert "frame" not in ctx.sent[0][1]

    def test_frameless_payload_needs_no_accounting(self):
        ctx = FakeContext(next_modules=["display_module"])
        self.make()._fan_out(ctx, {"keypoints": 1})
        assert ctx.released == [] and ctx.addrefs == []
        assert len(ctx.sent) == 1


class TestDisplayOverlayState:
    def test_latest_label_and_reps_merge(self):
        module = DisplayModule()
        # a reps-only update and a label-only update arrive separately
        module.last_reps = None

        class Event:
            def __init__(self, payload):
                self.payload = payload

        # frameless events update state and return without a generator
        module.event_received(None, Event({"reps": 4, "frame_id": 1,
                                           "capture_time": 0.0}))
        assert module.last_reps == 4
        module.event_received(None, Event({"activity": "squat", "frame_id": 2,
                                           "capture_time": 0.0}))
        assert module.last_label == "squat"


class TestGestureDebounce:
    def make(self, **kwargs):
        return GestureControlModule(confirm_frames=3, cooldown_s=2.0, **kwargs)

    def test_streak_counting(self):
        module = self.make()
        labels = ["clap", "clap", "stand", "clap", "clap", "clap"]
        streaks = []
        for label in labels:
            if label == module._streak_label:
                module._streak += 1
            else:
                module._streak_label = label
                module._streak = 1
            streaks.append(module._streak)
        assert streaks == [1, 2, 1, 1, 2, 3]

    def test_default_bindings_match_paper(self):
        module = GestureControlModule()
        assert module.bindings["clap"] == "living_room_light"
        assert module.bindings["wave"] == "doorbell_camera"


class TestFallPosture:
    def posture_of(self, motion, t):
        module = FallDetectionModule()
        pose = subject_pose(motion, SubjectParams(), t)
        return module._posture(pose)

    def test_standing_is_tall_and_narrow(self):
        hip_y, height, aspect = self.posture_of(Stand(), 0.0)
        assert aspect < 0.6

    def test_fallen_is_wide_and_low(self):
        standing_hip, _, _ = self.posture_of(Fall(period_s=0.9), 0.0)
        fallen_hip, _, fallen_aspect = self.posture_of(Fall(period_s=0.9), 2.0)
        assert fallen_aspect > 1.1
        assert fallen_hip > standing_hip  # hips dropped (y grows downward)

    def test_squat_bottom_is_still_narrow(self):
        """The false-alarm guard: a deep squat lowers the hips but the
        posture stays closer to vertical than a fall."""
        _, _, squat_aspect = self.posture_of(Squat(period_s=2.0), 1.0)
        _, _, fall_aspect = self.posture_of(Fall(period_s=0.9), 2.0)
        assert squat_aspect < fall_aspect
