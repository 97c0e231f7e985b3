"""Unit tests for the built-in services (handlers exercised directly)."""

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.frames import SyntheticCamera, VideoFrame
from repro.motion import Squat, SubjectParams, make_model, sample_subject_sequence
from repro.services import (
    ActivityClassifierService,
    DisplayService,
    DisplaySink,
    FaceDetectionService,
    ImageClassificationService,
    IoTActuatorService,
    IoTDeviceFleet,
    ObjectDetectionService,
    PoseDetectorService,
    RepCounterService,
    ServiceCallContext,
)
from repro.frames.framestore import FrameStore
from repro.sim import Kernel
from repro.vision import ActivityRecognizer, ColorHistogramClassifier, window_feature
from repro.vision.datasets import generate_activity_dataset


@pytest.fixture
def ctx():
    return ServiceCallContext(
        device_name="desktop",
        frame_store=FrameStore("desktop"),
        rng=np.random.default_rng(0),
        kernel=Kernel(),
    )


def squat_frame(t=0.3):
    return SyntheticCamera("phone", Squat()).capture(1, t)


def gray_subject_frame():
    """A grayscale frame drawn here: a bright head over a bright body on a
    dim background, the silhouette the face heuristic reads."""
    pixels = np.full((120, 160), 40, dtype=np.uint8)
    pixels[14:30, 72:88] = 200  # head
    pixels[30:100, 66:94] = 200  # body
    return VideoFrame(frame_id=1, source="phone", capture_time=0.0,
                      width=160, height=120, channels=1, pixels=pixels)


class TestPoseService:
    def test_detects_and_returns_arrays(self, ctx):
        result = PoseDetectorService().handle({"frame": squat_frame()}, ctx)
        assert result["detected"]
        assert result["keypoints"].shape == (17, 2)
        assert result["visibility"].shape == (17,)
        assert len(result["bbox"]) == 4

    def test_empty_scene_miss(self, ctx):
        empty = VideoFrame(frame_id=1, source="cam", capture_time=0.0)
        result = PoseDetectorService().handle({"frame": empty}, ctx)
        assert result == {"detected": False, "frame_id": 1}

    def test_rejects_bad_payload(self, ctx):
        with pytest.raises(ServiceError):
            PoseDetectorService().handle({"frame": "not-a-frame"}, ctx)


@pytest.fixture(scope="module")
def recognizer():
    dataset = generate_activity_dataset(
        activities=("squat", "stand"), train_subjects=3, test_subjects=1,
        duration_s=4.0, seed=0,
    )
    return ActivityRecognizer(k=5).fit(dataset.train_windows, dataset.train_labels)


class TestActivityService:
    def test_classifies_window_feature(self, ctx, recognizer):
        service = ActivityClassifierService(recognizer)
        window = sample_subject_sequence(Squat(), SubjectParams(), 15.0, 1.0)
        result = service.handle({"window_feature": window_feature(window)}, ctx)
        assert result["label"] == "squat"
        assert 0 < result["confidence"] <= 1

    def test_rejects_untrained_model(self):
        with pytest.raises(ServiceError):
            ActivityClassifierService(ActivityRecognizer())

    def test_rejects_wrong_feature_size(self, ctx, recognizer):
        service = ActivityClassifierService(recognizer)
        with pytest.raises(ServiceError):
            service.handle({"window_feature": np.zeros(10)}, ctx)

    def test_rejects_missing_feature(self, ctx, recognizer):
        with pytest.raises(ServiceError):
            ActivityClassifierService(recognizer).handle({}, ctx)


class TestRepCounterService:
    def test_counts_from_features(self, ctx):
        poses = sample_subject_sequence(Squat(period_s=2.0), SubjectParams(),
                                        15.0, 3 * 2.0 + 0.3)
        features = np.stack([p.normalized().flatten() for p in poses])
        result = RepCounterService().handle({"features": features}, ctx)
        assert result["reps"] == 3
        assert result["frames"] == len(poses)

    def test_cost_scales_with_bout_length(self):
        service = RepCounterService()
        short = service.compute_cost({"features": np.zeros((10, 34))})
        long = service.compute_cost({"features": np.zeros((500, 34))})
        assert long > short

    def test_rejects_bad_payload(self, ctx):
        with pytest.raises(ServiceError):
            RepCounterService().handle({}, ctx)
        with pytest.raises(ServiceError):
            RepCounterService().handle({"features": np.zeros(5)}, ctx)


class TestDisplayService:
    def test_records_to_sink_with_timing(self, ctx):
        sink = DisplaySink()
        service = DisplayService(sink)
        frame = squat_frame(t=0.5)
        ctx.kernel.schedule(0.8, lambda: None)
        ctx.kernel.run()  # advance clock to 0.8
        result = service.handle(
            {"frame": frame, "label": "squat", "reps": 3}, ctx
        )
        assert result["shown"]
        assert sink.count == 1
        shown = sink.frames[0]
        assert shown.label == "squat"
        assert shown.reps == 3
        assert shown.shown_at - shown.capture_time == pytest.approx(0.3)

    def test_sink_caps_history(self):
        sink = DisplaySink(keep_last=2)
        for i in range(4):
            from repro.services.builtin.display import DisplayedFrame

            sink.show(DisplayedFrame(frame_id=i, shown_at=0, capture_time=0))
        assert sink.count == 2
        assert sink.frames[0].frame_id == 2

    def test_rejects_frameless_payload(self, ctx):
        with pytest.raises(ServiceError):
            DisplayService().handle({"label": "x"}, ctx)


class TestPixelServices:
    def test_face_detection_on_rendered_frame(self, ctx):
        result = FaceDetectionService().handle(
            {"frame": gray_subject_frame()}, ctx)
        assert result["found"]
        x0, y0, x1, y1 = result["bbox"]
        assert y0 == 14.0 and 66.0 <= x0 <= x1 <= 94.0

    def test_face_detection_requires_pixels(self, ctx):
        with pytest.raises(ServiceError):
            FaceDetectionService().handle({"frame": squat_frame()}, ctx)

    def test_object_detection_requires_rgb(self, ctx):
        # a grayscale frame: the object detector must refuse
        with pytest.raises(ServiceError):
            ObjectDetectionService().handle(
                {"frame": gray_subject_frame()}, ctx)

    def test_object_detection_on_scene(self, ctx):
        from repro.vision import BBox, SceneObject, render_scene

        pixels = render_scene([SceneObject("cup", BBox(20, 20, 60, 60))], 120, 90)
        frame = VideoFrame(frame_id=1, source="cam", capture_time=0.0,
                           width=120, height=90, pixels=pixels)
        result = ObjectDetectionService().handle({"frame": frame}, ctx)
        assert [d["label"] for d in result["detections"]] == ["cup"]

    def test_image_classifier(self, ctx):
        from repro.vision import BBox, SceneObject, render_scene

        red = render_scene([SceneObject("cup", BBox(5, 5, 110, 85))], 120, 90)
        green = render_scene([SceneObject("book", BBox(5, 5, 110, 85))], 120, 90)
        model = ColorHistogramClassifier().fit([red, green], ["red", "green"])
        service = ImageClassificationService(model)
        frame = VideoFrame(frame_id=1, source="cam", capture_time=0.0,
                           width=120, height=90, pixels=red)
        assert service.handle({"frame": frame}, ctx)["label"] == "red"

    def test_image_classifier_requires_fitted_model(self):
        with pytest.raises(ServiceError):
            ImageClassificationService(ColorHistogramClassifier())


class TestIoTService:
    def test_toggle_and_log(self, ctx):
        fleet = IoTDeviceFleet()
        fleet.ensure("light", initial=False)
        service = IoTActuatorService(fleet)
        result = service.handle({"target": "light", "action": "toggle"}, ctx)
        assert result["state"] is True
        result = service.handle({"target": "light", "action": "toggle"}, ctx)
        assert result["state"] is False
        assert len(fleet.log) == 2

    def test_set_on_off(self, ctx):
        fleet = IoTDeviceFleet()
        fleet.ensure("camera")
        service = IoTActuatorService(fleet)
        assert service.handle({"target": "camera", "action": "on"}, ctx)["state"]
        assert not service.handle({"target": "camera", "action": "off"}, ctx)["state"]

    def test_unknown_device_rejected(self, ctx):
        with pytest.raises(ServiceError):
            IoTActuatorService().handle({"target": "toaster"}, ctx)

    def test_unknown_action_rejected(self, ctx):
        fleet = IoTDeviceFleet()
        fleet.ensure("light")
        with pytest.raises(ServiceError):
            IoTActuatorService(fleet).handle({"target": "light", "action": "explode"}, ctx)
