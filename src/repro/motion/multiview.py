"""Multi-view scene geometry: N cameras watching the same world actors.

ROADMAP item 3's scene layer starts here: a small 2D world model (a room
floor plane, metres) in which :class:`WorldActor`\\ s walk deterministic
trajectories while :class:`CameraView`\\ s — wall-mounted, each with its own
position, orientation and field of view — project the *same* ground-truth
actors into per-camera image coordinates. The projection reuses the
single-camera machinery (:class:`~repro.motion.trajectory.SubjectParams` +
:func:`~repro.motion.trajectory.place_in_image`): a camera turns an actor's
world position into a subject height/placement, and the actor's shaped
body-frame pose is dropped into the image exactly like the single-view
sources do.

Two properties make the downstream re-ID problem honest but solvable:

* **Distinct body shapes.** Each actor carries a :class:`BodyShape` whose
  limb-proportion scales survive hip-centred/torso-scaled normalization
  (projection here is a uniform scale + translation), so a pose embedding
  built from normalized limb lengths is view- and distance-invariant.
* **Occlusion.** When two actors overlap in one camera's image, only the
  nearer one is observed (:meth:`MultiViewScene.observe`), so per-camera
  IoU trackers genuinely lose identities during crossings.

Everything is a pure function of time — no hidden state, no RNG at
observation time — which is what the determinism harness pins.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .exercises import make_model
from .skeleton import KEYPOINT_INDEX, Pose
from .trajectory import SubjectParams, place_in_image

#: Nominal body height used for projection and back-projection. All actors
#: share it so apparent size encodes only *distance* — the discriminative
#: signal lives in limb proportions, not in height.
BODY_HEIGHT_M = 1.7

_L_ANKLE = KEYPOINT_INDEX["left_ankle"]
_R_ANKLE = KEYPOINT_INDEX["right_ankle"]


@dataclass(frozen=True, slots=True)
class BodyShape:
    """Per-actor limb proportions, the re-ID signal.

    The scales multiply body-frame segment vectors (upper arm + forearm
    from the shoulder, thigh + shin from the hip, shoulder/hip width about
    the spine midline), so after the paper's hip-centred torso-scaled
    normalization they read out as limb-length *ratios* — invariant to the
    camera that observed them."""

    arm_scale: float = 1.0
    leg_scale: float = 1.0
    shoulder_scale: float = 1.0
    height_m: float = BODY_HEIGHT_M


def shape_pose(pose: Pose, shape: BodyShape) -> Pose:
    """Apply *shape* to a body-frame pose, keeping the feet grounded."""
    kp = pose.keypoints.copy()
    idx = KEYPOINT_INDEX
    for side in ("left", "right"):
        sh, el, wr = (idx[f"{side}_shoulder"], idx[f"{side}_elbow"],
                      idx[f"{side}_wrist"])
        upper = kp[el] - kp[sh]
        fore = kp[wr] - kp[el]
        kp[el] = kp[sh] + shape.arm_scale * upper
        kp[wr] = kp[el] + shape.arm_scale * fore
        hp, kn, an = (idx[f"{side}_hip"], idx[f"{side}_knee"],
                      idx[f"{side}_ankle"])
        thigh = kp[kn] - kp[hp]
        shin = kp[an] - kp[kn]
        kp[kn] = kp[hp] + shape.leg_scale * thigh
        kp[an] = kp[kn] + shape.leg_scale * shin
    for left, right in (("left_shoulder", "right_shoulder"),
                        ("left_hip", "right_hip")):
        ia, ib = idx[left], idx[right]
        mid = (kp[ia, 0] + kp[ib, 0]) / 2.0
        kp[ia, 0] = mid + shape.shoulder_scale * (kp[ia, 0] - mid)
        kp[ib, 0] = mid + shape.shoulder_scale * (kp[ib, 0] - mid)
    # longer/shorter legs move the ankles; re-anchor so the shaped body
    # stands where the unshaped one stood (place_in_image assumes feet at
    # the base-pose ground line)
    original_ground = max(pose.keypoints[_L_ANKLE, 1],
                          pose.keypoints[_R_ANKLE, 1])
    shaped_ground = max(kp[_L_ANKLE, 1], kp[_R_ANKLE, 1])
    kp[:, 1] += original_ground - shaped_ground
    return Pose(kp, pose.visibility.copy())


def _reflect(value: float, span: float) -> float:
    """Reflect *value* into [0, span] (triangle wave — elastic walls)."""
    if span <= 0:
        return 0.0
    period = 2.0 * span
    value = value % period
    return value if value <= span else period - value


@dataclass(frozen=True, slots=True)
class WorldActor:
    """One ground-truth person walking the room floor plane.

    Attributes:
        actor_id: stable ground-truth identity.
        shape: the actor's limb proportions (the re-ID signal).
        start: initial (x, z) floor position in metres.
        velocity: (vx, vz) walk velocity in m/s; the walk reflects off the
            room walls (minus a margin) so actors never leave the room.
        motion: motion-model label (``repro.motion.exercises``).
        tempo: multiplier on the motion period (>1 = slower).
        phase_offset_s: where in the motion cycle the actor starts.
    """

    actor_id: int
    shape: BodyShape = field(default_factory=BodyShape)
    start: tuple[float, float] = (1.0, 1.0)
    velocity: tuple[float, float] = (0.5, 0.0)
    motion: str = "stand"
    tempo: float = 1.0
    phase_offset_s: float = 0.0

    def position(self, t: float, room: tuple[float, float],
                 margin: float = 0.4) -> tuple[float, float]:
        """Floor position at time *t*, reflected inside the room walls."""
        span_x = room[0] - 2.0 * margin
        span_z = room[1] - 2.0 * margin
        x = margin + _reflect(self.start[0] - margin + self.velocity[0] * t,
                              span_x)
        z = margin + _reflect(self.start[1] - margin + self.velocity[1] * t,
                              span_z)
        return (x, z)

    def pose_at(self, t: float) -> Pose:
        """Shaped body-frame pose at time *t*."""
        model = make_model(self.motion)
        body = model.pose_at((t + self.phase_offset_s) / self.tempo)
        return shape_pose(body, self.shape)


@dataclass(frozen=True, slots=True)
class CameraView:
    """One wall-mounted camera: pose on the floor plane plus intrinsics.

    The camera looks level along *yaw_deg* (degrees from the +x axis) with
    a horizontal field-of-view wedge of *fov_deg*; an actor is visible only
    inside the wedge, nearer than *range_m* and beyond *min_depth_m*.
    Projection is the ideal pinhole: bearing becomes image x, inverse
    distance becomes apparent height."""

    name: str
    position: tuple[float, float]
    yaw_deg: float
    fov_deg: float = 70.0
    range_m: float = 12.0
    min_depth_m: float = 0.8
    width: int = 640
    height: int = 480
    mount_height_m: float = 1.2
    room: str = "living_room"

    @property
    def focal_px(self) -> float:
        return (self.width / 2.0) / math.tan(math.radians(self.fov_deg) / 2.0)

    def _relative(self, world: tuple[float, float]) -> tuple[float, float]:
        dx = world[0] - self.position[0]
        dz = world[1] - self.position[1]
        yaw = math.radians(self.yaw_deg)
        forward = dx * math.cos(yaw) + dz * math.sin(yaw)
        lateral = -dx * math.sin(yaw) + dz * math.cos(yaw)
        return forward, lateral

    def project(
        self, world: tuple[float, float], body_height_m: float = BODY_HEIGHT_M
    ) -> tuple[SubjectParams, float] | None:
        """Project a world position to subject placement, or ``None`` when
        the position falls outside the camera's view wedge or range."""
        forward, lateral = self._relative(world)
        distance = math.hypot(world[0] - self.position[0],
                              world[1] - self.position[1])
        if forward < self.min_depth_m or distance > self.range_m:
            return None
        half = math.radians(self.fov_deg) / 2.0
        if abs(math.atan2(lateral, forward)) > half:
            return None
        f = self.focal_px
        subject = SubjectParams(
            height_px=f * body_height_m / forward,
            center_x=self.width / 2.0 + f * lateral / forward,
            ground_y=self.height / 2.0 + f * self.mount_height_m / forward,
        )
        return subject, distance

    def back_project(
        self, center_x: float, height_px: float,
        body_height_m: float = BODY_HEIGHT_M,
    ) -> tuple[float, float]:
        """Invert the pinhole: apparent height + image x to a floor (x, z).

        The fusion stage uses this on *estimated* boxes, so the answer is
        only as good as the detector — exactly the uncertainty the
        position-only (re-ID disabled) association suffers from."""
        f = self.focal_px
        forward = f * body_height_m / max(height_px, 1e-6)
        lateral = (center_x - self.width / 2.0) * forward / f
        yaw = math.radians(self.yaw_deg)
        x = self.position[0] + forward * math.cos(yaw) - lateral * math.sin(yaw)
        z = self.position[1] + forward * math.sin(yaw) + lateral * math.cos(yaw)
        return (x, z)


def camera_to_dict(camera: CameraView) -> dict:
    """JSON-able camera spec (travels in frame metadata)."""
    return {
        "name": camera.name,
        "position": list(camera.position),
        "yaw_deg": camera.yaw_deg,
        "fov_deg": camera.fov_deg,
        "range_m": camera.range_m,
        "min_depth_m": camera.min_depth_m,
        "width": camera.width,
        "height": camera.height,
        "mount_height_m": camera.mount_height_m,
        "room": camera.room,
    }


def camera_from_dict(data: dict) -> CameraView:
    return CameraView(
        name=str(data["name"]),
        position=(float(data["position"][0]), float(data["position"][1])),
        yaw_deg=float(data["yaw_deg"]),
        fov_deg=float(data["fov_deg"]),
        range_m=float(data["range_m"]),
        min_depth_m=float(data["min_depth_m"]),
        width=int(data["width"]),
        height=int(data["height"]),
        mount_height_m=float(data["mount_height_m"]),
        room=str(data["room"]),
    )


@dataclass(slots=True)
class ActorObservation:
    """What one camera sees of one actor at one instant (ground truth)."""

    actor_id: int
    camera: str
    pose: Pose  # image-space keypoints
    bbox: tuple[float, float, float, float]
    distance_m: float
    world: tuple[float, float]


def _bbox_iou(a: tuple[float, float, float, float],
              b: tuple[float, float, float, float]) -> float:
    ix0, iy0 = max(a[0], b[0]), max(a[1], b[1])
    ix1, iy1 = min(a[2], b[2]), min(a[3], b[3])
    if ix1 <= ix0 or iy1 <= iy0:
        return 0.0
    inter = (ix1 - ix0) * (iy1 - iy0)
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


class MultiViewScene:
    """N cameras, M actors, one shared ground truth.

    Observation is deterministic: :meth:`observe` at a given *t* always
    returns the same list, with occlusion resolved nearest-wins (ties by
    actor id). Cameras and actors are validated to have unique names/ids.
    """

    def __init__(
        self,
        actors: list[WorldActor],
        cameras: list[CameraView],
        room: tuple[float, float] = (8.0, 6.0),
        occlusion_iou: float = 0.45,
    ) -> None:
        if len({a.actor_id for a in actors}) != len(actors):
            raise ValueError("actor ids must be unique")
        if len({c.name for c in cameras}) != len(cameras):
            raise ValueError("camera names must be unique")
        self.actors = list(actors)
        self.cameras = list(cameras)
        self.room = room
        self.occlusion_iou = occlusion_iou

    def observe(self, camera: CameraView, t: float) -> list[ActorObservation]:
        """The actors *camera* sees at *t*, nearest first within occlusion.

        An actor whose projected box overlaps an already-kept nearer
        actor's box by more than ``occlusion_iou`` is occluded — dropped
        from the observation entirely, the way a real detector loses the
        person behind. Returned in actor-id order."""
        candidates: list[tuple[float, int, WorldActor, SubjectParams,
                               tuple[float, float]]] = []
        for actor in sorted(self.actors, key=lambda a: a.actor_id):
            world = actor.position(t, self.room)
            projected = camera.project(world, actor.shape.height_m)
            if projected is None:
                continue
            subject, distance = projected
            candidates.append((distance, actor.actor_id, actor, subject, world))
        candidates.sort(key=lambda c: (c[0], c[1]))
        kept: list[ActorObservation] = []
        for distance, actor_id, actor, subject, world in candidates:
            pose = place_in_image(actor.pose_at(t), subject)
            bbox = pose.bounding_box(margin=0.05)
            if any(_bbox_iou(bbox, seen.bbox) > self.occlusion_iou
                   for seen in kept):
                continue
            kept.append(ActorObservation(
                actor_id=actor_id, camera=camera.name, pose=pose, bbox=bbox,
                distance_m=distance, world=world,
            ))
        kept.sort(key=lambda o: o.actor_id)
        return kept


#: Wall-mount slots the preset and random scenes draw cameras from, for an
#: 8 x 6 m room: (position, yaw, room scope).
_CAMERA_SLOTS = (
    ((4.0, 0.3), 90.0, "living_room"),
    ((0.3, 3.0), 0.0, "living_room"),
    ((7.7, 5.7), -144.0, "kitchen"),
    ((7.7, 0.3), 143.0, "hallway"),
)


def crossing_scene(
    cameras: int = 3,
    cross_at: float = 3.0,
    separation_m: float = 0.22,
    room: tuple[float, float] = (8.0, 6.0),
) -> MultiViewScene:
    """The canonical hard case: two distinctly-shaped actors whose walks
    cross near the room centre at *cross_at* seconds.

    Around the crossing their image boxes overlap in every camera, so
    per-camera IoU trackers lose (and re-mint) identities; the limb-ratio
    embeddings stay separable throughout, which is exactly what the
    accuracy harness pins."""
    if not 1 <= cameras <= len(_CAMERA_SLOTS):
        raise ValueError(f"cameras must be 1..{len(_CAMERA_SLOTS)}")
    if cross_at <= 0:
        raise ValueError("cross_at must be positive")
    meet_a = (room[0] / 2.0, room[1] / 2.0)
    meet_b = (room[0] / 2.0, room[1] / 2.0 + separation_m)
    start_a = (1.2, 2.2)
    start_b = (6.8, 3.9)
    vel_a = ((meet_a[0] - start_a[0]) / cross_at,
             (meet_a[1] - start_a[1]) / cross_at)
    vel_b = ((meet_b[0] - start_b[0]) / cross_at,
             (meet_b[1] - start_b[1]) / cross_at)
    actors = [
        WorldActor(
            actor_id=0,
            shape=BodyShape(arm_scale=0.80, leg_scale=0.94,
                            shoulder_scale=0.76),
            start=start_a, velocity=vel_a,
        ),
        WorldActor(
            actor_id=1,
            shape=BodyShape(arm_scale=1.22, leg_scale=1.08,
                            shoulder_scale=1.32),
            start=start_b, velocity=vel_b,
        ),
    ]
    views = [
        CameraView(name=f"cam{i}", position=pos, yaw_deg=yaw, room=scope)
        for i, (pos, yaw, scope) in enumerate(_CAMERA_SLOTS[:cameras])
    ]
    return MultiViewScene(actors, views, room=room)


#: Shape grids the fuzz scenes sample *without replacement*, guaranteeing
#: pairwise-distinct limb proportions (the separability the association
#: threshold relies on).
_ARM_GRID = (0.72, 0.88, 1.04, 1.20, 1.36)
_LEG_GRID = (0.84, 0.94, 1.04, 1.14, 1.24)
_SHOULDER_GRID = (0.68, 0.90, 1.12, 1.34, 1.56)


def random_scene(
    rng: random.Random,
    actor_count: int = 2,
    camera_count: int = 2,
    room: tuple[float, float] = (8.0, 6.0),
) -> MultiViewScene:
    """A seeded-random scene for property fuzzing: distinct shapes drawn
    from spaced grids, random walks, cameras on random wall slots.

    Plain ``random.Random`` only (the ``tests/pipeline/strategies.py``
    idiom) so a fixed seed reproduces the scene exactly."""
    if not 1 <= actor_count <= len(_ARM_GRID):
        raise ValueError(f"actor_count must be 1..{len(_ARM_GRID)}")
    if not 1 <= camera_count <= len(_CAMERA_SLOTS):
        raise ValueError(f"camera_count must be 1..{len(_CAMERA_SLOTS)}")
    arms = rng.sample(_ARM_GRID, actor_count)
    legs = rng.sample(_LEG_GRID, actor_count)
    shoulders = rng.sample(_SHOULDER_GRID, actor_count)
    actors = []
    for i in range(actor_count):
        heading = rng.uniform(0.0, 2.0 * math.pi)
        speed = rng.uniform(0.35, 1.0)
        actors.append(WorldActor(
            actor_id=i,
            shape=BodyShape(arm_scale=arms[i], leg_scale=legs[i],
                            shoulder_scale=shoulders[i]),
            start=(rng.uniform(0.8, room[0] - 0.8),
                   rng.uniform(0.8, room[1] - 0.8)),
            velocity=(speed * math.cos(heading), speed * math.sin(heading)),
            phase_offset_s=rng.uniform(0.0, 2.0),
        ))
    slots = rng.sample(range(len(_CAMERA_SLOTS)), camera_count)
    views = [
        CameraView(
            name=f"cam{i}",
            position=_CAMERA_SLOTS[slot][0],
            yaw_deg=_CAMERA_SLOTS[slot][1] + rng.uniform(-12.0, 12.0),
            fov_deg=rng.uniform(62.0, 80.0),
            room=_CAMERA_SLOTS[slot][2],
        )
        for i, slot in enumerate(slots)
    ]
    return MultiViewScene(actors, views, room=room)
