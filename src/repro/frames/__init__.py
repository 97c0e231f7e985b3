"""Frames: capture, compression, storage-by-reference, and pacing."""

from .arena import EVICTED, MIGRATED, RELEASED, ArenaHandle, FrameArena
from .codec import EncodedFrame, decode_frame, encode_frame
from .digest import content_digest
from .frame import FrameRef, VideoFrame
from .framestore import FrameStore
from .synthetic import detect_foreground_bbox
from .video_source import SyntheticCamera, VideoSource

__all__ = [
    "ArenaHandle",
    "EVICTED",
    "EncodedFrame",
    "FrameArena",
    "MIGRATED",
    "RELEASED",
    "FrameRef",
    "FrameStore",
    "SyntheticCamera",
    "VideoFrame",
    "VideoSource",
    "content_digest",
    "decode_frame",
    "detect_foreground_bbox",
    "encode_frame",
]
