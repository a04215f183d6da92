"""Object tracking across frames (detection post-processing, §IV-A).

The paper notes detection apps "commonly employ CPU-intensive output
transformations after every inference", naming bounding-box tracking
(dashcams) as the example. This is a real greedy IoU tracker of the
kind those apps ship: detections are associated to existing tracks by
best IoU, unmatched detections open new tracks, and tracks that miss
too many frames are retired.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.processing.post import _iou


@dataclass
class Track:
    """One tracked object."""

    track_id: int
    box: np.ndarray
    score: float
    hits: int = 1
    misses: int = 0
    history: list = field(default_factory=list)

    @property
    def confirmed(self):
        """A track is trusted after being matched in 2+ frames."""
        return self.hits >= 2


class IouTracker:
    """Greedy IoU data association across frames."""

    def __init__(self, iou_threshold=0.3, max_misses=3):
        if not 0.0 < iou_threshold < 1.0:
            raise ValueError(f"bad IoU threshold {iou_threshold}")
        self.iou_threshold = iou_threshold
        self.max_misses = max_misses
        self.tracks = []
        self._next_id = 1
        self.frames_processed = 0

    def update(self, boxes, scores):
        """Associate one frame's detections; returns live tracks.

        ``boxes`` is (N, 4) ``(ymin, xmin, ymax, xmax)``; ``scores`` (N,).
        """
        boxes = np.asarray(boxes, dtype=np.float32).reshape(-1, 4)
        scores = np.asarray(scores, dtype=np.float32).reshape(-1)
        if boxes.shape[0] != scores.shape[0]:
            raise ValueError("boxes and scores disagree on N")
        self.frames_processed += 1

        unmatched = list(range(boxes.shape[0]))
        # Highest-confidence tracks pick first (greedy).
        for track in sorted(self.tracks, key=lambda t: -t.score):
            if not unmatched:
                track.misses += 1
                continue
            candidates = boxes[unmatched]
            ious = _iou(track.box, candidates)
            best = int(np.argmax(ious))
            if ious[best] >= self.iou_threshold:
                detection = unmatched.pop(best)
                track.history.append(track.box.copy())
                track.box = boxes[detection].copy()
                track.score = float(scores[detection])
                track.hits += 1
                track.misses = 0
            else:
                track.misses += 1

        for detection in unmatched:
            self.tracks.append(
                Track(
                    track_id=self._next_id,
                    box=boxes[detection].copy(),
                    score=float(scores[detection]),
                )
            )
            self._next_id += 1

        self.tracks = [
            track for track in self.tracks if track.misses <= self.max_misses
        ]
        return list(self.tracks)


def tracking_cost_us(tracks, detections):
    """Simulated CPU cost of one association pass (ref-us).

    Greedy association is O(tracks * detections) IoU evaluations plus
    bookkeeping per object.
    """
    return 15.0 + tracks * detections * 0.12 + (tracks + detections) * 0.8
