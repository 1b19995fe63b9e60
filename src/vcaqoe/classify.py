"""Media classification: tag packets audio/video/retransmission/other.

Two paths: a payload-size threshold usable on fully encrypted traffic, and
an RTP payload-type mapping used as the ground-truth path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .session import MEDIA_CODE, NO_RTP, MediaClass

DEFAULT_VMIN = 500
KEEPALIVE_LEN = 304

# Lab Teams-like payload-type profile.
TEAMS_LAB_PROFILE: Dict[int, MediaClass] = {
    111: MediaClass.AUDIO,
    102: MediaClass.VIDEO,
    103: MediaClass.VIDEO_RETX,
}


class ClassifyError(Exception):
    pass


class OverlappingRanges(ClassifyError):
    pass


class MissingClass(ClassifyError):
    pass


class LengthMismatch(ClassifyError):
    pass


@dataclass(frozen=True)
class SizeThreshold:
    v_min: int = DEFAULT_VMIN

    def __post_init__(self):
        if self.v_min <= 0:
            raise ValueError("v_min must be positive")

    def is_video(self, payload_len):
        """Video verdict for one payload length or an array of them."""
        return payload_len >= self.v_min


@dataclass
class PayloadTypeMap:
    mapping: Dict[int, MediaClass] = field(
        default_factory=lambda: dict(TEAMS_LAB_PROFILE))
    keepalive_len: int = KEEPALIVE_LEN

    def lookup(self, payload_type):
        return self.mapping.get(payload_type, MediaClass.OTHER)

    def classify(self, rtp_pt, payload_len):
        """MEDIA_CODE per packet, from int64 columns.

        rtp_pt is NO_RTP for packets without RTP; those map to other, and
        so do retransmission packets of exactly the keep-alive length, which
        carry no media.
        """
        other = MEDIA_CODE[MediaClass.OTHER]
        out = np.full(len(rtp_pt), other, dtype=np.int64)
        for pt, cls in self.mapping.items():
            out[rtp_pt == pt] = MEDIA_CODE[cls]
        out[rtp_pt == NO_RTP] = other
        out[(out == MEDIA_CODE[MediaClass.VIDEO_RETX])
            & (payload_len == self.keepalive_len)] = other
        return out

    def payload_type_for(self, cls):
        for pt, c in self.mapping.items():
            if c is cls:
                return pt
        return None


def load_payload_type_map(path, vca=None):
    """Load `vca,pt,class` lines into a PayloadTypeMap, optionally filtered
    to one VCA profile."""
    mapping = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, pt, cls = (c.strip() for c in line.split(","))
            if vca is not None and name != vca:
                continue
            mapping[int(pt)] = MediaClass(cls)
    return PayloadTypeMap(mapping)


def classify_by_size(session, threshold=SizeThreshold()):
    """Tag packets >= v_min bytes as video; everything else as other."""
    video = threshold.is_video(session.columns.payload_len)
    return session.classified(np.where(video, MEDIA_CODE[MediaClass.VIDEO],
                                       MEDIA_CODE[MediaClass.OTHER]))


def classify_by_payload_type(session, ptmap=None):
    """Tag packets via their RTP payload type (ground-truth path).

    Packets without RTP map to other; retransmission packets of exactly the
    keep-alive length carry no media and also map to other.
    """
    cols = session.columns
    return session.classified(
        (ptmap or PayloadTypeMap()).classify(cols.rtp_pt, cols.payload_len))


def fit_vmin(labeled):
    """Fit the size threshold as the midpoint between the largest audio and
    smallest video packet of a payload-type-labeled session."""
    cols = labeled.columns
    audio = cols.payload_len[cols.media_class == MEDIA_CODE[MediaClass.AUDIO]]
    video = cols.payload_len[cols.media_class == MEDIA_CODE[MediaClass.VIDEO]]
    if not len(audio) or not len(video):
        raise MissingClass("need both audio and video packets")
    audio_max, video_min = int(audio.max()), int(video.min())
    if audio_max >= video_min:
        raise OverlappingRanges(
            f"audio max {audio_max} >= video min {video_min}")
    return SizeThreshold((audio_max + video_min) // 2)


@dataclass
class MediaConfusion:
    """2x2 video vs non-video confusion: rows actual, columns predicted."""
    counts: list          # [[nv->nv, nv->v], [v->nv, v->v]]
    row_percent: list     # row-normalized percentages
    row_totals: list
    labels = ("non_video", "video")

    def video_recall(self):
        return 0.0 if self.row_totals[1] == 0 else self.row_percent[1][1] / 100.0

    def non_video_rejection(self):
        return 0.0 if self.row_totals[0] == 0 else self.row_percent[0][0] / 100.0


def classification_report(predicted, truth):
    """Confusion matrix of size-based predictions against payload-type
    truth, collapsed to video vs non-video."""
    if len(predicted) != len(truth):
        raise LengthMismatch(f"{len(predicted)} != {len(truth)} packets")
    video = MEDIA_CODE[MediaClass.VIDEO]
    actual = truth.columns.media_class == video
    pred = predicted.columns.media_class == video
    counts = [[int((row & ~pred).sum()), int((row & pred).sum())]
              for row in (~actual, actual)]
    totals = [sum(row) for row in counts]
    percent = [[(100.0 * c / tot if tot else 0.0) for c in row]
               for row, tot in zip(counts, totals)]
    return MediaConfusion(counts, percent, totals)
