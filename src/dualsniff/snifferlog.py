"""Sniffer capture log parsing, filtering, and two-capture matching.

Canonical line format (whitespace separated)::

    FRAME.SUBFRAME  RNTI  DELTA_US  SNR_DB  CQI  NOISE_DBM
    0174.4          7423  25.36     22.1    12   -92.4

One line per decoded subframe.  ``FRAME`` is the radio frame counter (0-1023,
it wraps at 1024), ``SUBFRAME`` is 0-9, ``DELTA_US`` the downlink-uplink
timing delta in microseconds.  Real sniffer builds print their own layout;
converting it to this format is the adapter's job, everything downstream
consumes only the canonical form.

Malformed lines never abort a parse: they are skipped and reported as
diagnostics carrying the line number and reason.
"""

import math
from dataclasses import dataclass
from typing import IO, Iterable, List, Sequence, Tuple, Union

#: Radio frame counter modulus used when unwrapping sort keys.
FRAME_WRAP = 1024


@dataclass(frozen=True)
class TimingRecord:
    """One sniffer log entry."""

    frame: int
    subframe: int
    rnti: int
    dl_ul_delta: float   # microseconds
    snr: float           # dB
    cqi: int
    noise_power: float   # dBm
    sniffer_id: str = ""

    def __post_init__(self):
        # normalize to plain python scalars so repr-based writing is canonical
        for name in ("frame", "subframe", "rnti", "cqi"):
            object.__setattr__(self, name, int(getattr(self, name)))
        for name in ("dl_ul_delta", "snr", "noise_power"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not 0 <= self.subframe <= 9:
            raise ValueError(f"subframe must be in [0, 9], got {self.subframe}")
        if not 0 <= self.cqi <= 15:
            raise ValueError(f"cqi must be in [0, 15], got {self.cqi}")
        if self.frame < 0 or self.rnti < 0:
            raise ValueError("frame and rnti must be non-negative")
        if not math.isfinite(self.dl_ul_delta):
            raise ValueError(f"dl_ul_delta must be finite, got {self.dl_ul_delta}")


@dataclass(frozen=True)
class MatchedSample:
    """Deltas from two sniffers for the same (frame, subframe, rnti).

    ``frame`` is the unwrapped frame counter, so keys increase monotonically
    even across a 1024-frame wrap.
    """

    frame: int
    subframe: int
    delta_a: float  # microseconds
    delta_b: float  # microseconds
    snr_a: float
    snr_b: float


@dataclass(frozen=True)
class ParseDiagnostic:
    """Why one log line was skipped."""

    line: int
    reason: str


def parse_log(stream: Union[IO, Iterable], sniffer_id: str
              ) -> Tuple[List[TimingRecord], List[ParseDiagnostic]]:
    """Parse a capture log in one streaming pass.

    Accepts any iterable of text or byte lines.  Blank lines and ``#``
    comments are ignored; anything else that does not parse becomes a
    diagnostic and is skipped.
    """
    records: List[TimingRecord] = []
    diagnostics: List[ParseDiagnostic] = []
    for line_no, raw in enumerate(stream, 1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8", errors="replace")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            records.append(_parse_line(line, sniffer_id))
        except ValueError as exc:
            diagnostics.append(ParseDiagnostic(line=line_no, reason=str(exc)))
    return records, diagnostics


def _parse_line(line: str, sniffer_id: str) -> TimingRecord:
    fields = line.split()
    if len(fields) != 6:
        raise ValueError(f"expected 6 fields, got {len(fields)}")
    fs = fields[0].split(".")
    if len(fs) != 2:
        raise ValueError(f"bad frame.subframe token {fields[0]!r}")
    frame = int(fs[0])
    if frame >= FRAME_WRAP:
        raise ValueError(f"frame counter must be below {FRAME_WRAP}, got {frame}")
    return TimingRecord(
        frame=frame, subframe=int(fs[1]), rnti=int(fields[1]),
        dl_ul_delta=float(fields[2]), snr=float(fields[3]),
        cqi=int(fields[4]), noise_power=float(fields[5]),
        sniffer_id=sniffer_id)


def write_log(records: Sequence[TimingRecord]) -> str:
    """Render records back to canonical text; inverse of ``parse_log``.

    Floats are written with ``repr`` so parsing the output reproduces the
    records bit-exactly.
    """
    lines = []
    for r in records:
        lines.append(f"{r.frame:04d}.{r.subframe} {r.rnti} {r.dl_ul_delta!r} "
                     f"{r.snr!r} {r.cqi} {r.noise_power!r}\n")
    return "".join(lines)


def filter_rnti(records: Sequence[TimingRecord], rnti: int) -> List[TimingRecord]:
    """Order-preserving subset of records carrying the target RNTI."""
    return [r for r in records if r.rnti == rnti]


def _unwrap_frames(records: Sequence[TimingRecord]) -> List[int]:
    """Monotonic frame counters from a wrapped capture, in stream order.

    A drop of more than half the wrap modulus between consecutive records is
    taken as one wrap of the counter.  The result is exact while the records
    come in time order and consecutive ones lie fewer than ``FRAME_WRAP // 2``
    frames apart; a longer gap cannot be told apart from a shorter one by the
    counters alone.
    """
    unwrapped = []
    offset = 0
    prev = None
    for r in records:
        if prev is not None and r.frame < prev and (prev - r.frame) > FRAME_WRAP // 2:
            offset += FRAME_WRAP
        unwrapped.append(r.frame + offset)
        prev = r.frame
    return unwrapped


def match_records(records_a: Sequence[TimingRecord], records_b: Sequence[TimingRecord]
                  ) -> Tuple[List[MatchedSample], List[str]]:
    """Pair two captures of the same RNTI by (frame, subframe).

    Both inputs are unwrapped and sorted by (frame, subframe); a key present
    exactly once in each capture yields one sample.  Keys appearing more than
    once in either capture are ambiguous and dropped with a diagnostic, as is
    a matched key whose two records disagree on the RNTI.
    """
    diagnostics: List[str] = []
    keyed = []
    for side, records in (("a", records_a), ("b", records_b)):
        frames = _unwrap_frames(records)
        by_key = {}
        dupes = set()
        for frame, r in zip(frames, records):
            key = (frame, r.subframe)
            if key in by_key:
                dupes.add(key)
            else:
                by_key[key] = r
        for key in sorted(dupes):
            del by_key[key]
            diagnostics.append(
                f"duplicate key frame={key[0]} subframe={key[1]} in {side}: dropped")
        keyed.append(by_key)

    by_a, by_b = keyed
    samples: List[MatchedSample] = []
    for key in sorted(by_a.keys() & by_b.keys()):
        ra, rb = by_a[key], by_b[key]
        if ra.rnti != rb.rnti:
            diagnostics.append(
                f"rnti mismatch at frame={key[0]} subframe={key[1]}: dropped")
            continue
        samples.append(MatchedSample(
            frame=key[0], subframe=key[1],
            delta_a=ra.dl_ul_delta, delta_b=rb.dl_ul_delta,
            snr_a=ra.snr, snr_b=rb.snr))
    return samples, diagnostics


MATCHED_HEADER = "frame,subframe,delta_a_us,delta_b_us,snr_a_db,snr_b_db"


def write_matched(samples: Sequence[MatchedSample]) -> str:
    """Matched samples as a delimited table with header."""
    lines = [MATCHED_HEADER + "\n"]
    for s in samples:
        lines.append(f"{s.frame},{s.subframe},{s.delta_a!r},{s.delta_b!r},"
                     f"{s.snr_a!r},{s.snr_b!r}\n")
    return "".join(lines)
