"""Sniffer capture log parsing, filtering, and two-capture matching.

Canonical line format (whitespace separated)::

    FRAME.SUBFRAME  RNTI  DELTA_US  SNR_DB  CQI  NOISE_DBM
    0174.4          7423  25.36     22.1    12   -92.4

One line per decoded subframe.  ``FRAME`` is the radio frame counter (0-1023,
it wraps at 1024), ``SUBFRAME`` is 0-9, ``DELTA_US`` the downlink-uplink
timing delta in microseconds.  Real sniffer builds print their own layout;
converting it to this format is the adapter's job, everything downstream
consumes only the canonical form.

A log is held as ``TimingColumns``, one numpy array per field, so parsing,
writing and filtering cost a few list appends or one array operation per
line.  ``TimingRecord`` is a view of one entry for library callers.

Malformed lines never abort a parse: they are skipped and reported as
diagnostics carrying the line number and reason.
"""

import math
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np

#: Radio frame counter modulus used when unwrapping sort keys.
FRAME_WRAP = 1024
#: Largest RNTI a log entry may carry: columns hold 64-bit integers.
MAX_RNTI = 2 ** 63 - 1

#: Column names in log-line order, with their dtypes.
COLUMNS = (("frame", np.int64), ("subframe", np.int64), ("rnti", np.int64),
           ("dl_ul_delta", np.float64), ("snr", np.float64), ("cqi", np.int64),
           ("noise_power", np.float64))


def check_entry(frame: int, subframe: int, rnti: int, dl_ul_delta: float,
                cqi: int) -> None:
    """The value rules of one log entry; ``ValueError`` names the first one broken."""
    if not 0 <= subframe <= 9:
        raise ValueError(f"subframe must be in [0, 9], got {subframe}")
    if not 0 <= cqi <= 15:
        raise ValueError(f"cqi must be in [0, 15], got {cqi}")
    if frame < 0 or rnti < 0:
        raise ValueError("frame and rnti must be non-negative")
    if rnti > MAX_RNTI:
        raise ValueError(f"rnti must be at most {MAX_RNTI}, got {rnti}")
    if not math.isfinite(dl_ul_delta):
        raise ValueError(f"dl_ul_delta must be finite, got {dl_ul_delta}")


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
        check_entry(self.frame, self.subframe, self.rnti, self.dl_ul_delta, self.cqi)


@dataclass(frozen=True, eq=False)
class TimingColumns:
    """Log entries of one sniffer as columns: entry i is row i of every array.

    An integer index gives a ``TimingRecord`` view of one entry; a slice, an
    index array or a boolean mask gives the selected entries as new columns.
    Columns compare equal to columns with the same values, and to a list of
    records equal to their views.
    """

    frame: np.ndarray
    subframe: np.ndarray
    rnti: np.ndarray
    dl_ul_delta: np.ndarray   # microseconds
    snr: np.ndarray           # dB
    cqi: np.ndarray
    noise_power: np.ndarray   # dBm
    sniffer_id: str = ""

    def __post_init__(self):
        for name, dtype in COLUMNS:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if len({getattr(self, name).shape for name, _ in COLUMNS}) != 1 or self.frame.ndim != 1:
            raise ValueError("columns must be one-dimensional and of one length")

    @classmethod
    def from_records(cls, records: Iterable[TimingRecord]) -> "TimingColumns":
        """Columns holding ``records``, which must come from one sniffer."""
        records = list(records)
        sniffer_ids = {r.sniffer_id for r in records}
        if len(sniffer_ids) > 1:
            raise ValueError(f"records from more than one sniffer: {sorted(sniffer_ids)}")
        return cls(*([getattr(r, name) for r in records] for name, _ in COLUMNS),
                   sniffer_id=sniffer_ids.pop() if sniffer_ids else "")

    def __len__(self) -> int:
        return len(self.frame)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return TimingRecord(*(getattr(self, name)[index] for name, _ in COLUMNS),
                                sniffer_id=self.sniffer_id)
        return TimingColumns(*(getattr(self, name)[index] for name, _ in COLUMNS),
                             sniffer_id=self.sniffer_id)

    def __iter__(self) -> Iterator[TimingRecord]:
        for values in zip(*(getattr(self, name).tolist() for name, _ in COLUMNS)):
            yield TimingRecord(*values, sniffer_id=self.sniffer_id)

    def __eq__(self, other):
        if isinstance(other, TimingColumns):
            return self.sniffer_id == other.sniffer_id and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name, _ in COLUMNS)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented


Records = Union[TimingColumns, Sequence[TimingRecord]]


def as_columns(records: Records) -> TimingColumns:
    """``records`` as columns; columns pass through unchanged."""
    return records if isinstance(records, TimingColumns) else TimingColumns.from_records(records)


def interleave(logs: Sequence[TimingColumns]) -> TimingColumns:
    """Merge logs of equal length entry by entry: entry 0 of each, in order, then entry 1..."""
    return TimingColumns(*(np.stack([getattr(log, name) for log in logs], axis=1).ravel()
                           for name, _ in COLUMNS),
                         sniffer_id=logs[0].sniffer_id)


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
              ) -> Tuple[TimingColumns, List[ParseDiagnostic]]:
    """Parse a capture log in one streaming pass.

    Accepts any iterable of text or byte lines.  Blank lines and ``#``
    comments are ignored; anything else that does not parse becomes a
    diagnostic and is skipped.  A line's checks run in a fixed order (field
    count, ``FRAME.SUBFRAME`` token, frame counter, number conversion left
    to right, then ``check_entry``), and its diagnostic names the first
    failure.
    """
    rows = []
    diagnostics: List[ParseDiagnostic] = []
    keep, skip = rows.append, diagnostics.append
    for line_no, raw in enumerate(stream, 1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8", errors="replace")
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        try:
            if len(fields) != 6:
                raise ValueError(f"expected 6 fields, got {len(fields)}")
            token, rnti, delta, snr, cqi, noise = fields
            frame_subframe = token.split(".")
            if len(frame_subframe) != 2:
                raise ValueError(f"bad frame.subframe token {token!r}")
            frame = int(frame_subframe[0])
            if frame >= FRAME_WRAP:
                raise ValueError(f"frame counter must be below {FRAME_WRAP}, got {frame}")
            row = (frame, int(frame_subframe[1]), int(rnti), float(delta), float(snr),
                   int(cqi), float(noise))
            check_entry(frame, row[1], row[2], row[3], row[5])
        except ValueError as exc:
            skip(ParseDiagnostic(line=line_no, reason=str(exc)))
            continue
        keep(row)
    columns = zip(*rows) if rows else [()] * len(COLUMNS)
    return TimingColumns(*columns, sniffer_id=sniffer_id), diagnostics


def write_log(records: Records) -> str:
    """Render records back to canonical text; inverse of ``parse_log``.

    Floats are written with ``repr`` so parsing the output reproduces the
    records bit-exactly.
    """
    c = as_columns(records)
    return "".join(
        f"{frame:04d}.{subframe} {rnti} {delta!r} {snr!r} {cqi} {noise!r}\n"
        for frame, subframe, rnti, delta, snr, cqi, noise in zip(
            *(getattr(c, name).tolist() for name, _ in COLUMNS)))


def filter_rnti(records: Records, rnti: int) -> TimingColumns:
    """Order-preserving subset of records carrying the target RNTI."""
    c = as_columns(records)
    return c[c.rnti == rnti]


def _unwrap_frames(records: Records) -> List[int]:
    """Monotonic frame counters from a wrapped capture, in stream order.

    A drop of more than half the wrap modulus between consecutive records is
    taken as one wrap of the counter.  The result is exact while the records
    come in time order and consecutive ones lie fewer than ``FRAME_WRAP // 2``
    frames apart; a longer gap cannot be told apart from a shorter one by the
    counters alone.
    """
    frames = as_columns(records).frame
    wraps = np.cumsum(np.diff(frames) < -(FRAME_WRAP // 2))
    return (frames + FRAME_WRAP * np.concatenate(([0], wraps))).tolist()


def match_records(records_a: Records, records_b: Records
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
        c = as_columns(records)
        by_key = {}  # key -> row
        dupes = set()
        for row, key in enumerate(zip(_unwrap_frames(c), c.subframe.tolist())):
            if key in by_key:
                dupes.add(key)
            else:
                by_key[key] = row
        for key in sorted(dupes):
            del by_key[key]
            diagnostics.append(
                f"duplicate key frame={key[0]} subframe={key[1]} in {side}: dropped")
        keyed.append((by_key, c.rnti.tolist(), c.dl_ul_delta.tolist(), c.snr.tolist()))

    (by_a, rnti_a, delta_a, snr_a), (by_b, rnti_b, delta_b, snr_b) = keyed
    samples: List[MatchedSample] = []
    for key in sorted(by_a.keys() & by_b.keys()):
        i, j = by_a[key], by_b[key]
        if rnti_a[i] != rnti_b[j]:
            diagnostics.append(
                f"rnti mismatch at frame={key[0]} subframe={key[1]}: dropped")
            continue
        samples.append(MatchedSample(
            frame=key[0], subframe=key[1], delta_a=delta_a[i], delta_b=delta_b[j],
            snr_a=snr_a[i], snr_b=snr_b[j]))
    return samples, diagnostics


MATCHED_HEADER = "frame,subframe,delta_a_us,delta_b_us,snr_a_db,snr_b_db"


def write_matched(samples: Sequence[MatchedSample]) -> str:
    """Matched samples as a delimited table with header."""
    lines = [MATCHED_HEADER + "\n"]
    for s in samples:
        lines.append(f"{s.frame},{s.subframe},{s.delta_a!r},{s.delta_b!r},"
                     f"{s.snr_a!r},{s.snr_b!r}\n")
    return "".join(lines)
