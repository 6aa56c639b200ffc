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
writing and filtering cost one array operation per field, not per line.

Malformed lines never abort a parse: they are skipped and reported as
diagnostics carrying the line number and reason.
"""

import math
import warnings
from dataclasses import dataclass
from typing import IO, Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

#: Radio frame counter modulus used when unwrapping sort keys.
FRAME_WRAP = 1024
#: Largest RNTI a log entry may carry: columns hold 64-bit integers.
MAX_RNTI = 2 ** 63 - 1

#: Column names in log-line order, with their dtypes.
COLUMNS = (("frame", np.int64), ("subframe", np.int64), ("rnti", np.int64),
           ("dl_ul_delta", np.float64), ("snr", np.float64), ("cqi", np.int64),
           ("noise_power", np.float64))

#: A rule on log entries: a test that holds for a valid entry, and a
#: ``str.format`` template over ``e`` naming a broken one.  ``e`` maps field
#: names to values; the test works on scalars and, element-wise, on columns.
Rule = Tuple[Callable, str]

#: The parser's rule on a line's frame counter, checked before its other fields are converted.
FRAME_COUNTER_RULE: Rule = (lambda e: e["frame"] < FRAME_WRAP,
                            f"frame counter must be below {FRAME_WRAP}, got {{e[frame]}}")

#: The parser's rules on a log entry, in the order a line's diagnostic names them.
PARSER_RULES: Tuple[Rule, ...] = (
    FRAME_COUNTER_RULE,
    (lambda e: (e["subframe"] >= 0) & (e["subframe"] <= 9),
     "subframe must be in [0, 9], got {e[subframe]}"),
    (lambda e: (e["cqi"] >= 0) & (e["cqi"] <= 15), "cqi must be in [0, 15], got {e[cqi]}"),
    (lambda e: (e["frame"] >= 0) & (e["rnti"] >= 0), "frame and rnti must be non-negative"),
    (lambda e: e["rnti"] <= MAX_RNTI, f"rnti must be at most {MAX_RNTI}, got {{e[rnti]}}"),
    # NaN compares false, so this holds exactly for finite values
    (lambda e: abs(e["dl_ul_delta"]) < math.inf,
     "dl_ul_delta must be finite, got {e[dl_ul_delta]}"),
)


def _enforce(rules: Sequence[Rule], e: dict) -> None:
    """Raise ``ValueError`` with the message of the first rule entry ``e`` breaks."""
    for holds, message in rules:
        if not holds(e):
            raise ValueError(message.format(e=e))


@dataclass(frozen=True, eq=False)
class TimingColumns:
    """Log entries of one sniffer as columns: entry i is row i of every array.

    A slice, an index array or a boolean mask gives the selected entries as
    new columns.  Columns compare equal to columns with the same values.
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

    def __len__(self) -> int:
        return len(self.frame)

    def __getitem__(self, index):
        return TimingColumns(*(getattr(self, name)[index] for name, _ in COLUMNS),
                             sniffer_id=self.sniffer_id)

    # entries are rows of the arrays, not objects to iterate over
    __iter__ = None

    def __eq__(self, other):
        if not isinstance(other, TimingColumns):
            return NotImplemented
        return self.sniffer_id == other.sniffer_id and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name, _ in COLUMNS)


def interleave(logs: Sequence[TimingColumns]) -> TimingColumns:
    """Merge logs of equal length entry by entry: entry 0 of each, in order, then entry 1..."""
    return TimingColumns(*(np.stack([getattr(log, name) for log in logs], axis=1).ravel()
                           for name, _ in COLUMNS),
                         sniffer_id=logs[0].sniffer_id)


@dataclass(frozen=True, eq=False)
class MatchedColumns:
    """Deltas from two sniffers at their shared (frame, subframe, rnti) keys.

    Sample i is row i of every array.  ``frame`` is the unwrapped frame
    counter, so keys increase monotonically even across a 1024-frame wrap.
    """

    frame: np.ndarray
    subframe: np.ndarray
    delta_a: np.ndarray  # microseconds
    delta_b: np.ndarray  # microseconds

    def __len__(self) -> int:
        return len(self.frame)


@dataclass(frozen=True)
class ParseDiagnostic:
    """Why one log line was skipped."""

    line: int
    reason: str


#: Width of the ``FRAME.SUBFRAME`` column ``np.loadtxt`` reads; a token that
#: fills it may have been cut short.
_TOKEN_WIDTH = 8
#: One log line as ``np.loadtxt`` reads it.
_LINE_DTYPE = np.dtype([("token", f"U{_TOKEN_WIDTH}")] + list(COLUMNS[2:]))


def _keeps_rules(e) -> np.ndarray:
    """Which entries of the columns ``e`` keep every parser rule."""
    keep = np.ones(len(e["frame"]), dtype=bool)
    for holds, _ in PARSER_RULES:
        keep &= holds(e)
    return keep


def parse_log(stream: Union[IO, Iterable], sniffer_id: str
              ) -> Tuple[TimingColumns, List[ParseDiagnostic]]:
    """Parse a capture log into columns and the diagnostics of its bad lines.

    Accepts any iterable of text or byte lines; bytes are decoded as UTF-8,
    with undecodable bytes replaced.  A log whose every line is an entry, a
    comment or blank, and whose every ``FRAME.SUBFRAME`` token is spelled
    canonically (ASCII digits, one dot, one subframe digit), is read by one
    ``np.loadtxt`` pass, and the value rules are checked over whole columns.
    Any other log goes through the per-line parser, which reads the other
    spellings as Python's ``int`` does, with the same result, and names each
    line it skips.
    """
    lines = [raw.decode("utf-8", errors="replace") if isinstance(raw, bytes) else raw
             for raw in stream]
    columns = _parse_clean(lines, sniffer_id)
    if columns is not None:
        return columns, []
    return _parse_lines(lines, sniffer_id)


def _parse_clean(lines: List[str], sniffer_id: str) -> Optional[TimingColumns]:
    """The columns of a log whose every line is a valid entry, a comment or blank, else None.

    The column path reads only canonical ``FRAME.SUBFRAME`` tokens (see
    ``_decode_tokens``).  None means the log holds no entry, a NUL, a token
    spelled any other way, a field ``np.loadtxt`` cannot read or reads only
    with a warning, or an entry that breaks a rule: something only the
    per-line parser reports correctly, or reads as ``int`` does.
    """
    text = "".join(lines)
    # a U column drops a token's trailing NULs, which ``int`` rejects
    if "\x00" in text:
        return None
    if "#" in text:
        # whole-line comments, by the per-line parser's test; a trailing
        # ``# note`` stays and adds fields, as it does there
        lines = [line for line in lines if line.lstrip()[:1] != "#"]
    try:
        # a warning (no entries, or an integer read via a float) means loadtxt
        # and the per-line parser may part
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines, dtype=_LINE_DTYPE, comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    counters = _decode_tokens(table["token"])
    if counters is None:
        return None
    columns = TimingColumns(*counters, *(table[name] for name, _ in COLUMNS[2:]),
                            sniffer_id=sniffer_id)
    return columns if _keeps_rules(vars(columns)).all() else None


def _decode_tokens(tokens: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Frame and subframe counters of a column of ``FRAME.SUBFRAME`` tokens, or None.

    Reads the tokens' code points.  Every token must be ASCII digits, one
    ``.`` and one ASCII subframe digit, and be shorter than ``_TOKEN_WIDTH``
    (one that fills its column may have been cut short).  Any other spelling,
    such as a sign, an underscore, a non-ASCII digit or a two-digit subframe,
    gives None; the per-line parser reads those as Python's ``int`` does.
    """
    codes = np.ascontiguousarray(tokens).view(np.uint32).reshape(len(tokens), _TOKEN_WIDTH)
    # a U column pads a token with trailing NULs
    length = np.count_nonzero(codes, axis=1)
    dot, column, rows = length[:, None] - 2, np.arange(_TOKEN_WIDTH), np.arange(len(codes))
    digit = (codes >= ord("0")) & (codes <= ord("9"))
    # a digit at every place before the padding but one, a dot just before the last
    if not (np.all((length >= 3) & (length < _TOKEN_WIDTH))
            and np.all(digit | (column == dot) | (column >= dot + 2))
            and np.all(codes[rows, length - 2] == ord("."))):
        return None
    # Horner's rule over the frame digits, which lie left of the dot
    digits = codes.astype(np.int64) - ord("0")
    frame = np.zeros(len(codes), dtype=np.int64)
    for j in range(_TOKEN_WIDTH - 3):
        frame = np.where(j < length - 2, 10 * frame + digits[:, j], frame)
    return frame, digits[rows, length - 1]


def _parse_lines(lines: Iterable[str], sniffer_id: str
                 ) -> Tuple[TimingColumns, List[ParseDiagnostic]]:
    """Parse a log line by line, skipping each bad line with a diagnostic.

    Blank lines and ``#`` comments are ignored.  A line's checks run in a
    fixed order (field count, ``FRAME.SUBFRAME`` token, frame counter, number
    conversion left to right, then the other value rules), and its diagnostic
    names the first failure.  The value rules run over all converted entries
    at once.
    """
    rows, row_lines = [], []
    diagnostics: List[ParseDiagnostic] = []
    for line_no, raw in enumerate(lines, 1):
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
            try:
                row = (frame, int(frame_subframe[1]), int(rnti), float(delta), float(snr),
                       int(cqi), float(noise))
            except ValueError:
                # the frame counter is checked before the other fields
                _enforce((FRAME_COUNTER_RULE,), {"frame": frame})
                raise
        except ValueError as exc:
            diagnostics.append(ParseDiagnostic(line=line_no, reason=str(exc)))
            continue
        rows.append(row)
        row_lines.append(line_no)

    names = [name for name, _ in COLUMNS]
    e = {}
    for (name, dtype), values in zip(COLUMNS, zip(*rows) if rows else [()] * len(COLUMNS)):
        try:
            e[name] = np.array(values, dtype=dtype)
        except OverflowError:
            # an integer past 64 bits breaks a rule; hold it to name the rule
            e[name] = np.array(values, dtype=object)
    keep = _keeps_rules(e)
    for k in np.flatnonzero(~keep).tolist():
        try:
            _enforce(PARSER_RULES, dict(zip(names, rows[k])))
        except ValueError as exc:
            diagnostics.append(ParseDiagnostic(line=row_lines[k], reason=str(exc)))
    diagnostics.sort(key=lambda d: d.line)
    return TimingColumns(*(e[name][keep] for name in names), sniffer_id=sniffer_id), diagnostics


def write_log(c: TimingColumns) -> str:
    """Render a log back to canonical text; inverse of ``parse_log``.

    Floats are written with ``repr`` so parsing the output reproduces the
    columns bit-exactly.
    """
    return "".join(
        f"{frame:04d}.{subframe} {rnti} {delta!r} {snr!r} {cqi} {noise!r}\n"
        for frame, subframe, rnti, delta, snr, cqi, noise in zip(
            *(getattr(c, name).tolist() for name, _ in COLUMNS)))


def filter_rnti(c: TimingColumns, rnti: int) -> TimingColumns:
    """Order-preserving subset of entries carrying the target RNTI."""
    return c[c.rnti == rnti]


def _unwrap_frames(c: TimingColumns) -> np.ndarray:
    """Monotonic frame counters from a wrapped capture, in stream order.

    A drop of more than half the wrap modulus between consecutive entries is
    taken as one wrap of the counter.  The result is exact while the entries
    come in time order and consecutive ones lie fewer than ``FRAME_WRAP // 2``
    frames apart; a longer gap cannot be told apart from a shorter one by the
    counters alone.
    """
    wraps = np.cumsum(np.diff(c.frame) < -(FRAME_WRAP // 2))
    return c.frame + FRAME_WRAP * np.concatenate(([0], wraps))


def match_records(a: TimingColumns, b: TimingColumns
                  ) -> Tuple[MatchedColumns, List[str]]:
    """Pair two captures of the same RNTI by (frame, subframe).

    Both inputs are unwrapped and sorted by (frame, subframe); a key present
    exactly once in each capture yields one sample.  Keys appearing more than
    once in either capture are ambiguous and dropped with a diagnostic, as is
    a matched key whose two entries disagree on the RNTI.
    """
    frame = np.concatenate((_unwrap_frames(a), _unwrap_frames(b)))
    subframe = np.concatenate((a.subframe, b.subframe))
    # key every entry of both captures by the rank of its (frame, subframe) in
    # sorted order: equal pairs share a key, different ones never collide
    order = np.lexsort((subframe, frame))
    f, s = frame[order], subframe[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (f[1:] != f[:-1]) | (s[1:] != s[:-1])
    key = np.empty(len(order), dtype=np.int64)
    key[order] = np.cumsum(new)

    diagnostics: List[str] = []
    unique = []
    for side, rows in (("a", np.arange(len(a))), ("b", np.arange(len(a), len(key)))):
        keys, first, counts = np.unique(key[rows], return_index=True, return_counts=True)
        dupes = rows[first[counts > 1]]
        diagnostics.extend(f"duplicate key frame={f} subframe={s} in {side}: dropped"
                           for f, s in zip(frame[dupes].tolist(), subframe[dupes].tolist()))
        unique.append((keys[counts == 1], first[counts == 1]))

    (keys_a, rows_a), (keys_b, rows_b) = unique
    _, in_a, in_b = np.intersect1d(keys_a, keys_b, assume_unique=True, return_indices=True)
    i, j = rows_a[in_a], rows_b[in_b]
    same = a.rnti[i] == b.rnti[j]
    diagnostics.extend(f"rnti mismatch at frame={f} subframe={s}: dropped"
                       for f, s in zip(frame[i[~same]].tolist(), a.subframe[i[~same]].tolist()))
    i, j = i[same], j[same]
    return MatchedColumns(frame[i], a.subframe[i], a.dl_ul_delta[i], b.dl_ul_delta[j]), diagnostics
