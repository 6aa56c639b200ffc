"""Sniffer capture log parsing, filtering, and two-capture matching.

Canonical line format (whitespace separated)::

    FRAME.SUBFRAME  RNTI  DELTA_US  SNR_DB  CQI  NOISE_DBM
    0174.4          7423  25.36     22.1    12   -92.4

One line per decoded subframe.  ``FRAME`` is the radio frame counter (0-1023,
it wraps at 1024), ``SUBFRAME`` is 0-9, ``DELTA_US`` the downlink-uplink
timing delta in microseconds.  Real sniffer builds print their own layout;
converting it to this format is the adapter's job, everything downstream
consumes only the canonical form.

A log is a one-dimensional numpy array of the ``ENTRY`` dtype, one element
per entry, so parsing, writing and filtering cost one array operation per
field, not per line.  Two matched logs give an array of ``SAMPLE``.

Malformed lines never abort a parse: they are skipped and reported as
diagnostics carrying the line number and reason.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Radio frame counter modulus used when unwrapping sort keys.
FRAME_WRAP = 1024
#: Largest RNTI a log entry may carry: the field is a 64-bit integer.
MAX_RNTI = 2 ** 63 - 1

#: One log entry, its fields in log-line order; ``dl_ul_delta`` is in
#: microseconds, ``snr`` in dB and ``noise_power`` in dBm.
ENTRY = np.dtype([("frame", np.int64), ("subframe", np.int64), ("rnti", np.int64),
                  ("dl_ul_delta", np.float64), ("snr", np.float64), ("cqi", np.int64),
                  ("noise_power", np.float64)])

#: One sample of two matched logs: the deltas of both at one (frame, subframe)
#: key, in microseconds.  ``frame`` is the unwrapped frame counter, so keys
#: increase monotonically even across a 1024-frame wrap.
SAMPLE = np.dtype([("frame", np.int64), ("subframe", np.int64), ("delta_a", np.float64),
                   ("delta_b", np.float64)])

#: A rule on log entries: a test that holds for a valid entry, and a
#: ``str.format`` template over ``e`` naming a broken one.  ``e`` maps field
#: names to values; the test works on scalars and, element-wise, on arrays.
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


def interleave(logs: Sequence[np.ndarray]) -> np.ndarray:
    """Merge logs of equal length entry by entry: entry 0 of each, in order, then entry 1..."""
    return np.stack(logs, axis=1).ravel()


@dataclass(frozen=True)
class ParseDiagnostic:
    """Why one log line was skipped."""

    line: int
    reason: str


#: Width of the ``FRAME.SUBFRAME`` column ``np.loadtxt`` reads; a token that
#: fills it may have been cut short.
_TOKEN_WIDTH = 8
#: One log line as ``np.loadtxt`` reads it.
_LINE_DTYPE = np.dtype([("token", f"U{_TOKEN_WIDTH}")] + ENTRY.descr[2:])


def _keeps_rules(e) -> np.ndarray:
    """Which entries of ``e``, a log or a dict of field arrays, keep every parser rule."""
    keep = np.ones(len(e["frame"]), dtype=bool)
    for holds, _ in PARSER_RULES:
        keep &= holds(e)
    return keep


def parse_log(stream: Iterable[str]) -> Tuple[np.ndarray, List[ParseDiagnostic]]:
    """Parse a capture log into an ``ENTRY`` array and the diagnostics of its bad lines.

    Accepts any iterable of text lines: decoding is the caller's job (``cli``
    replaces undecodable bytes as it opens a file).  A log whose every line
    is an entry, a comment or blank, and whose every ``FRAME.SUBFRAME`` token
    is spelled canonically (ASCII digits, one dot, one subframe digit), is
    read by one ``np.loadtxt`` pass, and the value rules are checked over
    whole fields.  Any other log goes through the per-line parser, which
    reads the other spellings as Python's ``int`` does, with the same result,
    and names each line it skips.  The entries hold the log's fields only:
    which sniffer wrote the log is the caller's to know, from where it read it.
    """
    lines = list(stream)
    log = _parse_clean(lines)
    if log is not None:
        return log, []
    return _parse_lines(lines)


def _parse_clean(lines: List[str]) -> Optional[np.ndarray]:
    """The entries of a log whose every line is a valid entry, a comment or blank, else None.

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
    log = np.empty(len(table), ENTRY)
    log["frame"], log["subframe"] = counters
    for name in ENTRY.names[2:]:
        log[name] = table[name]
    return log if _keeps_rules(log).all() else None


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


def _parse_lines(lines: Iterable[str]) -> Tuple[np.ndarray, List[ParseDiagnostic]]:
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

    e = {}
    for name, values in zip(ENTRY.names, zip(*rows) if rows else [()] * len(ENTRY)):
        try:
            e[name] = np.array(values, dtype=ENTRY[name])
        except OverflowError:
            # an integer past 64 bits breaks a rule; hold it to name the rule
            e[name] = np.array(values, dtype=object)
    keep = _keeps_rules(e)
    for k in np.flatnonzero(~keep).tolist():
        try:
            _enforce(PARSER_RULES, dict(zip(ENTRY.names, rows[k])))
        except ValueError as exc:
            diagnostics.append(ParseDiagnostic(line=row_lines[k], reason=str(exc)))
    diagnostics.sort(key=lambda d: d.line)
    log = np.empty(np.count_nonzero(keep), ENTRY)
    for name in ENTRY.names:
        log[name] = e[name][keep]
    return log, diagnostics


def write_log(log: np.ndarray) -> str:
    """Render a log back to canonical text; inverse of ``parse_log``.

    Floats are written with ``repr`` so parsing the output reproduces the
    entries bit-exactly.  Each distinct value, told apart by its bits so that
    ``-0.0`` keeps its sign, is formatted once.
    """
    columns = []
    for name, fmt in zip(ENTRY.names, ("{:04d}".format, str, str, repr, repr, str, repr)):
        values, inverse = np.unique(log[name].view(np.int64), return_inverse=True)
        tokens = np.array([fmt(v) for v in values.view(ENTRY[name]).tolist()], dtype=object)
        columns.append(tokens[inverse].tolist())
    return "".join(f"{frame}.{subframe} {rnti} {delta} {snr} {cqi} {noise}\n"
                   for frame, subframe, rnti, delta, snr, cqi, noise in zip(*columns))


def filter_rnti(log: np.ndarray, rnti: int) -> np.ndarray:
    """Order-preserving subset of entries carrying the target RNTI."""
    return log[log["rnti"] == rnti]


def _unwrap_frames(log: np.ndarray) -> np.ndarray:
    """Monotonic frame counters from a wrapped capture, in stream order.

    A drop of more than half the wrap modulus between consecutive entries is
    taken as one wrap of the counter.  The result is exact while the entries
    come in time order and consecutive ones lie fewer than ``FRAME_WRAP // 2``
    frames apart; a longer gap cannot be told apart from a shorter one by the
    counters alone.
    """
    wraps = np.cumsum(np.diff(log["frame"]) < -(FRAME_WRAP // 2))
    return log["frame"] + FRAME_WRAP * np.concatenate(([0], wraps))


def match_records(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, List[str]]:
    """Pair two captures of the same RNTI by (frame, subframe) into a ``SAMPLE`` array.

    Both inputs are unwrapped and sorted by (frame, subframe); a key present
    exactly once in each capture yields one sample.  Keys appearing more than
    once in either capture are ambiguous and dropped with a diagnostic, as is
    a matched key whose two entries disagree on the RNTI.
    """
    frame = np.concatenate((_unwrap_frames(a), _unwrap_frames(b)))
    subframe = np.concatenate((a["subframe"], b["subframe"]))
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
    same = a["rnti"][i] == b["rnti"][j]
    diagnostics.extend(f"rnti mismatch at frame={f} subframe={s}: dropped"
                       for f, s in zip(frame[i[~same]].tolist(), subframe[i[~same]].tolist()))
    i, j = i[same], j[same]
    samples = np.empty(len(i), SAMPLE)
    samples["frame"], samples["subframe"] = frame[i], subframe[i]
    samples["delta_a"], samples["delta_b"] = a["dl_ul_delta"][i], b["dl_ul_delta"][j]
    return samples, diagnostics
