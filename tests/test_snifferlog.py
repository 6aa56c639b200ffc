import contextlib
import io
import pathlib
import re
import tempfile
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualsniff.cli import InputError, _read_records
from dualsniff.snifferlog import (_TOKEN_WIDTH, ENTRY, FRAME_WRAP, MAX_RNTI, SAMPLE,
                                  _decode_tokens, _parse_clean, _parse_lines, _unwrap_frames,
                                  filter_rnti, match_records, parse_log, write_log)
from dualsniff.timing import CaptureSpec, SimulatedCapture
from helpers import MATCHED_HEADER, write_matched

DATA = pathlib.Path(__file__).parent / "data"


def _rec(frame, subframe, rnti=7423, delta=25.0, snr=20.0, cqi=12, noise=-94.0):
    """One log entry as a tuple, in field order."""
    return (frame, subframe, rnti, delta, snr, cqi, noise)


def _log(entries):
    """A log of the entry tuples ``entries``, in order."""
    return np.array(entries, ENTRY)


def _samples(matched, *names):
    """The matched samples' values of the fields ``names``, one tuple per sample."""
    return matched[list(names)].tolist()


def _entries(log):
    """The entries of ``log`` as tuples of plain scalars, in field order."""
    return log.tolist()


def test_record_validation():
    lines = ["0000.9 7423 25.0 20.0 15 -95.0",
             "0000.10 7423 25.0 20.0 12 -95.0",
             "0000.0 7423 25.0 20.0 16 -95.0",
             "-001.0 7423 25.0 20.0 12 -95.0",
             "0000.0 7423 nan 20.0 12 -95.0"]
    records, diags = parse_log(lines)
    assert _entries(records) == [(0, 9, 7423, 25.0, 20.0, 15, -95.0)]
    assert [(d.line, d.reason) for d in diags] == [
        (2, "subframe must be in [0, 9], got 10"),
        (3, "cqi must be in [0, 15], got 16"),
        (4, "frame and rnti must be non-negative"),
        (5, "dl_ul_delta must be finite, got nan"),
    ]


def test_parse_single_line():
    records, diags = parse_log(["0012.3 17001 -0.25 20.0 12 -95.0"])
    assert diags == []
    assert _entries(records) == [(12, 3, 17001, -0.25, 20.0, 12, -95.0)]


def test_parse_accepts_streams():
    text = "0001.0 5 1.5 10.0 7 -90.0\n"
    from_stream = parse_log(io.StringIO(text))[0]
    from_list = parse_log([text])[0]
    assert np.array_equal(from_stream, from_list)


def test_parse_skips_comments_and_blanks():
    lines = ["# header", "", "   ", "0001.1 5 1.0 10.0 7 -90.0", "# tail"]
    records, diags = parse_log(lines)
    assert len(records) == 1
    assert diags == []


def test_parse_never_aborts_on_garbage():
    lines = ["0001.1 5 1.0 10.0 7 -90.0",
             "complete nonsense",
             "0001.2 5 1.0 10.0 7 -90.0"]
    records, diags = parse_log(lines)
    assert records["subframe"].tolist() == [1, 2]
    assert [d.line for d in diags] == [2]


def test_parse_rejects_frame_counter_past_the_wrap():
    lines = ["1023.9 5 1.0 10.0 7 -90.0",
             "1500.0 5 1.0 10.0 7 -90.0",
             "1024.0 5 1.0 10.0 7 -90.0",
             "0000.1 5 1.0 10.0 7 -90.0"]
    records, diags = parse_log(lines)
    assert [e[:2] for e in _entries(records)] == [(1023, 9), (0, 1)]
    assert [(d.line, d.reason) for d in diags] == [
        (2, "frame counter must be below 1024, got 1500"),
        (3, "frame counter must be below 1024, got 1024"),
    ]
    assert _unwrap_frames(records).tolist() == [1023, 1024]


def test_roundtrip_identity_small():
    with (DATA / "golden_a.log").open() as fh:
        records, _ = parse_log(fh)
    again, diags = parse_log(io.StringIO(write_log(records)))
    assert diags == []
    assert np.array_equal(again, records)


def test_roundtrip_identity_fuzzed():
    rng = np.random.default_rng(7)
    records = _log([
        (int(rng.integers(0, 1024)), int(rng.integers(0, 10)), int(rng.integers(0, 65536)),
         float(rng.normal(0.0, 3.0)), float(rng.normal(15.0, 4.0)), int(rng.integers(0, 16)),
         float(rng.normal(-95.0, 2.0)))
        for _ in range(500)
    ])
    again, diags = parse_log(io.StringIO(write_log(records)))
    assert diags == []
    assert np.array_equal(again, records)


def test_filter_rnti():
    records = _log([_rec(0, 0, rnti=1), _rec(0, 1, rnti=2), _rec(0, 2, rnti=1)])
    kept = filter_rnti(records, 1)
    assert kept["subframe"].tolist() == [0, 2]


def test_unwrap_frames():
    records = _log([_rec(f, 0) for f in (1022, 1023, 0, 1, 1023)])
    # 1023 -> 0 is a wrap; the final regression to 1023 is not another one
    assert _unwrap_frames(records).tolist() == [1022, 1023, 1024, 1025, 2047]
    # a small backwards step is jitter, not a wrap
    records = _log([_rec(f, 0) for f in (500, 400, 600)])
    assert _unwrap_frames(records).tolist() == [500, 400, 600]
    # a step of exactly half the wrap back is not a wrap; one frame more is
    assert _unwrap_frames(_log([_rec(600, 0), _rec(88, 0)])).tolist() == [600, 88]
    assert _unwrap_frames(_log([_rec(600, 0), _rec(87, 0)])).tolist() == [600, 1111]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(start=st.integers(0, FRAME_WRAP - 1),
       steps=st.lists(st.integers(0, FRAME_WRAP // 2 - 1), max_size=300))
def test_unwrap_frames_recovers_absolute_frames(start, steps):
    # gaps shorter than half the wrap unwrap exactly, through any number of wraps
    absolute = [start]
    for step in steps:
        absolute.append(absolute[-1] + step)
    records = _log([_rec(f % FRAME_WRAP, 0) for f in absolute])
    assert _unwrap_frames(records).tolist() == absolute


def test_match_basic_and_missing_keys():
    a = _log([_rec(1, 0, delta=1.0), _rec(1, 1, delta=2.0), _rec(1, 2, delta=3.0)])
    b = _log([_rec(1, 0, delta=1.5), _rec(1, 2, delta=3.5), _rec(1, 3, delta=9.0)])
    samples, diags = match_records(a, b)
    assert diags == []
    assert _samples(samples, "frame", "subframe", "delta_a", "delta_b") == \
        [(1, 0, 1.0, 1.5), (1, 2, 3.0, 3.5)]


def test_match_drops_duplicates_with_diagnostic():
    a = _log([_rec(1, 0, delta=1.0), _rec(1, 0, delta=1.1), _rec(1, 1, delta=2.0)])
    b = _log([_rec(1, 0, delta=5.0), _rec(1, 1, delta=6.0)])
    samples, diags = match_records(a, b)
    assert _samples(samples, "frame", "subframe") == [(1, 1)]
    assert diags == ["duplicate key frame=1 subframe=0 in a: dropped"]


def test_match_drops_rnti_mismatch():
    a = _log([_rec(1, 0, rnti=10)])
    b = _log([_rec(1, 0, rnti=11)])
    samples, diags = match_records(a, b)
    assert len(samples) == 0
    assert diags == ["rnti mismatch at frame=1 subframe=0: dropped"]


def test_match_unwraps_both_sides():
    a = _log([_rec(1023, 9, delta=1.0), _rec(0, 0, delta=2.0)])
    b = _log([_rec(1023, 9, delta=1.5), _rec(0, 0, delta=2.5)])
    samples, _ = match_records(a, b)
    assert _samples(samples, "frame", "subframe") == [(1023, 9), (1024, 0)]


def test_golden_parse_diagnostics():
    with (DATA / "golden_a.log").open() as fh:
        records_a, diags_a = parse_log(fh)
    assert [(d.line, d.reason) for d in diags_a] == [
        (9, "could not convert string to float: 'bad'"),
        (10, "expected 6 fields, got 7"),
        (11, "cqi must be in [0, 15], got 16"),
    ]
    assert len(records_a) == 7

    with (DATA / "golden_b.log").open() as fh:
        records_b, diags_b = parse_log(fh)
    assert [(d.line, d.reason) for d in diags_b] == [
        (4, "bad frame.subframe token '1023'"),
        (5, "could not convert string to float: 'os.10'"),
    ]
    assert len(records_b) == 5


def test_golden_matched_table_byte_exact():
    with (DATA / "golden_a.log").open() as fh:
        records_a, _ = parse_log(fh)
    with (DATA / "golden_b.log").open() as fh:
        records_b, _ = parse_log(fh)
    samples, diags = match_records(filter_rnti(records_a, 7423),
                                   filter_rnti(records_b, 7423))
    assert diags == ["duplicate key frame=1024 subframe=2 in a: dropped"]
    want = (DATA / "golden_matched.csv").read_text()
    assert write_matched(samples) == want


def test_write_matched_header_only_when_empty():
    samples, _ = match_records(_log([]), _log([]))
    assert write_matched(samples) == MATCHED_HEADER + "\n"


def _capture_log(devices=1):
    """One simulated sniffer's log of three subframes of ``devices`` devices."""
    return SimulatedCapture(CaptureSpec(subframes=3), np.zeros((3, devices, 2))).sniffer_log(1)


CLEAN_LINES = ["0001.0 5 1.5 10.0 7 -90.0", "0001.1 5 2.5 10.0 7 -90.0"]

#: Every producer of logs and matched samples, with the dtype its array has.
PRODUCERS = {
    "column path": (lambda: _parse_clean(CLEAN_LINES), ENTRY),
    "per-line path": (lambda: parse_log(CLEAN_LINES + ["garbage"])[0], ENTRY),
    "no entries": (lambda: parse_log(["# no entries"])[0], ENTRY),
    "sniffer_log": (_capture_log, ENTRY),
    "two-device sniffer_log": (lambda: _capture_log(devices=2), ENTRY),
    "filter_rnti": (lambda: filter_rnti(_capture_log(), 17001), ENTRY),
    "match_records": (lambda: match_records(_capture_log(), _capture_log())[0], SAMPLE),
    "no matches": (lambda: match_records(_capture_log()[:0], _capture_log())[0], SAMPLE),
}


@pytest.mark.parametrize("producer", PRODUCERS)
def test_logs_and_samples_are_plain_structured_arrays(producer):
    make, dtype = PRODUCERS[producer]
    array = make()
    assert type(array) is np.ndarray and array.ndim == 1 and array.dtype == dtype
    # a record array's dtype compares equal to its plain one
    assert array.dtype.type is np.void


def test_sniffer_log_takes_each_subframes_entries_in_rnti_order():
    delta = np.arange(8.0).reshape(2, 2, 2)  # 4 * subframe + 2 * device + sniffer
    log = SimulatedCapture(CaptureSpec(subframes=2, rnti=1), delta).sniffer_log(1)
    assert [e[1:4] for e in _entries(log)] == [(0, 1, 1.0), (0, 2, 3.0), (1, 1, 5.0), (1, 2, 7.0)]


def test_parse_rejects_an_rnti_beyond_64_bits():
    records, diags = parse_log([f"0001.0 {MAX_RNTI} 1.0 10.0 7 -90.0",
                                f"0001.1 {MAX_RNTI + 1} 1.0 10.0 7 -90.0"])
    assert records["rnti"].tolist() == [MAX_RNTI]
    assert [(d.line, d.reason) for d in diags] == [
        (2, f"rnti must be at most {MAX_RNTI}, got {MAX_RNTI + 1}")]


def test_parse_names_the_first_broken_check_of_a_line():
    big = 2 ** 70
    records, diags = parse_log(["1500.x 5 1.0 10.0 7 -90.0",
                                "0001.1 5 zz 10.0 7 -90.0",
                                f"0001.{big} {big} 1.0 10.0 {big} -90.0",
                                f"0001.2 {-big} 1.0 10.0 {big} -90.0",
                                f"{big}.{big} 5 1.0 10.0 7 -90.0",
                                "0001.3 5 1.0 10.0 7 -90.0"])
    assert records["subframe"].tolist() == [3]
    # the frame counter is checked before the fields after it are converted,
    # and the value rules in their order
    assert [(d.line, d.reason) for d in diags] == [
        (1, "frame counter must be below 1024, got 1500"),
        (2, "could not convert string to float: 'zz'"),
        (3, f"subframe must be in [0, 9], got {big}"),
        (4, f"cqi must be in [0, 15], got {big}"),
        (5, f"frame counter must be below 1024, got {big}")]


#: Target lines (RNTI 7423) interleaved with one malformed decoy line per reason.
MIXED_LOG = """\
0100.0 7423 1.0 20.0 12 -95.0
0100.0 7424 1.0 20.0 12 -95.0 extra
0100.1 7423 1.5 20.0 12 -95.0
0100.1.2 7424 1.0 20.0 12 -95.0
0100.2 7423 2.0 20.0 12 -95.0
1024.2 7424 1.0 20.0 12 -95.0
0100.3 7424 x 20.0 12 -95.0
0100.3 7424z 1.0 20.0 12 -95.0
0100.3 7423 2.5 20.0 12 -95.0
0100.12 7424 1.0 20.0 12 -95.0
0100.4 7424 1.0 20.0 16 -95.0
# a comment, then a blank line

0100.4 7423 3.0 20.0 12 -95.0
-001.5 7424 1.0 20.0 12 -95.0
0100.5 -7424 1.0 20.0 12 -95.0
0100.5 7423 3.5 20.0 12 -95.0
0100.6 7424 nan 20.0 12 -95.0
0100.6 7424 -inf 20.0 12 -95.0
0100.6 7423 4.0 20.0 12 -95.0
"""

MIXED_DIAGNOSTICS = [
    (2, "expected 6 fields, got 7"),
    (4, "bad frame.subframe token '0100.1.2'"),
    (6, "frame counter must be below 1024, got 1024"),
    (7, "could not convert string to float: 'x'"),
    (8, "invalid literal for int() with base 10: '7424z'"),
    (10, "subframe must be in [0, 9], got 12"),
    (11, "cqi must be in [0, 15], got 16"),
    (15, "frame and rnti must be non-negative"),
    (16, "frame and rnti must be non-negative"),
    (18, "dl_ul_delta must be finite, got nan"),
    (19, "dl_ul_delta must be finite, got -inf"),
]


def test_diagnostics_of_every_reason_survive_the_rnti_filter(tmp_path, capsys):
    records, diags = parse_log(io.StringIO(MIXED_LOG))
    assert [(d.line, d.reason) for d in diags] == MIXED_DIAGNOSTICS
    assert records["rnti"].tolist() == [7423] * 7
    assert records["dl_ul_delta"].tolist() == [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    assert len(filter_rnti(records, 7424)) == 0

    # the command line skips the decoys' lines whose RNTI field is a plain
    # decimal unparsed, and names the malformed lines it keeps at their line
    path = tmp_path / "sn1.log"
    path.write_text(MIXED_LOG)
    kept = _read_records(str(path), 7423)
    assert np.array_equal(kept, filter_rnti(records, 7423))
    assert capsys.readouterr().err.splitlines() == [
        f"{path}:8: skipped: invalid literal for int() with base 10: '7424z'",
        f"{path}:16: skipped: frame and rnti must be non-negative"]


def test_a_malformed_target_line_is_named_at_its_file_line(tmp_path, capsys):
    path = tmp_path / "sn1.log"
    path.write_text("0100.0 7424 1.0 20.0 12 -95.0\n"
                    "0100.0\t7425\t1.0\t20.0\t12\t-95.0\n"
                    "0100.0 7423 1.0 20.0 12 -95.0\n"
                    "0100.1 7424 1.0 20.0 12 -95.0\n"
                    "0100.1 07423 x 20.0 12 -95.0\n"
                    "0100.2 7424 1.0 20.0 12 -95.0\n"
                    "0100.2 7423 2.0 20.0 16 -95.0\n")
    kept = _read_records(str(path), 7423)
    assert _entries(kept) == [(100, 0, 7423, 1.0, 20.0, 12, -95.0)]
    assert capsys.readouterr().err.splitlines() == [
        f"{path}:5: skipped: could not convert string to float: 'x'",
        f"{path}:7: skipped: cqi must be in [0, 15], got 16"]


#: Spellings of an RNTI field: canonical, then others ``int`` reads as the same
#: value (non-ASCII digits too), then a 5000-digit field ``int`` refuses.
RNTI_SPELLINGS = (str, lambda v: f"00{v}", lambda v: f"+{v}", lambda v: "_".join(str(v)),
                  lambda v: str(v).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
                  lambda v: str(v).zfill(5000))


@st.composite
def mixed_lines(draw):
    """A blank, comment or garbage line, or an entry line of the target RNTI 7423 or
    another device: its RNTI spelled as one of ``RNTI_SPELLINGS``, its fields tab-
    or space-separated, at times malformed or a field short or long."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(["\n", " \t \n", "# note\n", "# 7424 comment\n",
                                     "garbage\n", "0100.1 7424\n", "7424\n"]))
    rnti = draw(st.sampled_from([7423, 7424, 742, 74230, 0]))
    fields = [draw(st.sampled_from(["0100.1", "1023.9", "0100.1.2", "1024.0"])),
              draw(st.sampled_from(RNTI_SPELLINGS))(rnti),
              draw(st.sampled_from(["1.5", "7423", "x", "nan"])), "20.0",
              draw(st.sampled_from(["12", "16"])), "-95.0"]
    fields = fields[:draw(st.sampled_from([5, 6, 6, 6]))] + draw(
        st.sampled_from([[], [], ["extra"]]))
    return draw(st.sampled_from([" ", "\t", "  "])).join(fields) + "\n"


def _skipped(line: str, rnti: int) -> bool:
    """The skip rule: the RNTI field is plain ASCII-decimal, its value not ``rnti``."""
    fields = line.split()
    return (len(fields) >= 2 and re.fullmatch("[0-9]+", fields[1]) is not None
            and Decimal(fields[1]) != rnti)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lines=st.lists(mixed_lines(), max_size=30))
def test_reading_by_rnti_first_keeps_entries_and_diagnostics(lines):
    full, diags = parse_log(lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "sn1.log"
        path.write_text("".join(lines), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                kept = _read_records(str(path), 7423)
            except InputError:
                # no line was skipped, and none holds an entry
                assert len(full) == 0
                kept = full
    assert np.array_equal(kept, filter_rnti(full, 7423))
    named = err.getvalue().splitlines()
    # each diagnostic named is the full parse's, at its file line; none of a line
    # the rule keeps is lost
    assert set(named) <= {f"{path}:{d.line}: skipped: {d.reason}" for d in diags}
    assert set(named) >= {f"{path}:{d.line}: skipped: {d.reason}" for d in diags
                          if not _skipped(lines[d.line - 1], 7423)}


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def logs(draw, rntis=(7423, 7424, 7425), max_step=300, subframes=10):
    """Entry tuples of a log of mixed RNTIs whose frame counter wraps: steps up to
    ``max_step`` frames."""
    frame = draw(st.integers(0, FRAME_WRAP - 1))
    entries = []
    for step, *fields in draw(st.lists(st.tuples(
            st.integers(0, max_step), st.integers(0, subframes - 1), st.sampled_from(rntis),
            finite, finite, st.integers(0, 15), finite), max_size=40)):
        frame = (frame + step) % FRAME_WRAP
        entries.append((frame, *fields))
    return entries


@settings(max_examples=200, deadline=None, derandomize=True)
@given(entries=logs())
def test_columns_survive_write_and_parse(entries):
    log = _log(entries)
    again, diags = parse_log(io.StringIO(write_log(log)))
    assert diags == []
    assert np.array_equal(again, log)
    # equal entries may still differ in the sign of a zero
    assert write_log(again) == write_log(log)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(entries=logs(), rnti=st.sampled_from((7423, 7424, 7425, 1)))
def test_column_mask_equals_the_record_filter(entries, rnti):
    assert np.array_equal(filter_rnti(_log(entries), rnti),
                          _log([e for e in entries if e[2] == rnti]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=logs(max_step=1, subframes=3, rntis=(1, 2)),
       b=logs(max_step=1, subframes=3, rntis=(1, 2)))
def test_match_is_symmetric(a, b):
    a, b = _log(a), _log(b)
    samples_ab, diags_ab = match_records(a, b)
    samples_ba, diags_ba = match_records(b, a)
    assert _samples(samples_ab, "frame", "subframe") == _samples(samples_ba, "frame", "subframe")
    assert _samples(samples_ab, "delta_a", "delta_b") == _samples(samples_ba, "delta_b", "delta_a")
    swapped = [d.replace(" in a:", " in B:").replace(" in b:", " in a:").replace(" in B:", " in b:")
               for d in diags_ba]
    assert sorted(swapped) == sorted(diags_ab)


def _same_parse(got, want):
    """Equal entries, bit for bit (NaN payloads and signed zeros too), and equal diagnostics."""
    (log, diags), (want_log, want_diags) = got, want
    assert log.dtype == want_log.dtype == ENTRY
    for name in ENTRY.names:
        assert log[name].tobytes() == want_log[name].tobytes(), name
    assert diags == want_diags


VALID_LINE = ("0174.4", "7423", "25.36", "22.1", "12", "-92.4")

#: Field values where numpy's parser and Python's ``int``/``float`` may part:
#: accepted by both, by one only, or by neither.
TRICKY_FIELDS = (
    "+5", "-0", "007", "1_000", "١٢", "1e3", "1.0", "0x10", "99999999999999999999",
    "+", "-", "--5", "5-", "²", "\u200b5", ".5", "5.", "-0.0", "nan", "-nan", "NaN",
    "Infinity", "-inf", "iNf", "1_0.5", "١.٥", "0x1p3", "1e400", "1e-400", "1.5e",
    "e5", "1d3", "nan(1)", "1.00000000005", "0." + "1" * 40, "5\x00", "\x00",
    "1.2", "+1.2", "1.+2", "-1.2", "1._2", "١.٢", "1.2.3", "12", ".2", "1.",
    "00000174.4", "000017.23", "0174.4\x00", "\ufffd", "#1.2", "'1'",
    "0174.04", "0174.40", "01023.9", "0_174.4", "+174.4", "١٧٤.٤",
)

#: Separators that Python's ``str.split`` takes as whitespace, and ones it does not.
SEPARATORS = (" ", "\t", "\xa0", "\u3000", "\x0b", "\x0c", "\x1c", "\x1f", "\x85",
              "\u2028", "\r", "\u200b", ",")


@pytest.mark.parametrize("position", range(6))
@pytest.mark.parametrize("field", TRICKY_FIELDS)
def test_parse_paths_agree_on_every_tricky_field(position, field):
    line = " ".join(VALID_LINE[:position] + (field,) + VALID_LINE[position + 1:])
    lines = [" ".join(VALID_LINE), line + "\n", "0174.5 7423 1.0 2.0 3 4.0"]
    _same_parse(parse_log(lines), _parse_lines(lines))


@pytest.mark.parametrize("separator", SEPARATORS)
def test_parse_paths_agree_on_every_separator(separator):
    lines = [" ".join(VALID_LINE), separator.join(VALID_LINE) + separator + "\n"]
    _same_parse(parse_log(lines), _parse_lines(lines))


def test_clean_logs_take_the_column_path():
    # valid spellings numpy reads as Python does stay on the fast path
    # and so do whole-line comments, such as a capture's header
    lines = ["# sniffer sn1 capture\n", "0174.4\xa0+5 .5 nan -0 Infinity\r\n", "", " \t",
             "\xa0#1023.9 7 1 2 3 4\n", "1023.9 7 1e3 -nan 015 1e400\n"]
    log = _parse_clean(lines)
    assert log is not None and len(log) == 2
    _same_parse((log, []), _parse_lines(lines))
    # a trailing comment, a cut token or a broken rule sends the log to the
    # per-line parser
    for bad in ("0174.4 5 1.0 2.0 3 4.0 # note", "00000174.4 5 1.0 2.0 3 4.0",
                "0174.4 5 1.0 2.0 16 4.0"):
        assert _parse_clean(lines + [bad]) is None


def _tokens(tokens):
    """``tokens`` as the ``FRAME.SUBFRAME`` column ``np.loadtxt`` reads."""
    return np.array(tokens, dtype=f"U{_TOKEN_WIDTH}")


def test_every_canonical_token_is_decoded():
    frames, subframes = np.divmod(np.arange(FRAME_WRAP * 10), 10)
    counters = _decode_tokens(_tokens([f"{f:04d}.{s}" for f, s in zip(frames, subframes)]))
    assert counters is not None
    assert counters[0].tolist() == frames.tolist()
    assert counters[1].tolist() == subframes.tolist()


#: Tokens of characters ``int`` reads in some spellings and not in others.
odd_tokens = st.text(alphabet="0123456789.+-_ ١²٠", max_size=_TOKEN_WIDTH - 1)
#: Digits, a dot and a digit; the longest fill the column or are cut, as
#: ``np.loadtxt`` cuts them.
plain_tokens = st.tuples(st.integers(0, 10 ** (_TOKEN_WIDTH - 3) - 1), st.integers(0, 9),
                         st.integers(0, 2)).map(lambda v: "0" * v[2] + f"{v[0]}.{v[1]}")


@settings(max_examples=500, deadline=None, derandomize=True)
@given(tokens=st.lists(st.one_of(odd_tokens, plain_tokens), min_size=1, max_size=4))
def test_token_decoder_reads_as_int_or_declines(tokens):
    counters = _decode_tokens(_tokens(tokens))
    canonical = all(re.fullmatch(r"[0-9]+\.[0-9]", token) and len(token) < _TOKEN_WIDTH
                    for token in tokens)
    assert (counters is not None) == canonical
    if canonical:
        halves = [token.split(".") for token in tokens]
        assert counters[0].tolist() == [int(frame) for frame, _ in halves]
        assert counters[1].tolist() == [int(subframe) for _, subframe in halves]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(entries=st.lists(st.tuples(
    st.integers(0, FRAME_WRAP - 1), st.integers(0, 9), st.integers(0, MAX_RNTI), finite,
    st.floats(allow_nan=False), st.integers(0, 15), st.floats(allow_nan=False)),
    min_size=1, max_size=20))
def test_written_logs_take_the_column_path(entries):
    # any log write_log renders from rule-keeping entries is read by the
    # column path, bit for bit
    log = _log(entries)
    again = _parse_clean(list(io.StringIO(write_log(log))))
    assert again is not None
    _same_parse((again, []), (log, []))


@pytest.mark.parametrize("lines", [[], [""], ["  \n", "\n"], ["# only a comment\n"],
                                   ["# one\n", "\n", "#two\n"]])
def test_logs_without_entries_parse_quietly(lines):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records, diags = parse_log(lines)
    assert len(records) == 0 and diags == []


@st.composite
def log_lines(draw):
    """Lines of a log: mostly valid entries, with blanks, comments and odd fields."""
    field = st.one_of(st.integers(-5, 2000).map(str), finite.map(repr),
                      st.sampled_from(TRICKY_FIELDS))
    entry = st.tuples(st.integers(0, 1023), st.integers(0, 9), st.integers(0, 99),
                      finite, finite, st.integers(0, 15), finite).map(
        lambda v: f"{v[0]:04d}.{v[1]} {v[2]} {v[3]!r} {v[4]!r} {v[5]} {v[6]!r}")
    odd = st.lists(field, min_size=5, max_size=7).map(" ".join)
    other = st.one_of(st.sampled_from(("", "   ", "# comment", "#")),
                      st.tuples(entry, st.sampled_from(SEPARATORS)).map("".join),
                      entry.map(lambda e: e + " # note"), odd)
    # one line in ten is not a plain entry, so that many logs are clean
    line = st.integers(0, 9).flatmap(lambda kind: other if kind == 0 else entry)
    ending = st.sampled_from(("\n", "\r\n", ""))
    return draw(st.lists(st.tuples(line, ending).map("".join), max_size=12))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lines=log_lines(), replaced=st.sampled_from(("", "\ufffd")))
def test_parse_log_agrees_with_the_per_line_parser(lines, replaced):
    # U+FFFD stands where the command line's decoding replaced an undecodable byte
    if lines:
        lines[0] = replaced + lines[0]
    _same_parse(parse_log(lines), _parse_lines(lines))


def test_match_keys_do_not_collide_past_subframe_9():
    # frame*10 + subframe would give (1, 10) and (2, 0) the same key
    a = _log([(1, 10, 5, 1.0, 20.0, 7, -90.0), (2, 0, 5, 2.0, 20.0, 7, -90.0)])
    b = _log([(2, 0, 5, 3.0, 21.0, 7, -90.0)])
    samples, diags = match_records(a, b)
    assert diags == []
    assert _samples(samples, "frame", "subframe", "delta_a", "delta_b") == [(2, 0, 2.0, 3.0)]
    samples, diags = match_records(a[:1], b)
    assert len(samples) == 0 and diags == []
