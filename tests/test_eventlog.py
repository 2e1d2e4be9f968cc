import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attnexplain.errors import EmptyLogError, LogParseError, SchemaError, UsageError
from attnexplain.eventlog import (
    END_LABEL,
    PAD_LABEL,
    EventLog,
    Prefix,
    build_log,
    extract_prefixes,
    parse_csv,
    parse_xes,
    split,
    unique_prefixes,
    write_csv,
)

label_strategy = st.text(alphabet="ABCDEFGH", min_size=1, max_size=3)
traces_strategy = st.lists(
    st.lists(label_strategy, min_size=1, max_size=6), min_size=1, max_size=8
)


def test_vocabulary_first_appearance_order(abc_log):
    assert abc_log.activity_labels == ["A", "B", "C"]
    assert abc_log.label(abc_log.pad_id) == PAD_LABEL
    assert abc_log.label(abc_log.end_id) == END_LABEL
    assert abc_log.pad_id == 3 and abc_log.end_id == 4


def test_reserved_symbols_rejected_as_activities():
    with pytest.raises(SchemaError):
        build_log([("c1", ["A", PAD_LABEL])])
    with pytest.raises(SchemaError):
        build_log([("c1", [END_LABEL])])


def test_empty_activity_rejected(tmp_path):
    with pytest.raises(SchemaError, match="empty activity name in case 'c1'"):
        build_log([("c1", ["A", ""])])
    # a short CSV row reads as empty fields, so its activity is empty too
    for rows in ("c1,A,1\nc1,,2\n", "c1,A,1\nc1\n"):
        path = tmp_path / "log.csv"
        path.write_text("case,activity,time\n" + rows)
        with pytest.raises(SchemaError, match="empty activity name"):
            parse_csv(path, "case", "activity", "time")
    path = tmp_path / "log.xes"
    path.write_text(XES_DOC.replace('value="W_B"', 'value=""', 1))
    with pytest.raises(SchemaError, match="empty activity name in case 't1'"):
        parse_xes(path)


def test_empty_log_rejected():
    with pytest.raises(EmptyLogError):
        build_log([])
    with pytest.raises(EmptyLogError):
        build_log([("c1", [])])


def test_vocabulary_rejected_without_unique_labels_or_the_reserved_symbols():
    with pytest.raises(SchemaError, match="duplicate activity labels in vocabulary"):
        EventLog([], ["A", "A", PAD_LABEL, END_LABEL])
    for vocabulary in (["A"], ["A", END_LABEL, PAD_LABEL], []):
        with pytest.raises(SchemaError, match="vocabulary must end with PAD and END symbols"):
            EventLog([], vocabulary)


def test_stats(abc_log):
    s = abc_log.stats
    assert s.num_cases == 4
    assert s.num_activities == 3
    assert s.num_events == 10
    assert s.avg_len == pytest.approx(2.5)
    assert s.max_len == 3
    assert s.num_variants == 3


@given(traces=traces_strategy)
@settings(max_examples=50, deadline=None)
def test_csv_round_trip(tmp_path_factory, traces):
    logobj = build_log([(f"c{i}", t) for i, t in enumerate(traces)])
    path = tmp_path_factory.mktemp("csv") / "log.csv"
    write_csv(logobj, path)
    assert parse_csv(path, "case", "activity", "time") == logobj
    assert parse_csv(path) == logobj  # the default columns are the header written


def test_csv_timestamp_sorting(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "case,activity,time\n"
        "c1,B,2\n"
        "c1,A,1\n"
        "c1,C,3\n"
    )
    logobj = parse_csv(path, "case", "activity", "time")
    assert [logobj.label(a) for a in logobj.traces[0].activities] == ["A", "B", "C"]


def test_csv_stable_order_on_equal_timestamps(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("case,activity,time\nc1,X,1\nc1,Y,1\nc1,Z,1\n")
    logobj = parse_csv(path, "case", "activity", "time")
    assert [logobj.label(a) for a in logobj.traces[0].activities] == ["X", "Y", "Z"]


def test_csv_missing_column(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("case,activity\nc1,A\n")
    with pytest.raises(SchemaError):
        parse_csv(path, "case", "activity", "time")


XES_DOC = """<?xml version="1.0" encoding="UTF-8"?>
<log xmlns="http://www.xes-standard.org/">
  <trace>
    <string key="concept:name" value="t1"/>
    <event><string key="concept:name" value="A"/>
           <string key="lifecycle:transition" value="complete"/></event>
    <event><string key="concept:name" value="W_B"/>
           <string key="lifecycle:transition" value="start"/></event>
    <event><string key="concept:name" value="W_B"/>
           <string key="lifecycle:transition" value="complete"/></event>
  </trace>
  <trace>
    <string key="concept:name" value="t2"/>
    <event><string key="concept:name" value="A"/>
           <string key="lifecycle:transition" value="complete"/></event>
  </trace>
</log>
"""


def test_parse_xes(tmp_path):
    path = tmp_path / "log.xes"
    path.write_text(XES_DOC)
    logobj = parse_xes(path)
    assert len(logobj.traces) == 2
    assert logobj.activity_labels == ["A", "W_B"]
    assert [logobj.label(a) for a in logobj.traces[0].activities] == ["A", "W_B", "W_B"]


def test_parse_xes_filters(tmp_path):
    path = tmp_path / "log.xes"
    path.write_text(XES_DOC)
    prefixed = parse_xes(path, activity_prefix="W_")
    assert prefixed.activity_labels == ["W_B"]
    assert len(prefixed.traces) == 1  # t2 has no W_ events and is skipped
    completes = parse_xes(path, lifecycle="complete")
    assert [completes.label(a) for a in completes.traces[0].activities] == ["A", "W_B"]


def test_parse_xes_malformed_reports_position(tmp_path):
    path = tmp_path / "bad.xes"
    path.write_text("<log><trace></log>")
    with pytest.raises(LogParseError) as exc:
        parse_xes(path)
    assert exc.value.position is not None


def mutations(doc: bytes):
    """``doc`` with up to eight bytes replaced, inserted or deleted."""
    edits = st.lists(st.tuples(st.integers(0, len(doc)), st.integers(-1, 255), st.booleans()),
                     max_size=8)

    def apply(edits):
        data = bytearray(doc)
        for pos, byte, insert in edits:
            pos = min(pos, len(data))
            if byte < 0:
                del data[pos:pos + 1]
            elif insert or pos == len(data):
                data.insert(pos, byte)
            else:
                data[pos] = byte
        return bytes(data)

    return edits.map(apply)


FUZZ_SEEDS = {"csv": b"case,activity,time\nc1,A,1\nc1,B,2\nc2,A,1\n", "xes": XES_DOC.encode()}


@given(st.sampled_from(sorted(FUZZ_SEEDS)).flatmap(
    lambda kind: st.tuples(st.just(kind), mutations(FUZZ_SEEDS[kind]) | st.binary(max_size=64))))
@example(("csv", b"case,activity,time\nc1," + b"A" * 131073 + b",1\n"))  # over the field limit
@example(("xes", XES_DOC.replace("UTF-8", "TF-8").encode()))  # an unknown encoding
@settings(max_examples=50, deadline=None)
def test_parsers_raise_only_documented_errors(tmp_path_factory, case):
    kind, data = case
    path = tmp_path_factory.mktemp("fuzz") / f"log.{kind}"
    path.write_bytes(data)
    try:
        parse_csv(path, "case", "activity", "time") if kind == "csv" else parse_xes(path)
    except (LogParseError, SchemaError, EmptyLogError, UnicodeDecodeError):
        pass


def test_split_partitions_and_shares_vocabulary(abc_log):
    train, test = split(abc_log, 0.5, seed=0)
    assert len(train.traces) + len(test.traces) == len(abc_log.traces)
    assert train.vocabulary == abc_log.vocabulary == test.vocabulary
    ids = {t.case_id for t in train.traces} | {t.case_id for t in test.traces}
    assert ids == {t.case_id for t in abc_log.traces}


def test_split_deterministic(abc_log):
    a = split(abc_log, 0.7, seed=5)
    b = split(abc_log, 0.7, seed=5)
    assert a[0] == b[0] and a[1] == b[1]
    c = split(abc_log, 0.7, seed=6)
    assert (a[0] != c[0]) or (a[1] != c[1])


def test_split_clamps_to_nonempty_halves(abc_log):
    train, test = split(abc_log, 0.99, seed=0)
    assert len(train.traces) >= 1 and len(test.traces) >= 1


def test_split_rejects_bad_fraction(abc_log):
    for frac in (0.0, 1.0, -0.1):
        message = rf"^train_frac must be a number in \(0, 1\), got {frac}$"
        with pytest.raises(UsageError, match=message):
            split(abc_log, frac, seed=0)


def test_prefix_count_identity(abc_log):
    # one prefix per event
    prefixes = extract_prefixes(abc_log)
    assert len(prefixes) == abc_log.stats.num_events


def test_prefix_targets(abc_log):
    prefixes = extract_prefixes(abc_log)
    first_trace = [p for p in prefixes if p.source_case == "c1"]
    assert [p.activities for p in first_trace] == [(0,), (0, 1), (0, 1, 2)]
    assert [p.target for p in first_trace] == [1, 2, abc_log.end_id]


def test_unique_prefixes_keeps_each_first_occurrence_of_prefixes_and_id_arrays():
    ab = np.array([0, 1])
    items = [ab, Prefix((0, 1), 2, "c1"), Prefix((1,), 2, "c1"), (0, 1), np.array([1]),
             np.array([3, 0]), (), Prefix((3, 0), 1, "c2"), [0, 1, 2], (0, 1, 2)]
    first = [items[i] for i in (0, 2, 5, 6, 8)]
    got = unique_prefixes(items)
    assert len(got) == len(first) and all(g is f for g, f in zip(got, first))
