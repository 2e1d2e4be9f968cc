"""Event-log ingestion, statistics, splitting, and prefix extraction.

A log stores traces as sequences of small integer activity ids. The
vocabulary is a tuple of labels, indexed by id: the business activities
in first-appearance order, then two reserved symbols: PAD (``_``, the
masking symbol) and END (``<END>``, the end-of-trace prediction target).
PAD never appears inside a trace; END is only ever a prefix target.
"""

from __future__ import annotations

import csv
import logging
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    EmptyLogError,
    LogParseError,
    SchemaError,
    SplitError,
    check_number,
)

log = logging.getLogger(__name__)

PAD_LABEL = "_"
END_LABEL = "<END>"


@dataclass(frozen=True)
class Trace:
    case_id: str
    activities: tuple[int, ...]


@dataclass(frozen=True)
class Prefix:
    activities: tuple[int, ...]
    target: int
    source_case: str


def _prefix_ids(prefix) -> np.ndarray:
    """Activity ids of a Prefix (anything with ``.activities``) or of an
    id sequence."""
    return np.asarray(getattr(prefix, "activities", prefix), dtype=int)


def _last_activity(prefix, pad_id: int) -> int | None:
    """The last non-PAD activity id of a prefix, or None if it is all PAD."""
    return next((aid for aid in reversed(_prefix_ids(prefix).tolist()) if aid != pad_id), None)


@dataclass(frozen=True)
class LogStats:
    num_cases: int
    num_activities: int
    num_events: int
    avg_len: float
    max_len: int
    num_variants: int


class EventLog:
    """Immutable collection of traces over a closed activity vocabulary."""

    def __init__(self, traces: Sequence[Trace], vocabulary: Sequence[str]):
        self.traces: tuple[Trace, ...] = tuple(traces)
        self.vocabulary: tuple[str, ...] = tuple(vocabulary)
        if len(set(self.vocabulary)) != len(self.vocabulary):
            raise SchemaError("duplicate activity labels in vocabulary")
        if self.vocabulary[-2:] != (PAD_LABEL, END_LABEL):
            raise SchemaError("vocabulary must end with PAD and END symbols")

    @property
    def num_activities(self) -> int:
        """Number of business activities (PAD and END excluded)."""
        return len(self.vocabulary) - 2

    @property
    def pad_id(self) -> int:
        return len(self.vocabulary) - 2

    @property
    def end_id(self) -> int:
        return len(self.vocabulary) - 1

    @property
    def activity_labels(self) -> list[str]:
        """Business activity labels, indexed by activity id."""
        return list(self.vocabulary[: self.num_activities])

    def label(self, activity_id: int) -> str:
        return self.vocabulary[activity_id]

    def with_traces(self, traces: Sequence[Trace]) -> "EventLog":
        """New log sharing this log's vocabulary."""
        return EventLog(traces, self.vocabulary)

    @property
    def stats(self) -> LogStats:
        lengths = [len(t.activities) for t in self.traces]
        num_events = int(sum(lengths))
        num_cases = len(self.traces)
        variants = {t.activities for t in self.traces}
        return LogStats(
            num_cases=num_cases,
            num_activities=self.num_activities,
            num_events=num_events,
            avg_len=num_events / num_cases if num_cases else 0.0,
            max_len=max(lengths) if lengths else 0,
            num_variants=len(variants),
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EventLog)
            and self.traces == other.traces
            and self.vocabulary == other.vocabulary
        )

    def __repr__(self) -> str:
        return f"EventLog({len(self.traces)} traces, {self.num_activities} activities)"


def build_log(label_traces: Iterable[tuple[str, Sequence[str]]]) -> EventLog:
    """Build a log from (case_id, activity-label sequence) pairs.

    The vocabulary is assembled in first-appearance order with PAD and
    END appended last.
    """
    label_to_id: dict[str, int] = {}
    traces = []
    for case_id, labels in label_traces:
        ids = []
        for lab in labels:
            if lab in (PAD_LABEL, END_LABEL):
                raise SchemaError(f"reserved symbol {lab!r} used as activity name")
            if not lab:
                raise SchemaError(f"empty activity name in case {case_id!r}")
            if lab not in label_to_id:
                label_to_id[lab] = len(label_to_id)
            ids.append(label_to_id[lab])
        if ids:
            traces.append(Trace(case_id=case_id, activities=tuple(ids)))
    if not traces:
        raise EmptyLogError("log contains no non-empty traces")
    return EventLog(traces, [*label_to_id, PAD_LABEL, END_LABEL])


def parse_csv(path, case_col: str = "case", activity_col: str = "activity",
              time_col: str | None = "time") -> EventLog:
    """Parse a UTF-8 CSV event log; a leading byte-order mark is skipped.

    Rows are grouped by case id and sorted by timestamp, stable within
    equal timestamps by file order; with no ``time_col`` (None or "") they
    keep file order. Timestamps compare as strings (the usual ISO format)
    unless they parse as floats.
    """
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.DictReader(f, restval="")  # a short row reads as empty fields
        try:
            if reader.fieldnames is None:
                raise EmptyLogError(f"empty CSV file: {path}")
            needed = [case_col, activity_col] + ([time_col] if time_col else [])
            missing = [c for c in needed if c not in reader.fieldnames]
            if missing:
                raise SchemaError(f"missing columns {missing} in {path}")
            rows = list(reader)
        except csv.Error as e:  # e.g. a field over csv.field_size_limit()
            raise LogParseError(f"malformed CSV in {path}: {e}") from e
    if not rows:
        raise EmptyLogError(f"no event rows in {path}")

    by_case: dict[str, list[tuple]] = {}
    for idx, row in enumerate(rows):
        key = row[case_col]
        ts = row[time_col] if time_col else ""
        by_case.setdefault(key, []).append((ts, idx, row[activity_col]))

    def sort_key(item):
        ts, idx, _ = item
        try:
            return (0, float(ts), idx)
        except ValueError:
            return (1, ts, idx)

    label_traces = []
    for case_id, events in by_case.items():
        events.sort(key=sort_key)
        label_traces.append((case_id, [a for _, _, a in events]))
    return build_log(label_traces)


def write_csv(logobj: EventLog, path) -> None:
    """Serialize a log so that ``parse_csv`` with its default columns
    ``case``, ``activity`` and ``time`` round-trips it exactly.

    Synthetic integer timestamps preserve within-case event order; cases
    are written in trace order.
    """
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["case", "activity", "time"])
        for trace in logobj.traces:
            for pos, aid in enumerate(trace.activities):
                writer.writerow([trace.case_id, logobj.label(aid), pos])


def parse_xes(path, activity_prefix: str | None = None, lifecycle: str | None = None) -> EventLog:
    """Parse an XES event log (concept:name on traces and events).

    ``activity_prefix`` keeps only events whose activity name starts with
    the prefix; ``lifecycle`` keeps only events whose
    lifecycle:transition equals the given value (case-insensitive). Both
    filters exist to rebuild the BPIC12 derivatives from the raw log.
    Traces left without events are skipped with a warning.
    """
    try:
        tree = ET.parse(path)
    except ET.ParseError as e:
        raise LogParseError(f"malformed XES in {path}: {e.msg if hasattr(e, 'msg') else e}",
                            position=f"line {e.position[0]}, column {e.position[1]}") from e
    except LookupError as e:  # an XML declaration naming an unknown encoding
        raise LogParseError(f"malformed XES in {path}: {e}") from e
    root = tree.getroot()

    def _attr(elem, key):
        for child in elem:
            tag = child.tag.split("}")[-1]
            if tag in ("string", "date") and child.get("key") == key:
                return child.get("value")
        return None

    label_traces = []
    anon = 0
    for trace_elem in root.iter():
        if trace_elem.tag.split("}")[-1] != "trace":
            continue
        case_id = _attr(trace_elem, "concept:name")
        if case_id is None:
            case_id = f"case_{anon}"
            anon += 1
        labels = []
        for ev in trace_elem:
            if ev.tag.split("}")[-1] != "event":
                continue
            name = _attr(ev, "concept:name")
            if name is None:
                continue
            if activity_prefix is not None and not name.startswith(activity_prefix):
                continue
            if lifecycle is not None:
                lc = _attr(ev, "lifecycle:transition")
                if lc is None or lc.lower() != lifecycle.lower():
                    continue
            labels.append(name)
        if not labels:
            log.warning("skipping trace %s: no events after filtering", case_id)
            continue
        label_traces.append((case_id, labels))
    if not label_traces:
        raise EmptyLogError(f"no usable traces in {path}")
    return build_log(label_traces)


def split(logobj: EventLog, train_frac: float = 0.7, seed: int = 0) -> tuple[EventLog, EventLog]:
    """Seeded trace-level train/test split; both halves share the vocabulary."""
    check_number("train_frac", train_frac, "(0, 1)")
    check_number("seed", seed, "[0, inf)", integer=True)
    n = len(logobj.traces)
    if n < 2:
        raise SplitError(f"need at least 2 traces to split, got {n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = int(round(n * train_frac))
    n_train = min(max(n_train, 1), n - 1)
    train_idx = sorted(perm[:n_train].tolist())
    test_idx = sorted(perm[n_train:].tolist())
    train = logobj.with_traces([logobj.traces[i] for i in train_idx])
    test = logobj.with_traces([logobj.traces[i] for i in test_idx])
    return train, test


def extract_prefixes(logobj: EventLog) -> list[Prefix]:
    """All prefixes with next-activity targets, plus the full-length
    prefix targeting END. Deterministic order: trace order, then length
    ascending.
    """
    out = []
    end_id = logobj.end_id
    for trace in logobj.traces:
        acts = trace.activities
        for r in range(1, len(acts)):
            out.append(Prefix(activities=acts[:r], target=acts[r], source_case=trace.case_id))
        if acts:
            out.append(Prefix(activities=acts, target=end_id, source_case=trace.case_id))
    return out


def unique_prefixes(prefixes) -> list:
    """First occurrence of each distinct activity sequence, in order, keyed
    by its id bytes. Takes Prefixes or id sequences."""
    seen = {}
    for p in prefixes:
        seen.setdefault(_prefix_ids(p).tobytes(), p)
    return list(seen.values())


def length_batches(prefixes):
    """Yield ``(rows, ids)`` per distinct prefix length, shortest first:
    the input positions of the prefixes of that length and their (n, T)
    ids. Takes Prefixes or id sequences."""
    seqs = [_prefix_ids(p) for p in prefixes]
    lengths = np.array([len(seq) for seq in seqs], dtype=int)
    for length in np.unique(lengths):
        rows = np.flatnonzero(lengths == length)
        yield rows, np.array([seqs[i] for i in rows], dtype=int).reshape(len(rows), length)
