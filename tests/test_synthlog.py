import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from attnexplain.errors import SynthSpecError, UsageError
from attnexplain.eventlog import END_LABEL, PAD_LABEL
from attnexplain.synthlog import (
    KINDS,
    MAX_ITER,
    SynthSpec,
    and_split,
    deterministic_continuations,
    enumerate_language,
    ground_truth_edges,
    loop,
    parse_spec_file,
    sample_trace,
    sequence,
    synth_log,
    write_spec_file,
    xor,
)


def iteration_probabilities(spec: SynthSpec) -> list[float]:
    """Exact P(k loop iterations), k = 1..max_iter, for the loop walk."""
    p = spec.p_repeat
    probs = [(1 - p) * p ** (k - 1) for k in range(1, spec.max_iter)]
    probs.append(p ** (spec.max_iter - 1))
    return probs


def directly_follows_edges(logobj) -> set[tuple[str, str]]:
    """Empirical directly-follows edges of a log, as label pairs."""
    edges = set()
    for trace in logobj.traces:
        labels = [logobj.label(a) for a in trace.activities]
        edges |= {(u, v) for u, v in zip(labels, labels[1:])}
    return edges


def test_sequence_language_and_edges():
    spec = sequence("A", "B", "C")
    assert enumerate_language(spec) == [("A", "B", "C")]
    assert ground_truth_edges(spec) == {("A", "B"), ("B", "C")}


def test_xor_language_and_edges():
    spec = xor("A", ["B", "C"], "D")
    assert set(enumerate_language(spec)) == {("A", "B", "D"), ("A", "C", "D")}
    assert ground_truth_edges(spec) == {("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")}


def test_and_language_is_all_interleavings():
    spec = and_split("A", ["B", "C"], ["D"], "E")
    lang = set(enumerate_language(spec))
    assert lang == {
        ("A", "B", "C", "D", "E"),
        ("A", "B", "D", "C", "E"),
        ("A", "D", "B", "C", "E"),
    }


def test_loop_language_and_edges():
    spec = loop(["A", "B"], max_iter=3)
    assert enumerate_language(spec) == [
        ("A", "B"), ("A", "B", "A", "B"), ("A", "B", "A", "B", "A", "B")
    ]
    assert ground_truth_edges(spec) == {("A", "B"), ("B", "A")}


def test_spec_validation():
    with pytest.raises(SynthSpecError):
        SynthSpec(kind="nope", activities=("A",))
    with pytest.raises(SynthSpecError):
        sequence()  # no activities
    with pytest.raises(SynthSpecError):
        xor("A", ["B"], "C")  # single branch
    with pytest.raises(UsageError, match=r"^max_iter must be an integer in \[1, 1000\], got 0$"):
        loop(["A"], max_iter=0)
    with pytest.raises(UsageError, match=r"^max_iter must be an integer in \[1, 1000\], got 1001$"):
        loop(["A"], max_iter=MAX_ITER + 1)
    assert loop(["A"], max_iter=MAX_ITER).max_iter == MAX_ITER
    with pytest.raises(UsageError, match=r"^p_repeat must be a number in \[0, 1\), got 1\.0$"):
        loop(["A"], p_repeat=1.0)
    with pytest.raises(SynthSpecError):
        sequence(*[f"A{i}" for i in range(11)])  # over the activity cap


@pytest.mark.parametrize("spec, message", [
    (lambda: SynthSpec(kind="and", pre=("A",), branches=(("B",),)),
     "and-split needs exactly two branches"),
    (lambda: loop([]), "structure names no activities"),
    # a field of another kind names no activity of this one
    (lambda: SynthSpec(kind="sequence", body=("A",)), "structure names no activities"),
    # its language would hold the empty trace
    (lambda: xor([], [["B"], []], []), "an xor with an empty branch needs a pre or post activity"),
    (lambda: sequence("A", ""), "activity name '' is empty or reserved"),
    (lambda: sequence("A", END_LABEL), "activity name '<END>' is empty or reserved"),
    (lambda: loop(["A", "_"]), "activity name '_' is empty or reserved"),
])
def test_structure_errors(spec, message):
    with pytest.raises(SynthSpecError) as exc:
        spec()
    assert str(exc.value) == message


def test_xor_with_an_empty_branch_between_activities():
    spec = xor("A", [["B"], []], "C")
    assert enumerate_language(spec) == [("A", "B", "C"), ("A", "C")]
    assert len(synth_log(spec, 20)[0].traces) == 20


def test_sampled_traces_stay_in_language():
    rng = np.random.default_rng(0)
    for spec in (sequence("A", "B"), xor("A", ["B", "C"], "D"),
                 and_split("A", ["B"], ["C"], "D"), loop(["A", "B"], max_iter=3)):
        lang = set(enumerate_language(spec))
        for _ in range(50):
            assert sample_trace(spec, rng) in lang


def test_loop_iteration_probabilities_sum_to_one():
    spec = loop(["A"], max_iter=4, p_repeat=0.3)
    probs = iteration_probabilities(spec)
    assert len(probs) == 4
    assert sum(probs) == pytest.approx(1.0)
    assert probs[0] == pytest.approx(0.7)
    assert probs[-1] == pytest.approx(0.3 ** 3)


def test_loop_empirical_iteration_frequencies():
    spec = loop(["A"], max_iter=3, p_repeat=0.5)
    rng = np.random.default_rng(1)
    counts = {1: 0, 2: 0, 3: 0}
    n = 20000
    for _ in range(n):
        counts[len(sample_trace(spec, rng))] += 1
    expected = iteration_probabilities(spec)
    for k, p in zip((1, 2, 3), expected):
        assert counts[k] / n == pytest.approx(p, abs=0.02)


def test_synth_log_deterministic_and_vocab_seed_independent():
    spec = xor("A", ["B", "C"], "D")
    log1, truth1 = synth_log(spec, 50, seed=7)
    log2, truth2 = synth_log(spec, 50, seed=7)
    assert log1 == log2 and truth1 == truth2
    log3, _ = synth_log(spec, 50, seed=8)
    # vocabulary must not depend on which branch happened to be drawn first
    assert log3.vocabulary == log1.vocabulary


def test_synth_log_edges_subset_of_truth():
    spec = and_split("A", ["B", "C"], ["D"], "E")
    logobj, truth = synth_log(spec, 200, seed=0)
    assert directly_follows_edges(logobj) <= truth


# Repeated activities, an empty branch and loops of every max_iter up to 8:
# the language's edges and first appearances must not depend on its length.
FULL_LANGUAGE_SPECS = [
    sequence("A", "B", "A", "C"), xor("A", [["B"], [], ["C", "A"]], "D"),
    and_split("A", ["B", "A"], ["C"], "B"),
    *(loop(body, max_iter=k) for body in (["A"], ["A", "B", "A"], ["B", "A", "C", "B"])
      for k in range(1, 9)),
]


@pytest.mark.parametrize("spec", FULL_LANGUAGE_SPECS)
def test_edges_and_vocabulary_are_those_of_the_full_language(spec):
    language = enumerate_language(spec)
    assert ground_truth_edges(spec) == {edge for trace in language for edge in zip(trace, trace[1:])}
    logobj, _ = synth_log(spec, 1)
    first_appearances = dict.fromkeys(a for trace in language for a in trace)
    assert logobj.vocabulary == (*first_appearances, PAD_LABEL, END_LABEL)


def test_spec_file_round_trip(tmp_path):
    path = tmp_path / "spec.txt"
    for spec, text in ((sequence("A", "B", "C"), "kind = sequence\nactivities = A B C\n"),
                       (xor("A", ["B", "C"], "D"),
                        "kind = xor\npre = A\nbranches = B | C\npost = D\n"),
                       (xor([], [["B"], ["C", "D"]], []), "kind = xor\nbranches = B | C D\n"),
                       (and_split("A", ["B"], ["C", "D"], "E"),
                        "kind = and\npre = A\nbranches = B | C D\npost = E\n"),
                       (and_split("A", ["B"], ["C", "D"], []),
                        "kind = and\npre = A\nbranches = B | C D\n"),
                       (loop(["A", "B"], max_iter=4, p_repeat=0.25),
                        "kind = loop\nbody = A B\nmax_iter = 4\np_repeat = 0.25\n"),
                       (loop(["A", "B", "C", "D"], max_iter=6, p_repeat=0.8),
                        "kind = loop\nbody = A B C D\nmax_iter = 6\np_repeat = 0.8\n")):
        write_spec_file(spec, path)
        assert path.read_bytes() == text.encode()
        assert parse_spec_file(path) == spec


def test_spec_file_rejects_what_it_cannot_hold(tmp_path):
    path = tmp_path / "spec.txt"
    for spec, name in ((sequence("A B", "C"), "A B"), (xor("A", ["B|C", "D"], "E"), "B|C"),
                       (sequence("A#1", "B"), "A#1"), (sequence(" A", "B"), " A"),
                       (loop(["A", "B\tC"]), "B\tC")):
        with pytest.raises(SynthSpecError, match="^activity name " + re.escape(repr(name))):
            write_spec_file(spec, path)
        assert not path.exists()
    with pytest.raises(SynthSpecError, match="^a spec file cannot hold an empty branch$"):
        write_spec_file(xor("A", [["B"], []], "C"), path)
    assert not path.exists()


# Letters, the characters the reader splits on or strips, and '=', which it
# splits on only once per line.
SPEC_NAMES = st.text(alphabet="AB_ |#\t\n=", min_size=1, max_size=3)
SPEC_WORDS = st.lists(SPEC_NAMES, max_size=3).map(tuple)


@st.composite
def any_specs(draw):
    """A valid SynthSpec of any kind, its names possibly unwritable."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    fields = {"activities": SPEC_WORDS, "pre": SPEC_WORDS, "post": SPEC_WORDS,
              "body": SPEC_WORDS, "max_iter": st.integers(1, 5),
              "p_repeat": st.floats(0, 1, exclude_max=True),
              "branches": st.lists(SPEC_WORDS, min_size=2, max_size=3).map(tuple)}
    try:
        return SynthSpec(kind, **{key: draw(fields[key]) for key in KINDS[kind]})
    except SynthSpecError:
        assume(False)


@given(spec=any_specs())
@settings(max_examples=200, deadline=None)
def test_spec_file_write_raises_or_reads_back_equal(spec):
    unwritable = (any(set(name) & set(" |#\t\n") for name in spec.activity_set())
                  or () in spec.branches)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.txt"
        try:
            write_spec_file(spec, path)
        except SynthSpecError:
            assert unwritable and not path.exists()
            return
        assert not unwritable
        assert parse_spec_file(path) == spec


def test_spec_file_ignores_keys_of_other_kinds(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text("kind = sequence\nactivities = A B\nbody = X\nmax_iter = x\nbranches = |\n")
    assert parse_spec_file(path) == sequence("A", "B")
    path.write_text("kind = loop\nbody = A\nactivities = _\npre = <END>\np_repeat = 0.25\n")
    assert parse_spec_file(path) == loop(["A"], p_repeat=0.25)


# test_cli.py's EXIT_CASES run an unknown kind, a max_iter of 2.5 and the
# reserved names in a sequence through the CLI
@pytest.mark.parametrize("text, message", [
    ("kind = loop\nbody = A\np_repeat = x\n", "p_repeat must be a number in [0, 1), got 'x'"),
    ("kind = loop\nbody = A\np_repeat = nan\n", "p_repeat must be a number in [0, 1), got nan"),
    ("kind = xor\nbranches = A | <END>\n", "activity name '<END>' is empty or reserved"),
])
def test_spec_file_errors_name_the_path(tmp_path, text, message):
    path = tmp_path / "spec.txt"
    path.write_text(text)
    with pytest.raises(SynthSpecError) as exc:
        parse_spec_file(path)
    assert str(exc.value) == f"{path}: {message}"


def test_spec_file_comments_and_errors(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text("# a comment\nkind = sequence\nactivities = A B  # inline\n")
    assert parse_spec_file(path) == sequence("A", "B")
    path.write_text("activities = A\n")
    with pytest.raises(SynthSpecError):
        parse_spec_file(path)
    path.write_text("kind sequence\n")
    with pytest.raises(SynthSpecError):
        parse_spec_file(path)


def test_deterministic_continuations():
    cont = deterministic_continuations(xor("A", ["B", "C"], "D"))
    assert ("A",) not in cont                      # B or C may follow
    assert cont[("A", "B")] == "D"
    assert cont[("A", "B", "D")] == END_LABEL
    seq_cont = deterministic_continuations(sequence("A", "B", "C"))
    assert seq_cont == {("A",): "B", ("A", "B"): "C", ("A", "B", "C"): END_LABEL}
    loop_cont = deterministic_continuations(loop(["A", "B"], max_iter=2))
    assert loop_cont[("A",)] == "B"
    assert ("A", "B") not in loop_cont             # may end or repeat


@given(n=st.integers(min_value=1, max_value=30), seed=st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_synth_log_trace_count(n, seed):
    logobj, _ = synth_log(sequence("A", "B"), n, seed=seed)
    assert len(logobj.traces) == n
    assert all(t.case_id == f"case_{i}" for i, t in enumerate(logobj.traces))
