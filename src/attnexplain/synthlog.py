"""Synthetic event-log generation from known control-flow structures.

Supported structures: a plain activity sequence, an XOR split, an AND
split (random interleaving of two branches), and a loop with a bounded
iteration count. Each generator also yields the ground-truth
directly-follows edge set of the structure's trace language, which later
serves as the reference graph for explainer evaluation.

Spec file format (key = value, ``#`` comments; ``KINDS`` holds each kind's
keys, and any other key is ignored)::

    kind = loop
    body = A B
    max_iter = 3
    p_repeat = 0.5
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Number

import numpy as np

from .errors import SynthSpecError, UsageError, check_number
from .eventlog import END_LABEL, PAD_LABEL, EventLog, Trace

# Each kind's spec-file keys, in the order ``write_spec_file`` writes them.
KINDS = {
    "sequence": ("activities",),
    "xor": ("pre", "branches", "post"),
    "and": ("pre", "branches", "post"),
    "loop": ("body", "max_iter", "p_repeat"),
}
MAX_ACTIVITIES = 10
# Building a loop's trace language is quadratic in max_iter (0.16 s at 1000).
MAX_ITER = 1000
# Bound on n_traces times the longest trace of the language. One-event traces
# cost the most per event: 2M took 5.9 s and 465 MiB peak RSS (31 MiB of it
# the interpreter); 400k five-event traces took 1.1 s and 134 MiB.
MAX_EVENTS = 2_000_000


@dataclass(frozen=True)
class SynthSpec:
    kind: str
    activities: tuple[str, ...] = ()          # sequence
    pre: tuple[str, ...] = ()                 # xor / and
    branches: tuple[tuple[str, ...], ...] = ()
    post: tuple[str, ...] = ()
    body: tuple[str, ...] = ()                # loop
    max_iter: int = 3
    p_repeat: float = 0.5

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SynthSpecError(f"unknown structure kind {self.kind!r}")
        check_number("max_iter", self.max_iter, f"[1, {MAX_ITER}]", integer=True)
        check_number("p_repeat", self.p_repeat, "[0, 1)")
        acts = self.activity_set()
        if not acts:
            raise SynthSpecError("structure names no activities")
        if len(acts) > MAX_ACTIVITIES:
            raise SynthSpecError(f"at most {MAX_ACTIVITIES} activities supported, got {len(acts)}")
        reserved = sorted(acts & {"", PAD_LABEL, END_LABEL})
        if reserved:
            raise SynthSpecError(f"activity name {reserved[0]!r} is empty or reserved")
        if self.kind == "xor" and len(self.branches) < 2:
            raise SynthSpecError("xor needs at least two branches")
        if self.kind == "xor" and () in self.branches and not self.pre + self.post:
            raise SynthSpecError("an xor with an empty branch needs a pre or post activity")
        if self.kind == "and" and len(self.branches) != 2:
            raise SynthSpecError("and-split needs exactly two branches")

    def activity_set(self) -> set[str]:
        """The activities that the fields of the spec's kind name."""
        words = [getattr(self, key) for key in KINDS[self.kind] if key != "branches"]
        words += self.branches if "branches" in KINDS[self.kind] else ()
        return {a for w in words if not isinstance(w, Number) for a in w}


def sequence(*activities: str) -> SynthSpec:
    return SynthSpec(kind="sequence", activities=tuple(activities))


def xor(pre, branches, post) -> SynthSpec:
    return SynthSpec(
        kind="xor",
        pre=_as_seq(pre),
        branches=tuple(_as_seq(b) for b in branches),
        post=_as_seq(post),
    )


def and_split(pre, branch1, branch2, post) -> SynthSpec:
    return SynthSpec(
        kind="and",
        pre=_as_seq(pre),
        branches=(_as_seq(branch1), _as_seq(branch2)),
        post=_as_seq(post),
    )


def loop(body, max_iter: int = 3, p_repeat: float = 0.5) -> SynthSpec:
    return SynthSpec(kind="loop", body=_as_seq(body), max_iter=max_iter, p_repeat=p_repeat)


def _as_seq(x) -> tuple[str, ...]:
    if isinstance(x, str):
        return (x,)
    return tuple(x)


def enumerate_language(spec: SynthSpec) -> list[tuple[str, ...]]:
    """All traces the structure can produce (finite for every kind)."""
    if spec.kind == "sequence":
        return [tuple(spec.activities)]
    if spec.kind == "xor":
        return [spec.pre + b + spec.post for b in spec.branches]
    if spec.kind == "and":
        return [spec.pre + m + spec.post for m in _interleavings(*spec.branches)]
    return [spec.body * k for k in range(1, spec.max_iter + 1)]  # loop


def _interleavings(a: tuple[str, ...], b: tuple[str, ...]) -> list[tuple[str, ...]]:
    if not a:
        return [tuple(b)]
    if not b:
        return [tuple(a)]
    out = []
    out += [(a[0],) + rest for rest in _interleavings(a[1:], b)]
    out += [(b[0],) + rest for rest in _interleavings(a, b[1:])]
    return out


def ground_truth_edges(spec: SynthSpec) -> set[tuple[str, str]]:
    """Directly-follows edges over the structure's full trace language."""
    edges = set()
    for trace in enumerate_language(spec):
        edges |= {(u, v) for u, v in zip(trace, trace[1:])}
    return edges


def sample_trace(spec: SynthSpec, rng: np.random.Generator) -> tuple[str, ...]:
    """One random walk through the structure."""
    if spec.kind == "sequence":
        return tuple(spec.activities)
    if spec.kind == "xor":
        branch = spec.branches[int(rng.integers(len(spec.branches)))]
        return spec.pre + branch + spec.post
    if spec.kind == "and":
        b1, b2 = list(spec.branches[0]), list(spec.branches[1])
        middle = []
        i = j = 0
        while i < len(b1) or j < len(b2):
            take_first = i < len(b1) and (j >= len(b2) or rng.random() < 0.5)
            if take_first:
                middle.append(b1[i]); i += 1
            else:
                middle.append(b2[j]); j += 1
        return spec.pre + tuple(middle) + spec.post
    k = 1  # loop
    while k < spec.max_iter and rng.random() < spec.p_repeat:
        k += 1
    return spec.body * k


def synth_log(spec: SynthSpec, n_traces: int = 1000,
              seed: int = 0) -> tuple[EventLog, set[tuple[str, str]]]:
    """Sample a log of ``n_traces`` walks; deterministic per seed. At most
    ``MAX_EVENTS`` events fit: ``n_traces`` times the longest trace.

    Vocabulary order is first-appearance over the enumerated language,
    not over the sample, so it does not depend on the seed.
    """
    language = enumerate_language(spec)
    longest = max(map(len, language))
    check_number("n_traces", n_traces, f"[1, {MAX_EVENTS // longest}]", integer=True)
    check_number("seed", seed, "[0, inf)", integer=True)
    ids = {a: i for i, a in enumerate(dict.fromkeys(a for trace in language for a in trace))}
    rng = np.random.default_rng(seed)
    traces = [Trace(f"case_{i}", tuple(map(ids.__getitem__, sample_trace(spec, rng))))
              for i in range(n_traces)]
    return EventLog(traces, [*ids, PAD_LABEL, END_LABEL]), ground_truth_edges(spec)


def parse_spec_file(path) -> SynthSpec:
    """Read a structure spec from the documented key/value text format
    (UTF-8; a leading byte-order mark is skipped). Keys that the kind does
    not take are ignored."""
    kv: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SynthSpecError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            kv[key] = value
    if "kind" not in kv:
        raise SynthSpecError(f"{path}: missing 'kind'")
    try:
        return SynthSpec(kv["kind"], **{key: _field(key, kv[key])
                                        for key in KINDS.get(kv["kind"], ()) if key in kv})
    except (SynthSpecError, UsageError) as e:
        raise SynthSpecError(f"{path}: {e}") from None


def _field(key: str, text: str):
    """A spec-file value as the SynthSpec field ``key`` holds it: words,
    ``|``-separated branches of words, or the field's int or float. Text
    that does not convert is passed on, for the field's check to reject."""
    if key == "branches":
        return tuple(tuple(part.split()) for part in text.split("|") if part.split())
    convert = type(getattr(SynthSpec, key))  # the field's default
    if convert is tuple:
        return tuple(text.split())
    try:
        return convert(text)
    except ValueError:
        return text


def write_spec_file(spec: SynthSpec, path) -> None:
    lines = [f"kind = {spec.kind}"]
    for key in KINDS[spec.kind]:
        value = getattr(spec, key)
        if key == "branches":
            value = " | ".join(" ".join(b) for b in value)
        elif isinstance(value, tuple):
            value = " ".join(value)
        if value != "":
            lines.append(f"{key} = {value}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def deterministic_continuations(spec: SynthSpec) -> dict[tuple[str, ...], str]:
    """Prefixes (as label tuples) whose next symbol is uniquely determined
    by the trace language; END is denoted by the reserved END label."""
    continuations: dict[tuple[str, ...], set[str]] = {}
    for trace in enumerate_language(spec):
        for r in range(1, len(trace) + 1):
            nxt = trace[r] if r < len(trace) else END_LABEL
            continuations.setdefault(trace[:r], set()).add(nxt)
    return {pre: next(iter(s)) for pre, s in continuations.items() if len(s) == 1}
