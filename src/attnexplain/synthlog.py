"""Synthetic event-log generation from known control-flow structures.

Supported structures: a plain activity sequence, an XOR split, an AND
split (random interleaving of two branches), and a loop with a bounded
iteration count. Each generator also yields the ground-truth
directly-follows edge set of the structure's trace language, which later
serves as the reference graph for explainer evaluation.

Spec file format (key = value, ``#`` comments)::

    kind = xor
    pre = A
    branches = B | C
    post = D

    kind = loop
    body = A B
    max_iter = 3
    p_repeat = 0.5
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SynthSpecError, check_number
from .eventlog import EventLog, build_log

KINDS = ("sequence", "xor", "and", "loop")
MAX_ACTIVITIES = 10
# Building a loop's trace language is quadratic in max_iter (0.16 s at 1000).
MAX_ITER = 1000


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
        acts = self.activity_set()
        if not acts:
            raise SynthSpecError("structure names no activities")
        if len(acts) > MAX_ACTIVITIES:
            raise SynthSpecError(f"at most {MAX_ACTIVITIES} activities supported, got {len(acts)}")
        if self.kind == "xor" and len(self.branches) < 2:
            raise SynthSpecError("xor needs at least two branches")
        if self.kind == "and" and len(self.branches) != 2:
            raise SynthSpecError("and-split needs exactly two branches")
        if self.kind == "loop":
            if not self.body:
                raise SynthSpecError("loop needs a non-empty body")
            if not 1 <= self.max_iter <= MAX_ITER:
                raise SynthSpecError(f"loop max_iter {self.max_iter} outside [1, {MAX_ITER}]")
            if not 0.0 <= self.p_repeat < 1.0:
                raise SynthSpecError("loop p_repeat must be in [0, 1)")

    def activity_set(self) -> set[str]:
        acts = set(self.activities) | set(self.pre) | set(self.post) | set(self.body)
        for b in self.branches:
            acts |= set(b)
        return acts


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
        b1, b2 = spec.branches
        middles = _interleavings(b1, b2)
        return [spec.pre + m + spec.post for m in middles]
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
    """Sample a log of ``n_traces`` walks; deterministic per seed.

    Vocabulary order is first-appearance over the enumerated language,
    not over the sample, so it does not depend on the seed.
    """
    check_number("n_traces", n_traces, "[1, inf)", integer=True)
    check_number("seed", seed, "[0, inf)", integer=True)
    rng = np.random.default_rng(seed)
    label_traces = [(f"case_{i}", list(sample_trace(spec, rng))) for i in range(n_traces)]
    # build_log orders the vocabulary by first appearance, which would
    # depend on the seed; anchor it to the enumerated language instead.
    order: list[str] = []
    for trace in enumerate_language(spec):
        for a in trace:
            if a not in order:
                order.append(a)
    remap_log = build_log([("__vocab__", order)] + [(c, t) for c, t in label_traces])
    logobj = EventLog(remap_log.traces[1:], remap_log.vocabulary)
    return logobj, ground_truth_edges(spec)


def parse_spec_file(path) -> SynthSpec:
    """Read a structure spec from the documented key/value text format
    (UTF-8; a leading byte-order mark is skipped)."""
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
    kind = kv["kind"]

    def words(key, default=""):
        return tuple(kv.get(key, default).split())

    def number(key, kind, default):
        try:
            return kind(kv.get(key, default))
        except ValueError:
            rule = "an integer" if kind is int else "a number"
            raise SynthSpecError(f"{path}: {key} must be {rule}, got {kv[key]!r}") from None

    if kind == "sequence":
        return SynthSpec(kind="sequence", activities=words("activities"))
    if kind in ("xor", "and"):
        branches = tuple(
            tuple(part.split()) for part in kv.get("branches", "").split("|") if part.split()
        )
        return SynthSpec(kind=kind, pre=words("pre"), branches=branches, post=words("post"))
    if kind == "loop":
        return SynthSpec(
            kind="loop",
            body=words("body"),
            max_iter=number("max_iter", int, "3"),
            p_repeat=number("p_repeat", float, "0.5"),
        )
    raise SynthSpecError(f"{path}: unknown kind {kind!r}")


def write_spec_file(spec: SynthSpec, path) -> None:
    lines = [f"kind = {spec.kind}"]
    if spec.kind == "sequence":
        lines.append("activities = " + " ".join(spec.activities))
    elif spec.kind in ("xor", "and"):
        if spec.pre:
            lines.append("pre = " + " ".join(spec.pre))
        lines.append("branches = " + " | ".join(" ".join(b) for b in spec.branches))
        if spec.post:
            lines.append("post = " + " ".join(spec.post))
    else:
        lines.append("body = " + " ".join(spec.body))
        lines.append(f"max_iter = {spec.max_iter}")
        lines.append(f"p_repeat = {spec.p_repeat}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def deterministic_continuations(spec: SynthSpec) -> dict[tuple[str, ...], str]:
    """Prefixes (as label tuples) whose next symbol is uniquely determined
    by the trace language; END is denoted by the reserved END label."""
    from .eventlog import END_LABEL

    continuations: dict[tuple[str, ...], set[str]] = {}
    for trace in enumerate_language(spec):
        for r in range(1, len(trace) + 1):
            nxt = trace[r] if r < len(trace) else END_LABEL
            continuations.setdefault(trace[:r], set()).add(nxt)
    return {pre: next(iter(s)) for pre, s in continuations.items() if len(s) == 1}
