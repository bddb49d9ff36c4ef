"""Metric arithmetic of the benchmark: gaps, time-to-gap, span self time,
failure counting and sample summaries.

Pure functions over plain numbers, so the benchmark's own tests
(``test_metrics.py``) can check them on synthetic inputs without running a
solver.
"""

from dataclasses import dataclass, field
import statistics


def rel_gap(f, f_ref):
    """Relative optimality gap (f - f_ref) / max(|f_ref|, 1)."""
    return (f - f_ref) / max(abs(f_ref), 1.0)


def first_pass_at_gap(f_values, f_ref, target):
    """Index of the first pass boundary whose relative gap is at or below
    target, or None when the trace never reaches it.  f_values[t] is the
    objective at pass boundary t (t = 0 is the start point)."""
    for t, f in enumerate(f_values):
        if rel_gap(f, f_ref) <= target:
            return t
    return None


def time_to_gap(elapsed, f_values, f_ref, target, call_offset=0.0):
    """Seconds from the start of the solver call to the first pass boundary
    at or below the target gap, or None when it is never reached.

    elapsed[t] is the solver's own clock at boundary t; call_offset is the
    time between the caller's start of the call and the solver's clock
    zero (the solver's set-up inside the call)."""
    t = first_pass_at_gap(f_values, f_ref, target)
    if t is None:
        return None
    return call_offset + elapsed[t]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the parent span in the same list

    @property
    def duration(self):
        return self.end - self.start


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval covered by its direct children.  Children of one parent never
    overlap (calls nest), so their durations add up."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child_time)]


def self_time_by_name(spans):
    """Total self time and call count per span name."""
    out = {}
    for s, st in zip(spans, self_times(spans)):
        tot, n = out.get(s.name, (0.0, 0))
        out[s.name] = (tot + st, n + 1)
    return out


def covered_by_children(spans, parent):
    """Seconds of span `parent` that its direct children account for."""
    return sum(s.duration for s in spans if s.parent == parent)


@dataclass
class Tally:
    """Operations attempted and failed, with the reason of each failure.
    A failed operation counts as attempted and contributes no sample."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, problems, label=""):
        """Count one operation; problems lists what its checks found
        wrong (empty when it passed).  Returns True when it passed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.extend(f"{label}: {p}" for p in problems)
            return False
        return True

    @property
    def correct(self):
        return self.attempted > 0 and self.failed == 0


def instance_medians(samples, name, key="seed"):
    """Median of metric `name` over each instance's visits, in the order
    of the instance key.  samples are dicts holding `key` and `name`."""
    by_key = {}
    for s in samples:
        by_key.setdefault(s[key], []).append(s[name])
    return [statistics.median(by_key[k]) for k in sorted(by_key)]


def host_factor(starts, durations, t_from, t_to, reference):
    """How many times slower than the reference speed the host ran during
    [t_from, t_to): the median duration of the speed probes started in
    that window over the reference duration.  A window no probe started in
    takes the last probe before its end; with no probe at all it is 1."""
    inside = [d for t, d in zip(starts, durations) if t_from <= t < t_to]
    if not inside:
        inside = [d for t, d in zip(starts, durations) if t < t_to][-1:]
    if not inside:
        return 1.0
    return statistics.median(inside) / reference


def at_reference_speed(value, factor, rate=False):
    """A timing measured while the host ran `factor` times slower than the
    reference, scaled to the reference speed: a duration is divided by the
    factor, a rate (per second) multiplied by it."""
    return value * factor if rate else value / factor


def summarize(values):
    """Median, quartiles, extremes and count of a sample list."""
    vals = sorted(values)
    if not vals:
        raise ValueError("no samples")
    if len(vals) == 1:
        q1 = q3 = vals[0]
    else:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"median": statistics.median(vals), "p25": q1, "p75": q3,
            "min": vals[0], "max": vals[-1], "n": len(vals)}
