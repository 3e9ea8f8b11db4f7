"""Reduction of a traced run's spans to per-layer time per call.

A span is [name, group, parent, start_ns, end_ns, calls]; `parent` indexes
the same list (-1 = root) and `calls` is the number of identical calls a
span wraps. Self time is span time minus the time of its child spans.
"""


def self_times(spans):
    """Per span: its duration minus its direct children's durations (ns)."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[2] >= 0:
            own[s[2]] -= s[4] - s[3]
    return own


def per_call_ns(spans):
    """name -> (self ns per call, total calls, span count)."""
    own = self_times(spans)
    totals = {}
    for s, t in zip(spans, own):
        acc = totals.setdefault(s[0], [0, 0, 0])
        acc[0] += t
        acc[1] += s[5]
        acc[2] += 1
    return {name: (t / max(calls, 1), calls, n)
            for name, (t, calls, n) in totals.items()}
