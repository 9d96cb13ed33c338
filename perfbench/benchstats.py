"""Statistics the benchmark reports: percentiles, quartile spread, and
self time per layer from recorded spans.

Kept free of I/O so perfbench/tests can check it on fixed inputs.
"""

import statistics


def percentile(values, p):
    """The p-th percentile (0..100) of values, interpolating linearly
    between the two nearest ranks (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= p <= 100:
        raise ValueError("percentile outside 0..100: %r" % p)
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values):
    return percentile(values, 50)


def quartiles(values):
    """First and third quartile as statistics.quantiles(n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def covered(intervals, start, end):
    """Length of [start, end] covered by the union of intervals."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals)
    total = 0.0
    reach = start
    for s, e in clipped:
        s = max(s, reach)
        if e > s:
            total += e - s
            reach = e
    return total


def layer_of(name):
    """A span's layer is the first dotted component of its name."""
    return name.split(".", 1)[0]


def self_times(spans):
    """Self time per (op, layer): each span's duration minus the part of
    it that its child spans cover, summed over the op's spans of that
    layer. spans are (name, op, start, end, parent index) tuples."""
    children = {}
    for s in spans:
        if s[4] >= 0:
            children.setdefault(s[4], []).append((s[2], s[3]))
    result = {}
    for index, (name, op, start, end, _) in enumerate(spans):
        own = (end - start) - covered(children.get(index, []), start, end)
        key = (op, layer_of(name))
        result[key] = result.get(key, 0.0) + own
    return result
