"""Sample statistics for the benchmark: reading the generator's raw sample
files and reporting percentiles by the rule the benchmark follows.

The rule: a percentile p of n samples is reported only when at least ten
samples lie beyond it, i.e. n * (1 - p) >= 10.  Otherwise the highest
percentile the sample does support is reported in its place, together
with the sample count, so a thin tail is never passed off as a p99.
"""

import math
import struct

MIN_BEYOND = 10


def read_series(path):
    """Reads a loadgen/layers sample file: {name: [u32, ...]}."""
    series = {}
    with open(path, "rb") as f:
        data = f.read()
    off = 0
    while off < len(data):
        (name_len,) = struct.unpack_from("<H", data, off)
        off += 2
        name = data[off:off + name_len].decode()
        off += name_len
        (count,) = struct.unpack_from("<I", data, off)
        off += 4
        series[name] = list(struct.unpack_from("<%dI" % count, data, off))
        off += 4 * count
    return series


def supported_percentile(n, p):
    """The highest percentile <= p with MIN_BEYOND samples beyond it, or
    None when n is too small to support even the median."""
    if n * (1.0 - p) >= MIN_BEYOND - 1e-9:
        return p
    if n < 2 * MIN_BEYOND:
        return None
    # Largest q on a 0.1 % grid with n * (1 - q) >= MIN_BEYOND.
    return math.floor((1.0 - MIN_BEYOND / n) * 1000) / 1000


def quantile(sorted_values, p):
    """Nearest-rank quantile of an ascending list."""
    if not sorted_values:
        raise ValueError("quantile of an empty sample")
    rank = max(1, math.ceil(p * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def tail(values, p):
    """Percentile p by the reporting rule.

    Returns {"value", "percentile", "count"}; "percentile" is the one
    actually reported (p, or the highest supported below it).  Returns
    None when the sample cannot support any percentile from the median up.
    """
    ordered = sorted(values)
    q = supported_percentile(len(ordered), p)
    if q is None:
        return None
    return {"value": quantile(ordered, q), "percentile": q,
            "count": len(ordered)}


def windowed_tail(values, p, windows):
    """Percentile p of each of `windows` consecutive chunks of `values`
    (samples in arrival order), then the median over the chunks.

    A stall of the host (a vCPU preempted for a few ms) inflates the tail
    of the chunk it lands in; the median over chunks reports what the
    system does outside such stalls.  Each chunk follows the reporting
    rule; None when a chunk cannot support even its median.
    """
    n = len(values)
    windows = max(1, min(windows, n))
    chunks = [values[i * n // windows:(i + 1) * n // windows]
              for i in range(windows)]
    tails = [tail(chunk, p) for chunk in chunks]
    if any(t is None for t in tails):
        return None
    return {"value": median([t["value"] for t in tails]),
            "percentile": min(t["percentile"] for t in tails),
            "count": n, "windows": windows}


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of an empty sample")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
