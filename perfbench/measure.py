"""Small measurement helpers shared by `run.py` and its tests.

Everything here is pure Python on plain numbers, so the tests can pin the
rules down without running a workload.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource

#: Candidate tail percentiles, highest first.  A tail is reported at the
#: highest one that leaves at least ``TAIL_MIN_BEYOND`` samples above it.
TAIL_PERCENTILES = (99, 95, 90)
TAIL_MIN_BEYOND = 10


def nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile (the definition ``repro.serving`` uses)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[rank]


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile of ``n``."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail_percentile(n: int) -> int | None:
    """Highest of p99/p95/p90 with at least ten samples beyond it.

    ``None`` when the sample is too small for any of them (under 100
    samples not even p90 qualifies).
    """
    for q in TAIL_PERCENTILES:
        if samples_beyond(n, q) >= TAIL_MIN_BEYOND:
            return q
    return None


def tail(values: list[float]) -> tuple[int | None, float | None]:
    """``(percentile, value)`` of the tail rule, or ``(None, None)``."""
    q = tail_percentile(len(values))
    if q is None:
        return None, None
    return q, nearest_rank(values, q)


def scaling_exponent(wall_n: float, wall_quarter: float, factor: float = 4.0) -> float:
    """Fitted exponent ``k`` of ``wall ~ N**k`` from two sizes N and N/factor."""
    if wall_n <= 0 or wall_quarter <= 0:
        raise ValueError("wall times must be > 0")
    return math.log(wall_n / wall_quarter) / math.log(factor)


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def canonical(obj):
    """JSON-ready copy with every float spelled exactly (``repr``).

    ``nan`` and the infinities are spelled too, so a digest sees them.
    """
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    return obj


def digest(obj) -> str:
    """sha256 of the canonical JSON of ``obj`` (sorted keys)."""
    text = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


#: Seconds ``reference.py`` takes on an idle 2-vCPU Intel Xeon guest, the
#: host speed that speed-scaled times are quoted at.
REFERENCE_NOMINAL_S = 0.36


def speed_scaled(value_s: float, reference_s: float) -> float:
    """``value_s`` as it would read on a host where the reference takes
    ``REFERENCE_NOMINAL_S`` instead of ``reference_s``.

    A shared host runs everything up to twice as slowly for minutes at a
    time; the reference, timed between the passes of the same run, slows
    down with them.
    """
    if reference_s <= 0:
        raise ValueError("reference time must be > 0")
    return value_s * REFERENCE_NOMINAL_S / reference_s
