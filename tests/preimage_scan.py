"""Reference preimage searches: linear scans over the jump points.

These are the searches ``DistributionFn`` ran before it bisected a table of
jump limits.  At each jump they ask the distribution for its left and right
limits again, and inside a continuous stretch they bisect F to the float
fixpoint, evaluating every midpoint.  The tests require the package's
searches to return the same float.
"""


def scan_smallest_preimage(fn, u: float) -> float:
    prev = None
    for xj in fn.jump_points():
        if fn.left_limit(xj) >= u:
            return bisect_upcrossing(fn, prev, xj, u)
        if fn.right_limit(xj) >= u:
            return xj
        prev = xj
    return bisect_upcrossing(fn, prev, None, u)


def scan_largest_preimage(fn, u: float) -> float:
    nxt = None
    for xj in reversed(fn.jump_points()):
        if fn.right_limit(xj) <= u:
            return bisect_downcrossing(fn, xj, nxt, u)
        if fn.left_limit(xj) <= u:
            return xj
        nxt = xj
    return bisect_downcrossing(fn, None, nxt, u)


def bisect_upcrossing(fn, lo, hi, u: float) -> float:
    """inf{x : F(x) >= u} inside (lo, hi], F continuous on the open part."""
    if hi is None:
        base = lo if lo is not None else 0.0
        step = 1.0
        hi = base + step
        while fn.value(hi) < u:
            step *= 2.0
            hi = base + step
    if lo is None:
        step = 1.0
        lo = hi - step
        while fn.value(lo) >= u:
            step *= 2.0
            lo = hi - step
    # Invariant: F(lo) < u <= F(hi).  Bisect to adjacent floats.
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if fn.value(mid) >= u:
            hi = mid
        else:
            lo = mid


def bisect_downcrossing(fn, lo, hi, u: float) -> float:
    """sup{x : F(x) <= u} inside [lo, hi)."""
    if lo is None:
        base = hi if hi is not None else 0.0
        step = 1.0
        lo = base - step
        while fn.value(lo) > u:
            step *= 2.0
            lo = base - step
    if hi is None:
        step = 1.0
        hi = lo + step
        while fn.value(hi) <= u:
            step *= 2.0
            hi = lo + step
    # Invariant: F(lo) <= u < F(hi).
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if fn.value(mid) <= u:
            lo = mid
        else:
            hi = mid
