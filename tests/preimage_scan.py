"""Reference preimage searches: linear scans over the jump points.

These are the searches ``DistributionFn`` ran before it bisected a table of
jump limits.  At each jump they ask the distribution for its left and right
limits again; the tests require the table search to return the same float.
"""

from shockcopula.distfn import _downcrossing, _upcrossing


def scan_smallest_preimage(fn, u: float) -> float:
    prev = None
    for xj in fn.jump_points():
        if fn.left_limit(xj) >= u:
            return _upcrossing(fn, prev, xj, u)
        if fn.right_limit(xj) >= u:
            return xj
        prev = xj
    return _upcrossing(fn, prev, None, u)


def scan_largest_preimage(fn, u: float) -> float:
    nxt = None
    for xj in reversed(fn.jump_points()):
        if fn.right_limit(xj) <= u:
            return _downcrossing(fn, xj, nxt, u)
        if fn.left_limit(xj) <= u:
            return xj
        nxt = xj
    return _downcrossing(fn, None, nxt, u)
