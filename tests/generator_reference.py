"""Reference extended generators: branch constants asked for at every call.

This is how the canonical phi/chi extensions evaluated before each
generator kept a row of branch constants per jump point of its lifetime.
At every call the component's one-sided limits and the shock's value at the
preimage are asked of the distributions again.  The tests require the
package's generators to return the same float, or raise the same error.
"""

from shockcopula.genfn import CHI, DegenerateModelError


def survival_join(a: float, b: float) -> float:
    """a + b - a*b, exactly 1 when either argument is 1."""
    if a == 1.0 or b == 1.0:
        return 1.0
    return a + b - a * b


def value_at(gen, u: float, x0: float) -> float:
    lo = gen.component.left_limit(x0)
    hi = gen.component.right_limit(x0)
    z = gen.shock.value(x0)
    if gen.kind == CHI:
        v_l, v_u = survival_join(lo, z), survival_join(hi, z)
        if v_l <= u <= v_u:
            if z == 1.0:
                raise DegenerateModelError(
                    f"shock distribution is 1 at y0={x0!r} on the interpolating branch"
                )
            return (u - z) / (1.0 - z)
        return lo if u < v_l else hi
    u_l, u_u = lo * z, hi * z
    if u_l <= u <= u_u:
        if z == 0.0:
            raise DegenerateModelError(
                f"shock distribution is 0 at x0={x0!r} on the interpolating branch"
            )
        return u / z
    return lo if u < u_l else hi


def value(gen, u: float, largest: bool = False) -> float:
    """gen(u), or gen.value_with_largest_x0(u) when largest is set."""
    u = float(u)
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    search = gen.lifetime.largest_preimage if largest else gen.lifetime.smallest_preimage
    return value_at(gen, u, search(u))


def breakpoints(gen) -> tuple[float, ...]:
    pts = {0.0, 1.0}
    for xj in gen.lifetime.jump_points():
        z = gen.shock.value(xj)
        lo = gen.component.left_limit(xj)
        hi = gen.component.right_limit(xj)
        pts.add(gen.lifetime.left_limit(xj))
        pts.add(gen.lifetime.right_limit(xj))
        if gen.kind == CHI:
            pts.update((survival_join(lo, z), survival_join(hi, z)))
        else:
            pts.update((lo * z, hi * z))
    return tuple(sorted(p for p in pts if 0.0 <= p <= 1.0))
