"""The Z^2 space-time array of an automorphism acting on a point.

Row j of the array is the j-th iterate of the code applied to the base
point, and entry (i, j) is that iterate's letter at coordinate i, which
equals coordinate 0 of (code^j shift^i)(x).  A letter of row j+1 reads
only the letters of row j within the code's range R of it, so a window
of t rows is read off one word of row 0, R(t-1) letters longer on each
side (its light cone).  All verdicts drawn from a finite window are
window-level evidence, not claims about the infinite array.
"""

from typing import NamedTuple

from .autos import _check_inputs, apply_to_config, apply_to_word


class SpaceTimeWindow(NamedTuple):
    """Rows 0..height-1 of the array, read off the light cone of row 0."""
    width: int
    height: int
    col0: int             # leftmost column coordinate
    grid: tuple           # grid[j][i] = letter at (col0+i, j)


def spacetime_window(spec, cert, config, width, height):
    """Materialize a width x height window of the space-time array, centred
    on column 0: slide the code height-1 times over row 0's light cone."""
    if width < 1 or height < 1:
        raise ValueError("width and height must be >= 1")
    _check_inputs(spec, (cert.code, cert.inverse))
    if not spec.contains_config(config):
        raise ValueError("base configuration not in the subshift")
    col0, radius = -(width // 2), cert.code.radius
    reach = radius * (height - 1)   # row j's columns start `reach` letters into its word
    word = config.window(col0 - reach, width + 2 * reach)
    grid = [word[reach:reach + width]]
    for _ in range(height - 1):
        word, reach = apply_to_word(cert.code, word), reach - radius
        grid.append(word[reach:reach + width])
    return SpaceTimeWindow(width, height, col0, tuple(grid))


def rect_complexity(window, n, k):
    """Distinct n x k sub-rectangles of the window (a lower bound on P_eta)."""
    if n < 1 or k < 1:
        raise ValueError("rectangle sides must be >= 1")
    if n > window.width or k > window.height:
        raise ValueError("rectangle exceeds the window")
    seen = set()
    for j in range(window.height - k + 1):
        for i in range(window.width - n + 1):
            seen.add(tuple(window.grid[j + dj][i:i + n] for dj in range(k)))
    return len(seen)


def detect_period_vectors(window, bound):
    """All vectors v with |v1|,|v2| <= bound consistent on the whole window.

    v holds when grid[j][i] == grid[j+v2][i+v1] wherever both cells lie in
    the window: rows cut to those columns i, and to the i+v1, agree over
    those rows j and j+v2.  Window-level evidence only; canonical order.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if bound >= min(window.width, window.height):
        raise ValueError("bound must be smaller than both window sides")
    steps = range(-bound, bound + 1)
    # the k of 0..n-1 with k+v in 0..n-1, and those k+v, for any n > bound
    cut = {v: (slice(max(0, -v), min(0, -v) or None), slice(max(0, v), min(0, v) or None))
           for v in steps}
    found = []
    for v1 in steps:
        cells, moved = ([row[ends] for row in window.grid] for ends in cut[v1])
        found.extend((v1, v2) for v2 in steps
                     if (v1 or v2) and cells[cut[v2][0]] == moved[cut[v2][1]])
    return tuple(found)


def _shift_exponent(image, probe, bound):
    """t with image == sigma^t probe and |t| <= bound, smallest |t| first."""
    for size in range(bound + 1):
        for t in dict.fromkeys((size, -size)):  # 0 once, then size before -size
            if image == probe.shift(t):
                return t
    return None


class PowerShiftReport(NamedTuple):
    exponent: int   # M
    shifts: tuple   # per-probe t with code^M probe == sigma^t probe


def power_is_shift(spec, cert, probes, m_max, shift_bound):
    """Smallest M <= m_max whose M-th power acts as a shift on every probe."""
    _check_inputs(spec, (cert.code, cert.inverse))
    probes = tuple(probes)
    for probe in probes:
        if not spec.contains_config(probe):
            raise ValueError("probe not in the subshift")
        if probe.is_periodic():
            raise ValueError("probes must be aperiodic")
    images = list(probes)
    for exponent in range(1, m_max + 1):
        images = [apply_to_config(cert.code, y) for y in images]
        shifts = [_shift_exponent(img, probe, shift_bound)
                  for img, probe in zip(images, probes)]
        if all(t is not None for t in shifts):
            return PowerShiftReport(exponent, tuple(shifts))
    return None


def window_to_json(window):
    return {"col0": window.col0,
            "row0": 0,
            "width": window.width,
            "height": window.height,
            "grid": [list(row) for row in window.grid]}
