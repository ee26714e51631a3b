"""The one scalar input rule: a range or finiteness requirement on a
parameter is checked by :func:`finite_in` (or, for a count or a seed,
:func:`integer_in`) where the parameter enters."""

from __future__ import annotations

import math
import numbers


def finite_in(name, value, lo=-math.inf, hi=math.inf, *, open_lo=False):
    """Return ``value`` unchanged if it is finite and in [lo, hi], or in
    (lo, hi] with ``open_lo``; else raise ValueError naming ``name``.

    A finite ``lo`` is tested first and NaN fails it (``x must be > 0,
    got nan``); with no lower end NaN fails finiteness (``x must be
    finite, got nan``), as does an infinity past the lower end.
    """
    above_lo = lo == -math.inf or (value > lo if open_lo else value >= lo)
    if above_lo and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if not (above_lo and value <= hi):
        raise ValueError(f"{name} must be {_rule(lo, hi, open_lo)}, got {value}")
    return value


def integer_in(name, value, lo=-math.inf, hi=math.inf):
    """Return ``value`` unchanged if it is an integer (Python or numpy) in
    [lo, hi]; else raise ValueError naming ``name``.  A float is refused
    even when integral (``x must be an integer, got 3.0``)."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value}")
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be {_rule(lo, hi, False)}, got {value}")
    return value


def _rule(lo, hi, open_lo):
    if hi == math.inf:
        return f"{'>' if open_lo else '>='} {lo:.12g}"
    if lo == -math.inf:
        return f"<= {hi:.12g}"
    return f"in {'(' if open_lo else '['}{lo:.12g}, {hi:.12g}]"
