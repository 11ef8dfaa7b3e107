"""Declared domains of config keys, and the one checker that enforces them.

Each config field declares its valid values once, next to its default, with
`setting(default, domain)`: the value's JSON shape (switch, integer, number,
a list of n numbers, a list of names) and its range. Every config class's
__post_init__ runs `check_fields`; the CLI checks each config-file value, and
each config-backed flag's, under its dotted key, and types its other flags
from the same domains.
"""

import json
import math
import numbers
from dataclasses import field, fields
from typing import Callable, NamedTuple


class UsageError(ValueError):
    """A value the caller supplied that the program does not accept (CLI exit code 2)."""


class Domain(NamedTuple):
    text: str  # names the valid values, as in "takes a finite number > 0"
    test: Callable  # value -> whether it lies in the domain


def setting(default, domain: Domain):
    """A dataclass field whose valid values are `domain`."""
    return field(default=default, metadata={"domain": domain})


def check(name: str, domain: Domain, value):
    if not domain.test(value):
        raise UsageError(f"{name} takes {domain.text}, got {json.dumps(value, default=repr)}")


def check_fields(cfg):
    """Raise UsageError for the first field of a config dataclass whose value lies outside its domain."""
    for f in fields(cfg):
        check(f"{type(cfg).__name__}.{f.name}", f.metadata["domain"], getattr(cfg, f.name))


def _real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _integer(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _reals(v, n=None) -> bool:
    """A list (or tuple) of real numbers: exactly n of them, or at least one when n is None."""
    return isinstance(v, (list, tuple)) and (len(v) == n if n else len(v) > 0) and all(map(_real, v))


# NaN fails every comparison, so each range below rejects it
SWITCH = Domain("true or false", lambda v: isinstance(v, bool))
COUNT = Domain("an integer >= 1", lambda v: _integer(v) and v >= 1)
SEED = Domain("an integer >= 0", lambda v: _integer(v) and v >= 0)
POSITIVE_FINITE = Domain("a finite number > 0", lambda v: _real(v) and 0 < v < math.inf)
FINITE = Domain("a finite number", lambda v: _real(v) and -math.inf < v < math.inf)
UNIT = Domain("a number in [0, 1]", lambda v: _real(v) and 0 <= v <= 1)
POINT = Domain("a list of 3 finite numbers", lambda v: _reals(v, 3) and all(map(FINITE.test, v)))
POSITIVE_FINITE_LIST = Domain("a non-empty list of finite numbers > 0",
                              lambda v: _reals(v) and all(map(POSITIVE_FINITE.test, v)))
ORDERED_RANGE = Domain("a list of 2 finite numbers with 0 < low <= high",
                       lambda v: _reals(v, 2) and 0 < v[0] <= v[1] < math.inf)


def ascending_grid(cap=math.inf) -> Domain:
    """A non-empty ascending list of finite numbers in (0, cap]."""
    return Domain("a non-empty ascending list of finite numbers > 0" + (f" and <= {cap}" if cap < math.inf else ""),
                  lambda v: _reals(v) and 0 < v[0] and all(a <= b for a, b in zip(v, v[1:]))
                  and v[-1] <= cap and v[-1] < math.inf)


def names(choices, optional=False) -> Domain:
    """A non-empty list of names from choices; when optional, an empty list or null too."""
    listed = f"list of names from ({', '.join(choices)})"
    return Domain(f"a {listed}, or null" if optional else f"a non-empty {listed}",
                  lambda v: (optional and v is None) or (isinstance(v, (list, tuple)) and (optional or len(v) > 0)
                                                         and all(n in choices for n in v)))
