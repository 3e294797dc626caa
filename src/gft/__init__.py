"""Computational toolkit for starlike classes driven by 1 - log(1+z).

Modules:

- :mod:`gft.series`   truncated Maclaurin-series arithmetic
- :mod:`gft.catalog`  named generators and the image-membership predicate
- :mod:`gft.extremal` structural/extremal functions and envelopes
- :mod:`gft.radius`   radius and inclusion constants, boundary curves
- :mod:`gft.bounds`   coefficient-functional bounds for convolution classes
- :mod:`gft.verify`   brute-force sampling and sweep oracles
- :mod:`gft.cli`      the ``gft`` command-line front end

Import the module you need (``from gft import radius``): the package itself
imports none of them, so a ``gft`` process loads only the modules its
subcommand runs.
"""

import operator

__version__ = "0.1.0"

# The catalog's generator names (base entries and their mirrors, sorted) and
# the ids of radius.curve_points. They live here so that the CLI parser can
# offer them as choices without loading either module; catalog checks its
# entries against CATALOG_NAMES when it loads.
CATALOG_NAMES = ("cos_sqrt_minus_z", "cos_sqrt_z", "one_minus_log_one_minus_z", "psi",
                 "sqrt_1_minus_z", "sqrt_1_plus_z")
CURVE_IDS = ("tau", "tau1", "tau2", "tau3", "tau4")


# Every module's int check. It lives here so that gft.radius, which loads no
# gft.series, shares it.
def _index(value) -> int | None:
    """``value`` as an int, or None: an ``np.int64`` passes, a bool, 40.0 or "3" does not."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        return None
    return operator.index(value)


def _as_int(value, name: str, least: int) -> int:
    """``value`` as an int >= ``least``, by :func:`_index`."""
    if (n := _index(value)) is None:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if n < least:
        raise ValueError(f"{name} must be at least {least}")
    return n


def _unit_real(value, name: str):
    """``value`` if it is a real number in [0, 1]: a Fraction, int or float, numpy's
    too, passes; a bool, or a str, None or complex (no ``__round__``), does not."""
    if isinstance(value, bool) or not hasattr(type(value), "__round__"):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not 0 <= value <= 1:  # nan too
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value
