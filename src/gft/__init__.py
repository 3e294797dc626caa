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

__version__ = "0.1.0"

# The catalog's generator names (base entries and their mirrors, sorted) and
# the ids of radius.curve_points. They live here so that the CLI parser can
# offer them as choices without loading either module; catalog checks its
# entries against CATALOG_NAMES when it loads.
CATALOG_NAMES = ("cos_sqrt_minus_z", "cos_sqrt_z", "one_minus_log_one_minus_z", "psi",
                 "sqrt_1_minus_z", "sqrt_1_plus_z")
CURVE_IDS = ("tau", "tau1", "tau2", "tau3", "tau4")
