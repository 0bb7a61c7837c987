"""High-entropy elliptic-curve scalars via differential evolution.

Library surface:

* :mod:`ecscalar.modmath` — hex codecs and the primality test
* :mod:`ecscalar.curve` — short-Weierstrass group law (Jacobian ``k·P``)
  and tooling
* :mod:`ecscalar.bitcodec` — fixed-width bit strings and Shannon entropy
* :mod:`ecscalar.de_opt` — the differential-evolution scalar search
* :mod:`ecscalar.kernels` — the word-parallel crossover mask
* :mod:`ecscalar.statbattery` — randomness tests and special functions
* :mod:`ecscalar.registry` — built-in and user-supplied curve parameters
* :mod:`ecscalar.cli` — the ``ecscalar`` command-line front end
"""

__version__ = "0.1.0"

from ecscalar.bitcodec import BitString, shannon_entropy, to_bits
from ecscalar.curve import INFINITY, CurveParams, Point, scalar_mul
from ecscalar.de_opt import DEConfig, OptResult, optimize, random_scalar
from ecscalar.registry import load_builtin, load_file
from ecscalar.statbattery import BatteryReport, run_battery

__all__ = [
    "BatteryReport",
    "BitString",
    "CurveParams",
    "DEConfig",
    "INFINITY",
    "OptResult",
    "Point",
    "__version__",
    "load_builtin",
    "load_file",
    "optimize",
    "random_scalar",
    "run_battery",
    "scalar_mul",
    "shannon_entropy",
    "to_bits",
]
