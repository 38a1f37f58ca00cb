"""Gap-shrinkage priors: duality-gap functions for projections and
proximal mappings, priors that shrink the gap toward zero, blocked Gibbs
samplers built on them, and exact-projection oracles that certify the
bounds.

The package itself imports nothing; every name is imported from the
module that defines it, e.g. ``from gapshrink.penalties import L1``."""

__version__ = "0.1.0"
