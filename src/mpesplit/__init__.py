"""Multi-product expansion and operator-splitting integrators for semilinear
evolution PDEs on periodic domains, with scheme verification tooling and a
benchmark harness."""

__version__ = "0.1.0"
