"""The verdict of a residual check.

verify's relation checks and linkage's consistency check both return a
ResidualReport.  It lives apart from verify so that linkage, and the
commands built on it alone, load no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ResidualReport:
    """Interior residual of one relation check against a tolerance."""

    relation: str
    dim: int
    margin: int
    max_abs_residual: float
    tolerance: float
    passed: bool
    per_state: list[tuple[int, float]] | None = None

    def as_dict(self) -> dict:
        return {
            "relation": self.relation,
            "dim": self.dim,
            "margin": self.margin,
            "max_abs_residual": self.max_abs_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
