"""Structured pass/fail reporting shared by the verification batteries and the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["CheckEntry", "CheckReport", "NECESSARY_HEADER"]

NECESSARY_HEADER = "necessary conditions only; spectral-set membership not decided"


def _json_number(x: float | None) -> float | str | None:
    """``x`` unchanged unless it is non-finite; then its string form."""
    return x if x is None or math.isfinite(x) else str(x)


@dataclass(frozen=True)
class CheckEntry:
    """One named residual check.

    A skipped entry records a hypothesis violation (or another documented
    reason) and never counts as a pass.
    """

    name: str
    residual: float | None
    tolerance: float | None
    skipped: bool = False
    note: str = ""

    @property
    def passed(self) -> bool:
        """Not skipped and the residual within tolerance; a NaN residual or
        tolerance fails, as every comparison with NaN is False."""
        return not self.skipped and self.residual <= self.tolerance

    def to_dict(self) -> dict:
        """Plain-data form; non-finite residuals and tolerances become the
        strings "inf", "-inf" and "nan" so that the form is valid JSON."""
        return {
            "name": self.name,
            "residual": _json_number(self.residual),
            "tolerance": _json_number(self.tolerance),
            "passed": self.passed,
            "skipped": self.skipped,
            "note": self.note,
        }


@dataclass
class CheckReport:
    """Ordered collection of residual checks with a conjunctive verdict."""

    title: str
    header: str = ""
    entries: list[CheckEntry] = field(default_factory=list)

    def check(self, name: str, residual: float, tolerance: float, note: str = "") -> bool:
        """Record a residual against an absolute tolerance; returns pass/fail."""
        self.entries.append(CheckEntry(name, float(residual), float(tolerance), note=note))
        return self.entries[-1].passed

    def skip(self, name: str, reason: str) -> None:
        """Record that a check could not run (hypothesis violated etc.)."""
        self.entries.append(CheckEntry(name, None, None, skipped=True, note=reason))

    def extend(self, other: CheckReport, prefix: str = "") -> None:
        """Absorb entries of another report, optionally prefixing names."""
        self.entries.extend(
            CheckEntry(prefix + e.name, e.residual, e.tolerance, e.skipped, e.note) for e in other.entries
        )

    @property
    def overall(self) -> bool:
        """Conjunction over non-skipped entries, of which there must be one: an untested report never passes."""
        active = [e for e in self.entries if not e.skipped]
        return bool(active) and all(e.passed for e in active)

    @property
    def failures(self) -> list[CheckEntry]:
        return [e for e in self.entries if not e.passed and not e.skipped]

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "header": self.header,
            "overall": self.overall,
            "entries": [e.to_dict() for e in self.entries],
        }

    def table(self) -> str:
        """Fixed-width human-readable rendering."""
        width = max([len(e.name) for e in self.entries] + [len("check")])
        lines = [self.title]
        if self.header:
            lines.append(f"  [{self.header}]")
        lines.append(f"  {'check'.ljust(width)}  {'residual':>12}  {'tolerance':>12}  verdict")
        for e in self.entries:
            if e.skipped:
                res, tol, verdict = "-", "-", "SKIP"
            else:
                res = f"{e.residual:.3e}"
                tol = f"{e.tolerance:.3e}"
                verdict = "pass" if e.passed else "FAIL"
            note = f"  ({e.note})" if e.note else ""
            lines.append(f"  {e.name.ljust(width)}  {res:>12}  {tol:>12}  {verdict}{note}")
        lines.append(f"  overall: {'pass' if self.overall else 'FAIL'}")
        return "\n".join(lines)
