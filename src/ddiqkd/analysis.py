"""Statistical monitors over the public announcement record.

Everything here is a pure function of what an outside observer of the
protocol sees: which slots were announced with which Bell outcome, and which
produced double clicks. The monitors read those two columns only through
their counts, one MonitorStats record; the records of adjacent spans merge
into the record of both, so a long transcript is counted block by block.
Ground-truth columns are never read, so the legitimate receiver could run
every monitor as-is.

Verdict conventions: a test "rejects" when its p-value falls below alpha (or
|z| exceeds the two-sided normal quantile); a test is "absent" when the
record is too small to compute it. The double-click monitor has no alpha: a
single photon cannot fire two detectors without dark counts, so any nonzero
double-click rate is flagged.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError

_STANDARD_NORMAL = statistics.NormalDist()


def _chi2_sf(x: float, dof: int) -> float:
    """Upper tail P(X > x) of the chi-square law with an odd number dof of
    degrees of freedom, in closed form: erfc(sqrt(x/2)) plus
    sqrt(2x/pi) e^(-x/2) times the sum over j = 1..(dof-1)/2 of
    x^(j-1) / (1*3*...*(2j-1)); at dof 1 the sum is empty."""
    term, series = 1.0, 0.0
    for j in range(1, (dof + 1) // 2):
        series += term
        term *= x / (2 * j + 1)
    return math.erfc(math.sqrt(x / 2)) + math.sqrt(2 * x / math.pi) * math.exp(-x / 2) * series


# From this many announced outcomes on, three bit-plane counts beat
# bincount, which first casts every outcome to a machine integer; below it
# (an analyze block holds about 200) bincount's one call is cheaper.
_BIT_PLANES_FROM = 2048


def _outcome_counts(outcomes: np.ndarray) -> tuple[int, ...]:
    """How often each Bell outcome 0..3 occurs among outcomes."""
    m = len(outcomes)
    if m < _BIT_PLANES_FROM:
        return tuple(np.bincount(outcomes, minlength=4).tolist())
    low = np.count_nonzero(outcomes & 1)
    high = np.count_nonzero(outcomes >> 1)
    both = np.count_nonzero(outcomes == 3)
    return (m - low - high + both, low - both, high - both, both)


@dataclass(frozen=True)
class MonitorStats:
    """The counts the monitors read from a span of slots: its length, the
    announced single clicks and the double clicks, the first and last
    announced single (relative to the span's start, -1 when there is none),
    how many gaps between consecutive announced singles are odd, and how
    often each Bell outcome was announced."""

    n_slots: int
    singles: int
    doubles: int
    first: int
    last: int
    odd_gaps: int
    outcome_counts: tuple[int, ...]

    @classmethod
    def of(cls, reported: np.ndarray, announced: np.ndarray, double_click: np.ndarray) -> MonitorStats:
        """The record of a span's two public columns: one outcome per slot,
        read only where the caller's mask marks an announced single (there
        it is 0..3), and one double-click flag per slot."""
        slots = np.flatnonzero(announced)
        first, last = (int(slots[0]), int(slots[-1])) if len(slots) else (-1, -1)
        odd = int(np.count_nonzero((slots[1:] - slots[:-1]) & 1))
        counts = _outcome_counts(reported[slots])
        return cls(len(reported), len(slots), int(np.count_nonzero(double_click)), first, last, odd, counts)

    def merge(self, later: MonitorStats) -> MonitorStats:
        """The record of this span directly followed by `later`'s; the gap
        from this span's last announced single to later's first counts."""
        seam = self.n_slots
        first, last, odd = self.first, self.last, self.odd_gaps + later.odd_gaps
        if later.singles:
            if self.singles:
                odd += (seam + later.first - last) & 1
            else:
                first = seam + later.first
            last = seam + later.last
        counts = tuple(a + b for a, b in zip(self.outcome_counts, later.outcome_counts))
        return MonitorStats(seam + later.n_slots, self.singles + later.singles,
                            self.doubles + later.doubles, first, last, odd, counts)

    @property
    def announced_events(self) -> int:
        """Announced detection events: single clicks plus double clicks."""
        return self.singles + self.doubles


def gap_parity_uniformity(odd_gaps: int, gaps: int) -> tuple[float, float] | None:
    """Chi-square test (1 dof) of even/odd balance among the gaps between
    consecutive announced slots, odd_gaps of them odd. Returns (statistic,
    p-value), or None without a gap (fewer than two announcements). Flags
    the unkeyed gap-parity encoding, where one parity class dominates."""
    if gaps < 1:
        return None
    chi2 = (gaps - 2 * odd_gaps) ** 2 / gaps  # (even - odd)^2 / gaps
    return float(chi2), _chi2_sf(chi2, 1)


def rate_consistency(observed_reports: int, n_slots: int, expected_rate: float) -> float:
    """Binomial z-score of the announced-event count against the rate the
    receiver expects (transmittance times believed efficiency)."""
    if not 0.0 <= expected_rate <= 1.0:
        raise ValidationError(f"expected_rate must be in [0,1], got {expected_rate}")
    diff = observed_reports - n_slots * expected_rate
    if expected_rate <= 0.0 or expected_rate >= 1.0:
        # degenerate binomial: any deviation is infinitely surprising
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    return float(diff / math.sqrt(n_slots * expected_rate * (1.0 - expected_rate)))


def outcome_histogram(counts: Sequence[int]) -> tuple[np.ndarray, float, float] | None:
    """The counts per Bell outcome plus a chi-square test against the honest
    aggregate expectation, uniform over the four outcomes. Returns
    (counts, statistic, p-value), or None without announcements. Tailored
    blinding concentrates all mass on the low-threshold outcomes."""
    counts = np.array(counts, dtype=np.int64)
    if not counts.any():
        return None
    expected = counts.sum() / 4
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return counts, chi2, _chi2_sf(chi2, 3)


@dataclass(frozen=True)
class DetectabilityReport:
    """Monitor outputs plus per-test verdicts at significance alpha;
    dataclasses.asdict of it is its JSON form. double_click_rate is
    double-click slots per transmitted slot. rate_z_score is None where
    rate_consistency is infinite, which strict JSON cannot hold."""

    alpha: float
    gap_parity_chi2: float | None
    gap_parity_p_value: float | None
    rate_z_score: float | None
    outcome_chi2: float | None
    outcome_p_value: float | None
    double_click_rate: float
    verdicts: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("gap_parity_p_value", "outcome_p_value"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be in [0,1], got {v}")


def _p_verdict(p: float | None, alpha: float) -> str:
    if p is None:
        return "absent"
    return "reject" if p < alpha else "pass"


def detectability_report(
    stats: MonitorStats, expected_rate: float, alpha: float = 0.01
) -> DetectabilityReport:
    """Run all monitors on one announcement record."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0,1), got {alpha}")
    gp = gap_parity_uniformity(stats.odd_gaps, stats.singles - 1)
    z = rate_consistency(stats.announced_events, stats.n_slots, expected_rate)
    oh = outcome_histogram(stats.outcome_counts)
    dcr = stats.doubles / stats.n_slots
    z_crit = -_STANDARD_NORMAL.inv_cdf(alpha / 2.0)
    verdicts = {
        "gap_parity": _p_verdict(gp[1] if gp else None, alpha),
        "rate": "reject" if abs(z) > z_crit else "pass",
        "outcome_uniformity": _p_verdict(oh[2] if oh else None, alpha),
        "double_click": "reject" if dcr > 0.0 else "pass",
    }
    return DetectabilityReport(
        alpha=alpha,
        gap_parity_chi2=gp[0] if gp else None,
        gap_parity_p_value=gp[1] if gp else None,
        rate_z_score=z if math.isfinite(z) else None,
        outcome_chi2=oh[1] if oh else None,
        outcome_p_value=oh[2] if oh else None,
        double_click_rate=dcr,
        verdicts=verdicts,
    )
