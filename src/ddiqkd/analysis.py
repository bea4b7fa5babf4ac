"""Statistical monitors over the public announcement record.

Everything here is a pure function of what an outside observer of the
protocol sees: total slot count, which slots were announced with which Bell
outcome, the receiver's bases for those slots, and which slots produced
double clicks. Ground-truth transcript columns are deliberately not accepted,
so the legitimate receiver could run every monitor as-is.

Verdict conventions: a test "rejects" when its p-value falls below alpha (or
|z| exceeds the two-sided normal quantile); a test is "absent" when the
record is too small to compute it. The double-click monitor has no alpha: a
single photon cannot fire two detectors without dark counts, so any nonzero
double-click rate is flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy import special

from .errors import ValidationError


@dataclass(frozen=True)
class PublicView:
    """The announcement record: slot indices with a single announced outcome,
    the outcome values and receiver bases aligned to them, and the slots that
    produced double clicks."""

    n_slots: int
    reported_slots: np.ndarray
    outcomes: np.ndarray
    bob_basis_at_reported: np.ndarray
    double_click_slots: np.ndarray

    def __post_init__(self) -> None:
        if self.n_slots < 1:
            raise ValidationError(f"n_slots must be >= 1, got {self.n_slots}")
        if not (len(self.reported_slots) == len(self.outcomes) == len(self.bob_basis_at_reported)):
            raise ValidationError("reported slots, outcomes and bases must be aligned")
        slots = np.asarray(self.reported_slots)
        if (slots[1:] <= slots[:-1]).any():
            raise ValidationError("reported slots must be strictly increasing")

    @property
    def announced_events(self) -> int:
        """Announced detection events: single clicks plus double clicks."""
        return len(self.reported_slots) + len(self.double_click_slots)


def gap_parity_uniformity(reported_slots: Sequence[int]) -> tuple[float, float] | None:
    """Chi-square test (1 dof) of even/odd balance among gaps between
    consecutive announced slots. Returns (statistic, p-value), or None with
    fewer than two announcements. Flags the unkeyed gap-parity encoding,
    where one parity class dominates."""
    slots = np.asarray(reported_slots)
    if len(slots) < 2:
        return None
    gaps = slots[1:] - slots[:-1]
    if (gaps <= 0).any():
        raise ValidationError("reported slots must be strictly increasing")
    n_odd = int(np.count_nonzero(gaps & 1))
    n_even = len(gaps) - n_odd
    chi2 = (n_even - n_odd) ** 2 / len(gaps)
    return float(chi2), float(special.chdtrc(1, chi2))


def rate_consistency(observed_reports: int, n_slots: int, expected_rate: float) -> float:
    """Binomial z-score of the announced-event count against the rate the
    receiver expects (transmittance times believed efficiency)."""
    if n_slots < 1:
        raise ValidationError(f"n_slots must be >= 1, got {n_slots}")
    if not 0.0 <= expected_rate <= 1.0:
        raise ValidationError(f"expected_rate must be in [0,1], got {expected_rate}")
    diff = observed_reports - n_slots * expected_rate
    if expected_rate <= 0.0 or expected_rate >= 1.0:
        # degenerate binomial: any deviation is infinitely surprising
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    return float(diff / math.sqrt(n_slots * expected_rate * (1.0 - expected_rate)))


def outcome_histogram(outcomes: Sequence[int]) -> tuple[np.ndarray, float, float] | None:
    """Counts per Bell outcome plus a chi-square test against the honest
    aggregate expectation, uniform over the four outcomes. Returns
    (counts, statistic, p-value), or None without announcements. Tailored
    blinding concentrates all mass on the low-threshold outcomes."""
    arr = np.asarray(outcomes)
    if len(arr) == 0:
        return None
    if arr.min() < 0 or arr.max() > 3:
        raise ValidationError("outcomes must be Bell outcome indices 0..3")
    counts = np.bincount(arr, minlength=4)
    expected = counts.sum() / 4
    chi2 = ((counts - expected) ** 2 / expected).sum()
    return counts, float(chi2), float(special.chdtrc(3, chi2))


@dataclass(frozen=True)
class DetectabilityReport:
    """Monitor outputs plus per-test verdicts at significance alpha;
    dataclasses.asdict of it is its JSON form. double_click_rate is
    double-click slots per transmitted slot."""

    alpha: float
    gap_parity_chi2: float | None
    gap_parity_p_value: float | None
    rate_z_score: float
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
    view: PublicView, expected_rate: float, alpha: float = 0.01
) -> DetectabilityReport:
    """Run all monitors on one announcement record."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0,1), got {alpha}")
    gp = gap_parity_uniformity(view.reported_slots)
    z = rate_consistency(view.announced_events, view.n_slots, expected_rate)
    oh = outcome_histogram(view.outcomes)
    dcr = len(view.double_click_slots) / view.n_slots
    z_crit = float(-special.ndtri(alpha / 2.0))
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
        rate_z_score=z,
        outcome_chi2=oh[1] if oh else None,
        outcome_p_value=oh[2] if oh else None,
        double_click_rate=dcr,
        verdicts=verdicts,
    )
