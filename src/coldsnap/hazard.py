"""Damage-function models: mortality risk, occupant outcomes, productivity,
and the freeze-damage index.

The mortality model maps indoor temperature to a relative risk (RR >= 1,
equal to 1 at the comfort minimum) and averages it over the event to get a
per-occupant mortality probability. Each at-risk occupant draws one outcome
code, 2 x category + health-insured, from a categorical table (condition,
then recovery at home, in hospital, or death) of closed-form rate means.
Productivity maps indoor temperature to relative work performance in
[0, 1]. The winter freeze index accumulates (temperature deficit x moisture
excess) whenever both cross their critical levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import ClassVar

import numpy as np

from .codec import Bounded, within
from .errors import ConfigurationError

_GRID_STEP_C = 0.1


@dataclass(frozen=True)
class CurveModel(Bounded):
    """Polynomial of temperature whose extremum over its valid range is 1.
    Its fields are its config keys, all filled in once built: without
    coefficients it fits `fit_points` (by default the shipped anchors) over
    `valid_range_c` (by default the shipped range). Subclasses set the
    degree, the extremum ("minimum" or "maximum"), its tolerance (below,
    above), the shipped anchors and range, and the `OUTPUT_RANGE` it clamps to."""

    coefficients_high_to_low: tuple[float, ...] | None = None
    # The extremum check evaluates the curve every 0.1 C over this range.
    valid_range_c: tuple[float, float] | None = within(-100, 100, ordered=True, default=None)
    fit_points: tuple[tuple[float, float], ...] | None = None
    fit_max_abs_residual: float | None = None

    NAME = DEGREE = EXTREMUM = TOLERANCE = ANCHORS = VALID_RANGE_C = OUTPUT_RANGE = None

    def __post_init__(self):
        super().__post_init__()
        lo, hi = self.valid_range_c or self.VALID_RANGE_C
        if hi <= lo:
            raise ConfigurationError(f"must have lo < hi, got [{lo}, {hi}]", "valid_range_c")
        object.__setattr__(self, "valid_range_c", (lo, hi))
        if self.coefficients_high_to_low is not None:
            filled = {"fit_points": self.fit_points or (),
                      "fit_max_abs_residual": self.fit_max_abs_residual or 0.0}
        elif self.fit_max_abs_residual is not None:
            raise ConfigurationError("fit_max_abs_residual is computed by the fit; it is "
                                     "read only beside coefficients_high_to_low")
        else:
            filled = self._fit(self.ANCHORS if self.fit_points is None else self.fit_points)
        for name, value in filled.items():
            object.__setattr__(self, name, value)
        extremum = self._extremum(self.coefficients_high_to_low)
        below, above = self.TOLERANCE
        if not 1.0 - below <= extremum <= 1.0 + above:
            raise ConfigurationError(
                f"{self.NAME} curve {self.EXTREMUM} over its range is "
                f"{extremum!r}; expected 1 (give fit_points to renormalize)"
            )

    def _extremum(self, coefficients) -> float:
        """The extremum of `coefficients` over a grid spanning the valid range."""
        lo, hi = self.valid_range_c
        values = np.polyval(coefficients, np.arange(lo, hi + _GRID_STEP_C / 2, _GRID_STEP_C))
        return float(values.min() if self.EXTREMUM == "minimum" else values.max())

    def _fit(self, points) -> dict:
        """Least-squares fit to (temperature, value) anchors, extremum -> 1."""
        xs = np.array([p[0] for p in points], dtype=float)
        ys = np.array([p[1] for p in points], dtype=float)
        if len(xs) <= self.DEGREE:
            raise ConfigurationError(
                f"need more than {self.DEGREE} points for a degree-{self.DEGREE} fit")
        coeffs = np.polyfit(xs, ys, self.DEGREE)
        extremum = self._extremum(coeffs)
        if extremum <= 0:
            raise ConfigurationError(f"fitted {self.NAME} curve is non-positive over its range")
        return {"coefficients_high_to_low": tuple(float(c) for c in coeffs / extremum),
                "fit_points": tuple((float(t), float(v)) for t, v in points),
                "fit_max_abs_residual": float(np.abs(np.polyval(coeffs, xs) - ys).max())}

    def evaluate(self, t_in_c, out=None, clipped=None):
        """The curve at clamp(t, valid range), clamped to `OUTPUT_RANGE`: the
        bits of `np.polyval`, its steps y = y * t + c run in place on one
        array, the first as y = t * c0. `out` and `clipped`, arrays of t's
        shape, receive the curve and the clamped temperatures in place of
        new arrays."""
        t = np.clip(np.asarray(t_in_c, dtype=float), *self.valid_range_c, out=clipped)
        c0, *rest = self.coefficients_high_to_low
        if not rest:
            return np.clip(np.full_like(t, c0), *self.OUTPUT_RANGE, out=out)
        y = np.multiply(t, c0, out=out)
        y += rest[0]
        for c in rest[1:]:
            y *= t
            y += c
        return np.clip(y, *self.OUTPUT_RANGE, out=y if y.ndim else None)


class RRModel(CurveModel):
    """Quartic relative-risk-of-mortality curve, minimum normalized to 1."""

    NAME, DEGREE, EXTREMUM, TOLERANCE = "mortality", 4, "minimum", (1e-9, 1e-6)
    # A smooth city-specific shape: 1 at 20 degC, rising to 1.5 at -15 degC.
    ANCHORS = ((-15.0, 1.500000), (-12.5, 1.371733), (-10.0, 1.269888), (-7.5, 1.190559),
               (-5.0, 1.130154), (-2.5, 1.085394), (0.0, 1.053311), (2.5, 1.031250),
               (5.0, 1.016868), (7.5, 1.008135), (10.0, 1.003332), (12.5, 1.001054),
               (15.0, 1.000208), (17.5, 1.000013), (20.0, 1.000000), (22.5, 1.000013),
               (25.0, 1.000208), (27.5, 1.001054), (30.0, 1.003332))
    VALID_RANGE_C = (-15.0, 30.0)
    OUTPUT_RANGE = (1.0 - 1e-9, math.inf)  # floors at 1 to absorb fit wiggle


def mortality_probability(mean_rr, delta: float = 0.0):
    """Mortality probability from event-mean RR: excess risk plus delta in [0, 1]."""
    return np.clip(np.asarray(mean_rr, dtype=float) - 1.0 + delta, 0.0, 1.0)


class ProductivityModel(CurveModel):
    """Cubic relative-performance curve, maximum normalized to 1, clamped to [0, 1]."""

    NAME, DEGREE, EXTREMUM, TOLERANCE = "productivity", 3, "maximum", (1e-6, 1e-9)
    ANCHORS = ((10.0, 0.6586), (12.0, 0.7770), (14.0, 0.8668), (16.0, 0.9309),
               (18.0, 0.9723), (20.0, 0.9940), (22.0, 0.9989), (24.0, 0.9902),
               (26.0, 0.9707), (28.0, 0.9435), (30.0, 0.9115), (32.0, 0.8777))
    VALID_RANGE_C = (10.0, 32.0)
    OUTPUT_RANGE = (0.0, 1.0)


@dataclass(frozen=True)
class WinterIndexParams(Bounded):
    """Critical levels for freeze damage accumulation."""

    t_crit_c: float = 0.0
    rh_crit_pct: float = within(0, 100, default=80.0)
    indoor_rh_pct: float | None = within(0, 100, default=None)  # None: the outdoor series


def winter_index_rows(t_in_c, rh_pct, params: WinterIndexParams, rows=None) -> np.ndarray:
    """Accumulated freeze index of every row of a (buildings x steps) block:
    the sum of (T_crit - T)(RH - RH_crit) over the row's steps where
    T < T_crit and RH > RH_crit, zero for a row without such a step. Each
    row's gate picks its products, summed as that row alone. Only the row
    indices `rows` (every row for None) are summed; the others are 0.0, as
    a row that never falls below T_crit is. `rh_pct` holds one humidity
    per step."""
    rows = range(len(t_in_c)) if rows is None else np.asarray(rows).tolist()
    sums = np.zeros(len(t_in_c))
    if not rows:
        return sums
    t = np.asarray(t_in_c, dtype=float)
    if params.indoor_rh_pct is not None:
        rh = np.full(t.shape[1], float(params.indoor_rh_pct))
    else:
        rh = np.asarray(rh_pct, dtype=float)
    humid = rh > params.rh_crit_pct
    excess = rh - params.rh_crit_pct
    for row in rows:
        gate = t[row] < params.t_crit_c
        gate &= humid
        sums[row] = ((params.t_crit_c - t[row][gate]) * excess[gate]).sum()
    return sums


_SQRT2 = math.sqrt(2.0)
# Standard deviations past which a normal density underflows to 0.0
# (exp(-40**2 / 2) = exp(-800)), so nothing beyond them adds to a mean.
_TAIL_Z = 40.0
# Gauss-Legendre nodes per quadrature piece, and the most pieces: each is
# as wide as the narrower rate's standard deviation while they fit.
_GAUSS_NODES = 12
_MAX_PIECES = 400


def _normal_mass(a: float, b: float) -> float:
    """Phi(b) - Phi(a) for a <= b, read from the tail the interval lies in,
    so that a mass deep in a tail does not cancel to 0."""
    if a > 0.0:
        return 0.5 * (math.erfc(a / _SQRT2) - math.erfc(b / _SQRT2))
    if b < 0.0:
        return 0.5 * (math.erfc(-b / _SQRT2) - math.erfc(-a / _SQRT2))
    return 0.5 * (math.erf(b / _SQRT2) - math.erf(a / _SQRT2))


def _normal_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class TruncNormal:
    """Normal(loc, std) restricted to [lo, hi]. The package reads only its
    closed-form moments; it never samples one."""

    loc: float
    std: float
    lo: float
    hi: float

    def __post_init__(self):
        if self.std <= 0:
            raise ConfigurationError(f"std must be positive, got {self.std}")
        if self.lo > self.hi:
            raise ConfigurationError(f"empty support [{self.lo}, {self.hi}]")
        if self.acceptance_probability() < 1e-6:
            raise ConfigurationError(
                f"window [{self.lo}, {self.hi}] captures almost none of "
                f"Normal({self.loc}, {self.std}); its closed-form means would be unreliable"
            )

    def _z(self, x: float) -> float:
        return (x - self.loc) / self.std

    def acceptance_probability(self) -> float:
        return _normal_mass(self._z(self.lo), self._z(self.hi))

    def mean(self) -> float:
        """The mean of the truncated law, in closed form."""
        a, b = self._z(self.lo), self._z(self.hi)
        value = self.loc + self.std * (_normal_pdf(a) - _normal_pdf(b)) / _normal_mass(a, b)
        return min(max(value, self.lo), self.hi)

    def mean_excess(self, c: float) -> float:
        """E[max(X - c, 0)], in closed form."""
        g, b = self._z(max(c, self.lo)), self._z(self.hi)
        if g >= b:
            return 0.0
        tail = ((self.loc - c) * _normal_mass(g, b)
                + self.std * (_normal_pdf(g) - _normal_pdf(b)))
        return max(tail / self.acceptance_probability(), 0.0)


def respiratory_share_pct(cardiac: TruncNormal, respiratory: TruncNormal) -> float:
    """E[min(p_r, 100 - p_c)] for independent percent rates p_c and p_r: the
    respiratory share of a tree that draws cardiac with chance p_c and, if
    not cardiac, respiratory with chance p_r / (100 - p_c), capped at 1.

    That is E[p_r] less E[max(p_r + p_c - 100, 0)]. The correction is taken
    by Gauss-Legendre quadrature over p_c, only where both densities can be
    non-zero; it is 0 unless p_c + p_r > 100 can occur.
    """
    r_top = min(respiratory.hi, respiratory.loc + _TAIL_Z * respiratory.std)
    a = max(cardiac.lo, cardiac.loc - _TAIL_Z * cardiac.std, 100.0 - r_top)
    b = min(cardiac.hi, cardiac.loc + _TAIL_Z * cardiac.std)
    if a >= b:
        return respiratory.mean()
    from numpy.polynomial.legendre import leggauss  # configs where the rates can overlap

    nodes, weights = leggauss(_GAUSS_NODES)
    scale = cardiac.std * cardiac.acceptance_probability()  # of p_c's truncated density
    # A break also where the excess of p_r over 100 - p_c turns linear
    # (100 - p_c below respiratory.lo).
    width = (b - a) / min(_MAX_PIECES, math.ceil((b - a) / min(cardiac.std, respiratory.std)))
    breaks = sorted({*np.arange(a, b, width).tolist(), b}
                    | ({100.0 - respiratory.lo} if a < 100.0 - respiratory.lo < b else set()))
    excess = 0.0
    for left, right in zip(breaks, breaks[1:]):
        half, mid = (right - left) / 2.0, (right + left) / 2.0
        for node, weight in zip((mid + half * nodes).tolist(), (half * weights).tolist()):
            density = _normal_pdf(cardiac._z(node)) / scale
            excess += weight * density * respiratory.mean_excess(100.0 - node)
    return max(respiratory.mean() - excess, 0.0)


class Condition(str, Enum):
    CARDIAC = "cardiac"
    RESPIRATORY = "respiratory"
    HYPOTHERMIA_FROST = "hypothermia_frost"


CONDITIONS = (Condition.CARDIAC, Condition.RESPIRATORY, Condition.HYPOTHERMIA_FROST)


def check_conditions(table: dict, key: str) -> None:
    """Raise a ConfigurationError keyed `key` unless `table` is keyed by
    exactly the conditions."""
    if set(table) != set(CONDITIONS):
        raise ConfigurationError(
            "needs exactly the conditions " + ", ".join(c.value for c in CONDITIONS), key)


Rate = tuple[float, float, float, float]  # a `TruncNormal`'s (mean, std, lo, hi)


@dataclass(frozen=True)
class HealthDistributions:
    """Per-occupant rate distributions of the outcome tree, percent scale:
    each rate is the (mean, std, lo, hi) of a `TruncNormal`, checked once
    when built."""

    # Pre-existing conditions follow Texas health-survey rates; insurance
    # follows Texas Medical Association and Real Estate Research Center data.
    pre_existing_cardiac: Rate = (5.1, 1.0, 0.0, 100.0)
    pre_existing_respiratory: Rate = (7.3, 1.0, 0.0, 100.0)
    healthcare_access: Rate = (89.4, 3.0, 0.0, 100.0)
    health_insurance: Rate = (79.4, 3.0, 0.0, 100.0)
    home_insurance: Rate = (95.9, 3.0, 0.0, 100.0)
    hospital_survival: dict[Condition, Rate] = field(default_factory=lambda: {
        Condition.CARDIAC: (89.3, 1.0, 0.0, 100.0),
        Condition.RESPIRATORY: (83.0, 1.0, 0.0, 100.0),
        Condition.HYPOTHERMIA_FROST: (91.9, 3.0, 0.0, 100.0)})
    home_survival: dict[Condition, Rate] = field(default_factory=lambda: {
        Condition.CARDIAC: (19.3, 1.0, 0.0, 100.0),
        Condition.RESPIRATORY: (13.0, 1.0, 0.0, 100.0),
        Condition.HYPOTHERMIA_FROST: (78.9, 1.0, 0.0, 100.0)})

    def __post_init__(self):
        for f in fields(self):
            rates = getattr(self, f.name)
            if isinstance(rates, dict):
                check_conditions(rates, f.name)
                rates = {f"{f.name}.{c.value}": rate for c, rate in rates.items()}
            else:
                rates = {f.name: rates}
            for key, rate in rates.items():
                try:
                    law = TruncNormal(*rate)
                except ConfigurationError as exc:
                    raise ConfigurationError(exc.message, key) from exc
                # Every draw is a rate used in one Bernoulli, so its support
                # must lie in [0, 100] percent.
                if not 0.0 <= law.lo <= law.hi <= 100.0:
                    raise ConfigurationError(f"must have a support in [0, 100] percent, "
                                             f"got [{law.lo}, {law.hi}]", key)


@dataclass(frozen=True)
class HazardConfig(Bounded):
    """All damage-model parameters for one run; fields mirror the `hazard` section."""

    delta: float = within(0, 1, default=0.0)
    rr_model: RRModel = field(default_factory=RRModel)
    productivity_model: ProductivityModel = field(default_factory=ProductivityModel)
    winter_index: WinterIndexParams = field(default_factory=WinterIndexParams)
    distributions_pct: HealthDistributions = field(default_factory=HealthDistributions)


@dataclass(frozen=True)
class OutcomeTable:
    """The law of an at-risk occupant's outcome and of the insurance flags.

    The tree draws every rate afresh for each occupant (or damaged home) and
    uses it in one Bernoulli, so each outcome is a categorical draw whose
    probabilities are the rates' truncated-normal means. An outcome code is
    2 x category + health-insured, the category indexing `probability`.
    """

    probability: np.ndarray  # per category: condition by condition, home, hospital, death
    p_insured: float         # health insurance
    p_home_insured: float
    # Per outcome code: whether the occupant dies. The categories run
    # condition by condition, each recovered at home, recovered in hospital,
    # death; each has an uninsured (even) and an insured (odd) code.
    death: ClassVar[np.ndarray] = np.repeat(np.tile([False, False, True], len(CONDITIONS)), 2)
    death.flags.writeable = False

    @classmethod
    def from_distributions(cls, dists: HealthDistributions) -> "OutcomeTable":
        def share(rate):
            return TruncNormal(*rate).mean() / 100.0

        p_cardiac = share(dists.pre_existing_cardiac)
        p_resp = respiratory_share_pct(TruncNormal(*dists.pre_existing_cardiac),
                                       TruncNormal(*dists.pre_existing_respiratory)) / 100.0
        access = share(dists.healthcare_access)
        probability = []
        for c, p_cond in zip(CONDITIONS, (p_cardiac, p_resp, max(1.0 - p_cardiac - p_resp, 0.0))):
            hospital = access * share(dists.hospital_survival[c])
            home = (1.0 - access) * share(dists.home_survival[c])
            probability += [p_cond * home, p_cond * hospital, p_cond * (1.0 - hospital - home)]
        return cls(np.array(probability), share(dists.health_insurance),
                   share(dists.home_insurance))

    @property
    def p_death(self) -> float:
        """P(death | at risk)."""
        return float(self.probability[self.death[::2]].sum())  # even codes: one per category


def resolve_at_risk(m: int, table: OutcomeTable, rng: np.random.Generator) -> np.ndarray:
    """The outcome codes of `m` at-risk occupants, 2 x category + insured.

    One uniform per occupant picks its category against the table's
    cumulative probabilities; a second one, below P(insured), sets its
    health-insurance flag. Every category is a recovery at home, a recovery
    in hospital or a death.
    """
    u = rng.random((2, m))
    category = np.searchsorted(np.cumsum(table.probability[:-1]), u[0], side="right")
    return 2 * category + (u[1] < table.p_insured)
