"""Damage-function models: mortality risk, occupant outcomes, productivity,
and the freeze-damage index.

The mortality model maps indoor temperature to a relative risk (RR >= 1,
equal to 1 at the comfort minimum), averages it over the event to get a
per-occupant mortality probability, then resolves each occupant through a
probability tree: at-risk event -> pre-existing condition -> care access ->
survival. Productivity maps indoor temperature to relative work performance
in [0, 1]. The winter freeze index accumulates (temperature deficit x
moisture excess) whenever both cross their critical levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import defaults
from .errors import ConfigurationError

_GRID_STEP_C = 0.1


@dataclass(frozen=True)
class CurveSpec:
    """JSON form of a curve model: its coefficients, or the points to fit
    (by default the shipped anchors, over the shipped `valid_range_c`)."""

    coefficients_high_to_low: tuple[float, ...] | None = None
    valid_range_c: tuple[float, float] | None = None
    fit_points: tuple[tuple[float, float], ...] | None = None
    fit_max_abs_residual: float | None = None


@dataclass(frozen=True)
class CurveModel:
    """Polynomial of temperature whose extremum over its valid range is 1.
    Subclasses set the degree, the extremum ("minimum" or "maximum"), its
    tolerance (below, above), the shipped anchors and range, and `evaluate`."""

    coefficients: tuple[float, ...]  # highest power first
    t_min_c: float
    t_max_c: float
    fit_points: tuple = ()
    fit_residual: float = 0.0

    NAME = DEGREE = EXTREMUM = TOLERANCE = ANCHORS = VALID_RANGE_C = None

    def __post_init__(self):
        extremum = self._extremum(self.coefficients, self.t_min_c, self.t_max_c)
        below, above = self.TOLERANCE
        if not 1.0 - below <= extremum <= 1.0 + above:
            raise ConfigurationError(
                f"{self.NAME} curve {self.EXTREMUM} over its range is "
                f"{extremum!r}; expected 1 (renormalize via from_points)"
            )

    @classmethod
    def _extremum(cls, coefficients, t_min_c: float, t_max_c: float) -> float:
        """The normalized extremum over a grid spanning the valid range."""
        if t_max_c <= t_min_c:
            raise ConfigurationError(
                f"invalid temperature range [{t_min_c}, {t_max_c}] for the {cls.NAME} curve")
        grid = np.arange(t_min_c, t_max_c + _GRID_STEP_C / 2, _GRID_STEP_C)
        values = np.polyval(coefficients, grid)
        return float(values.min() if cls.EXTREMUM == "minimum" else values.max())

    @classmethod
    def from_points(cls, points, t_min_c: float, t_max_c: float):
        """Least-squares fit to (temperature, value) anchors, extremum -> 1."""
        xs = np.array([p[0] for p in points], dtype=float)
        ys = np.array([p[1] for p in points], dtype=float)
        if len(xs) <= cls.DEGREE:
            raise ConfigurationError(
                f"need more than {cls.DEGREE} points for a degree-{cls.DEGREE} fit")
        coeffs = np.polyfit(xs, ys, cls.DEGREE)
        extremum = cls._extremum(coeffs, t_min_c, t_max_c)
        if extremum <= 0:
            raise ConfigurationError(f"fitted {cls.NAME} curve is non-positive over its range")
        return cls(
            coefficients=tuple(float(c) for c in coeffs / extremum),
            t_min_c=t_min_c,
            t_max_c=t_max_c,
            fit_points=tuple((float(t), float(v)) for t, v in points),
            fit_residual=float(np.abs(np.polyval(coeffs, xs) - ys).max()),
        )

    @classmethod
    def default(cls):
        return cls.from_points(cls.ANCHORS, *cls.VALID_RANGE_C)

    @classmethod
    def from_json(cls, data: CurveSpec):
        lo, hi = data.valid_range_c or cls.VALID_RANGE_C
        if data.coefficients_high_to_low is not None:
            return cls(data.coefficients_high_to_low, lo, hi, data.fit_points or (),
                       data.fit_max_abs_residual or 0.0)
        if data.fit_max_abs_residual is not None:
            raise ConfigurationError("fit_max_abs_residual is computed by the fit; it is "
                                     "read only beside coefficients_high_to_low")
        points = cls.ANCHORS if data.fit_points is None else data.fit_points
        return cls.from_points(points, lo, hi)

    def _polyval(self, t_in_c):
        """`np.polyval` of the coefficients at clamp(t, valid range), by its
        own steps y = y * t + c from y = 0, run in place on one array: the
        same bits, without two temporaries per coefficient."""
        t = np.clip(np.asarray(t_in_c, dtype=float), self.t_min_c, self.t_max_c)
        y = np.zeros_like(t)
        for c in self.coefficients:
            y *= t
            y += c
        return y

    def to_json(self) -> dict:
        """The curve's provenance: coefficients, range, fit points and residual."""
        return {
            "coefficients_high_to_low": list(self.coefficients),
            "valid_range_c": [self.t_min_c, self.t_max_c],
            "fit_points": [list(p) for p in self.fit_points],
            "fit_max_abs_residual": self.fit_residual,
        }


class RRModel(CurveModel):
    """Quartic relative-risk-of-mortality curve, minimum normalized to 1."""

    NAME, DEGREE, EXTREMUM, TOLERANCE = "mortality", 4, "minimum", (1e-9, 1e-6)
    ANCHORS, VALID_RANGE_C = defaults.RR_CURVE_ANCHORS, defaults.RR_VALID_RANGE_C

    def evaluate(self, t_in_c):
        """RR at clamp(t, valid range); floors at 1 to absorb fit wiggle."""
        y = self._polyval(t_in_c)
        return np.maximum(y, 1.0 - 1e-9, out=y if y.ndim else None)


def mortality_probability(mean_rr, delta: float = 0.0):
    """Mortality probability from event-mean RR: excess risk plus delta in [0, 1]."""
    return np.clip(np.asarray(mean_rr, dtype=float) - 1.0 + delta, 0.0, 1.0)


class ProductivityModel(CurveModel):
    """Cubic relative-performance curve, maximum normalized to 1, clamped to [0, 1]."""

    NAME, DEGREE, EXTREMUM, TOLERANCE = "productivity", 3, "maximum", (1e-6, 1e-9)
    ANCHORS = defaults.PRODUCTIVITY_ANCHORS
    VALID_RANGE_C = defaults.PRODUCTIVITY_VALID_RANGE_C

    def evaluate(self, t_in_c):
        y = self._polyval(t_in_c)
        return np.clip(y, 0.0, 1.0, out=y if y.ndim else None)


@dataclass(frozen=True)
class WinterIndexParams:
    """Critical levels for freeze damage accumulation."""

    t_crit_c: float = defaults.WI_T_CRIT_C
    rh_crit_pct: float = defaults.WI_RH_CRIT_PCT
    indoor_rh_pct: float | None = None  # None: use the outdoor humidity series

    def __post_init__(self):
        if not 0.0 <= self.rh_crit_pct <= 100.0:
            raise ConfigurationError("critical humidity must lie in [0, 100]")


def winter_index_sum(t_in_c, rh_pct, params: WinterIndexParams) -> float:
    """Accumulated freeze index: sum of (T_crit - T)(RH - RH_crit) over
    steps where T < T_crit and RH > RH_crit; zero otherwise."""
    t = np.asarray(t_in_c, dtype=float)
    if params.indoor_rh_pct is not None:
        rh = np.full(t.shape, float(params.indoor_rh_pct))
    else:
        rh = np.asarray(rh_pct, dtype=float)
        if rh.shape != t.shape:
            raise ConfigurationError(
                f"humidity length {rh.shape} does not match trace length {t.shape}"
            )
    gate = (t < params.t_crit_c) & (rh > params.rh_crit_pct)
    if not gate.any():
        return 0.0
    contrib = (params.t_crit_c - t[gate]) * (rh[gate] - params.rh_crit_pct)
    return float(contrib.sum())


def winter_index_rows(t_in_c, rh_pct, params: WinterIndexParams) -> np.ndarray:
    """`winter_index_sum` of every row of a (buildings x steps) block.

    Only rows with a gated step are reduced, each by `winter_index_sum`, so
    every sum adds the same elements in the same order as the one-trace form.
    """
    rh = params.indoor_rh_pct if params.indoor_rh_pct is not None else np.asarray(rh_pct)
    gated = ((t_in_c < params.t_crit_c) & (rh > params.rh_crit_pct)).any(axis=1)
    sums = np.zeros(len(t_in_c))
    for row in np.flatnonzero(gated):
        sums[row] = winter_index_sum(t_in_c[row], rh_pct, params)
    return sums


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@dataclass(frozen=True)
class TruncNormal:
    """Normal(mean, std) restricted to [lo, hi] by rejection sampling."""

    mean: float
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
                f"Normal({self.mean}, {self.std}); rejection sampling would stall"
            )

    @classmethod
    def from_json(cls, data: tuple[float, float, float, float]) -> "TruncNormal":
        return cls(*data)

    def to_json(self) -> list:
        return [self.mean, self.std, self.lo, self.hi]

    def acceptance_probability(self) -> float:
        return _normal_cdf((self.hi - self.mean) / self.std) - _normal_cdf(
            (self.lo - self.mean) / self.std
        )

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """`size` draws by rejection: redraw every value outside [lo, hi]."""
        out = rng.normal(self.mean, self.std, size=size)
        bad = (out < self.lo) | (out > self.hi)
        while bad.any():
            out[bad] = rng.normal(self.mean, self.std, size=int(bad.sum()))
            bad = (out < self.lo) | (out > self.hi)
        return out


class Condition(str, Enum):
    CARDIAC = "cardiac"
    RESPIRATORY = "respiratory"
    HYPOTHERMIA_FROST = "hypothermia_frost"
    NONE = "none"


CONDITIONS = (Condition.CARDIAC, Condition.RESPIRATORY, Condition.HYPOTHERMIA_FROST)

# Integer codes for the vectorized outcome path.
STATUS_UNAFFECTED, STATUS_HOME, STATUS_HOSPITAL, STATUS_DEATH = 0, 1, 2, 3


def _pct(name: str):
    return field(default_factory=lambda: TruncNormal(*defaults.HEALTH_STATS_PCT[name]))


def _survival(table: dict):
    return field(default_factory=lambda: {Condition(k): TruncNormal(*v)
                                          for k, v in table.items()})


@dataclass(frozen=True)
class HealthDistributions:
    """Per-occupant rate distributions of the outcome tree, percent scale."""

    pre_existing_cardiac: TruncNormal = _pct("pre_existing_cardiac")
    pre_existing_respiratory: TruncNormal = _pct("pre_existing_respiratory")
    healthcare_access: TruncNormal = _pct("healthcare_access")
    health_insurance: TruncNormal = _pct("health_insurance")
    home_insurance: TruncNormal = _pct("home_insurance")
    hospital_survival: dict[Condition, TruncNormal] = _survival(defaults.HOSPITAL_SURVIVAL_PCT)
    home_survival: dict[Condition, TruncNormal] = _survival(defaults.HOME_SURVIVAL_PCT)

    def __post_init__(self):
        for name in ("hospital_survival", "home_survival"):
            if set(getattr(self, name)) != set(CONDITIONS):
                raise ConfigurationError(f"{name} needs exactly the conditions "
                                         f"{', '.join(c.value for c in CONDITIONS)}")


@dataclass(frozen=True)
class HazardConfig:
    """All damage-model parameters for one run; fields mirror the `hazard` section."""

    delta: float = defaults.MORTALITY_DURATION_DELTA
    rr_model: RRModel = field(default_factory=RRModel.default)
    productivity_model: ProductivityModel = field(default_factory=ProductivityModel.default)
    winter_index: WinterIndexParams = field(default_factory=WinterIndexParams)
    distributions_pct: HealthDistributions = field(default_factory=HealthDistributions)

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ConfigurationError(f"delta must lie in [0, 1], got {self.delta}")


@dataclass(frozen=True)
class OutcomeBatch:
    """Vectorized occupant outcomes (integer status codes)."""

    status: np.ndarray      # 0 unaffected, 1 home-recovered, 2 hospital-recovered, 3 death
    condition: np.ndarray   # index into CONDITIONS, -1 for none
    insured: np.ndarray     # health-insurance flag per occupant


def resolve_at_risk(m: int, cfg: HazardConfig, rng: np.random.Generator) -> OutcomeBatch:
    """Walk `m` at-risk occupants down the outcome tree.

    Each occupant gets fresh draws of their pre-existing-condition rates,
    care access and survival probabilities from the configured
    distributions, then a condition, a care venue and survival; each also
    draws a health-insurance flag. Every status is home-recovered,
    hospital-recovered or death.
    """
    dists = cfg.distributions_pct
    if m == 0:
        return OutcomeBatch(np.zeros(0, dtype=np.int8), np.zeros(0, dtype=np.int8),
                            np.zeros(0, dtype=bool))
    p_c = dists.pre_existing_cardiac.sample(rng, m) / 100.0
    p_r = dists.pre_existing_respiratory.sample(rng, m) / 100.0
    u_cond = rng.random(m)
    is_cardiac = u_cond < p_c
    # Renormalized second branch keeps the respiratory marginal at its rate.
    u_resp = rng.random(m)
    is_resp = ~is_cardiac & (u_resp < p_r / np.maximum(1.0 - p_c, 1e-12))
    cond = np.full(m, 2, dtype=np.int8)  # hypothermia/frost unless overridden
    cond[is_cardiac] = 0
    cond[is_resp] = 1

    accessed = rng.random(m) < dists.healthcare_access.sample(rng, m) / 100.0
    # Survival rates are drawn group by group in a fixed (venue, condition)
    # order, hospital first, each group's occupants in index order.
    group = np.where(accessed, 0, len(CONDITIONS)) + cond
    counts = np.bincount(group, minlength=2 * len(CONDITIONS)).tolist()
    tables = [dists.hospital_survival[c] for c in CONDITIONS] + \
        [dists.home_survival[c] for c in CONDITIONS]
    survival_p = np.empty(m)
    survival_p[np.argsort(group, kind="stable")] = np.concatenate(
        [table.sample(rng, count) for table, count in zip(tables, counts) if count]) / 100.0
    survived = rng.random(m) < survival_p
    insured = rng.random(m) < dists.health_insurance.sample(rng, m) / 100.0

    status = np.where(~survived, STATUS_DEATH,
                      np.where(accessed, STATUS_HOSPITAL, STATUS_HOME)).astype(np.int8)
    return OutcomeBatch(status, cond, insured)
