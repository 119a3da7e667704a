"""Shipped default parameters for the demo configuration.

Sources are noted where the values track public data (BLS wage tables,
FEMA/DOT guidance, Texas health-survey rates). Cost tables for power
interruption are order-of-magnitude placeholders and must be explicitly
acknowledged in the config before a study run (see valuation module).
All values here can be overridden from the scenario config file.
"""

# Value of statistical life, USD per life.
VSL_FEMA_USD = 11.6e6  # FEMA benefit-cost analysis guidance


# Average hourly pay rate by building type, USD/h (BLS, Texas).
WAGE_USD_PER_HOUR = {
    "single_family": 45.51,
    "multi_family": 45.51,
    "mobile_home": 45.51,
    "office": 37.88,
    "warehouse_storage": 15.49,
    "big_box": 29.36,
    "strip_mall": 22.38,
    "education": 27.95,
    "food_service": 13.40,
    "food_sales": 15.64,
    "lodging": 13.44,
    "healthcare": 43.15,
    "low_occupancy": 21.41,
}


# Occupant health statistics, percent scale: (mean, std, min, max).
# Pre-existing condition rates follow Texas health-survey values; insurance
# rates follow Texas Medical Association / Real Estate Research Center data.
HEALTH_STATS_PCT = {
    "pre_existing_cardiac": (5.1, 1.0, 0.0, 100.0),
    "pre_existing_respiratory": (7.3, 1.0, 0.0, 100.0),
    "health_insurance": (79.4, 3.0, 0.0, 100.0),
    "healthcare_access": (89.4, 3.0, 0.0, 100.0),
    "home_insurance": (95.9, 3.0, 0.0, 100.0),
}

# Survival rates once a severe health event occurs, percent scale, keyed by
# condition, split by whether the person reached professional care.
HOSPITAL_SURVIVAL_PCT = {
    "cardiac": (89.3, 1.0, 0.0, 100.0),
    "respiratory": (83.0, 1.0, 0.0, 100.0),
    "hypothermia_frost": (91.9, 3.0, 0.0, 100.0),
}
HOME_SURVIVAL_PCT = {
    "cardiac": (19.3, 1.0, 0.0, 100.0),
    "respiratory": (13.0, 1.0, 0.0, 100.0),
    "hypothermia_frost": (78.9, 1.0, 0.0, 100.0),
}


# Medical cost ranges per treated case, USD (min, max), by insurance status.
MEDICAL_COST_INSURED_USD = {
    "cardiac": (1014.0, 6282.0),
    "respiratory": (1014.0, 6282.0),
    "hypothermia_frost": (1014.0, 6282.0),
}
MEDICAL_COST_UNINSURED_USD = {
    "cardiac": (3162.0, 15348.0),
    "respiratory": (3162.0, 15348.0),
    "hypothermia_frost": (3162.0, 15348.0),
}

# Frozen-pipe repair cost ranges, USD (min, max).
PIPE_REPAIR_INSURED_USD = (500.0, 2000.0)
PIPE_REPAIR_UNINSURED_USD = (600.0, 5000.0)


# Freeze-damage index critical levels: accumulate damage only when indoor
# temperature is below T_CRIT and humidity is above RH_CRIT.
WI_T_CRIT_C = 0.0
WI_RH_CRIT_PCT = 80.0

# Severity scale: mortality probability at which medical cost hits the range
# maximum. Roughly the largest excess risk the default curve can produce.
MEDICAL_SEVERITY_CEILING = 0.5

# Cost of a health event recovered at home, as a fraction of the insured
# medical-cost range minimum.
HOME_CARE_COST_FRACTION = 0.25

# Additive adjustment to the mortality probability for event duration/severity.
MORTALITY_DURATION_DELTA = 0.0


# Envelope parameters per insulation class: UA per floor area (W/K.m2) and
# lumped thermal mass per floor area (J/K.m2). Seven integrity levels, worst
# to best; decay time constants span roughly 20 h to 83 h.
INSULATION_TABLE = {
    "little": {"ua_w_per_k_m2": 3.2, "mass_j_per_k_m2": 230e3},
    "poor": {"ua_w_per_k_m2": 2.6, "mass_j_per_k_m2": 240e3},
    "below_average": {"ua_w_per_k_m2": 2.2, "mass_j_per_k_m2": 250e3},
    "average": {"ua_w_per_k_m2": 1.8, "mass_j_per_k_m2": 255e3},
    "above_average": {"ua_w_per_k_m2": 1.5, "mass_j_per_k_m2": 260e3},
    "good": {"ua_w_per_k_m2": 1.2, "mass_j_per_k_m2": 265e3},
    "very_good": {"ua_w_per_k_m2": 0.9, "mass_j_per_k_m2": 270e3},
}

# Default insulation mix for synthesized populations (probability weights).
INSULATION_WEIGHTS = {
    "little": 0.06,
    "poor": 0.14,
    "below_average": 0.20,
    "average": 0.25,
    "above_average": 0.17,
    "good": 0.12,
    "very_good": 0.06,
}

# Residential household-size weights; mean 2.5 occupants.
OCCUPANT_COUNT_WEIGHTS = {1: 0.24, 2: 0.35, 3: 0.20, 4: 0.12, 5: 0.06, 6: 0.03}

# Electrically supplied internal gains are ignored; this is the constant
# metabolic/plug gain applied to occupied buildings, W.
INTERNAL_GAIN_W = 200.0

# Electric draw of a gas furnace's air handler when heating, kW.
GAS_BLOWER_KW = 0.5

# HVAC sizing: heat output = UA * (setpoint - design outdoor temp) * oversize.
HVAC_DESIGN_OUTDOOR_C = -15.0
HVAC_OVERSIZE_FACTOR = 1.25

THERMOSTAT_SETPOINT_C = 20.0
THERMOSTAT_DEADBAND_C = 1.0


# Per-kind synthesis profiles: floor-area range (m2), annual-consumption
# range (kWh/yr), and for commercial kinds a worker-count range.
RESIDENTIAL_PROFILES = {
    "single_family": {"floor_m2": (90.0, 280.0), "kwh": (9000.0, 21000.0)},
    "multi_family": {"floor_m2": (50.0, 120.0), "kwh": (5000.0, 12000.0)},
    "mobile_home": {"floor_m2": (50.0, 110.0), "kwh": (7000.0, 15000.0)},
}
COMMERCIAL_PROFILES = {
    "office": {"floor_m2": (800.0, 3000.0), "workers": (15, 40), "kwh": (250000.0, 450000.0)},
    "warehouse_storage": {"floor_m2": (2000.0, 8000.0), "workers": (5, 15), "kwh": (200000.0, 400000.0)},
    "big_box": {"floor_m2": (3000.0, 10000.0), "workers": (25, 60), "kwh": (900000.0, 1500000.0)},
    "strip_mall": {"floor_m2": (500.0, 2000.0), "workers": (8, 20), "kwh": (120000.0, 240000.0)},
    "education": {"floor_m2": (1500.0, 6000.0), "workers": (20, 60), "kwh": (300000.0, 500000.0)},
    "food_service": {"floor_m2": (200.0, 800.0), "workers": (8, 25), "kwh": (180000.0, 320000.0)},
    "food_sales": {"floor_m2": (400.0, 1500.0), "workers": (6, 15), "kwh": (220000.0, 380000.0)},
    "lodging": {"floor_m2": (1000.0, 5000.0), "workers": (5, 20), "kwh": (250000.0, 450000.0)},
    "healthcare": {"floor_m2": (1000.0, 6000.0), "workers": (20, 60), "kwh": (350000.0, 650000.0)},
    "low_occupancy": {"floor_m2": (300.0, 2000.0), "workers": (1, 5), "kwh": (50000.0, 110000.0)},
}

# Share of residential occupants who work from home, share of jobs that
# cannot proceed without power, electric-heat share, and backup-equipment
# share for commercial premises.
WFH_SHARE = 0.35
POWER_REQUIRED_SHARE_RESIDENTIAL = 0.5
POWER_REQUIRED_SHARE_COMMERCIAL = 0.7
ELECTRIC_HEAT_SHARE = 0.6
COMMERCIAL_BACKUP_SHARE = 0.25

# Working hours valued for productivity loss, local clock [start, end).
WORK_HOURS_RESIDENTIAL = (8, 16)   # 8 h/day work-from-home
WORK_HOURS_COMMERCIAL = (8, 17)    # business hours


# Demo population: 1308 residential + 95 commercial premises. The
# commercial mix is spread uniformly across the ten kinds (an assumption;
# no per-kind census is bundled).
DEMO_COUNTS = {
    "single_family": 981,
    "multi_family": 222,
    "mobile_home": 105,
    "office": 10,
    "warehouse_storage": 10,
    "big_box": 10,
    "strip_mall": 10,
    "education": 10,
    "food_service": 9,
    "food_sales": 9,
    "lodging": 9,
    "healthcare": 9,
    "low_occupancy": 9,
}


# Anchor points (temperature degC, relative mortality risk) for the default
# cold-mortality curve: a smooth city-specific shape with its minimum at
# 20 degC rising to 1.5 at -15 degC. A quartic is least-squares fitted to
# these anchors at config build time and renormalized so the fitted minimum
# is exactly 1; the fit residual is recorded in the run manifest.
RR_CURVE_ANCHORS = [
    (-15.0, 1.500000),
    (-12.5, 1.371733),
    (-10.0, 1.269888),
    (-7.5, 1.190559),
    (-5.0, 1.130154),
    (-2.5, 1.085394),
    (0.0, 1.053311),
    (2.5, 1.031250),
    (5.0, 1.016868),
    (7.5, 1.008135),
    (10.0, 1.003332),
    (12.5, 1.001054),
    (15.0, 1.000208),
    (17.5, 1.000013),
    (20.0, 1.000000),
    (22.5, 1.000013),
    (25.0, 1.000208),
    (27.5, 1.001054),
    (30.0, 1.003332),
]
RR_VALID_RANGE_C = (-15.0, 30.0)

# Anchor points (temperature degC, relative work performance) for the
# default productivity curve, peaking near 22 degC. A cubic is fitted and
# renormalized so its maximum over the valid range is exactly 1.
PRODUCTIVITY_ANCHORS = [
    (10.0, 0.6586),
    (12.0, 0.7770),
    (14.0, 0.8668),
    (16.0, 0.9309),
    (18.0, 0.9723),
    (20.0, 0.9940),
    (22.0, 0.9989),
    (24.0, 0.9902),
    (26.0, 0.9707),
    (28.0, 0.9435),
    (30.0, 0.9115),
    (32.0, 0.8777),
]
PRODUCTIVITY_VALID_RANGE_C = (10.0, 32.0)


# Power-interruption cost tables, USD. Placeholder magnitudes patterned on
# published interruption-cost surveys: per-event base, per-hour charge
# (capped at 16 h), per-kWh charge on average load, and a linear per-hour
# slope beyond the 16 h cap. Three sectors; medium and large C&I share one.
CIC_TABLES = {
    "residential": {"base": 5.0, "per_hour": 2.0, "per_kwh": 1.5, "slope_beyond_cap": 3.0},
    "small_ci": {"base": 200.0, "per_hour": 150.0, "per_kwh": 2.0, "slope_beyond_cap": 100.0},
    "large_medium_ci": {"base": 5000.0, "per_hour": 2500.0, "per_kwh": 1.0, "slope_beyond_cap": 1500.0},
}
CIC_SEASON_MULTIPLIER = 1.0       # winter event baseline
CIC_INDUSTRY_MULTIPLIER = 1.0     # flat default across business types
CIC_INCOME_MULTIPLIER = {"median": 1.0}
CIC_BACKUP_DISCOUNT = 0.85        # small C&I with backup equipment
CIC_DURATION_CAP_H = 16.0
