"""Cross-scenario comparison and exposure reporting over completed runs."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .population import INSULATION_ORDER, Insulation
from .tables import cell_parser, fixed, read_csv, save_csv
from .valuation import METRICS


def _load_run(run_dir: Path) -> dict:
    """A run's summary, with a number at every key that `compare` reads."""
    summary_path = run_dir / "summary.json"
    if not summary_path.exists():
        raise ConfigurationError(f"no summary.json in {run_dir}; not a completed run")
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigurationError(f"{summary_path} is not valid JSON: {exc}") from exc
    for key in [(m, "mean") for m in METRICS] + [("mean_rr_population",)]:
        value = summary
        for part in key:
            value = value.get(part) if isinstance(value, dict) else None
        if type(value) not in (int, float):
            raise ConfigurationError(f"{summary_path} has no number at key {'.'.join(key)!r}")
    return summary


def _delta_pct(value: float, baseline: float) -> float | None:
    """Percentage change against the baseline; undefined (None) against a
    zero baseline unless the value is zero too."""
    if baseline:
        return (value - baseline) / baseline * 100.0
    return 0.0 if value == 0 else None


def compare_scenarios(run_dirs, out_path) -> list[dict]:
    """Tabulate mean costs across runs sharing one population.

    Rows cover each cost component, totals, deaths/injuries, and the
    population-mean relative risk; every row carries the percentage delta
    of each scenario against the first one, None where the first is 0 and
    the other is not. Runs are labelled by scenario; when two share one,
    every run is labelled by its directory as given. Runs over different
    populations are rejected. The rows are also written as CSV to
    `out_path`.
    """
    dirs = [Path(d) for d in run_dirs]
    if len(dirs) < 2:
        raise ConfigurationError("compare needs at least two run directories")
    summaries = [_load_run(d) for d in dirs]
    digests = {s.get("population_digest") for s in summaries}
    if len(digests) != 1:
        raise ConfigurationError(
            "runs use different populations; comparisons must share one population "
            f"(digests: {sorted(str(d)[:12] for d in digests)})"
        )
    labels = [s.get("scenario", d.name) for s, d in zip(summaries, dirs)]
    if len(set(labels)) < len(labels):
        labels = [str(d) for d in run_dirs]
    if len(set(labels)) < len(labels):
        labels = [f"{lb}#{i}" for i, lb in enumerate(labels, 1)]

    columns = [(f"{m}_mean", [s[m]["mean"] for s in summaries]) for m in METRICS]
    columns.append(("mean_rr_population", [s["mean_rr_population"] for s in summaries]))
    rows: list[dict] = []
    for metric, means in columns:
        row = {"metric": metric, **dict(zip(labels, means))}
        row.update((f"{lb}_delta_pct", _delta_pct(v, means[0])) for lb, v in zip(labels, means))
        rows.append(row)

    header = ["metric"] + labels + [f"{lb}_delta_pct" for lb in labels]
    save_csv(out_path, header, [([r[k] for r in rows],
                                 lambda v: f"{v:.4f}" if isinstance(v, float) else v)
                                for k in header])
    return rows


def format_comparison(rows: list[dict]) -> str:
    labels = [k for k in rows[0] if k != "metric" and not k.endswith("_delta_pct")]
    # Directory labels can be longer than a number's column.
    width = max([16] + [len(lb) + 2 for lb in labels])
    header = f"{'metric':<22}" + "".join(f"{lb:>{width}}" for lb in labels)
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = "".join(f"{row[lb]:>{width},.2f}" for lb in labels)
        lines.append(f"{row['metric']:<22}" + cells)
        deltas = "".join(f"{'n/a':>{width}}" if d is None else f"{d:>+{width - 1}.1f}%"
                         for d in (row[f"{lb}_delta_pct"] for lb in labels))
        lines.append(f"{'  vs first (%)':<22}" + deltas)
    return "\n".join(lines)


def export_exposure(run_dir) -> list[dict]:
    """Summarize a run's exposure table by insulation class.

    Returns one row per insulation class present: building count, mean of
    the per-building mean and minimum indoor temperatures, and mean relative
    risk. Writes `insulation_summary.csv` next to the run. A missing column,
    an unknown class or a value that is not a finite number raises
    IngestionError naming the first such cell.
    """
    run_dir = Path(run_dir)
    exposure_path = run_dir / "exposure.csv"
    if not exposure_path.exists():
        raise ConfigurationError(f"no exposure.csv in {run_dir}; not a completed run")
    number = cell_parser(float)
    columns = read_csv(exposure_path, {"insulation": cell_parser(Insulation),
                                       "mean_t_in_c": number, "min_t_in_c": number,
                                       "mean_rr": number})
    if not columns["insulation"]:
        raise ConfigurationError(f"exposure table in {run_dir} is empty")

    # bincount adds each class's values in row order, one at a time.
    insulation, *temperatures_and_rr = map(np.array, columns.values())
    counts = np.bincount(insulation, minlength=len(INSULATION_ORDER))
    present = np.flatnonzero(counts)
    classes = [INSULATION_ORDER[k].value for k in present.tolist()]
    n = counts[present]
    means = [np.bincount(insulation, weights=values, minlength=len(counts))[present] / n
             for values in temperatures_and_rr]
    header = ("insulation", "n_buildings", "mean_t_in_c", "mean_min_t_in_c", "mean_rr")
    save_csv(run_dir / "insulation_summary.csv", header,
             [(classes, None), (n, None)] + [(m, fixed(6)) for m in means])
    return [dict(zip(header, row))
            for row in zip(classes, n.tolist(), *(m.tolist() for m in means))]


def format_exposure(rows: list[dict]) -> str:
    header = (f"{'insulation':<16}{'buildings':>10}{'mean t_in':>12}"
              f"{'mean min t_in':>15}{'mean RR':>10}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['insulation']:<16}{row['n_buildings']:>10}"
            f"{row['mean_t_in_c']:>12.2f}{row['mean_min_t_in_c']:>15.2f}"
            f"{row['mean_rr']:>10.4f}"
        )
    return "\n".join(lines)
