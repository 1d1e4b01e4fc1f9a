"""Parameter sweeps, figure-data reproduction, oracle runs and CSV output.

Output files are deterministic: a fixed configuration (including the seed)
always produces byte-identical bytes.  Floats are printed with 17
significant digits so parsing a file recovers every value bit-exactly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .core import (
    CRITERIA,
    Couplings,
    CriteriaTable,
    MomentMethod,
    RegimeKind,
    Sign,
    SweepResult,
    TauConvention,
    classify_regime,
)
from .criteria import criteria_values
from .oracle import compare_moments, mc_moments, rk4_propagator
from .propagator import closed_form_moments, moment_entries, moments_at, outer_moments

__all__ = [
    "RK4_STEPS_PER_UNIT_TAU",
    "FIGURE_PRESETS",
    "RunConfig",
    "time_scale",
    "run_sweep",
    "sweep_csv_text",
    "write_sweep_csv",
    "reproduce_figure",
    "run_oracle_check",
    "load_config_file",
]

#: Step density used by the rk4 comparison in oracle runs.
RK4_STEPS_PER_UNIT_TAU = 10_000

_SWEEP_COLUMNS = ("tau",) + CRITERIA
_VLF_COLUMNS = ("tau",) + CRITERIA[:6]
_OBR_PAIR_COLUMNS = ("tau",) + CRITERIA[12:]

#: Figure presets: the published ratios with the other coupling pinned to 1,
#: tau = rate * t on [0, 3].  The source ranges are not stated numerically,
#: so the sweep window is a choice and stays user-overridable.
FIGURE_PRESETS = {
    1: ("vlf", ((1.2, 1.0),)),
    2: ("vlf", ((1.0, 1.8),)),
    3: ("obr_single", ((1.2, 1.0), (1.0, 1.8))),
    4: ("obr_pair", ((1.2, 1.0),)),
    5: ("obr_pair", ((1.0, 1.8),)),
}


def _fmt(x):
    return format(float(x), ".17g")


@dataclass(frozen=True)
class RunConfig:
    """Everything a sweep, figure or oracle run needs.

    Each field is also a CLI flag and a config-file key of the same name
    (underscores or dashes); out is the output path or directory.
    """

    kappa1: float = 1.2
    kappa2: float = 1.0
    tau_min: float = 0.0
    tau_max: float = 3.0
    points: int = 301
    tau_convention: TauConvention = TauConvention.RATE
    sign: Sign = Sign.PLUS
    seed: int = 1
    mc_samples: int = 10**6
    out: str | None = None

    def __post_init__(self):
        Couplings(self.kappa1, self.kappa2)
        if not (math.isfinite(self.tau_min) and self.tau_min >= 0):
            raise ValueError(f"tau_min must be finite and >= 0, got {self.tau_min!r}")
        if not (math.isfinite(self.tau_max) and self.tau_max > self.tau_min):
            raise ValueError("tau_max must exceed tau_min")
        if self.points < 2:
            raise ValueError(f"points must be >= 2, got {self.points!r}")
        if self.mc_samples < 1:
            raise ValueError(f"mc_samples must be >= 1, got {self.mc_samples!r}")

    @property
    def couplings(self):
        return Couplings(self.kappa1, self.kappa2)

    def taus(self):
        return np.linspace(self.tau_min, self.tau_max, self.points)


def _scale(c, regime, convention):
    if convention is TauConvention.MAX_KAPPA or regime.kind is RegimeKind.DEGENERATE:
        return c.kappa_max
    return regime.rate


def time_scale(c, convention):
    """Frequency that converts dimensionless tau to raw time, t = tau / scale.

    RATE uses the regime rate (Omega or xi); degenerate couplings have rate
    zero, so RATE falls back to max(kappa1, kappa2) there, which MAX_KAPPA
    uses always.
    """
    if convention is TauConvention.MAX_KAPPA:
        return c.kappa_max
    return _scale(c, classify_regime(c), convention)


def run_sweep(cfg):
    """Evaluate every criterion on a uniform tau grid, as one array pass.

    The regime is classified once; moment_entries and criteria_values then
    run on the whole grid, the same arithmetic moments_at and evaluate_all
    run on a batch of one.  Raises ValueError when a value overflows.
    """
    c = cfg.couplings
    regime = classify_regime(c)
    taus = cfg.taus()
    ts = taus / _scale(c, regime, cfg.tau_convention)
    with np.errstate(all="ignore"):
        x, y = moment_entries(c, regime, ts)
        values = np.column_stack(criteria_values(x, y, cfg.sign))
    return SweepResult(taus, CriteriaTable(ts, values, cfg.sign), cfg)


def _csv_lines(metadata, columns, table):
    """Metadata lines, the header, then one '%.17g' row per line of table,
    the same text as format(v, ".17g") per value."""
    lines = [f"# {key} = {value}" for key, value in metadata]
    lines.append(",".join(columns))
    row = ",".join(["%.17g"] * len(columns))
    lines.extend(row % tuple(values) for values in table.tolist())
    return "\n".join(lines) + "\n"


def sweep_csv_text(result):
    """Render a SweepResult as CSV text with '#' metadata lines."""
    meta = result.meta
    metadata = [
        ("kappa1", _fmt(meta.kappa1)),
        ("kappa2", _fmt(meta.kappa2)),
        ("tau_convention", meta.tau_convention.value),
    ]
    if len(result.reports):
        metadata.append(("sign", result.reports.sign.value))
    return _csv_lines(
        metadata, _SWEEP_COLUMNS, np.column_stack([result.taus, result.reports.values])
    )


def write_sweep_csv(result, path):
    text = sweep_csv_text(result)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


#: Criterion columns plotted by each figure kind, per panel.
_FIGURE_SLICES = {"vlf": slice(0, 6), "obr_single": slice(9, 12), "obr_pair": slice(12, 15)}


def _figure_table(kind, sweeps):
    panels = [s.reports.values[:, _FIGURE_SLICES[kind]] for s in sweeps]
    return np.column_stack([sweeps[0].taus] + panels)


def reproduce_figure(which, out_dir, *, tau_min=0.0, tau_max=3.0, points=301,
                     sign=Sign.PLUS):
    """Write the data behind one published figure as CSV plus a sidecar.

    Returns the paths written: fig<n>.csv with exactly the plotted curves
    and fig<n>_params.txt recording parameters and the tau convention.
    """
    if which not in FIGURE_PRESETS:
        raise ValueError(f"figure must be one of {sorted(FIGURE_PRESETS)}, got {which!r}")
    kind, couplings = FIGURE_PRESETS[which]
    sweeps = []
    for kappa1, kappa2 in couplings:
        cfg = RunConfig(
            kappa1=kappa1,
            kappa2=kappa2,
            tau_min=tau_min,
            tau_max=tau_max,
            points=points,
            sign=sign,
        )
        sweeps.append(run_sweep(cfg))

    if kind == "vlf":
        columns = _VLF_COLUMNS
    elif kind == "obr_single":
        suffixes = ("left", "right") if len(couplings) == 2 else ("",)
        columns = ["tau"]
        for suffix in suffixes[: len(couplings)]:
            tag = f"_{suffix}" if suffix else ""
            columns.extend(f"obr{i}{tag}" for i in (1, 2, 3))
        columns = tuple(columns)
    else:
        columns = _OBR_PAIR_COLUMNS

    metadata = [("figure", str(which))]
    for label, (kappa1, kappa2) in zip(("left", "right"), couplings):
        prefix = f"{label}_" if len(couplings) == 2 else ""
        metadata.append((f"{prefix}kappa1", _fmt(kappa1)))
        metadata.append((f"{prefix}kappa2", _fmt(kappa2)))
    metadata.append(("tau_convention", TauConvention.RATE.value))
    metadata.append(("sign", sign.value))

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"fig{which}.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_lines(metadata, columns, _figure_table(kind, sweeps)))

    sidecar_path = os.path.join(out_dir, f"fig{which}_params.txt")
    sidecar = [f"figure {which}: {kind} criteria"]
    for label, (kappa1, kappa2) in zip(("left", "right"), couplings):
        name = f"{label} panel" if len(couplings) == 2 else "couplings"
        sidecar.append(f"{name}: kappa1 = {_fmt(kappa1)}, kappa2 = {_fmt(kappa2)}")
    sidecar.append(
        f"tau = rate * t on [{_fmt(tau_min)}, {_fmt(tau_max)}], {points} points"
    )
    sidecar.append(f"inference sign: {sign.value}")
    with open(sidecar_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(sidecar) + "\n")
    return [csv_path, sidecar_path]


def _worse(current, candidate):
    if current is None or candidate.max_rel_err > current.max_rel_err:
        return candidate
    return current


def run_oracle_check(cfg):
    """Cross-validate every moment path over the configured grid.

    Compares the verbatim closed-form moments, the analytic propagator
    outer products (the reference), the matrix-exponential path, rk4 at
    RK4_STEPS_PER_UNIT_TAU density and Monte Carlo sampling at a few grid
    points.  Returns [(name, ComparisonReport), ...]; a run is good when
    every report passed.
    """
    c = cfg.couplings
    degenerate = classify_regime(c).kind is RegimeKind.DEGENERATE
    scale = time_scale(c, cfg.tau_convention)
    taus = cfg.taus()

    worst = {"analytic vs expm": None, "rk4 vs analytic": None}
    if not degenerate:
        worst["closed-form vs analytic"] = None
        worst["closed-form vs expm"] = None

    for tau in taus:
        t = tau / scale
        analytic = moments_at(c, t, MomentMethod.ANALYTIC)
        via_expm = moments_at(c, t, MomentMethod.EXPM)
        steps = max(1, int(math.ceil(RK4_STEPS_PER_UNIT_TAU * tau)))
        via_rk4 = outer_moments(rk4_propagator(c, t, steps))
        worst["analytic vs expm"] = _worse(
            worst["analytic vs expm"], compare_moments(analytic, via_expm, 1e-9, tau)
        )
        worst["rk4 vs analytic"] = _worse(
            worst["rk4 vs analytic"], compare_moments(analytic, via_rk4, 1e-8, tau)
        )
        if not degenerate:
            closed = closed_form_moments(c, t)
            worst["closed-form vs analytic"] = _worse(
                worst["closed-form vs analytic"],
                compare_moments(closed, analytic, 1e-9, tau),
            )
            worst["closed-form vs expm"] = _worse(
                worst["closed-form vs expm"],
                compare_moments(closed, via_expm, 1e-9, tau),
            )

    mc_report = None
    for idx in sorted({len(taus) // 4, len(taus) // 2, len(taus) - 1}):
        tau = taus[idx]
        if tau <= 0:
            continue
        t = tau / scale
        analytic = moments_at(c, t, MomentMethod.ANALYTIC)
        sampled = mc_moments(c, t, cfg.mc_samples, cfg.seed)
        mc_report = _worse(mc_report, compare_moments(analytic, sampled, 1e-2, tau))
    if mc_report is not None:
        worst["mc vs analytic"] = mc_report

    return [(name, report) for name, report in worst.items()]


def load_config_file(path):
    """Parse a flat key=value config file ('#' comments, UTF-8).

    Returns the raw string values keyed by normalised (underscore) names;
    type coercion happens where the values are consumed.
    """
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values
