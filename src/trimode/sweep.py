"""Parameter sweeps, figure-data reproduction and CSV output, and the
oracle run's grid: run_oracle_check turns a RunConfig into the times that
oracle._grid_reports checks every moment path on.

Output files are deterministic: a fixed configuration (including the seed)
always produces byte-identical bytes.  Floats are printed with 17
significant digits so parsing a file recovers every value bit-exactly.
"""

from __future__ import annotations

import dataclasses
import os
from enum import Enum

import numpy as np

from .core import (CRITERIA, Couplings, RegimeKind, Sign, SweepResult, TauConvention, _check_count,
                   _check_finite, _check_seed, _check_time, _is_int, classify_regime)
from .criteria import row_criteria
from .oracle import _grid_reports
from .propagator import propagator_rows

__all__ = [
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

#: Figure presets: (kind, the CRITERIA columns plotted, the couplings of
#: each panel), with the published ratios and the other coupling pinned to
#: 1, tau = rate * t on [0, 3].  The source ranges are not stated
#: numerically, so the sweep window is a choice and stays user-overridable.
FIGURE_PRESETS = {
    1: ("vlf", slice(0, 6), ((1.2, 1.0),)),
    2: ("vlf", slice(0, 6), ((1.0, 1.8),)),
    3: ("obr_single", slice(9, 12), ((1.2, 1.0), (1.0, 1.8))),
    4: ("obr_pair", slice(12, 15), ((1.2, 1.0),)),
    5: ("obr_pair", slice(12, 15), ((1.0, 1.8),)),
}


def _fmt(x):
    return format(float(x), ".17g")


def _option(default, help, commands):
    """A RunConfig field that the CLI exposes, with help, as a flag of each
    subcommand named in commands: the ones that read it."""
    return dataclasses.field(default=default, metadata={"help": help, "commands": commands})


_COUPLED = ("sweep", "oracle", "eval")  # figures fix couplings and convention
_GRID = ("sweep", "figures", "oracle")  # eval evaluates one tau


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Everything a sweep, figure or oracle run needs.

    Each field is a config-file key of the same name (underscores or
    dashes), accepted by every subcommand; a field made by _option is also
    a CLI flag, with its help, of the subcommands that read it.  out is the
    output path or directory.
    """

    kappa1: float = _option(1.2, "first coupling", _COUPLED)
    kappa2: float = _option(1.0, "second coupling", _COUPLED)
    tau_min: float = _option(0.0, "grid start", _GRID)
    tau_max: float = _option(3.0, "grid end", _GRID)
    points: int = _option(301, "grid size", _GRID)
    tau_convention: TauConvention = _option(
        TauConvention.RATE, "tau = rate*t or tau = max(kappa)*t", _COUPLED)
    sign: Sign = _option(Sign.PLUS, "two-mode combination sign used by the inference criteria",
                         ("sweep", "figures", "eval"))
    seed: int = _option(1, "Monte Carlo seed", ("oracle",))
    mc_samples: int = _option(10**6, "Monte Carlo sample count", ("oracle",))
    out: str | None = None

    def __post_init__(self):
        Couplings(self.kappa1, self.kappa2)
        _check_time(self.tau_min, "tau_min")
        _check_time(self.tau_max, "tau_max")
        if not self.tau_max > self.tau_min:
            raise ValueError("tau_max must exceed tau_min")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if type(f.default) is int and not _is_int(value):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if isinstance(f.default, Enum) and not isinstance(value, type(f.default)):
                raise ValueError(f"{f.name} must be a {type(f.default).__name__}, got {value!r}")
        if self.points < 2:
            raise ValueError(f"points must be >= 2, got {self.points!r}")
        _check_count(self.mc_samples, "mc_samples")
        _check_seed(self.seed)

    @property
    def couplings(self):
        return Couplings(self.kappa1, self.kappa2)

    def taus(self):
        """The uniform float64 tau grid, whatever real type the endpoints
        have; ValueError when rounding repeats a tau."""
        taus = np.linspace(float(self.tau_min), float(self.tau_max), self.points)
        if np.any(np.diff(taus) <= 0):
            raise ValueError("taus must be strictly increasing")
        return taus


def time_scale(c, convention):
    """Frequency that converts dimensionless tau to raw time, t = tau / scale.

    RATE uses the regime rate (Omega or xi); degenerate couplings have rate
    zero, so RATE falls back to max(kappa1, kappa2) there, which MAX_KAPPA
    uses always.  ValueError for any other convention.
    """
    if convention is TauConvention.MAX_KAPPA:
        return c.kappa_max
    if convention is not TauConvention.RATE:
        raise ValueError(f"convention must be a TauConvention, got {convention!r}")
    regime = classify_regime(c)
    return c.kappa_max if regime.kind is RegimeKind.DEGENERATE else regime.rate


def _raw_times(cfg, taus):
    """tau / time_scale at cfg's couplings and convention; ValueError naming tau on overflow."""
    with np.errstate(all="ignore"):
        ts = taus / time_scale(cfg.couplings, cfg.tau_convention)
        _check_finite((ts,), "tau / time scale overflows double precision; choose a smaller tau")
    return ts


def run_sweep(cfg):
    """Evaluate every criterion on a uniform tau grid, as one array pass.

    propagator_rows and row_criteria run on the whole grid, the same
    arithmetic moments_at and evaluate_all run on a batch of one.  Raises
    ValueError when a value overflows.
    """
    taus = cfg.taus()
    ts = _raw_times(cfg, taus)
    with np.errstate(all="ignore"):
        values = np.column_stack(row_criteria(propagator_rows(cfg.couplings, ts), cfg.sign))
    return SweepResult(taus, ts, values, cfg)


#: Rows encoded per pass of _csv_body; its buffer takes 40 bytes per entry.
_BLOCK_ROWS = 256

#: Dekker's splitter 2**27 + 1: a * _SPLIT splits a double into two halves
#: of 26 bits whose pairwise products are exact (Numer. Math. 18, 224 (1971)).
_SPLIT = 134217729.0


def _halves(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


#: _POW10[E + 4] is 10**E correctly rounded, for E = -4..22, and its
#: halves: exact from E = 0, and each the smallest double >= 10**E
#: (tests/test_csv_text.py checks it exactly).
_POW10 = np.array([10**j / 10**4 for j in range(27)])
_POW10_HI, _POW10_LO = _halves(_POW10)
_LOG10_2 = 0.3010299956639812  # log10(2) rounded to a double
_UNIT4 = np.int64(10**4)
_UNIT8 = np.int64(10**8)


def _chunk_tables():
    """For each 4-digit chunk 0..9999, its text as 8 little-endian bytes,
    each digit followed by a NUL where a decimal point may go: entries
    0..9999 as printed, entries 10000..19999 with the trailing zero digits
    NUL as well."""
    chunk = np.arange(10_000, dtype=np.uint64)
    text = np.zeros((2, 10_000), dtype=np.uint64)
    for place in range(4):
        digit = chunk // np.uint64(10 ** (3 - place)) % np.uint64(10)
        glyph = (digit + np.uint64(ord("0"))) << np.uint64(16 * place)
        trailing = chunk % np.uint64(10 ** (4 - place)) == 0
        text[0] |= glyph
        text[1] |= np.where(trailing, np.uint64(0), glyph)
    return text.ravel()


_CHUNK_TEXT = _chunk_tables()
_TRIMMED = np.int64(10_000)
#: The sign, the leading zeros of a fixed-point field NUL-padded to 6 bytes,
#: then the first digit and a NUL, indexed by
#: 10 * (5 * (x < 0) + max(0, -E)) + first digit, for the decimal exponent
#: E >= -4.
_HEADS = np.array([int.from_bytes((sign + zeros).encode().ljust(6, b"\0")
                                  + bytes([ord("0") + digit, 0]), "little")
                   for sign in ("", "-") for zeros in ("", "0.", "0.0", "0.00", "0.000")
                   for digit in range(10)], dtype=np.uint64)


def _divmod(v, unit):
    """np.divmod(v, unit) for int64 v >= 0, about 4x as fast: // divides
    by a scalar through libdivide, np.divmod does not."""
    q = v // unit
    return q, v - q * unit


def _scalar_fields(values):
    """'%.17g' of each value as ASCII bytes, for the entries _encode_rows
    does not lay out itself."""
    return [b"%.17g" % v for v in values.tolist()]


def _encode_rows(block, seps):
    """CSV text of a float64 (rows, k) block as ASCII bytes: '%.17g' per
    entry, followed by its column's byte of seps (',' or '\\n').

    An entry with 1e-4 <= |x| < 1e16 is laid out in a 40-byte slot: its
    head (sign and leading zeros), 17 digit bytes each followed by a NUL,
    and the separator.  Its decimal exponent E is exact: the binade
    2**(b-1) <= |x| < 2**b spans a factor 2 < 10, so E is
    f = floor((b - 1) log10 2), or f + 1 where |x| reaches the smallest
    double >= 10**(f+1).  Its 17 significant digits
    D = round-half-even(|x| 10**(16 - E)) are exact as p + rint(err),
    p = fl(|x| 10**(16 - E)) and err Dekker's two-product residual:
    p >= 1e16 > 2**53 is an even integer.  D < 1e17, as the double below
    each power of ten from 1e-3 to 1e16 lies at least 8 units of the 17th
    digit below it, so no rounding carries.  The
    zeros after the last nonzero digit become NUL, and one pass deletes
    every NUL.  The decimal point replaces the NUL after digit E >= 0
    exactly when x is not whole: below 2**53 a fraction lies at least an
    ulp, over half a unit of the 17th digit, from every integer, so its
    digits never round to an integer.  Zeros, non-finite values, |x| outside
    that range (exponent form) and whole values such as 1200 that end in 0,
    whose integer zeros the trimming would eat, take _scalar_fields.
    """
    x = block.ravel()
    a = np.abs(x)
    inside = (a >= 1e-4) & (a < 1e16)
    a = np.where(inside, a, 1.0)
    a_hi, a_lo = _halves(a)
    e = np.floor((np.frexp(a)[1] - 1) * _LOG10_2).astype(np.int64)
    e += a >= _POW10[e + 5]
    k = 20 - e  # _POW10[k] = 10**(16 - E)
    p = a * _POW10[k]
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    d = p.astype(np.int64) + np.rint(err).astype(np.int64)

    upper, lower = _divmod(d, _UNIT8)
    lead, middle = _divmod(upper, _UNIT8)
    c1, c2 = _divmod(middle, _UNIT4)
    c3, c4 = _divmod(lower, _UNIT4)
    zero4 = c4 == 0
    zero34 = zero4 & (c3 == 0)
    zero234 = zero34 & (c2 == 0)
    slots = np.empty((x.size, 5), dtype="<u8")
    klass = np.int64(5) * np.signbit(x) + np.maximum(-e, np.int64(0))
    slots[:, 0] = _HEADS[np.int64(10) * klass + lead]
    slots[:, 1] = _CHUNK_TEXT[c1 + _TRIMMED * zero234]
    slots[:, 2] = _CHUNK_TEXT[c2 + _TRIMMED * zero34]
    slots[:, 3] = _CHUNK_TEXT[c3 + _TRIMMED * zero4]
    slots[:, 4] = _CHUNK_TEXT[c4 + _TRIMMED]
    text = slots.view(np.uint8).reshape(x.size, 40)
    text.reshape(*block.shape, 40)[:, :, 39] = seps

    whole = np.floor(a) == a
    dotted = np.flatnonzero((e >= 0) & ~whole)
    text.reshape(-1)[dotted * 40 + 2 * e[dotted] + 7] = ord(".")
    scalar = np.flatnonzero(~inside | (whole & (np.fmod(a, 10.0) == 0)))
    if scalar.size:
        fields = np.array(_scalar_fields(x[scalar]), dtype="S39")
        text[scalar, :39] = fields.view(np.uint8).reshape(scalar.size, 39)
    return slots.tobytes().translate(None, b"\0")


def _csv_body(table):
    """The rows of a float64 table as CSV text: '%.17g' per value, joined
    with ',' and each row ended with '\\n'.  Rows are encoded _BLOCK_ROWS
    at a time by _encode_rows."""
    table = np.asarray(table, dtype=np.float64)
    seps = np.full(table.shape[1], ord(","), dtype=np.uint8)
    seps[-1] = ord("\n")
    return b"".join(_encode_rows(table[start:start + _BLOCK_ROWS], seps)
                    for start in range(0, len(table), _BLOCK_ROWS)).decode("ascii")


def _csv_lines(metadata, columns, table):
    """Metadata lines, the header, then the rows of table, each value
    written as '%.17g' (by _csv_body)."""
    lines = [f"# {key} = {value}" for key, value in metadata]
    lines.append(",".join(columns))
    return "\n".join(lines) + "\n" + _csv_body(table)


def _run_metadata(cfg):
    """(key, text) pairs recording a run: a sweep's '#' lines, eval's header."""
    return [("kappa1", _fmt(cfg.kappa1)), ("kappa2", _fmt(cfg.kappa2)),
            ("tau_convention", cfg.tau_convention.value), ("sign", cfg.sign.value)]


def sweep_csv_text(result):
    """Render a SweepResult as CSV text with '#' metadata lines."""
    return _csv_lines(_run_metadata(result.meta), ("tau",) + CRITERIA,
                      np.column_stack([result.taus, result.values]))


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def write_sweep_csv(result, path):
    return _write(path, sweep_csv_text(result))


def reproduce_figure(which, out_dir, cfg=RunConfig()):
    """Write the data behind one published figure as CSV plus a sidecar.

    Each panel is a sweep of cfg's tau grid and sign at the panel's
    couplings, with tau = rate * t, and contributes its CRITERIA columns of
    the figure, suffixed _left and _right when there are two panels.  The
    other fields of cfg are not read.  Returns the paths written:
    fig<n>.csv with exactly the plotted curves and fig<n>_params.txt
    recording parameters and the tau convention.
    """
    if not _is_int(which) or which not in FIGURE_PRESETS:
        raise ValueError(f"figure must be one of {sorted(FIGURE_PRESETS)}, got {which!r}")
    kind, plotted, couplings = FIGURE_PRESETS[which]
    two = len(couplings) == 2
    columns, panels = ["tau"], []
    metadata = [("figure", str(which))]
    sidecar = [f"figure {which}: {kind} criteria"]
    for label, (kappa1, kappa2) in zip(("left", "right"), couplings):
        sweep = run_sweep(dataclasses.replace(cfg, kappa1=kappa1, kappa2=kappa2,
                                              tau_convention=TauConvention.RATE))
        suffix, prefix, panel = ((f"_{label}", f"{label}_", f"{label} panel") if two
                                 else ("", "", "couplings"))
        columns.extend(name + suffix for name in CRITERIA[plotted])
        panels.append(sweep.values[:, plotted])
        metadata.append((f"{prefix}kappa1", _fmt(kappa1)))
        metadata.append((f"{prefix}kappa2", _fmt(kappa2)))
        sidecar.append(f"{panel}: kappa1 = {_fmt(kappa1)}, kappa2 = {_fmt(kappa2)}")
    metadata.append(("tau_convention", TauConvention.RATE.value))
    metadata.append(("sign", cfg.sign.value))
    sidecar.append(f"tau = rate * t on [{_fmt(cfg.tau_min)}, {_fmt(cfg.tau_max)}], "
                   f"{cfg.points} points")
    sidecar.append(f"inference sign: {cfg.sign.value}")

    os.makedirs(out_dir, exist_ok=True)
    table = np.column_stack([sweep.taus, *panels])
    return [
        _write(os.path.join(out_dir, f"fig{which}.csv"), _csv_lines(metadata, columns, table)),
        _write(os.path.join(out_dir, f"fig{which}_params.txt"), "\n".join(sidecar) + "\n"),
    ]


def run_oracle_check(cfg):
    """Cross-validate every moment path over the configured grid: the
    reports of oracle._grid_reports, which decides what a run computes and
    compares, at the couplings, taus and times tau / time_scale of cfg."""
    taus = cfg.taus()
    return _grid_reports(cfg.couplings, taus, _raw_times(cfg, taus), cfg.mc_samples, cfg.seed)


def load_config_file(path):
    """Parse a flat key=value config file ('#' comments, UTF-8 with or
    without a byte-order mark).

    Returns the raw string values keyed by normalised (underscore) names;
    type coercion happens where the values are consumed.
    """
    values = {}
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values
