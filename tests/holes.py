"""A hole finder: every criterion on a seeded random sample of couplings
and times, against the mpmath reference of tests/test_reference.py.

    python tests/holes.py [COUNT] [--seed SEED]

prints, per criterion and regime, the worst error |a - b| / max(1, |b|),
the number of cases past the suite's tolerance (1e-12 for the inference
products, 1e-9 for the rest) and the case of the worst error; then the
cases that raise, and those whose entanglement flags read otherwise off
the computed values than off the reference values.  tests/test_holes.py
runs a prefix of the same sample in the suite.

kappa1 is log-uniform on [1e-3, 1e3].  In 70 % of the cases kappa2 /
kappa1 is log-uniform on [1e-12, 10], in the rest 1 +/- 10^U(-12, -1).
The rate-convention tau is uniform on [0, 40].  The sample leans toward
weak coupling and the degenerate corridor, where row combinations cancel.
"""

import argparse
import math
import random
import sys
from pathlib import Path

# Run as a script, the package is found in ./src as pytest finds it.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from test_reference import combined_errors, computed_at, raw_time, reference_at  # noqa: E402
from trimode import (  # noqa: E402
    CRITERIA, Couplings, CriteriaReport, RegimeKind, Sign, classify_regime)

#: Fixed before the sample was first run.  Re-picking it would choose
#: which holes the sample shows.
SEED = 20061

FLAGS = ("vlf_flag", "obr_single_flag", "obr_pair_flag")
#: The suite's tolerance for each criterion, in CRITERIA order.
TOLERANCES = (1e-9,) * 9 + (1e-12,) * 6


def sample(count, seed=SEED):
    """count (kappa1, kappa2, tau) cases.  Each draws five numbers, so a
    shorter sample is a prefix of a longer one."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        branch, u, v, s, w = (rng.random() for _ in range(5))
        kappa1 = 10.0 ** (6.0 * u - 3.0)
        if branch < 0.7:
            ratio = 10.0 ** (13.0 * v - 12.0)
        else:
            ratio = 1.0 + math.copysign(10.0 ** (11.0 * v - 12.0), s - 0.5)
        cases.append((kappa1, kappa1 * ratio, 40.0 * w))
    return cases


def check(kappa1, kappa2, tau):
    """(errors of the 15 criteria, [(flag, its computed value)] for each
    flag that the reference reads otherwise) at a case."""
    t = raw_time(kappa1, kappa2, tau)
    got = CriteriaReport.from_values(t, Sign.PLUS, computed_at(kappa1, kappa2, t))
    want = CriteriaReport.from_values(t, Sign.PLUS, reference_at(kappa1, kappa2, t, tau))
    flags = [(name, getattr(got, name)) for name in FLAGS
             if getattr(got, name) != getattr(want, name)]
    return combined_errors(got.values(), want.values()), flags


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("count", type=int, nargs="?", default=2000)
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args(argv)
    worst, past, raised, disagree = {}, {}, [], []
    for case in sample(args.count, args.seed):
        try:
            errors, flags = check(*case)
        except (ValueError, ArithmeticError) as exc:
            raised.append((case, exc))
            continue
        regime = classify_regime(Couplings(*case[:2])).kind
        for name, error, tol in zip(CRITERIA, errors, TOLERANCES):
            key = (name, regime)
            if key not in worst or error > worst[key][0]:
                worst[key] = (error, case)
            past[key] = past.get(key, 0) + (error > tol)
        if flags:
            disagree.append((case, flags))
    print(f"{args.count} cases, seed {args.seed}")
    print(f"{'criterion':<10} {'regime':<11} {'worst':>9} {'past tol':>9}  case (kappa1, kappa2, tau)")
    for name in CRITERIA:
        for regime in RegimeKind:
            if (name, regime) in worst:
                error, case = worst[name, regime]
                print(f"{name:<10} {regime.value:<11} {error:9.2e} {past[name, regime]:9d}  "
                      f"({case[0]!r}, {case[1]!r}, {case[2]!r})")
    print(f"{len(raised)} cases raise")
    for case, exc in raised:
        print(f"  {case!r}: {type(exc).__name__}: {exc}")
    false = sum(value for _, flags in disagree for _, value in flags)
    total = sum(len(flags) for _, flags in disagree)
    print(f"{len(disagree)} cases with a flag that disagrees: "
          f"{false} false certifications, {total - false} missed")
    for case, flags in disagree:
        print(f"  {case!r}: " + ", ".join(f"{name} reads {value}" for name, value in flags))


if __name__ == "__main__":
    main()
