"""End-to-end acceptance gate: one test per release criterion.

Each test prints a single live line

    [criterion NN] PASS/FAIL <name> (measured values)

so a full run reads as a checklist.  Tolerances are frozen here on
purpose — loosening them is a release decision, not a refactor.

Oracles: full 2-shift loop counts are exactly 2^(n-1) pinned words scaled,
golden mean entropy is the Perron log of [[1,1],[1,0]], the renewal system
has generating function x/(1-x) with root 1/2 (entropy log 2), the a_l=2^l
system has radius 1/2 and equals its own escape part (entropy at infinity
log 2), and Bernoulli(1/2) covering numbers are floor((1-delta) 2^n) + 1,
with 1 - delta the float need of the greedy pass.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from cmshift import density, families, infinity, katok, measures, thermo

LOG2 = math.log(2)
PHI = (1 + math.sqrt(5)) / 2


def announce(capsys, num, name, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[criterion {num:02d}] {status} {name} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_01_gurevich_entropy(capsys):
    full2 = thermo.gurevich_entropy(families.full_shift(2), n_max=24)
    golden = thermo.gurevich_entropy(families.golden_mean(), n_max=30)
    renewal = thermo.gurevich_entropy(families.renewal_shift())
    e_full = abs(full2.count_rate - LOG2) if full2.count_rate else abs(full2.value - LOG2)
    e_gold = abs(golden.count_rate - math.log(PHI)) if golden.count_rate else abs(golden.value - math.log(PHI))
    e_renw = abs(renewal.value - LOG2)
    ok = e_full < 1e-3 and e_gold < 5e-3 and e_renw < 1e-2
    announce(
        capsys, 1, "gurevich entropy",
        ok, f"full2 err {e_full:.2e}, golden err {e_gold:.2e}, renewal err {e_renw:.2e}",
    )


def test_criterion_02_entropy_at_infinity_triple(capsys):
    details = []
    ok = True
    for system, target, label in (
        (families.renewal_shift(), 0.0, "renewal"),
        (families.power_loops(2), LOG2, "powers"),
    ):
        headline = thermo.delta_inf(system).headline
        h = infinity.h_inf_lower_bound(system).value
        b = infinity.b_inf_estimate(system).value
        errs = [abs(headline - target), abs(h - target), abs(b - target)]
        ok = ok and max(errs) < 0.1
        details.append(
            f"{label}: delta {headline:.4f}, h {h:.4f}, b {b:.4f} vs {target:.4f}"
        )
    announce(capsys, 2, "entropy-at-infinity triple agreement", ok, "; ".join(details))


def test_criterion_03_classification(capsys):
    verdicts = {
        "renewal": thermo.classify(families.renewal_shift()).verdict,
        "subexp": thermo.classify(families.subexponential_loops()).verdict,
        "greedy": thermo.classify(families.greedy_null_loops()).verdict,
    }
    ok = (
        verdicts["renewal"] == "positive-recurrent"
        and verdicts["subexp"] == "transient"
        and verdicts["greedy"] == "null-recurrent"
    )
    announce(capsys, 3, "recurrence classification", ok, str(verdicts))


def test_criterion_04_spr(capsys):
    good = thermo.is_spr(families.renewal_shift())
    bad = thermo.is_spr(families.subexponential_loops())
    ok = (
        good.spr is True
        and good.margin >= 0.5
        and bad.spr is False
        and abs(bad.delta_inf - LOG2) < 0.05
        and abs(bad.entropy - LOG2) < 0.05
    )
    announce(
        capsys, 4, "strong positive recurrence",
        ok,
        f"renewal spr={good.spr} margin {good.margin:.3f}; "
        f"subexp spr={bad.spr} delta {bad.delta_inf:.4f} h {bad.entropy:.4f}",
    )


def test_criterion_05_main_inequality(capsys):
    ok = True
    details = []
    for system, label in (
        (families.renewal_shift(), "renewal"),
        (families.power_loops(2), "powers"),
    ):
        for family in ("mme", "drift", "mixture"):
            rep = infinity.verify_main_inequality(system, family=family)
            ok = ok and rep.slack >= -1e-9
            if family == "mixture":
                ok = ok and abs(rep.slack) <= 0.05
                details.append(f"{label} mixture slack {rep.slack:.4f}")
    announce(capsys, 5, "escape-of-mass inequality", ok, "; ".join(details))


def test_criterion_06_katok_formula(capsys):
    # the counts come from mass classes: n_max = 200 is far past the 2^20
    # cylinders of the level arrays
    full2 = families.full_shift(2)
    bern = measures.bernoulli_measure(full2, (0.5, 0.5))
    r1 = katok.katok_estimate(bern, full2, delta=0.1, n_max=200)
    r4 = katok.katok_estimate(bern, full2, delta=0.4, n_max=200)
    exact = all(
        r1.counts.value(n) == math.floor(Fraction(0.9) * 2**n) + 1
        for n in (5, 10, 15, 20, 50, 100, 200)
    )
    golden = families.golden_mean()
    rg = katok.katok_estimate(
        measures.parry_measure(golden), golden, delta=0.1, n_max=200
    )
    e_bern = abs(r1.rate - LOG2)
    e_gold = abs(rg.rate - math.log(PHI))
    spread = abs(r1.rate - r4.rate)
    ok = e_bern < 1e-9 and e_gold < 1e-9 and spread < 1e-9 and exact
    announce(
        capsys, 6, "covering-number entropy",
        ok,
        f"bernoulli err {e_bern:.2e}, golden err {e_gold:.2e}, "
        f"delta spread {spread:.2e}, exact counts {exact}",
    )


def test_criterion_07_mass_bound(capsys):
    rep = infinity.mass_bound_check(families.renewal_shift(), c=0.5 * LOG2)
    ok = (
        abs(rep.bound - 0.5) < 1e-9
        and abs(rep.measured - 0.5) <= 0.02
        and rep.satisfied
    )
    announce(
        capsys, 7, "limit-mass bound",
        ok, f"bound {rep.bound:.6f}, measured {rep.measured:.6f}",
    )


def test_criterion_08_dimension_series(capsys):
    conv = infinity.dimension_series(families.renewal_shift(), t=0.5, m=16, q=1, l_max=60)
    div = infinity.dimension_series(families.power_loops(2), t=0.5, m=16, q=1, l_max=40)
    finals = [term for _, term in conv.terms[-8:]]
    ok = (
        conv.verdict == "convergent"
        and all(t < 1e-6 for t in finals)
        and div.verdict == "diverging"
    )
    announce(
        capsys, 8, "weighted escape series",
        ok,
        f"renewal {conv.verdict} (last terms < {max(finals):.1e}), powers {div.verdict}",
    )


def test_criterion_09_entropy_density_demo(capsys):
    t0 = time.monotonic()
    rep = density.two_component_demo(n=64, M=4, depth=6)
    elapsed = time.monotonic() - t0
    ok = rep.rho <= 0.05 and rep.gap <= 0.1 and elapsed < 120
    announce(
        capsys, 9, "entropy density demo",
        ok, f"rho {rep.rho:.5f}, gap {rep.gap:.5f}, {elapsed:.1f}s",
    )


def test_criterion_10_property_suites(capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_properties.py", "-q"],
        capture_output=True, text=True,
    )
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "no output"
    announce(capsys, 10, "randomized property suites", proc.returncode == 0, tail)


def test_criterion_11_upper_semicontinuity(capsys):
    rep = infinity.usc_spot_check(families.full_shift(3), trials=10, seed=7)
    ok = rep.ok and rep.worst <= 0.02
    announce(
        capsys, 11, "upper semicontinuity spot check",
        ok, f"worst gap {rep.worst:.5f} over {rep.trials} trials",
    )
