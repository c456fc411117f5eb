"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Tolerances are fixed here, not configurable.  Criteria
3-9 and 11 read their reports from one run of the public ``full_suite``.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from projheat import verify
from projheat.kernels import series_values, unified
from projheat.verify import full_suite

from helpers import s4_heat_kernel

KS = (1, 2)
NS = (1, 2, 3)
TS = (0.05, 0.2, 0.5, 1.0, 5.0)
DS = tuple(np.linspace(0.0, 1.5, 11))


def _report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert passed, f"{criterion} failed: {detail}"


@pytest.fixture(scope="module")
def suite():
    return full_suite()


def _identity(reports, name):
    """The reports of one identity; never empty, so max() below is safe."""
    picked = [r for r in reports if r.identity_name == name]
    assert picked, f"the suite emitted no {name} reports"
    return picked


def test_criterion_1_representation_equivalence():
    t0 = time.time()
    worst = 0.0
    for k in KS:
        for n in NS:
            for t in TS:
                svals, _, _ = series_values(k, n, t, np.asarray(DS), 1e-12)
                for d, sval in zip(DS, svals):
                    ival = unified(n, k, t, float(d), tol=1e-12, method="integral")
                    worst = max(worst, abs(sval - ival.value) / abs(sval))
    elapsed = time.time() - t0
    _report(
        "1 representation_equivalence", worst <= 1e-8,
        f"worst rel diff {worst:.2e} over {len(KS)*len(NS)*len(TS)*len(DS)} points "
        f"in {elapsed:.1f}s",
    )


def test_criterion_2_stationary_limits():
    ok = True
    details = []
    expected_concrete = {
        (1, 1): 1.0 / math.pi,
        (1, 2): 2.0 / math.pi**2,
        (2, 1): 6.0 / math.pi**2,
    }
    for k in KS:
        for n in NS:
            c = k * (n + 1) - 1
            expected = c * math.factorial(c - 1) / (
                math.factorial(k - 1) * math.pi ** (k * n)
            )
            for d in (0.0, 0.3, 1.2):
                val = unified(n, k, 50.0, d, tol=1e-12).value
                ok = ok and abs(val - expected) <= 1e-10
            if (k, n) in expected_concrete:
                ok = ok and abs(expected - expected_concrete[(k, n)]) <= 1e-15
                details.append(f"k={k},n={n}:{expected:.12g}")
    _report("2 stationary_limits", ok, " ".join(details))


def test_criterion_3_normalization(suite):
    reports = _identity(suite, "kernel_normalization")
    worst = max(r.abs_err for r in reports)
    _report(
        "3 normalization", all(r.passed for r in reports) and worst <= 1e-8,
        f"worst |integral - 1| = {worst:.2e}",
    )


def test_criterion_4_heat_equation_residual(suite):
    reports = _identity(suite, "heat_equation_residual")
    worst = max(r.rel_err for r in reports)
    _report(
        "4 heat_equation_residual", all(r.passed for r in reports),
        f"worst scaled residual {worst:.2e} (tol 1e-3)",
    )


def test_criterion_5_semigroup(suite):
    reports = _identity(suite, "kernel_semigroup")
    worst = max(r.abs_err for r in reports)
    _report(
        "5 semigroup", all(r.passed for r in reports),
        f"worst defect {worst:.2e} (tol 1e-6)",
    )


def test_criterion_6_lemma_certification(suite):
    reports = _identity(suite, "gegenbauer_ladder_to_jacobi")
    analytic_ok = all(abs(rep.lhs - 2.0 * math.pi) <= 1e-12
                      for rep in verify.lemma_check(1, [0], (0.0, 0.3, 0.7, 1.1, 1.4)))
    worst = max(min(r.abs_err, r.rel_err) for r in reports)
    _report(
        "6 lemma_certification",
        all(r.passed for r in reports) and analytic_ok,
        f"{len(reports)} cases, worst err {worst:.2e}, analytic case = 2*pi",
    )


def test_criterion_7_jacobi_rep_convention(suite):
    res = _identity(suite, "jacobi_sqrt_integral_rep_resolution")
    ok = len(res) == 1 and res[0].passed
    _report(
        "7 jacobi_integral_rep", ok,
        f"superscript {res[0].parameters.get('passing_convention')} certified, displayed "
        f"2n-1 refuted (off by rel {res[0].parameters.get('rejected_max_rel_err'):.2g})",
    )


def test_criterion_8_theta_relation(suite):
    reports = _identity(suite, "theta_halfinteger_relation")
    worst = max(r.abs_err for r in reports)
    _report(
        "8 theta_relation", all(r.passed for r in reports),
        f"worst abs err {worst:.2e} (tol 1e-13)",
    )


def test_criterion_9_eigenfunction_law(suite):
    reports = _identity(suite, "radial_eigenfunction_law")
    worst = max(r.rel_err for r in reports)
    _report(
        "9 eigenfunction_law", all(r.passed for r in reports),
        f"worst scaled err {worst:.2e} (tol 1e-4)",
    )


def test_criterion_10_s4_oracle():
    worst = 0.0
    for t in (0.2, 1.0):
        for d in DS:
            oracle = s4_heat_kernel(t, float(d))
            ours = unified(1, 2, t, float(d), tol=1e-13).value
            worst = max(worst, abs(oracle - ours) / abs(oracle))
    _report("10 s4_oracle", worst <= 1e-8, f"worst rel diff {worst:.2e}")


def test_criterion_11_cli_contract(suite):
    cmd = [sys.executable, "-m", "projheat"]
    # deterministic CSV
    args = cmd + ["table", "--space", "hpn", "--t-grid", "0.2:1:3",
                  "--d-grid", "0:1.2:4", "--format", "csv"]
    a = subprocess.run(args, capture_output=True, text=True)
    b = subprocess.run(args, capture_output=True, text=True)
    deterministic = a.returncode == 0 and a.stdout == b.stdout

    # documented exit codes: 2 usage, 3 non-convergence, 1 verification failure
    usage = subprocess.run(cmd + ["table", "--t", "-1", "--d", "0.1"],
                           capture_output=True, text=True).returncode == 2
    noconv = subprocess.run(
        cmd + ["table", "--space", "hpn", "--n", "2", "--t", "0.001", "--d", "1.0",
               "--method", "integral", "--tol", "1e-30"],
        capture_output=True, text=True).returncode == 3
    vfail = subprocess.run(
        cmd + ["compare", "--t", "0.5", "--d-grid", "0:1:3", "--tol", "1e-16"],
        capture_output=True, text=True).returncode == 1

    # the full self-test suite is green
    green = all(r.passed for r in suite)

    _report(
        "11 cli_contract",
        deterministic and usage and noconv and vfail and green,
        f"deterministic={deterministic} exit2={usage} exit3={noconv} "
        f"exit1={vfail} selftest {sum(r.passed for r in suite)}/{len(suite)}",
    )
