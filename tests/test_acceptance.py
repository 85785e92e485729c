"""End-to-end acceptance suite: one test per criterion.

Each test exercises its criterion at the stated tolerance, prints a PASS or
FAIL line with the measured worst case (visible with ``pytest -s`` or in the
captured output of a failure) and asserts.  Runtime limits, where a criterion
FIXES one, are asserted as part of the criterion.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from kothe import (
    FiniteProbSpace,
    MusielakFamily,
    Partition,
    Rv,
    amemiya_dual_norm,
    avar,
    conditional_expectation,
    cvar_infimum,
    entropic,
    gen_orlicz_dual_norm,
    indicator,
    lorentz_norm,
    lp_norm,
    luxemburg_norm,
    marcinkiewicz_norm,
    pairing,
    penalty,
    phi_power_root,
    phi_sqrt,
    polar,
    quantile,
    quantile_integral,
    singular_part_report,
    verify_bipolar,
    verify_sandwich,
    young_power,
)
from kothe.cli import main
from kothe.norms import (
    CustomSeminorm,
    LorentzNorm,
    LpNorm,
    LuxemburgNorm,
    MarcinkiewiczNorm,
    RiskNorm,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _report(cid: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] {cid} {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"{cid}: {detail}"


def test_c01_cvar_identity():
    rng = np.random.default_rng(88101)
    grid = np.linspace(0.05, 1.0, 11)
    t0 = time.time()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 17))
        probs = rng.random(n) + 0.05
        space = FiniteProbSpace(probs / probs.sum())
        u = Rv(rng.standard_normal(n) * 10 ** rng.uniform(-1, 1))
        q = quantile(space, u)
        for t in grid:
            worst = max(worst, abs(quantile_integral(q, t) - cvar_infimum(space, u, t)))
    elapsed = time.time() - t0
    _report(
        "C01",
        worst <= 1e-10 and elapsed < 1.0,
        f"tail-integral identity worst={worst:.2e} (tol 1e-10), {elapsed:.2f}s (<1s)",
    )


def test_c02_luxemburg_equals_lp():
    rng = np.random.default_rng(88102)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 10))
        probs = rng.random(n) + 0.1
        space = FiniteProbSpace(probs / probs.sum())
        p = float(rng.uniform(1.0, 4.5))
        u = Rv(rng.standard_normal(n) * 10 ** rng.uniform(-1, 1))
        fam = MusielakFamily.constant(young_power(p), n)
        lux = luxemburg_norm(space, u, fam)
        ref = lp_norm(space, u, p)
        if ref > 0:
            worst = max(worst, abs(lux - ref) / ref)
    elapsed = time.time() - t0
    _report(
        "C02",
        worst <= 1e-8 and elapsed < 1.0,
        f"power-gauge vs Lp worst rel={worst:.2e} (tol 1e-8), {elapsed:.2f}s (<1s)",
    )


def test_c03_marcinkiewicz_fundamental_function():
    space = FiniteProbSpace.uniform(8)
    worst = 0.0
    for phi in (phi_sqrt(), phi_power_root(0.75)):
        for mask in range(1, 2**8):
            atoms = [i for i in range(8) if (mask >> i) & 1]
            pa = len(atoms) / 8.0
            val = marcinkiewicz_norm(space, indicator(space, atoms), phi)
            worst = max(worst, abs(val - pa / phi(pa)))
    _report("C03", worst <= 1e-12, f"indicator norms worst={worst:.2e} (tol 1e-12)")


def test_c04_lorentz_is_polar_of_marcinkiewicz():
    rng = np.random.default_rng(88104)
    t0 = time.time()
    worst_polar = 0.0
    worst_bipolar = 0.0
    for k in range(50):
        n = int(rng.integers(2, 9))
        space = FiniteProbSpace.uniform(n)
        phi = phi_sqrt() if k % 2 == 0 else phi_power_root(0.75)
        spec = MarcinkiewiczNorm(phi)
        y = Rv(rng.standard_normal(n))
        res = polar(space, spec, y, seed=k)
        worst_polar = max(worst_polar, abs(res.value - lorentz_norm(space, y, phi)))
        rep = verify_bipolar(space, spec, y, seed=k)
        worst_bipolar = max(worst_bipolar, rep.rel_gap)
    elapsed = time.time() - t0
    _report(
        "C04",
        worst_polar <= 1e-5 and worst_bipolar <= 1e-5 and elapsed < 30.0,
        f"polar-vs-closed worst={worst_polar:.2e}, bipolar worst={worst_bipolar:.2e} "
        f"(tol 1e-5), {elapsed:.1f}s (<30s)",
    )


def test_c05_musielak_and_risk_sandwich():
    rng = np.random.default_rng(88105)
    worst_dev = -math.inf
    worst_agree = 0.0
    for k in range(50):
        n = int(rng.integers(2, 7))
        probs = rng.random(n) + 0.2
        space = FiniteProbSpace(probs / probs.sum())
        fam = MusielakFamily(
            tuple(
                young_power(p, s)
                for p, s in zip(rng.uniform(1.3, 3.0, n), rng.uniform(0.5, 2.0, n))
            )
        )
        y = Rv(rng.standard_normal(n))
        rep = verify_sandwich(space, fam, y, seed=k)
        worst_dev = max(worst_dev, rep.lower - rep.value, rep.value - 2.0 * rep.lower)
        res = polar(space, LuxemburgNorm(fam), y, seed=k)
        worst_agree = max(worst_agree, abs(res.value - amemiya_dual_norm(space, y, fam)))
    for k in range(20):
        n = int(rng.integers(2, 7))
        space = FiniteProbSpace.uniform(n)
        rho = avar(float(rng.uniform(0.1, 1.0))) if k % 2 == 0 else entropic(
            float(rng.uniform(0.3, 2.0))
        )
        y = Rv(rng.standard_normal(n))
        rep = verify_sandwich(space, rho, y, seed=k)
        worst_dev = max(worst_dev, rep.lower - rep.value, rep.value - 2.0 * rep.lower)
    _report(
        "C05",
        worst_dev <= 1e-6 and worst_agree <= 1e-5,
        f"sandwich worst dev={worst_dev:.2e} (tol 1e-6), "
        f"amemiya-vs-polar worst={worst_agree:.2e} (tol 1e-5)",
    )


def test_c06_holder_across_specs():
    rng = np.random.default_rng(88106)
    plan = [
        (lambda: LpNorm(1), 60),
        (lambda: LpNorm(1.5), 60),
        (lambda: LpNorm(2), 60),
        (lambda: LpNorm(math.inf), 60),
        (lambda: MarcinkiewiczNorm(phi_sqrt()), 60),
        (lambda: LorentzNorm(phi_sqrt()), 60),
        (lambda: LuxemburgNorm(MusielakFamily.constant(young_power(2.3), 5)), 60),
        (lambda: RiskNorm(avar(0.5)), 35),
        (lambda: RiskNorm(entropic(1.0)), 35),
    ]
    worst = -math.inf
    count = 0
    for make, reps in plan:
        for k in range(reps):
            spec = make()
            n = 5 if isinstance(spec, LuxemburgNorm) else int(rng.integers(2, 7))
            space = FiniteProbSpace.uniform(n)
            u = Rv(rng.standard_normal(n))
            y = Rv(rng.standard_normal(n))
            lhs = pairing(space, u, y)
            rhs = spec.value(space, u) * polar(space, spec, y, seed=k).value
            worst = max(worst, lhs - rhs)
            count += 1
    from kothe.norms import GenOrliczNorm

    for k in range(10):
        spec = GenOrliczNorm(young_power(2), LpNorm(1))
        space = FiniteProbSpace.uniform(3)
        u = Rv(rng.standard_normal(3))
        y = Rv(rng.standard_normal(3))
        lhs = pairing(space, u, y)
        rhs = spec.value(space, u) * polar(space, spec, y, seed=k).value
        worst = max(worst, lhs - rhs)
        count += 1
    _report(
        "C06",
        worst <= 1e-8 and count == 500,
        f"{count} pairing-bound triples, worst violation={worst:.2e} (tol 1e-8)",
    )


def _random_partition(rng, n):
    idx = list(rng.permutation(n))
    blocks, i = [], 0
    while i < n:
        j = min(n, i + int(rng.integers(1, 4)))
        blocks.append(tuple(idx[i:j]))
        i = j
    return Partition(tuple(blocks))


def test_c07_jensen_contraction():
    rng = np.random.default_rng(88107)
    n = 6
    space = FiniteProbSpace.uniform(n)
    specs = [
        LpNorm(1.6),
        LpNorm(2),
        LpNorm(math.inf),
        LuxemburgNorm(MusielakFamily.constant(young_power(2.4), n)),
        MarcinkiewiczNorm(phi_sqrt()),
        LorentzNorm(phi_sqrt()),
    ]
    worst = -math.inf
    for spec in specs:
        for _ in range(200):
            u = Rv(rng.standard_normal(n))
            g = _random_partition(rng, n)
            eu = conditional_expectation(space, u, g)
            worst = max(worst, spec.value(space, eu) - spec.value(space, u))
    # exact reproduction of the non-invariant contraction example
    two = FiniteProbSpace.uniform(2)
    spec = CustomSeminorm(
        lambda s, x: max(float(np.dot(s.probs, np.abs(x))), abs(float(x[0]))),
        name="first-atom-mass",
    )
    exact = (
        spec.value(two, indicator(two, [0])) == 1.0
        and spec.value(two, indicator(two, [1])) == 0.5
    )
    _report(
        "C07",
        worst <= 1e-10 and exact,
        f"coarsening contraction worst={worst:.2e} (tol 1e-10); "
        f"two-point example exact={exact}",
    )


def test_c08_gen_orlicz_dual_reduction():
    rng = np.random.default_rng(88108)
    t0 = time.time()
    worst_l1 = 0.0
    for k in range(30):
        n = int(rng.integers(2, 6))
        space = FiniteProbSpace.uniform(n)
        p = float(rng.uniform(1.4, 3.2))
        phi = young_power(p)
        y = Rv(rng.standard_normal(n))
        res = gen_orlicz_dual_norm(space, y, phi, LpNorm(1))
        ref = amemiya_dual_norm(space, y, MusielakFamily.constant(phi, n))
        worst_l1 = max(worst_l1, abs(res.value - ref))
    worst_dev = -math.inf
    for k in range(30):
        n = int(rng.integers(2, 5))
        space = FiniteProbSpace.uniform(n)
        p = float(rng.uniform(1.4, 3.2))
        y = Rv(rng.standard_normal(n))
        res = gen_orlicz_dual_norm(space, y, young_power(p), LorentzNorm(phi_sqrt()))
        worst_dev = max(worst_dev, res.max_form - res.value, res.value - 2.0 * res.max_form)
    elapsed = time.time() - t0
    _report(
        "C08",
        worst_l1 <= 1e-6 and worst_dev <= 1e-6 and elapsed < 60.0,
        f"inner-L1 vs amemiya worst={worst_l1:.2e} (tol 1e-6), "
        f"max-form sandwich worst dev={worst_dev:.2e} (tol 1e-6), {elapsed:.1f}s (<60s)",
    )


def test_c09_risk_penalty_and_sandwich():
    space = FiniteProbSpace.uniform(4)
    finite = penalty(space, avar(0.5), Rv([1.0, 1.0, 0.0, 0.0]))
    infinite = penalty(space, avar(0.5), Rv([4.0, 0.0, 0.0, 0.0]))
    hand_ok = (
        finite.bounded
        and finite.value == pytest.approx(0.0, abs=1e-12)
        and not infinite.bounded
        and infinite.ray is not None
    )
    rng = np.random.default_rng(88109)
    worst_dev = -math.inf
    for k in range(50):
        n = int(rng.integers(2, 8))
        sp = FiniteProbSpace.uniform(n)
        rho = avar(float(rng.uniform(0.1, 1.0))) if k % 2 == 0 else entropic(
            float(rng.uniform(0.3, 2.0))
        )
        y = Rv(rng.standard_normal(n))
        rep = verify_sandwich(sp, rho, y, seed=k)
        worst_dev = max(worst_dev, rep.lower - rep.value, rep.value - 2.0 * rep.lower)
    _report(
        "C09",
        hand_ok and worst_dev <= 1e-6,
        f"hand instances classified={hand_ok}; sandwich worst dev={worst_dev:.2e} (tol 1e-6)",
    )


def test_c10_singular_part_trivial():
    rng = np.random.default_rng(88110)
    worst = 0.0
    for k in range(10):
        n = int(rng.integers(1, 13))
        probs = rng.random(n) + 0.05
        space = FiniteProbSpace(probs / probs.sum())
        report = singular_part_report(space, n_functionals=10, n_probes=10, seed=k)
        worst = max(worst, report.max_error)
        assert report.singular_part_trivial
    _report(
        "C10",
        worst <= 1e-12,
        f"100 functionals reconstructed from densities, worst={worst:.2e} (tol 1e-12)",
    )


def _run_cli(capsys, *args):
    code = main([str(a) for a in args])
    out = capsys.readouterr().out.strip()
    return code, (json.loads(out) if out else None)


def test_c11_cli_end_to_end(capsys):
    checks = []

    def expect(args, want, code_want=0):
        code, out = _run_cli(capsys, *args)
        got = {k: out.get(k) for k in want}
        checks.append((code == code_want and got == want, args[0], want, got, code))

    expect(
        ["norm", "--scenario", FIXTURES / "scenario_4132.csv", "--config", FIXTURES / "lp1.cfg"],
        {"norm": 2.5},
    )
    expect(
        [
            "norm",
            "--scenario",
            FIXTURES / "scenario_4132.csv",
            "--config",
            FIXTURES / "marcinkiewicz_sqrt.cfg",
        ],
        {"norm": round(2.25 / math.sqrt(0.75), 9)},
    )
    expect(
        ["norm", "--scenario", FIXTURES / "scenario_zero.csv", "--config", FIXTURES / "lp2.cfg"],
        {"norm": 0.0},
    )
    expect(
        ["dual", "--scenario", FIXTURES / "scenario_l2unit.csv", "--config", FIXTURES / "lp2.cfg"],
        {"polar": 1.0, "closed_form": 1.0, "gap": 0.0},
    )
    expect(
        [
            "dual",
            "--scenario",
            FIXTURES / "scenario_indicator.csv",
            "--config",
            FIXTURES / "marcinkiewicz_sqrt.cfg",
        ],
        {"polar": 0.5, "closed_form": 0.5, "gap": 0.0},
    )
    expect(
        ["dual", "--scenario", FIXTURES / "scenario_4132.csv", "--config", FIXTURES / "lp1.cfg"],
        {"polar": 4.0},
    )
    expect(
        ["rearrange", "--scenario", FIXTURES / "scenario_4132.csv"],
        {
            "breakpoints": [0.0, 0.25, 0.5, 0.75, 1.0],
            "values": [4.0, 3.0, 2.0, 1.0],
            "integrals": [0.0, 1.0, 1.75, 2.25, 2.5],
        },
    )
    expect(
        ["rearrange", "--scenario", FIXTURES / "scenario_twopoint.csv"],
        {"breakpoints": [0.0, 0.25, 1.0], "values": [2.0, 1.0]},
    )
    expect(
        [
            "risk",
            "--scenario",
            FIXTURES / "scenario_4132.csv",
            "--config",
            FIXTURES / "avar_half.cfg",
        ],
        {"rho": 3.5, "norm": 3.5, "dual_norm": 2.5, "penalty_finite": False},
    )

    for cfg in (
        "lp1.cfg",
        "lp2.cfg",
        "marcinkiewicz_sqrt.cfg",
        "lorentz_sqrt.cfg",
        "luxemburg_power2.cfg",
        "avar_half.cfg",
        "entropic_one.cfg",
        "gen_orlicz_lorentz.cfg",
    ):
        code, out = _run_cli(
            capsys, "check", "--random", 6, "--seed", 7, "--config", FIXTURES / cfg
        )
        checks.append((code == 0 and out["all_pass"], "check", cfg, out["all_pass"], code))

    code, out = _run_cli(
        capsys,
        "check",
        "--random",
        6,
        "--seed",
        7,
        "--config",
        FIXTURES / "broken_signed_mean.cfg",
    )
    checks.append((code == 1 and not out["all_pass"], "check-broken", "exit 1", out["all_pass"], code))

    bad = [c for c in checks if not c[0]]
    _report(
        "C11",
        not bad,
        f"{len(checks)} CLI invocations matched expected nine-decimal output"
        + (f"; failures: {bad}" if bad else ""),
    )
