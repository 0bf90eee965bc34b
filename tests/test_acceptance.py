"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line with the measured numbers.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line; without
``-s`` the lines still appear for failing criteria.
"""

import cmath
import math
import os
import time

import numpy as np
import pytest

from purcellx import (
    AnalyticSurrogate,
    AnalyticSurrogateParams,
    CompositeGreens,
    HomogeneousGreens,
    ModeSet,
    Orientation,
    PolarizedPoint,
    Position,
    Qnm,
    QnmPair,
    cdos,
    cdos_modal,
    cdos_qnm,
    decay_rate,
    fano_decompose_cdos,
    fano_profile,
    free_space_ldos,
    line_source,
    mean_q_report,
    point_source,
    qnm_phase,
    reconstruct_cdos,
    surrogate_l3,
    sweep_length,
    sweep_spectrum,
    two_dipole_rate,
    wavelength_to_k,
)
from purcellx.homogeneous import TAYLOR_SWITCH, _factors_closed, _factors_series

X = Orientation(1.0, 0.0, 0.0)
Y = Orientation(0.0, 1.0, 0.0)
VACUUM = HomogeneousGreens(1.0)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


def _pp(x, y=0.0, u=Y):
    return PolarizedPoint(Position(x, y, 0.0), u)


def test_criterion_01_free_space_identity():
    """decay_rate of a point source with env = ref = vacuum is 1 within 1e-12."""
    src = point_source(_pp(15.0, -4.0), 1.0)
    k = 0.005
    decay_rate(src, VACUUM, VACUUM, k)  # warm up
    best = math.inf
    for _ in range(10):
        t0 = time.perf_counter()
        result = decay_rate(src, VACUUM, VACUUM, k)
        best = min(best, time.perf_counter() - t0)
    err = abs(result.gamma_ratio - 1.0)
    ok = err <= 1e-12 and best < 1e-3
    _report("criterion 1 (free-space identity)",
            ok, f"|ratio-1| = {err:.2e}, runtime {best * 1e6:.0f} us")
    assert err <= 1e-12
    assert best < 1e-3


def test_criterion_02_coincidence_limits():
    """cdos(a,a,k) = n k^2/(3 pi^2) to 1e-9; branch agreement 1e-10 at the switch."""
    k = wavelength_to_k(920.0)
    p = _pp(11.0, 7.0)
    worst = 0.0
    for n in (1.0, 1.5, 3.48):
        got = cdos(HomogeneousGreens(n), p, p, k)
        expected = free_space_ldos(k, n)
        worst = max(worst, abs(got - expected) / expected)
    a_s, b_s = _factors_series(TAYLOR_SWITCH)
    a_c, b_c = _factors_closed(TAYLOR_SWITCH)
    branch = max(abs(a_s - a_c) / abs(a_c), abs(b_s - b_c) / abs(b_c))
    ok = worst <= 1e-9 and branch <= 1e-10
    _report("criterion 2 (coincidence limits)",
            ok, f"coincidence residual {worst:.2e}, branch agreement {branch:.2e}")
    assert worst <= 1e-9
    assert branch <= 1e-10


def test_criterion_03_single_mode_factorization():
    """rho_12^2 = rho_11 rho_22 to 1e-9 over 100 random pairs x 50 frequencies."""
    ms = ModeSet((surrogate_l3(),))
    k_m = ms.modes[0].k_m
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        a = _pp(rng.uniform(-400, 400), rng.uniform(-200, 200))
        b = _pp(rng.uniform(-400, 400), rng.uniform(-200, 200))
        for k in k_m * (1.0 + rng.uniform(-2e-3, 2e-3, size=50)):
            r12 = cdos_modal(ms, a, b, float(k))
            r11 = cdos_modal(ms, a, a, float(k))
            r22 = cdos_modal(ms, b, b, float(k))
            scale = max(r12 * r12, r11 * r22, 1e-300)
            worst = max(worst, abs(r12 * r12 - r11 * r22) / scale)
    ok = worst <= 1e-9
    _report("criterion 3 (single-mode factorization)", ok, f"max residual {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_04_super_subradiance_doubling():
    """Idealized single-mode pair: phase pi doubles / phase 0 cancels at
    opposite-sign points, and mirrored at same-sign points, all to 1e-12."""
    env = ModeSet((surrogate_l3(),))
    k = env.modes[0].k_m
    a = _pp(60.0, u=Y)
    b_opp = PolarizedPoint(Position(-60.0, 0.0, 0.0), Orientation(0.0, -1.0, 0.0))
    b_same = PolarizedPoint(Position(-60.0, 0.0, 0.0), Y)
    single = env.cdos(a, a, k)  # unit-amplitude point-source numerator

    residuals = {
        "opp/pi": abs(two_dipole_rate(a, b_opp, 1.0, math.pi, env, k) - 2.0 * single)
        / (2.0 * single),
        "opp/0": abs(two_dipole_rate(a, b_opp, 1.0, 0.0, env, k)) / single,
        "same/0": abs(two_dipole_rate(a, b_same, 1.0, 0.0, env, k) - 2.0 * single)
        / (2.0 * single),
        "same/pi": abs(two_dipole_rate(a, b_same, 1.0, math.pi, env, k)) / single,
    }
    worst = max(residuals.values())
    ok = worst <= 1e-12
    _report("criterion 4 (super/subradiance doubling)",
            ok, ", ".join(f"{k_}={v:.1e}" for k_, v in residuals.items()))
    assert worst <= 1e-12


def test_criterion_05_homogeneous_nanowire_maximum():
    """Stated: the coherent rate of the transverse nanowire cluster in
    n = 3.48 at lambda = 1270 nm peaks at d = lambda/(2n) ~ 182 nm (+-5%).

    The implemented model places the interior maximum where
    int_0^X u A(u) du = 0, i.e. tan X = X with X = 2 pi n d / lambda,
    giving d ~ 261 nm.  The criterion is asserted at its originally targeted
    value rather than tuned to the model.
    """
    n = 3.48
    lam = 1270.0
    k = wavelength_to_k(lam)
    env = HomogeneousGreens(n)
    # constant 2.5 nm element spacing: 65..169 elements across the grid,
    # satisfying the >= 64 element requirement around the candidate peaks
    ds = np.linspace(160.0, 420.0, 100)
    t0 = time.perf_counter()
    curve = sweep_length(Position(0, 0, 0), X, Y, ds, 1.0, env, env, k,
                         elements=lambda d: int(math.ceil(d / 2.5)) + 1)
    runtime = time.perf_counter() - t0
    d_peak = float(ds[int(np.argmax(curve.numerator))])
    d_claimed = lam / (2.0 * n)
    d_model = 4.493409457909064 / (n * k)
    ok = abs(d_peak - d_claimed) <= 0.05 * d_claimed and runtime < 10.0
    _report(
        "criterion 5 (homogeneous nanowire maximum)",
        ok,
        f"measured peak {d_peak:.1f} nm vs stated {d_claimed:.1f} nm (+-5%); "
        f"model prediction (tan X = X) {d_model:.1f} nm; runtime {runtime:.1f} s",
    )
    assert runtime < 10.0
    assert abs(d_peak - d_claimed) <= 0.05 * d_claimed, (
        f"measured peak {d_peak:.1f} nm sits at the tan X = X location "
        f"{d_model:.1f} nm predicted for this model, not at lambda/(2n) = "
        f"{d_claimed:.1f} nm; the assertion is kept at the original target"
    )


def test_criterion_06_fano_identities():
    """F(q=1)=0, F(q=0)=-1, F(q=3)=0.8 at resonance; infinite-q branch is the
    unit-peak Lorentzian to 1e-9."""
    k_m, g = 0.005, 1e-5
    r1 = abs(fano_profile(k_m, g, 1.0, k_m))
    r0 = abs(fano_profile(k_m, g, 0.0, k_m) + 1.0)
    r3 = abs(fano_profile(k_m, g, 3.0, k_m) - 0.8)
    ks = np.linspace(k_m - 25 * g, k_m + 25 * g, 401)
    lorentz = (g / 2) ** 2 / ((ks - k_m) ** 2 + (g / 2) ** 2)
    rinf = float(np.max(np.abs(fano_profile(k_m, g, math.inf, ks) - lorentz)))
    ok = r1 == 0.0 and r0 == 0.0 and r3 <= 1e-12 and rinf <= 1e-9
    _report("criterion 6 (Fano identities)",
            ok, f"q=1: {r1:.1e}, q=0: {r0:.1e}, q=3: {r3:.1e}, inf-q: {rinf:.1e}")
    assert r1 == 0.0
    assert r0 == 0.0
    assert r3 <= 1e-12
    assert rinf <= 1e-9


def _random_qnm_pair(rng):
    def surrogate(amp, x0, sx):
        return AnalyticSurrogate(
            AnalyticSurrogateParams(x0, sx, rng.uniform(80, 240), X, amp)
        )

    def amp():
        z = complex(rng.normal(), rng.normal())
        return z if abs(z) > 0.2 else 1.0 + 0.3j

    k_a = rng.uniform(0.004, 0.006)
    g_a = k_a / rng.uniform(100, 400)
    k_b = k_a + rng.uniform(-1.0, 1.0) * g_a
    g_b = g_a / rng.uniform(2, 20)
    return QnmPair(
        Qnm(surrogate(amp(), rng.uniform(120, 200), rng.uniform(250, 500)), k_a, g_a),
        Qnm(surrogate(amp(), rng.uniform(80, 160), rng.uniform(200, 400)), k_b, g_b),
    )


def test_criterion_07_fano_decomposition_oracle():
    """50 random two-QNM configurations: the half-angle decomposition
    reconstructs the CDOS spectrum on a 200-point grid to 1e-9; the
    arithmetic-mean-of-tangents report is emitted and agrees exactly
    whenever the two point phases coincide."""
    rng = np.random.default_rng(2024)
    worst_half = 0.0
    worst_mean_equal = 0.0
    mean_devs = []
    equal_cases = 0
    for trial in range(50):
        pair = _random_qnm_pair(rng)
        a = _pp(rng.uniform(-200, 200), rng.uniform(-100, 100), u=X)
        if trial % 5 == 0:
            b = a  # coincident points force phi_1 = phi_2 for both modes
        else:
            b = _pp(rng.uniform(-200, 200), rng.uniform(-100, 100), u=X)
        k_c = pair.qnm_a.k_m
        span = 6.0 * pair.qnm_a.gamma_m
        ks = np.linspace(k_c - span, k_c + span, 200)
        report = mean_q_report(pair, a, b, ks)
        worst_half = max(worst_half, report["max_rel_dev_halfangle"])
        mean_devs.append(report["max_rel_dev_mean"])
        if all(report["phases_equal_per_mode"]):
            equal_cases += 1
            worst_mean_equal = max(worst_mean_equal, report["max_rel_dev_mean"])
    ok = worst_half <= 1e-9 and worst_mean_equal <= 1e-9 and equal_cases >= 10
    _report(
        "criterion 7 (Fano decomposition oracle)",
        ok,
        f"half-angle max residual {worst_half:.2e} over 50 configs; "
        f"arithmetic-mean convention: exact on {equal_cases} equal-phase configs "
        f"(residual {worst_mean_equal:.2e}), deviates up to "
        f"{max(mean_devs):.2e} otherwise (reported, not asserted)",
    )
    assert worst_half <= 1e-9
    assert equal_cases >= 10
    assert worst_mean_equal <= 1e-9


def test_criterion_08_high_q_consistency():
    """Lossy-mode and two-pole CDOS agree within 0.5% across +-3 gamma for a
    Q = 2000 real-field mode."""
    from purcellx import LossyMode

    k_m = wavelength_to_k(1270.0)
    g = k_m / 2000.0
    field = AnalyticSurrogate(AnalyticSurrogateParams(160.0, 400.0, 120.0, Y, 1.0))
    dead = AnalyticSurrogate(AnalyticSurrogateParams(160.0, 400.0, 120.0, Y, 0.0))
    ms = ModeSet((LossyMode(field, k_m, g),))
    pair = QnmPair(Qnm(field, k_m, g), Qnm(dead, k_m, g))
    a = _pp(50.0, 20.0)
    b = _pp(-120.0, 0.0)
    worst = 0.0
    for k in np.linspace(k_m - 3 * g, k_m + 3 * g, 121):
        m = cdos_modal(ms, a, b, float(k))
        q = cdos_qnm(pair, a, b, float(k))
        worst = max(worst, abs(m - q) / abs(m))
    ok = worst <= 5e-3
    _report("criterion 8 (high-Q consistency)", ok, f"max relative deviation {worst:.2e}")
    assert worst <= 5e-3


def test_criterion_09_surrogate_length_sweep_structure():
    """Surrogate-cavity length sweep: flat within 10% of the plateau level
    for d < 2 x0, then monotone descent to an interior minimum; the first
    negative extremity-center CDOS precedes the half-way point of the
    descent."""
    mode = surrogate_l3()
    env = CompositeGreens(HomogeneousGreens(3.48), ModeSet((mode,)))
    ref = HomogeneousGreens(3.48)
    ds = np.linspace(0.0, 800.0, 81)
    t0 = time.perf_counter()
    # 2.5 nm element spacing keeps the line-cluster quadrature error well
    # below the 10% band being tested
    curve = sweep_length(Position(0, 0, 0), X, Y, ds, 1.0, env, ref, mode.k_m,
                         elements=lambda d: max(1, int(math.ceil(d / 2.5)) + 1))
    runtime = time.perf_counter() - t0

    vals = curve.gamma_ratio
    x0 = 160.0
    plateau = vals[ds < 2 * x0]
    level = float(np.mean(plateau))
    flat_dev = float(np.max(np.abs(plateau / level - 1.0)))

    i0 = int(np.argmax(ds >= 2 * x0))
    i_min = int(np.argmin(vals))
    interior_min = i0 < i_min < len(ds) - 1
    monotone = bool(np.all(np.diff(vals[i0:i_min + 1]) < 0.0))

    neg = curve.extremity_field < 0.0
    d_neg = float(ds[int(np.argmax(neg))]) if neg.any() else math.inf
    half_level = 0.5 * (level + vals[i_min])
    d_half = float(ds[int(np.argmax(vals <= half_level))])
    precedes = d_neg <= d_half

    ok = flat_dev <= 0.10 and interior_min and monotone and precedes and runtime < 30.0
    _report(
        "criterion 9 (surrogate length-sweep structure)",
        ok,
        f"plateau dev {flat_dev * 100:.1f}% (d < {2 * x0:.0f} nm), minimum at "
        f"{ds[i_min]:.0f} nm, monotone descent {monotone}, CDOS sign change at "
        f"{d_neg:.0f} nm vs descent midpoint {d_half:.0f} nm, runtime {runtime:.1f} s",
    )
    assert flat_dev <= 0.10
    assert interior_min and monotone
    assert precedes
    assert runtime < 30.0


def test_criterion_10_spectral_reshaping():
    """Two-QNM unbalanced-loss environment: point-source and 300 nm
    line-source spectra are not proportional (ratio varies > 10%, peak
    positions differ)."""
    k_a = wavelength_to_k(1270.0)
    g_a = k_a / 200.0
    k_b = k_a + 0.5 * g_a  # same resonance within one linewidth
    g_b = g_a / 10.0       # gamma_a = 10 gamma_b

    def surrogate(amp, x0, sx):
        return AnalyticSurrogate(AnalyticSurrogateParams(x0, sx, 120.0, X, amp))

    pair = QnmPair(
        Qnm(surrogate(cmath.exp(1j * math.pi / 8), 160.0, 400.0), k_a, g_a),
        Qnm(surrogate(0.8 * cmath.exp(1j * math.pi / 4), 120.0, 300.0), k_b, g_b),
    )
    env = CompositeGreens(HomogeneousGreens(1.0), pair)
    center = Position(132.0, 0.0, 0.0)
    ks = np.linspace(k_a - 3 * g_a, k_a + 3 * g_a, 201)
    point = sweep_spectrum(point_source(PolarizedPoint(center, X)), env, VACUUM, ks)
    line = sweep_spectrum(line_source(center, X, X, 300.0, 64, 1.0), env, VACUUM, ks)
    p = np.asarray(point.samples, dtype=float)
    l = np.asarray(line.samples, dtype=float)

    peaks_differ = int(np.argmax(p)) != int(np.argmax(l))
    # ratio variation measured away from the point spectrum's zero crossings
    mask = p > 0.05 * p.max()
    ratio = l[mask] / p[mask]
    variation = float(ratio.max() / ratio.min() - 1.0) if ratio.min() > 0 else math.inf
    ok = peaks_differ and variation > 0.10
    _report(
        "criterion 10 (spectral reshaping)",
        ok,
        f"peak k: point {point.k_values[int(np.argmax(p))]:.6g} vs line "
        f"{line.k_values[int(np.argmax(l))]:.6g}; ratio varies by "
        f"{variation * 100 if math.isfinite(variation) else math.inf:.0f}% across the band",
    )
    assert peaks_differ
    assert variation > 0.10


def test_criterion_11_worker_determinism(tmp_path):
    """Identical CSV bytes from two runs of each of the three sweep scenarios
    (criteria 5, 9, 10 configurations)."""
    from purcellx.cli import main

    configs_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               os.pardir, "configs")
    scenarios = [
        ("homogeneous_line_length.yaml", "homogeneous-line-length_length.csv"),
        ("surrogate_l3_line_length.yaml", "surrogate-l3-line-length_length.csv"),
        ("two_qnm_line_spectrum.yaml", "two-qnm-line-spectrum_spectrum.csv"),
    ]
    all_equal = True
    details = []
    for config_name, csv_name in scenarios:
        blobs = []
        for run in (1, 2):
            out = tmp_path / f"{config_name}-{run}"
            code = main(["run", "--config", os.path.join(configs_dir, config_name),
                         "--out", str(out), "--format", "csv"])
            assert code == 0
            blobs.append((out / csv_name).read_bytes())
        equal = blobs[0] == blobs[1]
        all_equal = all_equal and equal
        details.append(f"{config_name}: {'identical' if equal else 'DIFFER'}")
    _report("criterion 11 (run-to-run determinism)",
            all_equal, "two runs each; " + "; ".join(details))
    assert all_equal
