"""Command-line front end: config-driven sweeps and a self-check suite.

Two subcommands:

* ``purcellx run --config scenario.yaml [--out DIR] [--format csv|json|both]``
  validates the config, executes the sweep and writes CSV/JSON outputs.
  Exit codes: 0 success, 2 config error, 3 runtime error.
* ``purcellx check [--verbose]`` runs the cross-module invariant suite and
  exits nonzero if any invariant fails.

Config keys map to library parameters as ``x0_nm`` -> ``sign_change_half_width``,
``sigma_x_nm``/``sigma_y_nm`` -> ``sigma_x``/``sigma_y``, ``d_nm`` -> ``d``,
``elements: auto|N`` -> ``n_elements`` and a line's or pair's ``amplitude`` -> ``p``.
``lambda_m_nm``|``k_m`` gives ``k_m`` and ``q``|``gamma_m`` gives ``gamma_m``;
each of these pairs, and a sweep's ``lambda_nm``|``k``, takes exactly one key.
Sweep outputs are bitwise deterministic for a fixed config: every sweep
runs on one thread, and no point's value depends on the rest of its grid.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
import yaml

from . import engine, homogeneous, modal, qnm, sources
from .core import (
    InvalidArgumentError,
    Orientation,
    PolarizedPoint,
    Position,
    PurcellxError,
    free_space_ldos,
    wavelength_to_k,
)
from .fields import AnalyticSurrogate, AnalyticSurrogateParams, load_grid_field

__all__ = ["main", "ConfigError", "run_scenario", "run_checks"]


class ConfigError(Exception):
    """Config validation failure; carries the offending field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


# ---------------------------------------------------------------------------
# config parsing


def _req(mapping, key, path):
    if not isinstance(mapping, dict):
        raise ConfigError(path, "expected a mapping")
    if key not in mapping:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return mapping[key]


def _number(value, path, positive=False, minimum=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an int too large for a float
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(path, "must be finite")
    if positive and v <= 0:
        raise ConfigError(path, f"must be positive, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {v!r}")
    return v


def _count(value, path) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(path, f"expected an integer >= 1, got {value!r}")
    return value


def _vec3(value, path):
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(path, f"expected a 3-vector, got {value!r}")
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(value))


def _position(value, path) -> Position:
    return Position(*_vec3(value, path))


def _direction(value, path) -> Orientation:
    try:
        return Orientation.from_vector(*_vec3(value, path))
    except InvalidArgumentError as exc:
        raise ConfigError(path, str(exc)) from exc


def _polarized_point(spec, path) -> PolarizedPoint:
    return PolarizedPoint(
        _position(_req(spec, "position", path), f"{path}.position"),
        _direction(_req(spec, "orientation", path), f"{path}.orientation"),
    )


def _complex_amplitude(value, path) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_number(value, path), 0.0)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]"))
    raise ConfigError(path, f"expected a number or [re, im] pair, got {value!r}")


def _either(spec, path, first, second):
    """The one key of ``first`` and ``second`` that ``spec`` gives."""
    if (first in spec) == (second in spec):
        raise ConfigError(path, f"give exactly one of {first} or {second}")
    return first if first in spec else second


def _resonance(spec, path):
    """Return (k_m, gamma_m) from lambda_m_nm|k_m plus q|gamma_m."""
    key = _either(spec, path, "k_m", "lambda_m_nm")
    k_m = _number(spec[key], f"{path}.{key}", positive=True)
    if key == "lambda_m_nm":
        k_m = wavelength_to_k(k_m)
    key = _either(spec, path, "gamma_m", "q")
    value = _number(spec[key], f"{path}.{key}", positive=True)
    return k_m, (value if key == "gamma_m" else k_m / value)


def _field_model(spec, path, base_dir):
    kind = _req(spec, "kind", path)
    if kind == "surrogate_l3":
        params = AnalyticSurrogateParams(
            sign_change_half_width=_number(_req(spec, "x0_nm", path), f"{path}.x0_nm", positive=True),
            sigma_x=_number(_req(spec, "sigma_x_nm", path), f"{path}.sigma_x_nm", positive=True),
            sigma_y=_number(_req(spec, "sigma_y_nm", path), f"{path}.sigma_y_nm", positive=True),
            polarization=_direction(_req(spec, "polarization", path), f"{path}.polarization"),
            amplitude=_complex_amplitude(spec.get("amplitude", 1.0), f"{path}.amplitude"),
        )
        return AnalyticSurrogate(params)
    if kind == "grid":
        raw_path = _req(spec, "path", path)
        if not isinstance(raw_path, str):
            raise ConfigError(f"{path}.path", f"expected a file path, got {raw_path!r}")
        try:
            return load_grid_field(os.path.join(base_dir, raw_path))
        except (PurcellxError, OSError) as exc:
            raise ConfigError(f"{path}.path", str(exc)) from exc
    raise ConfigError(f"{path}.kind", f"unknown field model kind {kind!r}")


def _mode(cls, spec, path, base_dir):
    """A ``modal.LossyMode`` or ``qnm.Qnm`` entry: a field model plus its resonance."""
    field = _field_model(spec, path, base_dir)
    k_m, gamma_m = _resonance(spec, path)
    return cls(field=field, k_m=k_m, gamma_m=gamma_m)


def _environment(spec, path, base_dir):
    kind = _req(spec, "kind", path)
    if kind == "homogeneous":
        return homogeneous.HomogeneousGreens(n=_number(_req(spec, "n", path), f"{path}.n", minimum=1.0))
    if kind == "modal":
        raw = _req(spec, "modes", path)
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{path}.modes", "expected a non-empty list of modes")
        return modal.ModeSet(tuple(_mode(modal.LossyMode, m, f"{path}.modes[{i}]", base_dir)
                                   for i, m in enumerate(raw)))
    if kind == "qnm_pair":
        raw = _req(spec, "qnms", path)
        if not isinstance(raw, list) or len(raw) != 2:
            raise ConfigError(f"{path}.qnms", "expected exactly 2 entries")
        return qnm.QnmPair(*(_mode(qnm.Qnm, m, f"{path}.qnms[{i}]", base_dir)
                             for i, m in enumerate(raw)))
    if kind == "composite":
        background = homogeneous.HomogeneousGreens(
            n=_number(_req(spec, "background_n", path), f"{path}.background_n", minimum=1.0)
        )
        structured = _environment(_req(spec, "structured", path), f"{path}.structured", base_dir)
        if isinstance(structured, homogeneous.HomogeneousGreens):
            raise ConfigError(f"{path}.structured.kind", "structured part must be modal or qnm_pair")
        return engine.CompositeGreens(background=background, structured=structured)
    raise ConfigError(f"{path}.kind", f"unknown environment kind {kind!r}")


@dataclass
class LineSpec:
    center: Position
    axis: Orientation
    polarization: Orientation
    d_nm: float | None
    elements: int | None
    amplitude: float


def _source(spec, path):
    kind = _req(spec, "kind", path)
    if kind == "point":
        point = _polarized_point(spec, path)
        amplitude = _complex_amplitude(spec.get("amplitude", 1.0), f"{path}.amplitude")
        if amplitude == 0:
            raise ConfigError(f"{path}.amplitude", "must be nonzero")
        return sources.point_source(point, amplitude)
    if kind == "pair":
        return sources.pair_source(
            _polarized_point(_req(spec, "a", path), f"{path}.a"),
            _polarized_point(_req(spec, "b", path), f"{path}.b"),
            _number(spec.get("amplitude", 1.0), f"{path}.amplitude", positive=True),
            _number(spec.get("phase", 0.0), f"{path}.phase"),
        )
    if kind == "line":
        elements = spec.get("elements", "auto")
        elements = None if elements == "auto" else _count(elements, f"{path}.elements")
        d_nm = spec.get("d_nm")
        if d_nm is not None:
            d_nm = _number(d_nm, f"{path}.d_nm", minimum=0.0)
        return LineSpec(
            center=_position(_req(spec, "center", path), f"{path}.center"),
            axis=_direction(_req(spec, "axis", path), f"{path}.axis"),
            polarization=_direction(_req(spec, "polarization", path), f"{path}.polarization"),
            d_nm=d_nm,
            elements=elements,
            amplitude=_number(spec.get("amplitude", 1.0), f"{path}.amplitude", positive=True),
        )
    raise ConfigError(f"{path}.kind", f"unknown source kind {kind!r}")


def _grid_spec(spec, path, **bounds) -> np.ndarray:
    """``count`` points ascending from ``start``, so ``bounds`` checked on ``start`` hold for all."""
    start = _number(_req(spec, "start", path), f"{path}.start", **bounds)
    stop = _number(_req(spec, "stop", path), f"{path}.stop")
    count = _count(_req(spec, "count", path), f"{path}.count")
    if count > 1 and stop <= start:
        raise ConfigError(f"{path}.stop", "must exceed start")
    return np.linspace(start, stop, count)


def _sweep(spec, path):
    kind = _req(spec, "kind", path)
    if kind not in ("spectrum", "length"):
        raise ConfigError(f"{path}.kind", f"unknown sweep kind {kind!r}")
    key = _either(spec, path, "k", "lambda_nm")
    if kind == "spectrum":
        grid = _grid_spec(spec[key], f"{path}.{key}", positive=True)
        return ("spectrum", grid if key == "k" else np.sort(2.0 * math.pi / grid))
    d_grid = _grid_spec(_req(spec, "d_nm", path), f"{path}.d_nm", minimum=0.0)
    k = _number(spec[key], f"{path}.{key}", positive=True)
    return ("length", d_grid, k if key == "k" else wavelength_to_k(k))


@dataclass
class ScenarioConfig:
    scenario: str
    environment: object
    reference: object
    source: object
    sweep: tuple
    config_hash: str


def parse_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    try:
        data = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError("config", f"not valid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config", "top level must be a mapping")

    scenario = _req(data, "scenario", "")
    if not isinstance(scenario, str) or not scenario:
        raise ConfigError("scenario", "must be a non-empty string")
    if scenario in (".", "..") or "/" in scenario or "\\" in scenario:
        raise ConfigError("scenario", f"must name files in --out, not a path: {scenario!r}")

    base_dir = os.path.dirname(os.path.abspath(path))
    environment = _environment(_req(data, "environment", ""), "environment", base_dir)
    reference = _environment(_req(data, "reference", ""), "reference", base_dir)
    source = _source(_req(data, "source", ""), "source")
    sweep = _sweep(_req(data, "sweep", ""), "sweep")

    if sweep[0] == "length" and not isinstance(source, LineSpec):
        raise ConfigError("source.kind", "length sweeps require a line source")
    if sweep[0] == "spectrum" and isinstance(source, LineSpec):
        if source.d_nm is None:
            raise ConfigError("source.d_nm", "required for spectrum sweeps of a line source")

    return ScenarioConfig(
        scenario=scenario,
        environment=environment,
        reference=reference,
        source=source,
        sweep=sweep,
        config_hash=hashlib.sha256(raw).hexdigest(),
    )


# ---------------------------------------------------------------------------
# execution and output


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def run_scenario(cfg: ScenarioConfig, out_dir: str, output_format: str, verbose: bool):
    """Execute a parsed scenario and write its outputs; returns the summary."""
    os.makedirs(out_dir, exist_ok=True)
    kind = cfg.sweep[0]
    if kind == "spectrum":
        _, k_grid = cfg.sweep
        if isinstance(cfg.source, LineSpec):
            spec = cfg.source
            n_elem = spec.elements or sources.default_element_count(
                spec.d_nm, float(k_grid[len(k_grid) // 2]), n=cfg.environment.background_index
            )
            src = sources.line_source(
                spec.center, spec.axis, spec.polarization, spec.d_nm, n_elem, spec.amplitude
            )
        else:
            src = cfg.source
        spectrum = engine.sweep_spectrum(src, cfg.environment, cfg.reference, k_grid)
        grid = spectrum.k_values
        values = np.asarray(spectrum.samples, dtype=float)
        columns = {"k": grid, "lambda_nm": 2.0 * math.pi / grid, "gamma_ratio": values}
    else:
        _, d_grid, k = cfg.sweep
        spec = cfg.source
        result = engine.sweep_length(
            spec.center, spec.axis, spec.polarization, d_grid, spec.amplitude,
            cfg.environment, cfg.reference, k, elements=spec.elements,
        )
        grid = result.d_values
        values = result.gamma_ratio
        columns = {"d_nm": grid, "gamma_ratio": values, "extremity_field": result.extremity_field}

    i_min = int(np.argmin(values))
    i_max = int(np.argmax(values))
    summary = {
        "scenario": cfg.scenario,
        "k_or_d_at_extremum": float(grid[i_max]),
        "gamma_ratio_min": float(values[i_min]),
        "gamma_ratio_max": float(values[i_max]),
    }

    written = []
    if output_format in ("csv", "both"):
        csv_path = os.path.join(out_dir, f"{cfg.scenario}_{kind}.csv")
        lines = [f"# purcellx {kind} sweep", f"# scenario={cfg.scenario}",
                 f"# config_sha256={cfg.config_hash}", ",".join(columns),
                 *(",".join(map(_fmt, row)) for row in zip(*columns.values()))]
        with open(csv_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        written.append(csv_path)
    if output_format in ("json", "both"):
        json_path = os.path.join(out_dir, f"{cfg.scenario}_summary.json")
        with open(json_path, "w", encoding="ascii") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        written.append(json_path)

    print(
        f"{cfg.scenario}: gamma_ratio min={summary['gamma_ratio_min']:.6g} "
        f"max={summary['gamma_ratio_max']:.6g} "
        f"argmax={summary['k_or_d_at_extremum']:.6g}"
    )
    if verbose:
        for path in written:
            print(f"  wrote {path}")
    return summary


# ---------------------------------------------------------------------------
# self-check suite


def _check_coincidence():
    k = wavelength_to_k(1270.0)
    point = PolarizedPoint(Position(12.0, -7.0, 3.0), Orientation(0.0, 0.0, 1.0))
    worst = 0.0
    for n in (1.0, 1.5, 3.48):
        env = homogeneous.HomogeneousGreens(n=n)
        got = homogeneous.cdos(env, point, point, k)
        expected = free_space_ldos(k, n)
        worst = max(worst, abs(got - expected) / expected)
    return worst, "cdos(a,a,k) vs n*k^2/(3*pi^2) for n in {1, 1.5, 3.48}"


def _check_branch_continuity():
    x = homogeneous.TAYLOR_SWITCH
    a_s, b_s = homogeneous._factors_series(x)
    a_c, b_c = homogeneous._factors_closed(x)
    worst = max(abs(a_s - a_c) / abs(a_c), abs(b_s - b_c) / abs(b_c))
    return worst, "series vs closed-form radial factors at the switch point"


def _check_radial_closed_form():
    # the doubles at and next to the multiples of math.pi up to 300, where tan(x/2)
    # is near its poles (odd multiples) and zeros (even ones), and a log grid
    multiples = [m * math.pi for m in range(1, 96)]
    xs = sorted({float(y) for x in multiples
                 for y in (np.nextafter(x, 0.0), x, np.nextafter(x, math.inf))}
                | set(np.geomspace(homogeneous.TAYLOR_SWITCH, 300.0, 200).tolist()))
    a, b = homogeneous._factors_closed(np.array(xs))
    worst = 0.0
    for x, a_x, b_x in zip(xs, a.tolist(), b.tolist()):
        sx, cx2, sx3 = math.sin(x) / x, math.cos(x) / x**2, math.sin(x) / x**3
        worst = max(worst,
                    abs(a_x - (sx + cx2 - sx3)) / (abs(sx) + abs(cx2) + abs(sx3)),
                    abs(b_x - (-sx - 3.0 * cx2 + 3.0 * sx3))
                    / (abs(sx) + 3.0 * abs(cx2) + 3.0 * abs(sx3)))
    return worst, (f"tan(x/2) closed-form radial factors vs math.sin/math.cos at {len(xs)} x "
                   "in [TAYLOR_SWITCH, 300] and next to multiples of pi, relative to the "
                   "summed term magnitudes")


def _check_symmetry():
    rng = np.random.default_rng(7)
    env = homogeneous.HomogeneousGreens(n=1.5)
    worst = 0.0
    for _ in range(50):
        pa = Position(*(rng.uniform(-500, 500, 3)))
        pb = Position(*(rng.uniform(-500, 500, 3)))
        ua = Orientation.from_vector(*rng.normal(size=3))
        ub = Orientation.from_vector(*rng.normal(size=3))
        k = rng.uniform(0.002, 0.02)
        ab = homogeneous.cdos(env, PolarizedPoint(pa, ua), PolarizedPoint(pb, ub), k)
        ba = homogeneous.cdos(env, PolarizedPoint(pb, ub), PolarizedPoint(pa, ua), k)
        scale = max(abs(ab), abs(ba), 1e-300)
        worst = max(worst, abs(ab - ba) / scale)
    return worst, "cdos swap symmetry over random geometries"


def _check_factorization():
    mode = modal.surrogate_l3()
    ms = modal.ModeSet((mode,))
    rng = np.random.default_rng(11)
    u = Orientation(0.0, 1.0, 0.0)
    worst = 0.0
    for _ in range(20):
        a = PolarizedPoint(Position(rng.uniform(-400, 400), rng.uniform(-200, 200), 0.0), u)
        b = PolarizedPoint(Position(rng.uniform(-400, 400), rng.uniform(-200, 200), 0.0), u)
        for _ in range(10):
            k = mode.k_m * (1.0 + rng.uniform(-2e-3, 2e-3))
            r12 = modal.cdos_modal(ms, a, b, k)
            r11 = modal.cdos_modal(ms, a, a, k)
            r22 = modal.cdos_modal(ms, b, b, k)
            scale = max(r12 * r12, r11 * r22, 1e-300)
            worst = max(worst, abs(r12 * r12 - r11 * r22) / scale)
    return worst, "single-mode CDOS factorization rho_12^2 = rho_11 rho_22"


def _check_point_reduction():
    k = wavelength_to_k(1270.0)
    mode = modal.surrogate_l3()
    env = engine.CompositeGreens(homogeneous.HomogeneousGreens(1.0), modal.ModeSet((mode,)))
    ref = homogeneous.HomogeneousGreens(1.0)
    point = PolarizedPoint(Position(40.0, 10.0, 0.0), Orientation(0.0, 1.0, 0.0))
    src = sources.point_source(point, 2.0 - 1.0j)
    got = engine.decay_rate(src, env, ref, k).gamma_ratio
    expected = env.cdos(point, point, k) / ref.cdos(point, point, k)
    worst = abs(got - expected) / abs(expected)
    return worst, "point-source decay_rate equals the LDOS ratio"


def _check_fano_fixed_points():
    k_m, g = 0.005, 1e-5
    worst = max(
        abs(qnm.fano_profile(k_m, g, 1.0, k_m)),
        abs(qnm.fano_profile(k_m, g, 0.0, k_m) + 1.0),
        abs(qnm.fano_profile(k_m, g, 3.0, k_m) - 0.8),
    )
    ks = np.linspace(k_m - 10 * g, k_m + 10 * g, 101)
    lorentz = (g / 2) ** 2 / ((ks - k_m) ** 2 + (g / 2) ** 2)
    worst = max(worst, float(np.max(np.abs(qnm.fano_profile(k_m, g, math.inf, ks) - lorentz))))
    return worst, "Fano fixed points and the infinite-q Lorentzian limit"


def _random_qnm_pair(rng):
    def make(k_m, gamma_m):
        params = AnalyticSurrogateParams(
            sign_change_half_width=rng.uniform(80, 240),
            sigma_x=rng.uniform(200, 600),
            sigma_y=rng.uniform(80, 240),
            polarization=Orientation(1.0, 0.0, 0.0),
            amplitude=complex(rng.normal(), rng.normal()),
        )
        return qnm.Qnm(field=AnalyticSurrogate(params), k_m=k_m, gamma_m=gamma_m)
    k_a = rng.uniform(0.004, 0.006)
    g_a = k_a / rng.uniform(100, 400)
    k_b = k_a + rng.uniform(-1.0, 1.0) * g_a
    g_b = g_a / rng.uniform(2, 20)
    return qnm.QnmPair(make(k_a, g_a), make(k_b, g_b))


def _check_fano_decomposition():
    rng = np.random.default_rng(23)
    u = Orientation(1.0, 0.0, 0.0)
    worst = 0.0
    mean_devs = []
    for _ in range(10):
        pair = _random_qnm_pair(rng)
        a = PolarizedPoint(Position(rng.uniform(-200, 200), rng.uniform(-100, 100), 0.0), u)
        b = PolarizedPoint(Position(rng.uniform(-200, 200), rng.uniform(-100, 100), 0.0), u)
        k_c = pair.qnm_a.k_m
        span = 6.0 * pair.qnm_a.gamma_m
        ks = np.linspace(k_c - span, k_c + span, 200)
        report = qnm.mean_q_report(pair, a, b, ks)
        worst = max(worst, report["max_rel_dev_halfangle"])
        mean_devs.append(report["max_rel_dev_mean"])
    note = (
        "half-angle Fano decomposition vs direct CDOS on 200-point grids; "
        f"arithmetic-mean convention deviates by up to {max(mean_devs):.3e} (reported only); "
        f"per-config mean-q deviations: {['%.2e' % d for d in mean_devs]}"
    )
    return worst, note


def _check_modal_qnm_consistency():
    k_m = wavelength_to_k(1270.0)
    gamma = k_m / 2000.0
    params = modal.DEFAULT_SURROGATE_PARAMS
    field = AnalyticSurrogate(params)
    ms = modal.ModeSet((modal.LossyMode(field, k_m, gamma),))
    zero = AnalyticSurrogate(
        AnalyticSurrogateParams(160.0, 400.0, 120.0, Orientation(0.0, 1.0, 0.0), 0.0)
    )
    pair = qnm.QnmPair(qnm.Qnm(field, k_m, gamma), qnm.Qnm(zero, k_m, gamma))
    a = PolarizedPoint(Position(50.0, 20.0, 0.0), Orientation(0.0, 1.0, 0.0))
    b = PolarizedPoint(Position(-120.0, 0.0, 0.0), Orientation(0.0, 1.0, 0.0))
    worst = 0.0
    for k in np.linspace(k_m - 3 * gamma, k_m + 3 * gamma, 61):
        m = modal.cdos_modal(ms, a, b, float(k))
        q = qnm.cdos_qnm(pair, a, b, float(k))
        worst = max(worst, abs(m - q) / max(abs(m), 1e-300))
    return worst, "lossy-mode vs two-pole CDOS for a Q=2000 real-field mode"


def _check_pair_doubling():
    mode = modal.surrogate_l3()
    env = modal.ModeSet((mode,))
    k = mode.k_m
    y = Orientation(0.0, 1.0, 0.0)
    a = PolarizedPoint(Position(60.0, 0.0, 0.0), y)
    b_opp = PolarizedPoint(Position(-60.0, 0.0, 0.0), Orientation(0.0, -1.0, 0.0))
    single = env.cdos(a, a, k)  # numerator of a unit-amplitude point source
    anti = engine.two_dipole_rate(a, b_opp, 1.0, math.pi, env, k)
    sub = engine.two_dipole_rate(a, b_opp, 1.0, 0.0, env, k)
    worst = max(abs(anti - 2.0 * single) / (2.0 * single), abs(sub) / single)
    return worst, "opposite-sign pair: doubling at phase pi, null at phase 0"


def _check_lattice_lag_sum():
    rng = np.random.default_rng(31)
    grid = sources.SamplingGrid((-180.0, -120.0, 0.0), (180.0, 150.0, 0.0), (12, 9, 1))
    ramp, tilt = rng.uniform(-0.02, 0.02, 2), rng.uniform(0.2, 0.8)
    src = sources.sampled_source(
        lambda r: (1.0 + 0.4j) * np.exp(1j * (ramp[0] * r.x + ramp[1] * r.y)),
        lambda r: Orientation.from_vector(1.0, r.y / 150.0, tilt), grid)
    env = homogeneous.HomogeneousGreens(1.5)
    ks = np.array([0.004, 0.011, 0.02])
    w = src.weights_array()
    worst = 0.0
    for k, got in zip(ks, env.forms(src, ks)):
        terms = w.conjugate()[:, None] * w * env.cdos_matrix(
            src.positions_array(), src.orientations_array(), k)
        worst = max(worst, abs(got - terms.real.sum()) / np.abs(terms).sum())
    return worst, ("lattice forms of a tilted, phase-ramped 12 x 9 sampled source vs "
                   "w^H cdos_matrix w at 3 k, relative to the summed term magnitudes")


def run_checks(verbose: bool = False) -> int:
    """Run the invariant suite; returns the process exit code."""
    checks = [
        ("coincidence-ldos", _check_coincidence, 1e-9),
        ("radial-branch-continuity", _check_branch_continuity, 1e-10),
        ("radial-closed-form", _check_radial_closed_form, 1e-14),
        ("cdos-symmetry", _check_symmetry, 1e-12),
        ("single-mode-factorization", _check_factorization, 1e-9),
        ("point-dipole-reduction", _check_point_reduction, 1e-12),
        ("fano-fixed-points", _check_fano_fixed_points, 1e-9),
        ("fano-decomposition", _check_fano_decomposition, 1e-9),
        ("modal-qnm-consistency", _check_modal_qnm_consistency, 5e-3),
        ("pair-doubling", _check_pair_doubling, 1e-12),
        ("lattice-lag-sum", _check_lattice_lag_sum, 1e-12),
    ]
    failures = 0
    for name, fn, tol in checks:
        residual, note = fn()
        ok = residual <= tol
        failures += 0 if ok else 1
        status = "PASS" if ok else "FAIL"
        line = f"{status} {name}: residual={residual:.3e} tol={tol:.1e}"
        if verbose:
            line += f"  ({note})"
        print(line)
    if failures:
        print(f"{failures} invariant(s) failed")
        return 1
    print("all invariants passed")
    return 0


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="purcellx",
        description="Decay-rate sweeps for point and extended coherent dipole sources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario config")
    run_p.add_argument("--config", required=True, help="path to the scenario YAML file")
    run_p.add_argument("--out", default=".", help="output directory (default: .)")
    run_p.add_argument("--format", choices=("csv", "json", "both"), default="both")
    run_p.add_argument("--verbose", action="store_true")

    check_p = sub.add_parser("check", help="run the cross-module invariant suite")
    check_p.add_argument("--verbose", action="store_true")

    args = parser.parse_args(argv)

    if args.command == "check":
        return run_checks(verbose=args.verbose)

    try:
        cfg = parse_config(args.config)
    except (ConfigError, PurcellxError) as exc:
        # a PurcellxError here is constructor-level validation surfaced during parsing
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        run_scenario(cfg, args.out, args.format, args.verbose)
    except (PurcellxError, OSError) as exc:  # OSError: the outputs cannot be written
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
