"""The benchmark's three workloads: seeded inputs, set-up, and one operation.

Each workload has three parts.

* ``generate(name, seed, smoke, inputs_dir)`` writes the inputs the program
  receives (a scenario config, grid-field files, or slab parameters) and an
  ``inputs.json`` record of every seeded parameter.  The correctness checks
  read that record, never the program's objects.
* ``setup(name, inputs_dir)`` does what a user waits for before the first
  sweep point: import purcellx, parse the config (loading grid files), build
  the source.  ``setup_s`` times exactly this call in a fresh interpreter,
  so this module imports nothing but the standard library at load time.
* ``Scenario.run()`` is one operation: the whole sweep, through the CLI's
  ``run_scenario`` for the two CLI workloads and through
  ``engine.sweep_spectrum`` for the library-API slab.

The inputs are chosen so that the cost of an operation does not depend on
the seed: the seed moves geometry, mode shapes and resonances inside narrow
ranges, while element counts, grid sizes and k counts are fixed.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("composite-line-spectrum", "gridfield-qnm-spectrum", "sampled-slab-spectrum")

#: Worker threads of the sweep engine (PURCELLX_WORKERS).
#: Every workload runs at one worker.  At two workers a sweep's wall time
#: also depends on how much of the second CPU the shared host leaves free,
#: and it did not repeat within its bound (see README.md).
WORKERS = 1

#: Problem sizes: full runs and the small smoke mode.
SIZES = {
    "composite-line-spectrum": {
        "full": {"elements": 200, "k_count": 201},
        "smoke": {"elements": 24, "k_count": 21},
    },
    "gridfield-qnm-spectrum": {
        "full": {"elements": 100, "k_count": 301, "grid": (241, 121), "spacing": 5.0},
        "smoke": {"elements": 12, "k_count": 31, "grid": (25, 13), "spacing": 50.0},
    },
    "sampled-slab-spectrum": {
        "full": {"cells": (40, 40)},
        "smoke": {"cells": (8, 8)},
    },
}

CONFIG_NAME = "scenario.yaml"
SLAB_NAME = "slab.json"
RECORD_NAME = "inputs.json"


@dataclass
class Scenario:
    """A workload after set-up: the program objects one operation needs."""

    run: Callable[[], None]
    source: object
    environment: object
    reference: object
    csv_path: str | None
    summary_path: str | None


# ---------------------------------------------------------------------------
# input generation


def _mode_amplitude(rng, phase, k_m, gamma_m):
    """Complex field amplitude whose peak point-dipole Purcell factor is 20 to 200.

    A mode's peak CDOS is 2|E|^2/(pi gamma_m) and vacuum's is k^2/(3 pi^2), so
    the structured and background sums stay within a few decades of each
    other and a fault in either shows in the ratio.
    """
    purcell = rng.uniform(20.0, 200.0)
    magnitude = math.sqrt(purcell * k_m**2 / (3.0 * math.pi**2) * math.pi * gamma_m / 2.0)
    return [magnitude * math.cos(phase), magnitude * math.sin(phase)]


def _surrogate(rng, polarization, k_m, gamma_m):
    """Seeded analytic surrogate mode as config fields."""
    return {
        "kind": "surrogate_l3",
        "x0_nm": rng.uniform(140.0, 180.0),
        "sigma_x_nm": rng.uniform(350.0, 450.0),
        "sigma_y_nm": rng.uniform(100.0, 140.0),
        "polarization": polarization,
        "amplitude": _mode_amplitude(rng, rng.uniform(0.0, 2.0 * math.pi), k_m, gamma_m),
        "k_m": k_m,
        "gamma_m": gamma_m,
    }


def _resonance(rng, q_lo, q_hi):
    k_m = 2.0 * math.pi / rng.uniform(1260.0, 1280.0)
    return k_m, k_m / rng.uniform(q_lo, q_hi)


def _write_config(inputs_dir, config):
    # JSON is a subset of YAML; json.dumps writes every float with repr, so
    # the config carries the seeded values exactly.
    with open(os.path.join(inputs_dir, CONFIG_NAME), "w", encoding="ascii") as fh:
        fh.write(json.dumps(config, indent=2) + "\n")


def _gen_composite_line(rng, size, inputs_dir):
    k_m, gamma_m = _resonance(rng, 1500.0, 2500.0)
    mode = _surrogate(rng, [0.0, 1.0, 0.0], k_m, gamma_m)
    source = {
        "kind": "line",
        "center": [rng.uniform(-20.0, 20.0), rng.uniform(-10.0, 10.0), 0.0],
        "axis": [1.0, 0.0, 0.0],
        "polarization": [0.0, 1.0, 0.0],
        "d_nm": rng.uniform(280.0, 320.0),
        "elements": size["elements"],
        "amplitude": rng.uniform(0.5, 2.0),
    }
    sweep = {
        "kind": "spectrum",
        "k": {"start": k_m - 8.0 * gamma_m, "stop": k_m + 8.0 * gamma_m,
              "count": size["k_count"]},
    }
    config = {
        "scenario": "bench-composite-line",
        "environment": {
            "kind": "composite",
            "background_n": 1.0,
            "structured": {"kind": "modal", "modes": [mode]},
        },
        "reference": {"kind": "homogeneous", "n": 1.0},
        "source": source,
        "sweep": sweep,
    }
    _write_config(inputs_dir, config)
    return config


def _write_grid(path, data, origin, spacing):
    """Write a (nx, ny, 3) complex field in purcellx's grid text format."""
    import numpy as np

    nx, ny, _ = data.shape
    rows = np.ascontiguousarray(data.transpose(1, 0, 2)).reshape(-1, 3)  # x fastest
    reals = rows.view(float).reshape(-1, 6).tolist()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"dims {nx} {ny}\n")
        fh.write(f"origin {origin[0]!r} {origin[1]!r}\n")
        fh.write(f"spacing {spacing!r} {spacing!r}\n")
        fh.write("components 3\n")
        fh.write("\n".join(" ".join(map(repr, row)) for row in reals))
        fh.write("\n")


def _grid_mode_data(rng, nx, ny, spacing, origin, x0, sigma_x, sigma_y, amplitude):
    """Complex mode map: an x-polarized surrogate lobe, a weak y component and
    sample-level noise, so that interpolation is not exact on a smooth form."""
    import numpy as np

    x = origin[0] + spacing * np.arange(nx)
    y = origin[1] + spacing * np.arange(ny)
    xx, yy = np.meshgrid(x, y, indexing="ij")
    envelope = np.exp(-xx**2 / (2.0 * sigma_x**2) - yy**2 / (2.0 * sigma_y**2))
    lobe = amplitude * np.cos(np.pi * xx / (2.0 * x0)) * envelope
    data = np.empty((nx, ny, 3), dtype=complex)
    noise = rng.normal(size=(nx, ny, 3)) + 1j * rng.normal(size=(nx, ny, 3))
    data[..., 0] = lobe + 1e-3 * amplitude * noise[..., 0]
    data[..., 1] = amplitude * (0.1 * (yy / sigma_y) * envelope + 1e-3 * noise[..., 1])
    data[..., 2] = 1e-3 * amplitude * noise[..., 2]
    return data


def _gen_gridfield_qnm(rng, size, inputs_dir):
    import numpy as np

    nx, ny = size["grid"]
    spacing = size["spacing"]
    origin = (-0.5 * spacing * (nx - 1), -0.5 * spacing * (ny - 1))
    k_a, gamma_a = _resonance(rng, 150.0, 250.0)
    k_b = k_a + rng.uniform(0.3, 0.7) * gamma_a
    gamma_b = gamma_a / rng.uniform(8.0, 12.0)
    qnms = []
    for label, k_m, gamma_m in (("a", k_a, gamma_a), ("b", k_b, gamma_b)):
        shape = {
            "x0": rng.uniform(110.0, 170.0),
            "sigma_x": rng.uniform(280.0, 420.0),
            "sigma_y": rng.uniform(100.0, 140.0),
            "amplitude": _mode_amplitude(rng, rng.uniform(0.0, 2.0 * math.pi), k_m, gamma_m),
        }
        data = _grid_mode_data(rng, nx, ny, spacing, origin, shape["x0"], shape["sigma_x"],
                              shape["sigma_y"], complex(*shape["amplitude"]))
        file_name = f"mode_{label}.grid"
        _write_grid(os.path.join(inputs_dir, file_name), data, origin, spacing)
        np.save(os.path.join(inputs_dir, f"mode_{label}.npy"), data)
        qnms.append({"kind": "grid", "path": file_name, "k_m": k_m, "gamma_m": gamma_m,
                     "shape": shape, "samples": f"mode_{label}.npy"})
    source = {
        "kind": "line",
        "center": [rng.uniform(100.0, 160.0), rng.uniform(-20.0, 20.0), 0.0],
        "axis": [1.0, 0.0, 0.0],
        "polarization": [1.0, 0.0, 0.0],
        "d_nm": rng.uniform(250.0, 300.0),
        "elements": size["elements"],
        "amplitude": rng.uniform(0.5, 2.0),
    }
    sweep = {
        "kind": "spectrum",
        "k": {"start": k_a - 4.0 * gamma_a, "stop": k_a + 4.0 * gamma_a,
              "count": size["k_count"]},
    }
    config = {
        "scenario": "bench-gridfield-qnm",
        "environment": {
            "kind": "composite",
            "background_n": 1.0,
            "structured": {
                "kind": "qnm_pair",
                "qnms": [{key: q[key] for key in ("kind", "path", "k_m", "gamma_m")}
                         for q in qnms],
            },
        },
        "reference": {"kind": "homogeneous", "n": 1.0},
        "source": source,
        "sweep": sweep,
    }
    _write_config(inputs_dir, config)
    # The checks read the samples from the .npy copies, not through the text
    # parser under test; repr() makes the text files carry the same values.
    return dict(config, grid={"shape": [nx, ny], "origin": list(origin), "spacing": spacing},
                modes=qnms)


def _gen_sampled_slab(rng, size, inputs_dir):
    k_m, gamma_m = _resonance(rng, 1500.0, 2500.0)
    mode = _surrogate(rng, [0.0, 1.0, 0.0], k_m, gamma_m)
    width = rng.uniform(350.0, 450.0)
    height = rng.uniform(350.0, 450.0)
    cx, cy = rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0)
    nx, ny = size["cells"]
    phase = rng.uniform(0.0, 2.0 * math.pi)
    record = {
        "mode": mode,
        "background_n": 1.0,
        "reference_n": 1.0,
        "grid": {
            "lo": [cx - 0.5 * width, cy - 0.5 * height, 0.0],
            "hi": [cx + 0.5 * width, cy + 0.5 * height, 0.0],
            "shape": [nx, ny, 1],
        },
        "density": {
            "amplitude": [math.cos(phase), math.sin(phase)],
            "modulation": rng.uniform(0.2, 0.4),
            "period": rng.uniform(200.0, 400.0),
            "ramp": [rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01)],
        },
        "orientation": {
            "theta0": rng.uniform(0.0, math.pi),
            "twist": rng.uniform(0.5, 1.5),
            "tilt": rng.uniform(0.1, 0.4),
            "width": width,
            "height": height,
        },
        "k_grid": [k_m - 3.0 * gamma_m, k_m - 0.25 * gamma_m, k_m, k_m + 3.0 * gamma_m],
    }
    with open(os.path.join(inputs_dir, SLAB_NAME), "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=2)
    return record


def slab_density(p, x, y) -> complex:
    """Cell dipole density: complex amplitude, cosine modulation, phase ramp."""
    d = p["density"]
    magnitude = 1.0 + d["modulation"] * math.cos(2.0 * math.pi * x / d["period"])
    ramp = d["ramp"][0] * x + d["ramp"][1] * y
    return complex(*d["amplitude"]) * magnitude * cmath.exp(1j * ramp)


def slab_direction(p, x, y) -> tuple[float, float, float]:
    """Unnormalized cell dipole direction, twisting in-plane and tilting out."""
    o = p["orientation"]
    theta = o["theta0"] + o["twist"] * x / o["width"]
    phi = o["tilt"] * y / o["height"]
    return (math.cos(theta) * math.cos(phi), math.sin(theta) * math.cos(phi), math.sin(phi))


_GENERATORS = {
    "composite-line-spectrum": _gen_composite_line,
    "gridfield-qnm-spectrum": _gen_gridfield_qnm,
    "sampled-slab-spectrum": _gen_sampled_slab,
}


def generate(name: str, seed: int, smoke: bool, inputs_dir: str) -> dict:
    """Write the inputs of one workload and return the record of its parameters."""
    import numpy as np

    os.makedirs(inputs_dir, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    size = SIZES[name]["smoke" if smoke else "full"]
    record = _GENERATORS[name](rng, size, inputs_dir)
    record = dict(record, workload=name, seed=seed, smoke=smoke)
    with open(os.path.join(inputs_dir, RECORD_NAME), "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=2)
    return record


# ---------------------------------------------------------------------------
# set-up (timed as setup_s)


def _setup_cli(inputs_dir):
    from purcellx import cli, sources

    cfg = cli.parse_config(os.path.join(inputs_dir, CONFIG_NAME))
    spec = cfg.source
    # run_scenario builds the same source again inside each operation; the
    # user-visible set-up still includes one build before the first point.
    src = sources.line_source(spec.center, spec.axis, spec.polarization, spec.d_nm,
                              spec.elements, spec.amplitude)
    out_dir = os.path.join(inputs_dir, "out")

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run_scenario(cfg, out_dir, "both", False)

    return Scenario(
        run=run,
        source=src,
        environment=cfg.environment,
        reference=cfg.reference,
        csv_path=os.path.join(out_dir, f"{cfg.scenario}_spectrum.csv"),
        summary_path=os.path.join(out_dir, f"{cfg.scenario}_summary.json"),
    )


def _setup_slab(inputs_dir):
    from purcellx import core, engine, fields, homogeneous, modal, sources
    import numpy as np

    with open(os.path.join(inputs_dir, SLAB_NAME), encoding="ascii") as fh:
        p = json.load(fh)
    m = p["mode"]
    params = fields.AnalyticSurrogateParams(
        sign_change_half_width=m["x0_nm"],
        sigma_x=m["sigma_x_nm"],
        sigma_y=m["sigma_y_nm"],
        polarization=core.Orientation.from_vector(*m["polarization"]),
        amplitude=complex(*m["amplitude"]),
    )
    mode = modal.LossyMode(fields.AnalyticSurrogate(params), m["k_m"], m["gamma_m"])
    env = engine.CompositeGreens(homogeneous.HomogeneousGreens(p["background_n"]),
                                 modal.ModeSet((mode,)))
    ref = homogeneous.HomogeneousGreens(p["reference_n"])
    g = p["grid"]
    grid = sources.SamplingGrid(tuple(g["lo"]), tuple(g["hi"]), tuple(g["shape"]))
    src = sources.sampled_source(
        lambda r: slab_density(p, r.x, r.y),
        lambda r: core.Orientation.from_vector(*slab_direction(p, r.x, r.y)),
        grid,
    )
    k_grid = np.array(p["k_grid"])

    def run():
        engine.sweep_spectrum(src, env, ref, k_grid)

    return Scenario(run=run, source=src, environment=env, reference=ref,
                    csv_path=None, summary_path=None)


def setup(name: str, inputs_dir: str) -> Scenario:
    """Import purcellx, read the generated inputs and build the source."""
    if name == "sampled-slab-spectrum":
        return _setup_slab(inputs_dir)
    return _setup_cli(inputs_dir)
