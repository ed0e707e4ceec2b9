"""Configuration-driven command line driver.

One JSON config describes the dot, the reservoir, the grid, the truncation,
and the sweep lists; each subcommand builds what it needs from that document
and writes JSON (and optionally CSV) reports plus a manifest echoing the
resolved configuration.  Outputs are deterministic for a fixed config and
seed, and every file carries the manifest hash.

Exit codes: 0 success, 2 config or validation error, 3 solver or quadrature
non-convergence, 4 dimension cap exceeded.
"""

import argparse
import csv
import hashlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from operator import itemgetter
from pathlib import Path

import numpy as np
import jsonschema
from scipy.special import zeta
from scipy import integrate

from . import dot as dotmod
from . import reservoir as res
from . import spectral, dynamics
from .fock import TruncationSpec, DimensionCapError, SolverConvergenceError
from .liouville import build_bundle, assemble_conjugate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CAP = 4


SCHEMA = {
    "type": "object",
    "required": ["dot", "reservoir", "grid", "trunc"],
    "additionalProperties": False,
    "properties": {
        "dot": {
            "type": "object",
            "required": ["d"],
            "additionalProperties": False,
            "properties": {
                "d": {"type": "integer", "minimum": 1},
                "energies": {"type": "array", "items": {"type": "number"}},
            },
        },
        "reservoir": {
            "type": "object",
            "required": ["beta"],
            "additionalProperties": False,
            "properties": {
                "beta": {"type": "number", "exclusiveMinimum": 0},
                "rho_bar": {"type": "number", "minimum": 0},
                "dispersion": {"enum": ["relativistic", "nonrelativistic"]},
                "form_factor": {"type": "object"},
            },
        },
        "grid": {
            "type": "object",
            "required": ["n_modes", "omega_max"],
            "additionalProperties": False,
            "properties": {
                "n_modes": {"type": "integer", "minimum": 1},
                "omega_max": {"type": "number", "exclusiveMinimum": 0},
                "omega_min": {"type": "number", "minimum": 0},
                "spacing": {"enum": ["linear", "log"]},
            },
        },
        "trunc": {
            "type": "object",
            "required": ["n_max"],
            "additionalProperties": False,
            "properties": {
                "n_max": {"type": "integer", "minimum": 0},
                "dim_cap": {"type": "integer", "minimum": 1},
            },
        },
        "physics": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "lambda": {"type": "array", "items": {"type": "number"}},
                "xi": {"type": "array", "items": {"type": "object"}},
                "mu": {"type": "object"},
                "observable": {"type": "object"},
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "kernel_tol": {"type": ["number", "null"]},
                "k_eigs": {"type": "integer", "minimum": 1},
                "T": {"type": "array", "items": {"type": "number"}},
                "epsilons": {"type": "array", "items": {"type": "number"}},
                "h_over_eps": {"type": "number", "exclusiveMinimum": 0},
                "conjugate": {"enum": ["log_dilation", "custom_antisymmetric"]},
            },
        },
        "outputs": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dir": {"type": "string"},
                "formats": {"type": "array",
                            "items": {"enum": ["json", "csv"]}},
            },
        },
    },
}


# ---------------------------------------------------------------------------
# config plumbing

def load_config(path):
    with open(path) as fh:
        config = json.load(fh)
    jsonschema.validate(config, SCHEMA)
    return config


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def manifest_hash(config):
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"not serializable: {type(obj)!r}")


def _dispersion(config):
    name = config["reservoir"].get("dispersion", "relativistic")
    return res.RELATIVISTIC if name == "relativistic" else res.NONRELATIVISTIC


def _form_factor(config):
    ff = config["reservoir"].get("form_factor",
                                 {"preset": "gaussian"})
    if "table" in ff:
        return res.FormFactor.from_csv(ff["table"])
    preset = ff.get("preset", "gaussian")
    if preset == "gaussian":
        return res.FormFactor.gaussian(ff.get("amplitude", 1.0),
                                       ff.get("width", 1.0))
    if preset == "power_law":
        return res.FormFactor.power_law(ff.get("amplitude", 1.0),
                                        ff.get("exponent", 1.0),
                                        ff.get("width", 1.0))
    raise ValueError(f"unknown form factor preset {preset!r}")


def _dot_spec(config):
    dcfg = config["dot"]
    energies = dcfg.get("energies")
    return dotmod.DotSpec(d=dcfg["d"],
                          energies=tuple(energies) if energies else None)


def _grid_spec(config):
    g = config["grid"]
    return res.GridSpec(n_modes=g["n_modes"], omega_max=g["omega_max"],
                        omega_min=g.get("omega_min"),
                        spacing=g.get("spacing", "linear"))


def _trunc(config):
    t = config["trunc"]
    return TruncationSpec(n_modes=config["grid"]["n_modes"],
                          n_max=t["n_max"],
                          dim_cap=t.get("dim_cap", 200_000))


def _solver(config):
    s = dict(config.get("solver", {}))
    s.setdefault("tol", 1e-10)
    s.setdefault("kernel_tol", None)
    s.setdefault("k_eigs", 10)
    s.setdefault("T", [100.0])
    s.setdefault("epsilons", [0.2, 0.1, 0.05])
    s.setdefault("h_over_eps", 0.02)
    return s


def _lambdas(config):
    return list(config.get("physics", {}).get("lambda", [0.0]))


def _xis(config, rho_crit):
    entries = config.get("physics", {}).get("xi")
    if not entries:
        return [None]
    out = []
    for e in entries:
        theta = float(e.get("theta", 0.0))
        if "r" in e:
            out.append(dotmod.CondensatePoint(r=float(e["r"]), theta=theta))
        elif "excess" in e:
            out.append(dotmod.CondensatePoint(r=rho_crit + float(e["excess"]),
                                              theta=theta))
        else:
            raise ValueError("xi entry needs r or excess")
    return out


def _measure(config, beta, dispersion, rho_crit):
    mu = config.get("physics", {}).get("mu")
    if mu is None:
        return None
    kind = mu.get("kind")
    if kind == "uniform_theta":
        r = float(mu["r"]) if "r" in mu else rho_crit + float(mu["excess"])
        return res.XiMeasure.uniform_theta(r, int(mu.get("n_theta", 8)))
    if kind == "kac":
        return res.XiMeasure.kac_theta(beta, float(mu["rho_bar"]), dispersion,
                                       n_r=int(mu.get("n_r", 8)),
                                       n_theta=int(mu.get("n_theta", 4)))
    if kind == "atoms":
        pts = tuple((dotmod.CondensatePoint(r=float(a["r"]),
                                            theta=float(a.get("theta", 0.0))),
                     float(a["weight"])) for a in mu["atoms"])
        return res.XiMeasure(points=pts)
    raise ValueError(f"unknown measure kind {kind!r}")


def _observable_matrix(config, dot_spec):
    obs = config.get("physics", {}).get("observable", {"kind": "hop"})
    if "matrix" in obs:
        raw = np.asarray(obs["matrix"], dtype=float)
        if raw.ndim == 3:      # entries as [re, im]
            x = raw[..., 0] + 1j * raw[..., 1]
        else:
            x = raw.astype(complex)
        if x.shape != (dot_spec.d, dot_spec.d):
            raise ValueError("observable matrix must be d x d")
        return x
    if obs.get("kind", "hop") == "hop":
        gm, gp = dotmod.lower_raise(dot_spec)
        return (gp + gm).astype(complex)
    raise ValueError("unknown observable spec")


def _build_grid(config):
    dspec = _dot_spec(config)
    grid = res.discretize(_form_factor(config), config["reservoir"]["beta"],
                          _grid_spec(config), _dispersion(config),
                          bohr_frequencies=dspec.bohr_frequencies())
    return dspec, grid


def build_manifest(config, seed):
    dspec = _dot_spec(config)
    disp = _dispersion(config)
    beta = config["reservoir"]["beta"]
    trunc = _trunc(config)
    derived = {
        "rho_crit": res.critical_density(beta, disp),
        "field_dim": trunc.field_dimension(),
        "dim": dspec.d ** 2 * trunc.field_dimension(),
    }
    rho_bar = config["reservoir"].get("rho_bar")
    if rho_bar is not None:
        derived["rho0"] = max(rho_bar - derived["rho_crit"], 0.0)
        derived["fugacity"] = res.fugacity(beta, rho_bar, disp)
    return {
        "hash": manifest_hash(config),
        "config": config,
        "derived": derived,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# output helpers

def _write_json(outdir, name, payload):
    path = Path(outdir) / name
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True,
                  default=_json_default)
        fh.write("\n")
    return str(path)


def _write_csv(outdir, name, header, rows, mhash):
    path = Path(outdir) / name
    with open(path, "w", newline="") as fh:
        fh.write(f"# manifest={mhash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    return str(path)


# ---------------------------------------------------------------------------
# subcommands

def cmd_thermo(config, args):
    disp = _dispersion(config)
    ff = _form_factor(config)
    beta = config["reservoir"]["beta"]
    rows = []

    rc = res.critical_density(beta, disp)
    if disp.kind == "relativistic":
        ref = zeta(3.0) / (np.pi ** 2 * beta ** 3)
    else:
        ref = zeta(1.5) * (4.0 * np.pi * beta) ** -1.5
    rows.append({"name": "critical_density", "value": rc, "reference": ref,
                 "residual": abs(rc - ref) / ref})

    pl = res.planck_density(beta, 1.0)
    pl_ref = (2.0 * np.pi) ** -3 * math.exp(-beta) / (1.0 - math.exp(-beta))
    rows.append({"name": "planck_density_at_unit_frequency", "value": pl,
                 "reference": pl_ref, "residual": abs(pl - pl_ref)})

    rows.append({"name": "infrared_norm", "value": ff.check_infrared(disp),
                 "reference": None, "residual": None})

    rho_bar = config["reservoir"].get("rho_bar")
    if rho_bar is not None:
        z = res.fugacity(beta, rho_bar, disp)
        rows.append({"name": "fugacity", "value": z, "reference": None,
                     "residual": None})
        if rho_bar > rc:
            norm = integrate.quad(
                lambda r: res.kac_density(r, beta, rho_bar, disp, rho_crit=rc),
                rc, np.inf)[0]
            rows.append({"name": "kac_normalization", "value": norm,
                         "reference": 1.0, "residual": abs(norm - 1.0)})
            mean = integrate.quad(
                lambda r: r * res.kac_density(r, beta, rho_bar, disp,
                                              rho_crit=rc),
                rc, np.inf)[0]
            rows.append({"name": "kac_mean", "value": mean,
                         "reference": rho_bar,
                         "residual": abs(mean - rho_bar)})

            f = res.TestFunction.gaussian(1.0, 1.0)
            gap, lhs, rhs = res.kac_superposition_residual(f, beta, rho_bar,
                                                           disp)
            rows.append({"name": "laplace_bessel_identity", "value": lhs,
                         "reference": rhs, "residual": gap})

            avg, closed = res.uniform_phase_average(f.f0, rho_bar, rc)
            rows.append({"name": "uniform_theta_phase_average",
                         "value": avg, "reference": closed,
                         "residual": abs(avg - closed)})

    return {"rows": rows}


def _attach(bundle, config, seed):
    scheme = config.get("solver", {}).get("conjugate")
    if scheme is None:
        scheme = ("log_dilation" if bundle.grid.spacing == "log"
                  else "custom_antisymmetric")
    assemble_conjugate(bundle, scheme=scheme, seed=seed)
    return bundle


def _rho_crit(config):
    return res.critical_density(config["reservoir"]["beta"],
                                _dispersion(config))


def _map_bundles(config, args, xis, rho_crit, per_bundle):
    """per_bundle(lam, xi, bundle) for the bundle of every (lambda, xi) task,
    lambda outer, on args.jobs threads; results in task order."""
    dspec, grid = _build_grid(config)
    trunc = _trunc(config)

    def run(task):
        lam, xi = task
        bundle = build_bundle(dspec, grid, trunc, lam, xi=xi,
                              rho_crit=rho_crit if xi is not None else None)
        return per_bundle(lam, xi, bundle)

    tasks = [(lam, xi) for lam in _lambdas(config) for xi in xis]
    with ThreadPoolExecutor(max_workers=max(args.jobs, 1)) as pool:
        return list(pool.map(run, tasks))


def _spectrum_tasks(config, args):
    solver = _solver(config)
    rc = _rho_crit(config)

    def run(lam, xi, bundle):
        _attach(bundle, config, args.seed)
        report = spectral.solve_near_zero(bundle, solver["k_eigs"],
                                          tol=solver["tol"],
                                          kernel_tol=solver["kernel_tol"])
        spectral.attach_diagnostics(bundle, report)
        return {"lambda": lam,
                "xi": None if xi is None else {"r": xi.r, "theta": xi.theta},
                "kernel_dim": report.kernel_dim,
                "report": report.to_dict()}

    return _map_bundles(config, args, _xis(config, rc), rc, run)


def cmd_spectrum(config, args):
    entries = _spectrum_tasks(config, args)
    return {"runs": entries}


def cmd_virial(config, args):
    entries = _spectrum_tasks(config, args)
    rows = []
    for entry in entries:
        for diag in entry["report"]["diagnostics"]:
            rows.append({"lambda": entry["lambda"],
                         "eigenvalue": diag["eigenvalue"],
                         "virial_value": diag.get("virial_value"),
                         "lambda_weight": diag.get("lambda_weight"),
                         "residual": diag["residual"]})
    return {"rows": rows}


def cmd_levelshift(config, args):
    dspec = _dot_spec(config)
    disp = _dispersion(config)
    ff = _form_factor(config)
    beta = config["reservoir"]["beta"]
    solver = _solver(config)

    k1 = float(disp.k_of_omega(1.0))
    shell = 4.0 * np.pi * abs(complex(ff.at(k1))) ** 2
    ls = spectral.level_shift(dspec, beta, shell_weight=shell)

    sweep = []
    ratio = solver["h_over_eps"]
    gcfg = config["grid"]
    lam = _lambdas(config)[0]
    for eps in solver["epsilons"]:
        omega_min = gcfg.get("omega_min") or gcfg["omega_max"] / 100.0
        span = math.log(gcfg["omega_max"]) - math.log(omega_min)
        n = max(int(math.ceil(span / (ratio * eps))), 8)
        gspec = res.GridSpec(n_modes=n, omega_max=gcfg["omega_max"],
                             omega_min=omega_min, spacing="log")
        grid = res.discretize(ff, beta, gspec, disp,
                              bohr_frequencies=dspec.bohr_frequencies())
        trunc = TruncationSpec(n_modes=n, n_max=1,
                               dim_cap=config["trunc"].get("dim_cap", 200_000))
        bundle = build_bundle(dspec, grid, trunc, lam)
        rep = spectral.resolvent_sandwich(bundle, eps)
        sweep.append({"epsilon": eps, "n_modes": n,
                      "misfit": rep.misfit,
                      "fit_constant": rep.fit_constant,
                      "oracle_constant": rep.oracle_constant,
                      "gibbs_overlap": rep.gibbs_overlap,
                      "messages": list(rep.messages)})
    if sweep:
        ls.alignment = sweep[-1]["misfit"]
    return {"level_shift": ls.to_dict(), "sandwich_sweep": sweep}


def cmd_rte(config, args):
    beta = config["reservoir"]["beta"]
    rc = _rho_crit(config)
    x = _observable_matrix(config, _dot_spec(config))
    x_norm = float(np.linalg.norm(x, 2))
    measure = _measure(config, beta, _dispersion(config), rc)
    xis = ([p for p, _ in measure.points] if measure is not None
           else _xis(config, rc))
    t_list = _solver(config)["T"]

    def run(lam, xi, bundle):
        a_full = dynamics.dot_observable(bundle, x)
        return dynamics.rte_deviation(bundle, a_full, a_full, T=t_list,
                                      a_norm=x_norm)

    results = _map_bundles(config, args, xis, rc, run)
    payload = {"runs": results}
    if measure is not None and len(_lambdas(config)) == 1:
        payload["aggregate"] = dynamics.superpose_xi(measure, results)
    return payload


def cmd_manifest(config, args):
    return {}


COMMANDS = {
    "thermo": cmd_thermo,
    "spectrum": cmd_spectrum,
    "virial": cmd_virial,
    "levelshift": cmd_levelshift,
    "rte": cmd_rte,
    "manifest": cmd_manifest,
}

def _diagnostic_rows(payload):
    for entry in payload["runs"]:
        for diag in entry["report"]["diagnostics"]:
            yield {**diag, "lambda": entry["lambda"]}


def _rte_rows(payload):
    for run in payload["runs"]:
        yield {**run, **(run["manifest"].get("xi") or {})}


# command -> (CSV header, the payload's rows as dicts keyed by header names)
CSV_TABLES = {
    "thermo": (["name", "value", "reference", "residual"],
               itemgetter("rows")),
    "virial": (["lambda", "eigenvalue", "virial_value", "lambda_weight",
                "residual"], itemgetter("rows")),
    "levelshift": (["epsilon", "n_modes", "misfit", "fit_constant",
                    "oracle_constant", "gibbs_overlap"],
                   itemgetter("sandwich_sweep")),
    "spectrum": (["lambda", "eigenvalue", "residual", "virial_value",
                  "lambda_weight", "structure_overlap"], _diagnostic_rows),
    "rte": (["lambda", "r", "theta", "deviation", "deviation_normalized",
             "ergodic_limit"], _rte_rows),
}


def _csv_cell(val):
    if val is None:
        return ""
    if isinstance(val, complex):
        return f"{val.real!r}{val.imag:+}j"
    if isinstance(val, float):
        return repr(val)
    return val


# ---------------------------------------------------------------------------
# entry point

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="bosedot",
        description="spectral and dynamical diagnostics for a quantum dot "
                    "coupled to a condensed Bose gas")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--format", choices=["json", "csv"], default=None)
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except jsonschema.ValidationError as exc:
        print(f"config validation error: {exc.message}", file=sys.stderr)
        return EXIT_CONFIG

    outdir = Path(args.out or config.get("outputs", {}).get("dir", "out"))
    outdir.mkdir(parents=True, exist_ok=True)
    formats = ([args.format] if args.format
               else config.get("outputs", {}).get("formats", ["json"]))

    try:
        manifest = build_manifest(config, args.seed)
        payload = COMMANDS[args.command](config, args)
    except DimensionCapError as exc:
        print(f"dimension cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (SolverConvergenceError, res.QuadratureError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, jsonschema.ValidationError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    written = [_write_json(outdir, "manifest.json", manifest)]
    if payload:
        payload = {"manifest": manifest["hash"], **payload}
        if "json" in formats:
            written.append(_write_json(outdir, f"{args.command}.json",
                                       payload))
        if "csv" in formats and args.command in CSV_TABLES:
            header, rows_of = CSV_TABLES[args.command]
            rows = [[_csv_cell(r.get(h)) for h in header]
                    for r in rows_of(payload)]
            written.append(_write_csv(outdir, f"{args.command}.csv",
                                      header, rows, manifest["hash"]))

    print(json.dumps({"manifest": manifest["hash"], "written": written}))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
