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
import dataclasses
import hashlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import dot as dotmod
from . import reservoir as res
from . import spectral, dynamics
from .fock import TruncationSpec, DimensionCapError, SolverConvergenceError
from .liouville import assemble_conjugate, assemble_first, build_bundle

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
                "form_factor": {"type": "object", "additionalProperties": False,
                                "properties": {
                    "preset": {"enum": ["gaussian", "power_law"]},
                    "table": {"type": "string"},
                    **dict.fromkeys(("amplitude", "width", "exponent"),
                                    {"type": "number"})}},
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
                "lambda": {"type": "array", "minItems": 1,
                           "items": {"type": "number"}},
                "xi": {"type": "array", "items": {
                    "type": "object", "additionalProperties": False,
                    "properties": dict.fromkeys(("r", "excess", "theta"),
                                                {"type": "number"})}},
                "mu": {"type": "object", "required": ["kind"],
                       "additionalProperties": False, "properties": {
                    "kind": {"enum": ["uniform_theta", "kac", "atoms"]},
                    "n_theta": {"type": "integer", "minimum": 1},
                    "n_r": {"type": "integer", "minimum": 1},
                    **dict.fromkeys(("r", "excess"), {"type": "number"}),
                    "atoms": {"type": "array", "items": {
                        "type": "object", "additionalProperties": False,
                        "properties": dict.fromkeys(
                            ("r", "theta", "weight"), {"type": "number"})}}}},
                "observable": {"type": "object", "additionalProperties": False,
                               "properties": {
                    "matrix": {"type": "array", "items": {"type": "array", "items": {
                        "type": ["number", "array"],   # a number or [re, im]
                        "minItems": 2, "maxItems": 2, "items": {"type": "number"}}}}}},
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "k_eigs": {"type": "integer", "minimum": 1},
                "T": {"type": "array",
                      "items": {"type": "number", "exclusiveMinimum": 0}},
                "epsilons": {"type": "array",
                             "items": {"type": "number",
                                       "exclusiveMinimum": 0}},
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

class ConfigValidationError(ValueError):
    """A config that SCHEMA rejects; the message says where."""


def _is_type(value, name):
    """JSON Schema's types: a bool is no number, and 1.0 is an integer."""
    if name in ("number", "integer"):
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and (name == "number" or value % 1 == 0))
    return isinstance(value, {"object": dict, "array": list, "string": str,
                              "null": type(None)}[name])


# keyword -> whether a value meets it; a value of another type meets a bound
_KEYWORDS = {
    "type": lambda v, t: any(_is_type(v, n) for n in ([t] if isinstance(t, str) else t)),
    "enum": lambda v, e: v in e,
    "minimum": lambda v, m: not (_is_type(v, "number") and v < m),
    "exclusiveMinimum": lambda v, m: not (_is_type(v, "number") and v <= m),
    "minItems": lambda v, n: not (isinstance(v, list) and len(v) < n),
    "maxItems": lambda v, n: not (isinstance(v, list) and len(v) > n),
}


def validate(value, schema=SCHEMA, where="config"):
    """Raise ConfigValidationError where value first breaks schema, else
    return value with int(v) at its integer-typed keys, where JSON Schema
    also accepts an integral float such as 2.0.  Only the keywords SCHEMA
    uses are read: those of _KEYWORDS, required, properties,
    additionalProperties (false) and items."""
    for keyword, holds in _KEYWORDS.items():
        if keyword in schema and not holds(value, schema[keyword]):
            raise ConfigValidationError(
                f"{where}: {value!r} fails {keyword} {schema[keyword]!r}")
    if isinstance(value, dict):
        missing = [key for key in schema.get("required", []) if key not in value]
        if missing:
            raise ConfigValidationError(f"{where}: {missing[0]!r} is required")
        properties = schema.get("properties", {})
        out = {}
        for key, item in value.items():
            if key not in properties and schema.get("additionalProperties") is False:
                raise ConfigValidationError(f"{where}: unknown key {key!r}")
            out[key] = validate(item, properties.get(key, {}), f"{where}.{key}")
        return out
    if isinstance(value, list):
        return [validate(item, schema.get("items", {}), f"{where}[{i}]")
                for i, item in enumerate(value)]
    return int(value) if schema.get("type") == "integer" else value


def load_config(path):
    """Read a JSON config and return it as validate returns it."""
    with open(path) as fh:
        return validate(json.load(fh))


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def manifest_hash(config):
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"not serializable: {type(obj)!r}")


def _given(entry, *keys):
    """The keys of a config entry that it gives: the library holds the
    defaults of the ones it leaves out."""
    return {key: entry[key] for key in keys if key in entry}


def _dispersion(config):
    kind = config["reservoir"].get("dispersion")
    return res.Dispersion() if kind is None else res.Dispersion(kind)


# the keys of reservoir.form_factor that each source reads, besides preset
FORM_FACTOR_KEYS = {"gaussian": {"amplitude", "width"},
                    "power_law": {"amplitude", "exponent", "width"},
                    "table": {"table"}}


def _form_factor(config):
    ff = dict(config["reservoir"].get("form_factor", {}))
    source = "table" if "table" in ff else ff.pop("preset", "gaussian")
    unread = sorted(ff.keys() - FORM_FACTOR_KEYS[source])
    if unread:
        raise ValueError(f"reservoir.form_factor: a {source} form factor "
                         f"reads no {unread[0]!r}")
    if source == "table":
        try:
            return res.FormFactor.from_csv(ff["table"])
        except OSError as exc:
            raise ValueError(f"form factor table: {exc}") from exc
    # the library holds the defaults of the keys the config leaves out
    if source == "gaussian":
        return res.FormFactor.gaussian(**ff)
    return res.FormFactor.power_law(**ff)


def _dot_spec(config):
    dcfg = config["dot"]
    return dotmod.DotSpec(d=dcfg["d"], energies=dcfg.get("energies"))


def _grid_spec(config):
    g = config["grid"]
    return res.GridSpec(n_modes=g["n_modes"], omega_max=g["omega_max"],
                        **_given(g, "omega_min", "spacing"))


def _trunc(config):
    t = config["trunc"]
    return TruncationSpec(n_modes=config["grid"]["n_modes"],
                          n_max=t["n_max"], **_given(t, "dim_cap"))


def _solver(config):
    return {"k_eigs": 10, "T": [100.0], "epsilons": [0.2, 0.1, 0.05],
            "h_over_eps": 0.02, **config.get("solver", {})}


def _lambdas(config):
    return list(config.get("physics", {}).get("lambda", [0.0]))


def _radius(entry, rho_crit, where):
    """Radial density of the xi entry or measure at where: r, or rho_crit +
    excess.  Exactly one of the two is given, so none goes unread."""
    given = [key for key in ("r", "excess") if key in entry]
    if len(given) != 1:
        raise ValueError(f"{where} gives {given}: give one of r and excess")
    value = float(entry[given[0]])
    if given == ["r"]:
        return value
    return dotmod.CondensatePoint.from_excess(value, rho_crit).r


def _xis(config, rho_crit):
    entries = config.get("physics", {}).get("xi")
    if not entries:
        return [None]
    return [dotmod.CondensatePoint(r=_radius(e, rho_crit, f"physics.xi[{i}]"),
                                   **_given(e, "theta"))
            for i, e in enumerate(entries)]


# the keys of physics.mu that each measure kind reads, besides kind
MEASURE_KEYS = {"uniform_theta": {"r", "excess", "n_theta"},
                "kac": {"n_r", "n_theta"}, "atoms": {"atoms"}}


def _measure(config, rho_crit):
    mu = config.get("physics", {}).get("mu")
    if mu is None:
        return None
    kind = mu["kind"]
    unread = sorted(mu.keys() - MEASURE_KEYS[kind] - {"kind"})
    if unread:
        raise ValueError(f"physics.mu: a {kind} measure reads no {unread[0]!r}")
    counts = _given(mu, "n_r", "n_theta")
    try:
        if kind == "uniform_theta":
            return res.XiMeasure.uniform_theta(
                _radius(mu, rho_crit, "physics.mu"), **counts)
        if kind == "kac":
            rho_bar = config["reservoir"].get("rho_bar")
            if rho_bar is None:
                raise ValueError("a kac measure needs reservoir.rho_bar")
            return res.XiMeasure.kac_theta(
                config["reservoir"]["beta"], float(rho_bar),
                _dispersion(config), **counts)
        pts = tuple((dotmod.CondensatePoint(r=float(a["r"]),
                                            **_given(a, "theta")),
                     float(a["weight"])) for a in mu["atoms"])
        return res.XiMeasure(points=pts)
    except KeyError as exc:
        raise ValueError(f"{kind} measure needs key {exc}") from None


def _observable_matrix(config, dot_spec):
    obs = config.get("physics", {}).get("observable", {})
    if "matrix" in obs:
        x = np.array([[complex(*e) if isinstance(e, list) else e for e in row]
                      for row in obs["matrix"]], dtype=complex)
        if x.shape != (dot_spec.d, dot_spec.d):
            raise ValueError("observable matrix must be d x d")
        return x
    gm, gp = dotmod.lower_raise(dot_spec)
    return (gp + gm).astype(complex)


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
        writer.writerows(rows)
    return str(path)


# ---------------------------------------------------------------------------
# subcommands

def cmd_thermo(config, args):
    disp = _dispersion(config)
    ff = _form_factor(config)
    beta = config["reservoir"]["beta"]
    rows = []

    from scipy.special import zeta
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
            def kac(r):
                return res.kac_density(r, beta, rho_bar, disp, rho_crit=rc)

            norm = res.excess_integral(kac, rc, rho_bar - rc)
            rows.append({"name": "kac_normalization", "value": norm,
                         "reference": 1.0, "residual": abs(norm - 1.0)})
            mean = res.excess_integral(lambda r: r * kac(r), rc, rho_bar - rc)
            rows.append({"name": "kac_mean", "value": mean,
                         "reference": rho_bar,
                         "residual": abs(mean - rho_bar)})

            # both sides read 0.10 at rho_bar = 0.3, where a unit Gaussian's
            # 8e-12 sits below the radial integral's tolerance of 1e-12
            gap, lhs, rhs = res.kac_superposition_residual(
                res.TestFunction.gaussian(0.3, 1.0), beta, rho_bar, disp)
            rows.append({"name": "laplace_bessel_identity", "value": lhs,
                         "reference": rhs, "residual": gap})

            f = res.TestFunction.gaussian(1.0, 1.0)
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


def _rho_crit(config):
    return res.critical_density(config["reservoir"]["beta"],
                                _dispersion(config))


def _map_bundles(config, args, xis, rho_crit, per_group):
    """per_group(lam, group, bundle) for every group of (lambda, xi) tasks
    with one lambda and one condensate density r, lambda outer: group lists
    the xis of its tasks in order, bundle is the one bundle of the group,
    built at its first xi, and per_group returns one result per task.
    Results in task order.

    The tasks of a group differ only in the phase theta, so their generators
    are gauges of one another, L(theta) = e^{i theta Q} L(0) e^{-i theta Q},
    with the same map on the equilibrium vector, and one bundle serves the
    group.  args.jobs threads run the groups in parallel.
    """
    dspec, grid = _build_grid(config)
    trunc = _trunc(config)
    tasks = [(lam, xi) for lam in _lambdas(config) for xi in xis]
    groups = {}
    for i, (lam, xi) in enumerate(tasks):
        groups.setdefault((lam, None if xi is None else xi.r), []).append(i)

    def run(members):
        lam, xi = tasks[members[0]]
        bundle = build_bundle(dspec, grid, trunc, lam, xi=xi,
                              rho_crit=rho_crit if xi is not None else None)
        return per_group(lam, [tasks[i][1] for i in members], bundle)

    results = [None] * len(tasks)
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        for members, out in zip(groups.values(),
                                pool.map(run, groups.values())):
            for i, result in zip(members, out):
                results[i] = result
    return results


def _spectrum_tasks(config, args):
    """One spectral report per (lambda, xi) task, computed once per group of
    phases on the group's bundle.  Every field the report writes is
    invariant under the gauge e^{i theta Q} that maps one phase onto
    another: the eigenvalues, residuals and norm; the virial value, since
    the conjugate A commutes with Q; the lambda weight and the structure
    overlap, diagonal weights of |psi|; and every panel entry, which lies in
    one charge sector.  So each phase gets the group's report with its own
    xi.  Nothing is factorised: the report is a near-zero solve at every
    size.  They run the points of physics.xi, so a physics.mu, which only
    rte reads, is refused."""
    if "mu" in config.get("physics", {}):
        raise ValueError("physics.mu is read only by rte: spectrum and "
                         "virial run the points of physics.xi")
    solver = _solver(config)
    rc = _rho_crit(config)

    def run_group(lam, group, bundle):
        _attach(bundle, config, args.seed)
        report = spectral.solve_near_zero(bundle, solver["k_eigs"])
        spectral.attach_diagnostics(bundle, report)
        return [{"lambda": lam,
                 "xi": None if xi is None else {"r": xi.r, "theta": xi.theta},
                 "kernel_dim": report.kernel_dim,
                 "report": report.to_dict()} for xi in group]

    return _map_bundles(config, args, _xis(config, rc), rc, run_group)


def cmd_spectrum(config, args):
    return {"runs": _spectrum_tasks(config, args)}


def cmd_virial(config, args):
    keys = ("eigenvalue", "virial_value", "lambda_weight", "residual")
    return {"rows": [{"lambda": entry["lambda"],
                      **{key: diag.get(key) for key in keys}}
                     for entry in _spectrum_tasks(config, args)
                     for diag in entry["report"]["diagnostics"]]}


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
    # a log grid on the config's window, whatever its spacing and n_modes
    gcfg = config["grid"]
    window = res.GridSpec(n_modes=1, omega_max=gcfg["omega_max"],
                          **_given(gcfg, "omega_min"), spacing="log")
    span = math.log(window.omega_max) - math.log(window.omega_min)
    for eps in solver["epsilons"]:
        n = max(int(math.ceil(span / (solver["h_over_eps"] * eps))), 8)
        gspec = dataclasses.replace(window, n_modes=n)
        grid = res.discretize(ff, beta, gspec, disp,
                              bohr_frequencies=dspec.bohr_frequencies())
        trunc = dataclasses.replace(_trunc(config), n_modes=n, n_max=1)
        # only the parts the sandwich reads, one epsilon's at a time: no
        # bundle, no lambda
        rep = spectral.resolvent_sandwich(assemble_first(dspec, grid, trunc),
                                          eps)
        sweep.append({"epsilon": eps, "n_modes": n,
                      "messages": list(rep.messages),
                      **{key: getattr(rep, key) for key in (
                          "misfit", "fit_constant", "oracle_constant",
                          "gibbs_overlap")}})
    if sweep:
        ls.alignment = sweep[-1]["misfit"]
    return {"level_shift": ls.to_dict(), "sandwich_sweep": sweep}


def cmd_rte(config, args):
    rc = _rho_crit(config)
    x = _observable_matrix(config, _dot_spec(config))
    x_norm = float(np.linalg.norm(x, 2))
    measure = _measure(config, rc)
    if measure is not None and "xi" in config["physics"]:
        raise ValueError("physics.mu and physics.xi are both given, and rte "
                         "runs only the measure's points: give one")
    xis = ([p for p, _ in measure.points] if measure is not None
           else _xis(config, rc))
    t_list = _solver(config)["T"]

    def run(lam, group, bundle):
        # one KMS vector and one ergodic pass per density
        a_full = dynamics.dot_observable(bundle, x)
        runs, series = dynamics.rte_deviation(
            bundle, a_full, a_full, T=t_list, a_norm=x_norm,
            thetas=[bundle.theta if xi is None else xi.theta for xi in group])
        return [(r, series) for r in runs]

    results = _map_bundles(config, args, xis, rc, run)
    payload = {"runs": [r for r, _ in results]}
    n_lam = len(_lambdas(config))
    if measure is not None and n_lam == 1:
        payload["aggregate"] = dynamics.superpose_xi(
            measure, payload["runs"],
            {xi.r: series for xi, (_, series) in zip(xis, results)})
    elif measure is not None:
        payload["messages"] = [
            f"no aggregate: physics.lambda has {n_lam} values, and the "
            "measure's aggregate is formed for a single lambda"]
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
        return repr(float(val))     # np.float64's repr names its type
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
    if args.jobs < 1:
        print(f"config error: --jobs must be at least 1, got {args.jobs}",
              file=sys.stderr)
        return EXIT_CONFIG

    try:
        config = load_config(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigValidationError as exc:
        print(f"config validation error: {exc}", file=sys.stderr)
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
    # LinAlgError subclasses ValueError: a LAPACK failure is the solver's
    except (SolverConvergenceError, res.QuadratureError,
            np.linalg.LinAlgError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
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
