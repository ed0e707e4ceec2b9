import copy
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bosedot import cli, krylov, liouville, spectral
from bosedot import reservoir as res

ROOT = Path(__file__).resolve().parents[1]


def load_module(path):
    """The Python file at path, imported as a module."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def benchmark_workloads():
    """The benchmark's four workloads, name -> Workload (command, config)."""
    return load_module(ROOT / "perfbench" / "workloads.py").WORKLOADS


def base_config():
    return {
        "dot": {"d": 2},
        "reservoir": {"beta": 1.0, "rho_bar": 0.3},
        "grid": {"n_modes": 2, "omega_max": 2.2},
        "trunc": {"n_max": 1},
        "physics": {"lambda": [0.1]},
        "solver": {"T": [60.0]},
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def record_factorisations(monkeypatch):
    """A list that gets the shape of the block of every dense factorisation
    of a symmetry block, of either kind: an eigh or a chiral SVD."""
    shapes = []
    for name in ("eigh", "chiral_eigh"):
        def wrapper(block, *args, _fn=getattr(liouville, name), **kwargs):
            shapes.append(block.shape)
            return _fn(block, *args, **kwargs)
        monkeypatch.setattr(liouville, name, wrapper)
    return shapes


def run_cli(tmp_path, command, cfg, capsys, extra=None):
    cfgpath = write_config(tmp_path, cfg)
    outdir = tmp_path / "out"
    argv = [command, "--config", cfgpath, "--out", str(outdir)]
    argv += extra or []
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, outdir, out


def test_thermo_run_writes_reports(tmp_path, capsys):
    code, outdir, out = run_cli(tmp_path, "thermo", base_config(), capsys)
    assert code == cli.EXIT_OK
    status = json.loads(out.out)
    assert status["manifest"] == cli.manifest_hash(base_config())
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["hash"] == status["manifest"]
    assert manifest["derived"]["dim"] == 20
    payload = json.loads((outdir / "thermo.json").read_text())
    rows = {r["name"]: r for r in payload["rows"]}
    assert rows["critical_density"]["residual"] < 1e-10
    assert rows["kac_normalization"]["residual"] < 1e-8
    assert payload["manifest"] == status["manifest"]


def test_thermo_payload_is_deterministic(tmp_path, capsys):
    texts = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        code, outdir, _ = run_cli(d, "thermo", base_config(), capsys)
        assert code == cli.EXIT_OK
        texts.append((outdir / "thermo.json").read_text())
    assert texts[0] == texts[1]


@pytest.mark.parametrize("excess, code", [(1e-6, cli.EXIT_OK),
                                          (1e-12, cli.EXIT_SOLVER)])
def test_thermo_kac_rows_near_criticality(tmp_path, capsys, excess, code):
    # the Kac density is a peak of width rho0 = rho_bar - rho_crit at
    # rho_crit; on the unscaled half line quad misses it and read 1e-295 for
    # a normalisation of 1.  Below what the scaled excess resolves, quad
    # flags the integral and the run exits 3
    cfg = base_config()
    cfg["reservoir"]["rho_bar"] = res.critical_density(1.0) + excess
    got, outdir, out = run_cli(tmp_path, "thermo", cfg, capsys)
    assert got == code
    if code == cli.EXIT_SOLVER:
        assert out.err.startswith("solver failure: radial integral")
        assert out.err.count("\n") == 1 and "Traceback" not in out.err
        return
    rows = {r["name"]: r
            for r in json.loads((outdir / "thermo.json").read_text())["rows"]}
    for name in ("kac_normalization", "kac_mean", "laplace_bessel_identity"):
        assert rows[name]["residual"] <= 1e-10, name
    assert rows["laplace_bessel_identity"]["value"] > 0.03


@pytest.mark.parametrize("command, key, values", [
    ("levelshift", "epsilons", [0.0]),
    ("levelshift", "epsilons", [-0.1]),
    ("rte", "T", [-100.0]),
], ids=["levelshift-zero-epsilon", "levelshift-negative-epsilon",
        "rte-negative-T"])
def test_schema_rejects_nonpositive_solver_scales(tmp_path, capsys, command,
                                                  key, values):
    cfg = base_config()
    cfg["solver"] = {key: values}
    code, _, out = run_cli(tmp_path, command, cfg, capsys)
    assert code == cli.EXIT_CONFIG
    assert out.err.startswith("config validation error")
    assert "Traceback" not in out.err


DELETE = object()


def _edited(path, value):
    """base_config with the key at path (a tuple) set to value, or deleted
    when value is DELETE."""
    cfg = copy.deepcopy(base_config())
    *parents, key = path
    node = cfg
    for part in parents:
        node = node.setdefault(part, {})
    if value is DELETE:
        del node[key]
    else:
        node[key] = value
    return cfg


# configs with a misspelt key, or a key of the wrong type, in physics.xi,
# physics.mu, reservoir.form_factor or physics.observable: the schema
# rejects each before anything runs (unchecked, most ran at a default, and
# some died with a traceback)
MISTYPED_CASES = {
    "xi-string-theta": (("physics", "xi"), [{"excess": 0.2, "theta": "0.3"}]),
    "xi-bool-excess": (("physics", "xi"), [{"excess": True}]),
    "xi-misspelt-theta": (("physics", "xi"), [{"excess": 0.2, "thta": 1.0}]),
    "form-factor-string-width": (("reservoir", "form_factor"),
                                 {"preset": "gaussian", "width": "2"}),
    "form-factor-misspelt-width": (("reservoir", "form_factor"),
                                   {"preset": "gaussian", "widht": 2.0}),
    "form-factor-list-amplitude": (("reservoir", "form_factor"),
                                   {"amplitude": [1, 2]}),
    "form-factor-unknown-preset": (("reservoir", "form_factor"),
                                   {"preset": "lorentzian"}),
    "form-factor-numeric-table": (("reservoir", "form_factor"),
                                  {"table": 3}),
    "observable-bool-matrix": (("physics", "observable"),
                               {"matrix": [[True, 0], [0, False]]}),
    "observable-misspelt-matrix": (("physics", "observable"),
                                   {"kind": "hop", "matrx": [[0, 1], [1, 0]]}),
    "observable-unknown-kind": (("physics", "observable"), {"kind": "number"}),
    "observable-hop-and-matrix": (("physics", "observable"),
                                  {"kind": "hop", "matrix": [[0, 0], [0, 1]]}),
    "observable-one-entry-pairs": (("physics", "observable"),
                                   {"matrix": [[[1], [0]], [[0], [1]]]}),
    "observable-three-entry-pairs": (("physics", "observable"),
                                     {"matrix": [[[0, 0, 1], [1, 0, 0]],
                                                 [[1, 0, 0], [0, 0, 1]]]}),
    "mu-misspelt-n-theta": (("physics", "mu"), {"kind": "uniform_theta",
                                                "excess": 0.2, "n_thta": 4}),
    "mu-no-kind": (("physics", "mu"), {"excess": 0.2, "n_theta": 4}),
    "kac-own-rho_bar": (("physics", "mu"), {"kind": "kac", "rho_bar": 0.4,
                                            "n_r": 2, "n_theta": 2}),
    "atoms-misspelt-theta": (("physics", "mu"), {
        "kind": "atoms", "atoms": [{"r": 1.0, "weight": 1.0, "thta": 0.3}]}),
}


SPECTRUM_WITH_MEASURE = _edited(("physics", "mu"), {
    "kind": "uniform_theta", "excess": 0.2, "n_theta": 3})


PARITY_CASES = (
    [base_config()]
    + [_edited((name,), DELETE) for name in cli.SCHEMA["required"]]
    + [_edited(("dot", "d"), DELETE), _edited(("grid", "omega_max"), DELETE)]
    + [_edited(("unknown",), 1)]
    + [_edited((name, "unknown"), 1) for name in cli.SCHEMA["properties"]]
    + [_edited(("reservoir", "beta"), True),
       _edited(("trunc", "n_max"), True),
       _edited(("trunc", "n_max"), 2.0),
       _edited(("trunc", "n_max"), 2.5),
       _edited(("trunc", "n_max"), "2"),
       _edited(("grid", "spacing"), "cubic"),
       _edited(("grid", "spacing"), "log"),
       _edited(("reservoir", "beta"), 0),
       _edited(("reservoir", "beta"), 1e-300),
       _edited(("reservoir", "rho_bar"), 0),
       _edited(("grid", "n_modes"), 0),
       _edited(("solver", "T"), [100.0, "x"]),
       _edited(("solver", "T"), 100.0),
       _edited(("solver", "kernel_tol"), None),
       _edited(("solver", "kernel_tol"), "1e-9"),
       _edited(("outputs", "formats"), ["csv", "xml"]),
       _edited(("physics", "xi"), [{"theta": 0.3}, 2]),
       _edited(("physics", "lambda"), []),
       [base_config()]]             # a config that is no object
    + [_edited(("physics", "mu"), {"kind": "uniform_theta", "excess": 0.2,
                                   "n_theta": n_theta})
       for n_theta in (2.5, True, "3", 2)]
    + [_edited(path, value) for path, value in MISTYPED_CASES.values()]
    + [_edited(("solver", "tol"), 1e-10),
       _edited(("physics", "xi"), [{"r": 1.0, "theta": 0.3}, {"excess": 2}]),
       _edited(("reservoir", "form_factor"),
               {"preset": "power_law", "amplitude": 1, "exponent": 0.5,
                "width": 2.0}),
       _edited(("physics", "observable"),
               {"matrix": [[0, [1, 0.5]], [[1, -0.5], 0]]}),
       # valid, and refused by spectrum and virial, which read no measure
       SPECTRUM_WITH_MEASURE])


def test_validator_agrees_with_jsonschema():
    # load_config checks configs with cli.validate, a walker of the few
    # keywords SCHEMA uses; jsonschema is the reference for its verdicts
    jsonschema = pytest.importorskip("jsonschema")
    reference = jsonschema.validators.validator_for(cli.SCHEMA)
    reference.check_schema(cli.SCHEMA)
    reference = reference(cli.SCHEMA)
    cases = PARITY_CASES + [w.config for w in benchmark_workloads().values()]
    assert len(cases) >= 15
    verdicts = {True: 0, False: 0}
    for cfg in cases:
        try:
            cli.validate(cfg)
            accepted = True
        except cli.ConfigValidationError:
            accepted = False
        assert accepted == reference.is_valid(cfg), cfg
        verdicts[accepted] += 1
    assert min(verdicts.values()) >= 8


@pytest.mark.parametrize("case", sorted(MISTYPED_CASES))
def test_mistyped_or_misspelt_object_keys_exit_2(tmp_path, capsys, case):
    code, _, out = run_cli(tmp_path, "rte", _edited(*MISTYPED_CASES[case]),
                           capsys)
    assert code == cli.EXIT_CONFIG
    assert out.err.startswith("config validation error")


@pytest.mark.parametrize("key, value", [("tol", 1e-10), ("kernel_tol", 1e-9)])
def test_solver_tolerances_are_not_config_keys(tmp_path, capsys, key, value):
    # the near-zero solve's tolerances are library constants
    code, _, out = run_cli(tmp_path, "spectrum",
                           _edited(("solver", key), value), capsys)
    assert code == cli.EXIT_CONFIG
    assert out.err.startswith("config validation error: config.solver: "
                              f"unknown key {key!r}")


def test_observable_entries_may_mix_numbers_and_pairs(tmp_path, capsys):
    runs = []
    for matrix in ([[[0.5, 0], [1, 0.5]], [[1, -0.5], [-1, 0]]],
                   [[0.5, [1, 0.5]], [[1, -0.5], -1]]):
        sub = tmp_path / str(len(runs))
        sub.mkdir()
        code, outdir, _ = run_cli(
            sub, "rte", _edited(("physics", "observable"), {"matrix": matrix}),
            capsys)
        assert code == cli.EXIT_OK
        runs.append(json.loads((outdir / "rte.json").read_text())["runs"])
    assert runs[1] == runs[0]


def test_empty_dot_energies_exit_2(tmp_path, capsys):
    # an empty list is no request for the default ladder
    code, _, out = run_cli(tmp_path, "spectrum",
                           _edited(("dot", "energies"), []), capsys)
    assert code == cli.EXIT_CONFIG
    assert out.err.startswith("validation error: need exactly d energies")


@pytest.mark.parametrize("command", ["rte", "spectrum"])
def test_integral_floats_at_integer_keys_run_as_ints(tmp_path, capsys,
                                                     command):
    # JSON Schema accepts 2.0 as an integer; the validated config carries
    # int(2.0), so the run and its manifest are those of the int config
    outputs = []
    for n_max, n_modes, k_eigs in ((2, 4, 10), (2.0, 4.0, 10.0)):
        cfg = base_config()
        cfg["trunc"]["n_max"] = n_max
        cfg["grid"]["n_modes"] = n_modes
        cfg["solver"]["k_eigs"] = k_eigs
        run_dir = tmp_path / type(n_max).__name__
        run_dir.mkdir()
        code, outdir, _ = run_cli(run_dir, command, cfg, capsys)
        assert code == cli.EXIT_OK
        outputs.append([(outdir / name).read_text()
                        for name in ("manifest.json", f"{command}.json")])
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("name", ["rte_dense", "rte_condensate",
                                  "spectrum_sparse", "levelshift_wide"])
def test_benchmark_calls_import_no_thermo_modules(tmp_path, name):
    # scipy.integrate (with scipy.optimize), scipy.special and jsonschema
    # serve only thermo and below-critical densities; a fresh interpreter
    # running a benchmark call imports none of them, neither in setup nor
    # in the call
    workload = benchmark_workloads()[name]
    config = write_config(tmp_path, workload.config)
    script = (
        "import json, sys\n"
        "from bosedot import cli\n"
        "heavy = ['scipy.integrate', 'scipy.optimize', 'scipy.special',\n"
        "         'jsonschema']\n"
        "cli.build_manifest(cli.load_config(sys.argv[1]), 1)\n"
        "setup = [m for m in heavy if m in sys.modules]\n"
        "code = cli.main(sys.argv[2:])\n"
        "print(json.dumps([setup, code,\n"
        "                  [m for m in heavy if m in sys.modules]]))\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                          if "PYTHONPATH" in os.environ
                                          else [])))
    proc = subprocess.run(
        [sys.executable, "-c", script, config, workload.command, "--config",
         config, "--out", str(tmp_path / "out"), "--seed", "1"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    setup, code, after = json.loads(proc.stdout.splitlines()[-1])
    assert (setup, code, after) == ([], cli.EXIT_OK, [])


def test_flagged_radial_integral_is_named_in_one_sentence(tmp_path, capsys):
    # quad's warning spans several lines; the exit-3 message joins its
    # first sentence onto one line and names the integral quad flagged
    cfg = base_config()
    cfg["reservoir"]["rho_bar"] = res.critical_density(1.0) + 1e-12
    code, _, out = run_cli(tmp_path, "thermo", cfg, capsys)
    assert code == cli.EXIT_SOLVER
    prefix = "solver failure: radial integral (Kac excess): "
    assert out.err.startswith(prefix) and out.err.count("\n") == 1
    sentence = out.err[len(prefix):].rstrip("\n")
    assert sentence[0].isupper() and sentence.endswith(".")
    assert ". " not in sentence and len(sentence.split()) > 6


@pytest.mark.parametrize("beta, below, named", [
    (1.0, 1e-6, "radial integral (density equation): "),
    (100.0, 1e-12, "density equation: rho_bar is above the density at "
                   "fugacity 1 - 1e-13"),
], ids=["flagged-integral", "no-bracket"])
def test_flagged_density_equation_exits_3(tmp_path, capsys, beta, below,
                                          named):
    # every command solves the density equation for its manifest's
    # fugacity; just below the critical density a flagged integral, or a
    # density that no fugacity up to 1 - 1e-13 reaches, is a solver failure
    # named on one line
    cfg = base_config()
    cfg["reservoir"] = {"beta": beta, "dispersion": "nonrelativistic",
                        "rho_bar": (1 - below) * res.critical_density(
                            beta, res.NONRELATIVISTIC)}
    code, _, out = run_cli(tmp_path, "manifest", cfg, capsys)
    assert code == cli.EXIT_SOLVER
    assert out.err.startswith("solver failure: " + named)
    assert out.err.count("\n") == 1 and "Traceback" not in out.err


def test_schema_rejects_missing_section(tmp_path, capsys):
    cfg = base_config()
    del cfg["trunc"]
    code, _, out = run_cli(tmp_path, "thermo", cfg, capsys)
    assert code == cli.EXIT_CONFIG
    assert "config validation error" in out.err


def test_schema_rejects_unknown_key(tmp_path, capsys):
    cfg = base_config()
    cfg["grid"]["n_nodes"] = 4
    code, _, out = run_cli(tmp_path, "thermo", cfg, capsys)
    assert code == cli.EXIT_CONFIG


def test_malformed_json_and_missing_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["thermo", "--config", str(bad)]) == cli.EXIT_CONFIG
    capsys.readouterr()
    assert cli.main(["thermo", "--config",
                     str(tmp_path / "absent.json")]) == cli.EXIT_CONFIG
    capsys.readouterr()


def test_domain_error_maps_to_config_exit(tmp_path, capsys):
    cfg = base_config()
    cfg["physics"]["xi"] = [{"theta": 0.3}]
    code, _, out = run_cli(tmp_path, "spectrum", cfg, capsys)
    assert code == cli.EXIT_CONFIG
    assert "validation error" in out.err


@pytest.mark.parametrize("n_theta", [2.5, True, "3"],
                         ids=["fraction", "bool", "string"])
def test_measure_counts_must_be_integers(tmp_path, capsys, n_theta):
    # physics.mu's phase and radial counts are integers >= 1; a fraction, a
    # bool or a numeric string is refused before any run
    cfg = base_config()
    cfg["physics"]["mu"] = {"kind": "uniform_theta", "excess": 0.2,
                            "n_theta": n_theta}
    code, _, out = run_cli(tmp_path, "rte", cfg, capsys)
    assert code == cli.EXIT_CONFIG
    assert out.err.startswith("config validation error")
    assert "Traceback" not in out.err


@pytest.mark.parametrize("command", ["levelshift", "spectrum", "rte"])
def test_empty_lambda_list_is_config_error(tmp_path, capsys, command):
    # every command runs at least one coupling: an empty physics.lambda is
    # refused, not read as no runs or an index past the end
    cfg = base_config()
    cfg["physics"]["lambda"] = []
    code, _, out = run_cli(tmp_path, command, cfg, capsys)
    assert code == cli.EXIT_CONFIG
    assert out.err.startswith("config validation error")
    assert "Traceback" not in out.err


@pytest.mark.parametrize("edits", [
    {("physics", "mu"): {"kind": "uniform_theta"}},
    {("physics", "mu"): {"kind": "kac"}, ("reservoir", "rho_bar"): DELETE},
    {("physics", "mu"): {"kind": "atoms", "atoms": [{"r": 0.5}]}},
    {("reservoir", "form_factor"): {"table": "absent.csv"}},
], ids=["uniform_theta-no-radius", "kac-no-rho_bar", "atoms-no-weight",
        "missing-table"])
def test_malformed_measure_or_table_is_config_error(tmp_path, capsys, edits):
    cfg = base_config()
    for (section, key), value in edits.items():
        if value is DELETE:
            del cfg[section][key]
        elif key == "form_factor":
            cfg[section][key] = {"table": str(tmp_path / value["table"])}
        else:
            cfg[section][key] = value
    code, _, out = run_cli(tmp_path, "rte", cfg, capsys)
    assert code == cli.EXIT_CONFIG
    assert out.err.startswith("validation error")
    assert out.err.count("\n") == 1 and "Traceback" not in out.err


@pytest.mark.parametrize("command, edits, message", [
    ("rte", {("physics", "observable"): {"matrix": np.eye(3).tolist()}},
     "observable matrix must be d x d"),
    ("thermo", {("reservoir", "form_factor"): {"preset": "power_law",
                                               "exponent": -2.0}},
     "exponent must exceed -3/2 for square integrability"),
    ("thermo", {("reservoir", "form_factor"): {"table": "0,1\n1,0.5\n"}},
     "form factor table needs columns k, Re g, Im g"),
    ("thermo", {("reservoir", "form_factor"): {
        "table": "0,1,0\n2,0.5,0\n1,0.2,0\n"}},
     "table nodes must be nonnegative and strictly increasing"),
    ("rte", {("physics", "mu"): {"kind": "atoms", "atoms": [
        {"r": 0.5, "weight": 1.5}, {"r": 0.6, "weight": -0.5}]}},
     "weights must be nonnegative"),
    ("rte", {("physics", "mu"): {"kind": "kac"},
             ("reservoir", "rho_bar"): 0.01},
     "Kac measure needs a supercritical density"),
    ("spectrum", {("solver", "k_eigs"): 100000},
     "more eigenpairs requested than the dimension"),
    ("spectrum", {("physics", "xi"): [{"excess": 0.2,
                                       "theta": float("inf")}]},
     "theta must be finite"),
], ids=["observable-3x3", "power-law-exponent", "table-two-columns",
        "table-k-decreasing", "atoms-negative-weight", "kac-subcritical",
        "k-eigs-above-dim", "theta-infinite"])
def test_domain_errors_exit_2_with_their_message(tmp_path, capsys, command,
                                                 edits, message):
    # each passes the schema and is refused by the library's own check; a
    # "table" value here is the file's text, written beside the config
    cfg = base_config()
    for (section, key), value in edits.items():
        if key == "form_factor" and "table" in value:
            path = tmp_path / "table.csv"
            path.write_text(value["table"])
            value = {"table": str(path)}
        cfg[section][key] = value
    code, _, out = run_cli(tmp_path, command, cfg, capsys)
    assert code == cli.EXIT_CONFIG
    assert out.err == f"validation error: {message}\n"


def test_divergent_infrared_norm_is_solver_error(tmp_path, capsys):
    # g / sqrt(omega) with g ~ k^-1.4 is not square integrable at k = 0
    cfg = base_config()
    cfg["reservoir"]["form_factor"] = {"preset": "power_law",
                                       "exponent": -1.4}
    code, _, out = run_cli(tmp_path, "thermo", cfg, capsys)
    assert code == cli.EXIT_SOLVER
    assert out.err.startswith("solver failure: radial integral")
    assert out.err.count("\n") == 1 and "Traceback" not in out.err


@pytest.mark.parametrize("exponent, code", [(-1.0, cli.EXIT_SOLVER),
                                             (-0.9, cli.EXIT_OK)])
def test_infrared_norm_log_divergence_is_solver_error(tmp_path, capsys,
                                                      exponent, code):
    # with omega = |k| the integrand of ||g / sqrt(omega)||^2 goes as
    # k^(1 + 2 p): log-divergent at p = -1, integrable at p = -0.9
    cfg = base_config()
    cfg["reservoir"]["form_factor"] = {"preset": "power_law",
                                       "exponent": exponent}
    got, outdir, out = run_cli(tmp_path, "thermo", cfg, capsys)
    assert got == code
    if code == cli.EXIT_SOLVER:
        assert out.err.startswith("solver failure: radial integral diverges")
    else:
        rows = json.loads((outdir / "thermo.json").read_text())["rows"]
        norm = {r["name"]: r["value"] for r in rows}["infrared_norm"]
        assert 0.0 < norm < float("inf")


@pytest.mark.parametrize("beta", [1.0, 2.5])
def test_thermo_nonrelativistic_critical_density(tmp_path, capsys, beta):
    # with omega = k^2 the critical density is zeta(3/2) (4 pi beta)^(-3/2)
    cfg = base_config()
    cfg["reservoir"].update(beta=beta, dispersion="nonrelativistic")
    code, outdir, _ = run_cli(tmp_path, "thermo", cfg, capsys)
    assert code == cli.EXIT_OK
    rows = {r["name"]: r
            for r in json.loads((outdir / "thermo.json").read_text())["rows"]}
    row = rows["critical_density"]
    assert row["reference"] == pytest.approx(
        2.612375348685488 * (4.0 * np.pi * beta) ** -1.5, rel=1e-14)
    assert row["value"] == res.critical_density(beta, res.NONRELATIVISTIC)
    assert row["residual"] < 1e-10


def test_unstable_krylov_action_exits_3(tmp_path, capsys, monkeypatch):
    # the KMS weight is a krylov.expm_action; with no segment halving
    # allowed it cannot verify itself, and rte exits 3
    monkeypatch.setattr(krylov, "MAX_REFINE", 0)
    code, outdir, out = run_cli(tmp_path, "rte", base_config(), capsys)
    assert code == cli.EXIT_SOLVER
    assert out.err == ("solver failure: matrix exponential action did not "
                       "stabilize under segment halving\n")
    assert not (outdir / "rte.json").exists()


@pytest.mark.parametrize("name, xi", [
    ("eigh", None), ("svd", [{"excess": 0.2, "theta": 0.7}])],
    ids=["eigh", "chiral-svd"])
def test_lapack_failure_exits_3(tmp_path, capsys, monkeypatch, name, xi):
    # np.linalg.LinAlgError subclasses ValueError, yet a factorisation that
    # LAPACK cannot finish is a solver failure, not a config error
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")
    monkeypatch.setattr(liouville, name, fail)
    cfg = base_config()
    if xi:
        cfg["physics"]["xi"] = xi
    code, outdir, out = run_cli(tmp_path, "rte", cfg, capsys)
    assert code == cli.EXIT_SOLVER
    assert out.err == "solver failure: eigenvalues did not converge\n"
    assert not (outdir / "rte.json").exists()


def test_dimension_cap_exit(tmp_path, capsys):
    cfg = base_config()
    cfg["grid"]["n_modes"] = 6
    cfg["trunc"] = {"n_max": 4, "dim_cap": 50}
    code, _, out = run_cli(tmp_path, "spectrum", cfg, capsys)
    assert code == cli.EXIT_CAP
    assert "dimension cap" in out.err


def test_dense_cutoff_applies_to_the_largest_block(tmp_path, capsys):
    # dim 2244 is above the cutoff; its largest charge sector holds 546
    cfg = base_config()
    cfg["grid"]["n_modes"] = 16
    cfg["trunc"] = {"n_max": 2}
    code, outdir, out = run_cli(tmp_path, "rte", cfg, capsys)
    assert code == cli.EXIT_OK, out.err
    run = json.loads((outdir / "rte.json").read_text())["runs"][0]
    assert run["manifest"]["dim"] == 2244 > liouville.DENSE_CUTOFF
    assert run["factorisation"] == {"path": "sector", "blocks": 7,
                                    "largest_block": 546, "real": True,
                                    "chiral": 1}


def test_rte_between_largest_block_and_dim_matches_dense(tmp_path, capsys,
                                                          monkeypatch):
    # dim 112, largest charge sector 26: a cutoff between the two runs the
    # same factorisation, and every consumer must read it
    cfg = base_config()
    cfg["grid"]["n_modes"] = 3
    cfg["trunc"] = {"n_max": 2}
    cfg["solver"]["T"] = [60.0, 600.0]
    texts = []
    for cutoff in (liouville.DENSE_CUTOFF, 50):
        monkeypatch.setattr(liouville, "DENSE_CUTOFF", cutoff)
        sub = tmp_path / str(cutoff)
        sub.mkdir()
        code, outdir, out = run_cli(sub, "rte", cfg, capsys)
        assert code == cli.EXIT_OK, out.err
        texts.append((outdir / "rte.json").read_bytes())
    run = json.loads(texts[1])["runs"][0]
    assert run["manifest"]["dim"] == 112
    assert run["factorisation"]["largest_block"] == 26
    assert texts[0] == texts[1]


@pytest.mark.parametrize("xi", [None, [{"excess": 0.2, "theta": 0.7}]],
                         ids=["sector-0", "gauged-condensate"])
def test_rte_runs_no_lu(tmp_path, capsys, monkeypatch, xi):
    # the dense factorisation takes a chiral block's pairs and kernel from
    # one SVD: rte, which reads only its clusters, factors no LU
    def no_lu(*args, **kwargs):
        raise AssertionError("an LU was factored")

    monkeypatch.setattr(liouville, "splu", no_lu)
    monkeypatch.setattr(spectral, "splu", no_lu)
    cfg = base_config()
    if xi is not None:
        cfg["physics"]["xi"] = xi
    code, outdir, out = run_cli(tmp_path, "rte", cfg, capsys)
    assert code == cli.EXIT_OK, out.err
    (run,) = json.loads((outdir / "rte.json").read_text())["runs"]
    assert run["factorisation"]["chiral"] == 1


def spectrum_reports(tmp_path, capsys, monkeypatch, cfg):
    """The spectrum report of cfg's single run, from the near-zero block
    solve and then, the reference, with solve_near_zero selecting its pairs
    from the bundle's dense factorisation, bundle.eigensystem()."""
    reports = []
    for sub in ("block", "dense"):
        with monkeypatch.context() as patch:
            if sub == "dense":
                patch.setattr(spectral, "near_zero_eigensystem",
                              lambda bundle, want, norm_l:
                              (bundle.eigensystem(), {"path": "eigensystem"}))
            (tmp_path / sub).mkdir()
            code, outdir, out = run_cli(tmp_path / sub, "spectrum", cfg,
                                        capsys)
        assert code == cli.EXIT_OK, out.err
        (run,) = json.loads((outdir / "spectrum.json").read_text())["runs"]
        reports.append(run["report"])
    return reports


def kernel_rows(report):
    """The diagnostics rows of a spectrum report's kernel, in report order,
    each flattened to {key: number} with the panel entries as panel.<name>."""
    return [{**{k: v for k, v in row.items() if k != "panel"},
             **{f"panel.{k}": v for k, v in row["panel"].items()}}
            for row in report["diagnostics"]
            if abs(row["eigenvalue"]) < report["kernel_tol"]]


def dim112_config(tmp_path, xi, table):
    """A spectrum of k_eigs 12 at dim 112 on a log grid, with the
    condensate points xi, and with snapshot_outputs' complex tabulated form
    factor (written to tmp_path) if table."""
    cfg = base_config()
    cfg["grid"] = {"n_modes": 3, "omega_min": 0.35, "omega_max": 2.3,
                   "spacing": "log"}
    cfg["trunc"] = {"n_max": 2}
    cfg["solver"] = {"k_eigs": 12}
    if xi is not None:
        cfg["physics"]["xi"] = xi
    if table:
        path = tmp_path / "form_factor.csv"
        path.write_text(load_module(
            ROOT / "tools" / "snapshot_outputs.py").complex_table())
        cfg["reservoir"]["form_factor"] = {"table": str(path)}
    return cfg


@pytest.mark.parametrize("command", ["spectrum", "virial"])
@pytest.mark.parametrize("xi, table", [
    (None, False), ([{"excess": 0.2, "theta": 0.7}], False), (None, True)],
    ids=["sector-0", "gauged-condensate", "complex-table"])
def test_spectrum_and_virial_never_factorise(tmp_path, capsys, monkeypatch,
                                             command, xi, table):
    # below the dense cutoff too, the near-zero solve is the only eigensolve
    # of spectrum and virial: no symmetry block gets a dense eigh or a
    # chiral SVD
    def no_factorisation(*args, **kwargs):
        raise AssertionError("a symmetry block was factorised")

    monkeypatch.setattr(liouville, "eigh", no_factorisation)
    monkeypatch.setattr(liouville, "chiral_eigh", no_factorisation)
    code, _, out = run_cli(tmp_path, command,
                           dim112_config(tmp_path, xi, table), capsys)
    assert code == cli.EXIT_OK, out.err


@pytest.mark.parametrize("xi, table, first", [
    (None, False, "chiral-lu"),
    ([{"excess": 0.2, "theta": 0.7}], False, "chiral-lu"),
    (None, True, "shift-invert"),
    ([{"excess": 0.2, "theta": 0.7}], True, "shift-invert")],
    ids=["sector-0", "gauged-condensate", "complex-table",
         "complex-table-condensate"])
def test_dense_and_block_paths_report_the_same_kernel_rows(
        tmp_path, capsys, monkeypatch, xi, table, first):
    # dim 112: the block path and the dense factorisation's pairs give the
    # one kernel frame that solve_near_zero forms from any kernel columns,
    # so every kernel row agrees, not only the rotation-free traces.  The
    # complex tabulated coupling makes sector 0, or the gauged L(0), a
    # complex block, which the block path shift-inverts
    cfg = dim112_config(tmp_path, xi, table)
    block, dense = spectrum_reports(tmp_path, capsys, monkeypatch, cfg)
    assert block["solver"]["blocks"][0]["path"] == first
    assert dense["solver"]["path"] == "eigensystem"
    assert dense["kernel_dim"] == block["kernel_dim"] == 8
    for want, got in zip(kernel_rows(dense), kernel_rows(block), strict=True):
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=0, abs=1e-10), key


def test_block_above_the_dense_cutoff_exits_4(tmp_path, capsys, monkeypatch):
    # dim 20, charge sectors of 2, 5, 6, 5 and 2 states: sector 0 is chiral,
    # and its SVD's larger side holds its 2 fixed states and 2 of its pairs'
    # states, so the eigh of a 5-state sector is the one refused
    monkeypatch.setattr(liouville, "DENSE_CUTOFF", 4)
    code, _, out = run_cli(tmp_path, "rte", base_config(), capsys)
    assert code == cli.EXIT_CAP
    assert "dimension cap" in out.err
    assert "symmetry block of 5 states above the dense cutoff 4" in out.err


def test_chiral_half_above_the_dense_cutoff_exits_4(tmp_path, capsys,
                                                    monkeypatch):
    # the gauged L(0) of dim 20 is one chiral block with 2 fixed states:
    # its SVD's larger side holds 11
    monkeypatch.setattr(liouville, "DENSE_CUTOFF", 10)
    cfg = base_config()
    cfg["physics"]["xi"] = [{"excess": 0.2, "theta": 0.7}]
    code, _, out = run_cli(tmp_path, "rte", cfg, capsys)
    assert code == cli.EXIT_CAP
    assert ("symmetry block of 20 states: chiral half of 11 states above "
            "the dense cutoff 10") in out.err


def test_condensate_rte_between_chiral_half_and_block_matches_default(
        tmp_path, capsys, monkeypatch):
    # a cutoff of 15 lies between the chiral half (11) and the block (20):
    # the same factorisation runs, and rte.json is the same byte for byte
    cfg = base_config()
    cfg["physics"]["mu"] = {"kind": "uniform_theta", "excess": 0.2,
                            "n_theta": 3}
    cfg["solver"]["T"] = [60.0, 600.0]
    texts = []
    for cutoff in (liouville.DENSE_CUTOFF, 15):
        monkeypatch.setattr(liouville, "DENSE_CUTOFF", cutoff)
        sub = tmp_path / str(cutoff)
        sub.mkdir()
        code, outdir, out = run_cli(sub, "rte", cfg, capsys)
        assert code == cli.EXIT_OK, out.err
        texts.append((outdir / "rte.json").read_bytes())
    run = json.loads(texts[1])["runs"][0]
    assert run["manifest"]["dim"] == 20
    assert run["factorisation"] == {"path": "gauge", "blocks": 1,
                                    "largest_block": 20, "real": True,
                                    "chiral": 1}
    assert texts[0] == texts[1]


def test_spectrum_smoke_and_csv(tmp_path, capsys):
    cfg = base_config()
    cfg["solver"]["k_eigs"] = 6
    code, outdir, out = run_cli(tmp_path, "spectrum", cfg, capsys,
                                extra=["--format", "csv"])
    assert code == cli.EXIT_OK
    payload_path = outdir / "spectrum.json"
    assert not payload_path.exists()
    lines = (outdir / "spectrum.csv").read_text().splitlines()
    status = json.loads(out.out)
    assert lines[0] == f"# manifest={status['manifest']}"
    assert lines[1].split(",")[0] == "lambda"
    assert len(lines) == 2 + 6


def _csv_case(command):
    cfg = base_config()
    cfg["outputs"] = {"formats": ["json", "csv"]}
    if command == "virial":
        cfg["solver"]["k_eigs"] = 4
    elif command == "levelshift":
        cfg["grid"] = {"n_modes": 2, "omega_max": 3.0, "omega_min": 0.5,
                       "spacing": "log"}
        cfg["solver"] = {"epsilons": [0.4, 0.2], "h_over_eps": 0.05}
    elif command == "rte":
        cfg["physics"]["mu"] = {"kind": "uniform_theta", "excess": 0.2,
                                "n_theta": 2}
    return cfg


@pytest.mark.parametrize("command, key, header", [
    ("thermo", "rows", "name,value,reference,residual"),
    ("virial", "rows",
     "lambda,eigenvalue,virial_value,lambda_weight,residual"),
    ("levelshift", "sandwich_sweep",
     "epsilon,n_modes,misfit,fit_constant,oracle_constant,gibbs_overlap"),
    ("rte", "runs",
     "lambda,r,theta,deviation,deviation_normalized,ergodic_limit"),
], ids=["thermo", "virial", "levelshift", "rte"])
def test_csv_table_matches_json_rows(tmp_path, capsys, command, key, header):
    code, outdir, out = run_cli(tmp_path, command, _csv_case(command), capsys)
    assert code == cli.EXIT_OK
    payload = json.loads((outdir / f"{command}.json").read_text())
    lines = (outdir / f"{command}.csv").read_text().splitlines()
    assert lines[0] == f"# manifest={json.loads(out.out)['manifest']}"
    assert lines[1] == header
    first, rows = header.split(",")[0], lines[2:]
    assert len(rows) == len(payload[key]) > 0
    for line, row in zip(rows, payload[key]):
        cell = row[first]
        assert line.split(",")[0] == (repr(cell) if isinstance(cell, float)
                                      else str(cell))
    if command == "rte":
        thetas = [float(line.split(",")[2]) for line in rows]
        assert thetas == [r["manifest"]["xi"]["theta"]
                          for r in payload["runs"]]


@pytest.mark.parametrize("command", ["thermo", "rte", "spectrum"])
def test_csv_cells_are_plain_numbers(tmp_path, capsys, command):
    # numpy scalars (scipy.special.zeta returns np.float64) are written as
    # plain numbers, not as np.float64(...)
    code, outdir, _ = run_cli(tmp_path, command, base_config(), capsys,
                              extra=["--format", "csv"])
    assert code == cli.EXIT_OK
    text = (outdir / f"{command}.csv").read_text()
    assert len(text.splitlines()) > 2
    assert "np." not in text


def test_spectrum_kernel_dimension(tmp_path, capsys):
    cfg = base_config()
    cfg["solver"]["k_eigs"] = 6
    code, outdir, _ = run_cli(tmp_path, "spectrum", cfg, capsys)
    assert code == cli.EXIT_OK
    payload = json.loads((outdir / "spectrum.json").read_text())
    run = payload["runs"][0]
    # n_max 1 leaves the vacuum as the only matched occupation, one kernel
    # vector per diagonal dot pair
    assert run["kernel_dim"] == 2
    assert run["lambda"] == 0.1


def test_virial_rows_small(tmp_path, capsys):
    cfg = base_config()
    cfg["solver"]["k_eigs"] = 4
    code, outdir, _ = run_cli(tmp_path, "virial", cfg, capsys)
    assert code == cli.EXIT_OK
    payload = json.loads((outdir / "virial.json").read_text())
    assert len(payload["rows"]) == 4
    for row in payload["rows"]:
        assert abs(row["virial_value"]) < 1e-8


def levelshift_config():
    cfg = base_config()
    cfg["grid"] = {"n_modes": 2, "omega_max": 3.0, "omega_min": 0.5,
                   "spacing": "log"}
    cfg["solver"] = {"epsilons": [0.4, 0.2], "h_over_eps": 0.05}
    return cfg


def test_levelshift_sweep(tmp_path, capsys):
    cfg = levelshift_config()
    cfg["physics"] = {"lambda": [1.0]}
    code, outdir, _ = run_cli(tmp_path, "levelshift", cfg, capsys)
    assert code == cli.EXIT_OK
    payload = json.loads((outdir / "levelshift.json").read_text())
    gap = payload["level_shift"]["gap"]
    assert gap == pytest.approx(1.0 + 2.0 / (2.718281828459045 - 1.0),
                                rel=1e-10)
    sweep = payload["sandwich_sweep"]
    assert len(sweep) == 2
    assert sweep[1]["n_modes"] > sweep[0]["n_modes"]
    for row in sweep:
        assert row["gibbs_overlap"] > 0.99


def test_levelshift_builds_no_bundle(tmp_path, capsys, monkeypatch):
    # the sandwich reads only liouville.assemble_first's parts
    def refuse(*args, **kwargs):
        raise AssertionError("levelshift built a bundle")

    monkeypatch.setattr(cli, "build_bundle", refuse)
    monkeypatch.setattr(liouville, "build_bundle", refuse)
    code, outdir, out = run_cli(tmp_path, "levelshift", levelshift_config(),
                                capsys)
    assert code == cli.EXIT_OK, out.err
    assert len(json.loads((outdir / "levelshift.json").read_text())
               ["sandwich_sweep"]) == 2


@pytest.mark.parametrize("command", ["levelshift", "spectrum"])
def test_log_grid_with_omega_min_zero_exits_2(tmp_path, capsys, command):
    # levelshift's grids are log spaced whatever grid.spacing says, so a
    # given omega_min of 0 is refused as on any log grid, not replaced
    cfg = levelshift_config()
    cfg["grid"]["omega_min"] = 0.0
    code, outdir, out = run_cli(tmp_path, command, cfg, capsys)
    assert code == cli.EXIT_CONFIG
    assert out.err == "validation error: log spacing needs omega_min > 0\n"
    assert not (outdir / f"{command}.json").exists()


def test_levelshift_over_the_dimension_cap_exits_4(tmp_path, capsys):
    # epsilon 0.2 at h/epsilon 0.05 asks for 180 modes: 361 field states
    cfg = levelshift_config()
    cfg["trunc"]["dim_cap"] = 300
    code, _, out = run_cli(tmp_path, "levelshift", cfg, capsys)
    assert code == cli.EXIT_CAP
    assert "field dimension 361 exceeds cap 300" in out.err


def test_rte_refuses_a_measure_beside_xi(tmp_path, capsys):
    # rte runs the measure's points, so an xi list beside it would go unread
    cfg = base_config()
    cfg["physics"]["mu"] = {"kind": "uniform_theta", "excess": 0.2,
                            "n_theta": 2}
    cfg["physics"]["xi"] = [{"excess": 0.2, "theta": 0.3}]
    code, _, out = run_cli(tmp_path, "rte", cfg, capsys)
    assert code == cli.EXIT_CONFIG
    assert out.err.startswith("validation error")
    assert "physics.mu" in out.err and "physics.xi" in out.err


@pytest.mark.parametrize("command", ["spectrum", "virial"])
def test_spectrum_and_virial_refuse_a_measure(tmp_path, capsys, command):
    # they run the physics.xi points; a measure without xi ran condensate-free
    code, outdir, out = run_cli(tmp_path, command, SPECTRUM_WITH_MEASURE,
                                capsys)
    assert code == cli.EXIT_CONFIG
    assert out.err.startswith("validation error: physics.mu is read only by "
                              "rte")
    assert not (outdir / f"{command}.json").exists()


@pytest.mark.parametrize("command, key, value, named", [
    ("spectrum", "xi", [{"r": 1.0, "excess": 0.2}], "physics.xi[0]"),
    ("rte", "xi", [{"excess": 0.2}, {"r": 1.0, "excess": 0.2}],
     "physics.xi[1]"),
    ("rte", "mu", {"kind": "uniform_theta", "r": 1.0, "excess": 0.2},
     "physics.mu"),
    ("rte", "mu", {"kind": "kac", "n_r": 2, "n_theta": 2, "r": 1.0}, "'r'"),
    ("rte", "mu", {"kind": "kac", "n_r": 2, "n_theta": 2, "excess": 0.2},
     "'excess'"),
    ("rte", "mu", {"kind": "atoms", "n_theta": 2,
                   "atoms": [{"r": 1.0, "weight": 1.0}]}, "'n_theta'"),
], ids=["xi-r-and-excess", "second-xi-r-and-excess",
        "uniform_theta-r-and-excess", "kac-r", "kac-excess", "atoms-n_theta"])
def test_unread_radius_or_measure_key_is_config_error(tmp_path, capsys,
                                                      command, key, value,
                                                      named):
    # an entry with both r and excess would run at r, and a measure kind
    # reads only its own keys: each is refused, with the key named
    cfg = base_config()
    cfg["physics"][key] = value
    code, _, out = run_cli(tmp_path, command, cfg, capsys)
    assert code == cli.EXIT_CONFIG
    assert out.err.startswith("validation error")
    assert named in out.err and "Traceback" not in out.err


@pytest.mark.parametrize("excess", [-0.05, -1.0],
                         ids=["above-zero-density", "below-zero-density"])
@pytest.mark.parametrize("command, key, entry", [
    ("spectrum", "xi", lambda excess: [{"excess": excess, "theta": 0.3}]),
    ("rte", "mu", lambda excess: {"kind": "uniform_theta", "excess": excess,
                                  "n_theta": 2}),
], ids=["xi", "uniform_theta"])
def test_negative_excess_is_config_error(tmp_path, capsys, command, key,
                                         entry, excess):
    # rho_crit is 0.12 here: the excess is refused as the excess it is,
    # whether rho_crit + excess is a density below rho_crit or below 0
    cfg = base_config()
    cfg["physics"][key] = entry(excess)
    code, outdir, out = run_cli(tmp_path, command, cfg, capsys)
    assert code == cli.EXIT_CONFIG
    assert out.err == ("validation error: density excess above critical "
                       "must be nonnegative\n")
    assert not (outdir / f"{command}.json").exists()


@pytest.mark.parametrize("command", ["thermo", "spectrum"])
@pytest.mark.parametrize("form_factor, named", [
    ({"preset": "gaussian", "exponent": 3.0}, "a gaussian form factor reads "
     "no 'exponent'"),
    ({"exponent": 3.0}, "a gaussian form factor reads no 'exponent'"),
    ({"table": "g.csv", "width": 2.0}, "a table form factor reads no "
     "'width'"),
    ({"table": "g.csv", "preset": "power_law"}, "a table form factor reads "
     "no 'preset'"),
    ({"table": "g.csv", "amplitude": 2.0, "exponent": 0.5}, "a table form "
     "factor reads no 'amplitude'"),
], ids=["gaussian-exponent", "default-exponent", "table-width",
        "table-preset", "table-amplitude"])
def test_unread_form_factor_key_is_config_error(tmp_path, capsys, command,
                                                form_factor, named):
    # gaussian reads amplitude and width, power_law also exponent, and a
    # table only its path: any other key would be dropped, so it is refused
    cfg = base_config()
    cfg["reservoir"]["form_factor"] = form_factor
    code, outdir, out = run_cli(tmp_path, command, cfg, capsys)
    assert code == cli.EXIT_CONFIG
    assert out.err == f"validation error: reservoir.form_factor: {named}\n"
    assert not (outdir / f"{command}.json").exists()


def test_measure_counts_default_in_the_library():
    # the CLI passes only the counts a config gives, so a measure without
    # them is the library's default one: kac_theta's 8 densities and 4
    # phases, uniform_theta's 8 phases
    cfg = base_config()
    rc = res.critical_density(1.0)
    kac = res.XiMeasure.kac_theta(1.0, 0.3)
    assert len(kac.points) == 8 * 4
    for mu, want in [({"kind": "kac"}, kac),
                     ({"kind": "kac", "n_theta": 3},
                      res.XiMeasure.kac_theta(1.0, 0.3, n_theta=3)),
                     ({"kind": "uniform_theta", "excess": 0.2},
                      res.XiMeasure.uniform_theta(rc + 0.2))]:
        cfg["physics"]["mu"] = mu
        assert cli._measure(cfg, rc) == want
    assert len(want.points) == 8


def test_rte_with_measure_aggregate(tmp_path, capsys, monkeypatch):
    # both phases share one bundle, one factorisation and one KMS vector
    counts = {"kms_vector": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    factorised = record_factorisations(monkeypatch)
    kms = counted("kms_vector", liouville.kms_vector)
    monkeypatch.setattr(liouville, "kms_vector", kms)
    cfg = base_config()
    cfg["physics"] = {"lambda": [0.1],
                      "mu": {"kind": "uniform_theta", "excess": 0.2,
                             "n_theta": 2}}
    code, outdir, _ = run_cli(tmp_path, "rte", cfg, capsys)
    assert code == cli.EXIT_OK
    assert len(factorised) == 1
    assert counts == {"kms_vector": 1}
    payload = json.loads((outdir / "rte.json").read_text())
    assert len(payload["runs"]) == 2
    for run in payload["runs"]:
        assert run["deviation"] >= 0.0
        assert run["finite_T"][0]["T"] == 60.0
    agg = payload["aggregate"]
    assert agg["aggregate_deviation"] >= 0.0
    assert len(agg["per_xi"]) == 2
    assert "messages" not in payload


def test_rte_measure_over_two_lambdas_says_why_it_has_no_aggregate(
        tmp_path, capsys):
    cfg = base_config()
    cfg["physics"] = {"lambda": [0.01, 0.1],
                      "mu": {"kind": "uniform_theta", "excess": 0.2,
                             "n_theta": 2}}
    code, outdir, _ = run_cli(tmp_path, "rte", cfg, capsys)
    assert code == cli.EXIT_OK
    payload = json.loads((outdir / "rte.json").read_text())
    assert len(payload["runs"]) == 4
    assert "aggregate" not in payload
    assert payload["messages"] == [
        "no aggregate: physics.lambda has 2 values, and the measure's "
        "aggregate is formed for a single lambda"]


def probe_config(mu, observable=None):
    cfg = base_config()
    cfg["grid"] = {"n_modes": 3, "omega_min": 0.35, "omega_max": 2.3,
                   "spacing": "log"}
    cfg["trunc"] = {"n_max": 2}
    cfg["physics"] = {"lambda": [0.3], "mu": mu}
    if mu["kind"] == "kac":
        cfg["reservoir"]["rho_bar"] = 0.4     # the density the measure reads
    if observable is not None:
        cfg["physics"]["observable"] = {"matrix": observable}
    return cfg


def rte_payload(tmp_path, capsys, cfg):
    code, outdir, _ = run_cli(tmp_path, "rte", cfg, capsys)
    assert code == cli.EXIT_OK
    return json.loads((outdir / "rte.json").read_text())


AGGREGATE_FIELDS = ("aggregate_limit", "redistribution_target",
                    "aggregate_deviation")


@pytest.mark.parametrize("n_theta, matrix, aliased", [
    (3, None, True), (4, None, False), (3, [[1, 0], [0, -1]], False),
    (1, [[0, 0], [0, 1]], False)])
def test_rte_uniform_theta_aggregate_is_the_exact_average(
        tmp_path, capsys, n_theta, matrix, aliased):
    # hop at d=2: the limit over theta is a cos(theta) + b cos(3 theta), so
    # the mean of 3 runs reads b = 2.50e-4 where the exact average is 0; a
    # diagonal observable is constant in theta and any rule is exact
    payload = rte_payload(tmp_path, capsys, probe_config(
        {"kind": "uniform_theta", "excess": 0.2, "n_theta": n_theta}, matrix))
    agg = payload["aggregate"]
    assert set(agg) == {*AGGREGATE_FIELDS, "per_xi"}
    rule = np.mean([run["ergodic_limit"] for run in payload["runs"]])
    if aliased:
        assert rule == pytest.approx(2.50e-4, rel=1e-2)
    else:
        assert agg["aggregate_limit"] == pytest.approx(rule, rel=1e-12,
                                                       abs=1e-15)
    if matrix is None:
        for key in AGGREGATE_FIELDS:
            assert agg[key] == 0.0


@pytest.mark.parametrize("n_theta", [3, 4])
def test_rte_exact_theta_limit(tmp_path, capsys, n_theta):
    # hop at d=2: the limit has only the frequencies +-1 and +-3 in theta
    # and omega_bb * omega_a only +-1 and +-3 too, so every average is 0
    payload = rte_payload(tmp_path, capsys, probe_config(
        {"kind": "uniform_theta", "excess": 0.2, "n_theta": n_theta}))
    agg = payload["aggregate"]
    for key in AGGREGATE_FIELDS:
        assert abs(agg[key]) <= 1e-15


@pytest.mark.parametrize("mu", [
    {"kind": "kac", "n_r": 2, "n_theta": 2},
    {"kind": "kac", "n_r": 2, "n_theta": 3},
    {"kind": "atoms", "atoms": [{"r": 0.5, "theta": 0.0, "weight": 0.5},
                                {"r": 0.5, "theta": 3.0, "weight": 0.5}]}],
    ids=["kac-2", "kac-3", "atoms"])
def test_rte_aliasing_reads_the_frequencies_present(tmp_path, capsys, mu):
    # the aggregate reads the Fourier coefficients of the pass, so a kac
    # rule of 3 angles, which the odd frequency 3 of hop at d=2 aliases,
    # gives the exact average 0 as 2 angles do; atoms are a finite sum over
    # their own phases, and hop at theta = 0 and 3 does not cancel
    payload = rte_payload(tmp_path, capsys, probe_config(mu))
    agg = payload["aggregate"]
    weights = [row["weight"] for row in agg["per_xi"]]
    rule = np.dot(weights, [run["ergodic_limit"] for run in payload["runs"]])
    if mu["kind"] == "kac":
        assert agg["aggregate_limit"] == 0.0
    else:
        assert abs(agg["aggregate_limit"]) > 1e-6
        assert agg["aggregate_limit"] == pytest.approx(rule, rel=1e-12)


NON_HERMITIAN_D3 = [[0.3, 1.0 + 0.5j, 0.0], [0.2j, -0.7, 0.4],
                    [0.6 - 0.1j, 0.0, 0.1j]]


def d3_non_hermitian(mu):
    cfg = probe_config(mu, [[[z.real, z.imag] for z in map(complex, row)]
                            for row in NON_HERMITIAN_D3])
    cfg["dot"] = {"d": 3}
    cfg["grid"]["n_modes"] = 2
    cfg["physics"]["lambda"] = [0.2]
    return cfg


@pytest.mark.parametrize("make, mu, n_thetas", [
    (probe_config, {"kind": "uniform_theta", "excess": 0.2}, [1, 2, 3, 4, 7]),
    (probe_config, {"kind": "kac", "n_r": 2}, [2, 3]),
    (d3_non_hermitian, {"kind": "uniform_theta", "excess": 0.2},
     [1, 2, 3, 4, 7])], ids=["uniform-hop", "kac-hop", "d3-non-hermitian"])
def test_rte_theta_aggregate_does_not_depend_on_n_theta(tmp_path, capsys,
                                                        make, mu, n_thetas):
    # n_theta only chooses which phases get a run: the aggregate is the
    # exact average over the circle
    aggs = [rte_payload(tmp_path, capsys, make({**mu, "n_theta": n}))
            ["aggregate"] for n in n_thetas]
    for agg in aggs[1:]:
        assert len(agg["per_xi"]) != len(aggs[0]["per_xi"])
        for key in AGGREGATE_FIELDS:
            assert agg[key] == pytest.approx(aggs[0][key], rel=1e-12,
                                             abs=1e-15), key


def test_rte_atoms_aggregate_is_the_weighted_sum_of_its_runs(tmp_path,
                                                             capsys):
    # two densities, three phases at the first and one at the second
    atoms = [{"r": 0.5, "theta": 0.0, "weight": 0.2},
             {"r": 0.5, "theta": 1.1, "weight": 0.3},
             {"r": 0.6, "theta": 2.5, "weight": 0.4},
             {"r": 0.5, "theta": 4.0, "weight": 0.1}]
    payload = rte_payload(tmp_path, capsys, d3_non_hermitian(
        {"kind": "atoms", "atoms": atoms}))
    agg, runs = payload["aggregate"], payload["runs"]
    weights = [a["weight"] for a in atoms]
    limit = np.dot(weights, [run["ergodic_limit"] for run in runs])
    target = np.dot(weights, [run["omega_bb"] * run["omega_a"]
                              for run in runs])
    assert abs(agg["aggregate_limit"] - limit) <= 1e-12
    assert abs(agg["redistribution_target"] - target) <= 1e-12
    assert abs(agg["aggregate_deviation"] - abs(limit - target)) <= 1e-12
    assert [(row["r"], row["theta"]) for row in agg["per_xi"]] == [
        (a["r"], a["theta"]) for a in atoms]


def test_rte_kac_sweep_has_one_eigh_and_kms_vector_per_density(
        tmp_path, capsys, monkeypatch):
    counts = {"kms_vector": 0, "build_bundle": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    factorised = record_factorisations(monkeypatch)
    monkeypatch.setattr(liouville, "kms_vector",
                        counted("kms_vector", liouville.kms_vector))
    monkeypatch.setattr(cli, "build_bundle",
                        counted("build_bundle", cli.build_bundle))
    cfg = base_config()
    cfg["reservoir"]["rho_bar"] = 0.4
    cfg["physics"] = {"lambda": [0.1],
                      "mu": {"kind": "kac", "n_r": 2,
                             "n_theta": 4}}
    code, outdir, _ = run_cli(tmp_path, "rte", cfg, capsys)
    assert code == cli.EXIT_OK
    assert len(factorised) == 2
    assert counts == {"kms_vector": 2, "build_bundle": 2}
    runs = json.loads((outdir / "rte.json").read_text())["runs"]
    assert [r["manifest"]["xi"]["theta"] for r in runs[:4]] == [
        2.0 * 3.141592653589793 * j / 4 for j in range(4)]


def test_kac_measure_reads_the_manifest_rho0(tmp_path, capsys):
    # the Kac measure's densities are rho_crit + rho0 x_i on the Laguerre
    # nodes x_i, with the rho0 the manifest derives from reservoir.rho_bar
    code, outdir, _ = run_cli(tmp_path, "rte", probe_config(
        {"kind": "kac", "n_r": 2, "n_theta": 1}), capsys)
    assert code == cli.EXIT_OK
    derived = json.loads((outdir / "manifest.json").read_text())["derived"]
    assert derived["rho0"] == 0.4 - derived["rho_crit"]
    runs = json.loads((outdir / "rte.json").read_text())["runs"]
    nodes = np.polynomial.laguerre.laggauss(2)[0]
    assert [run["manifest"]["xi"]["r"] for run in runs] == [
        derived["rho_crit"] + derived["rho0"] * x for x in nodes]


def test_manifest_is_deterministic(tmp_path, capsys):
    texts = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        code, outdir, _ = run_cli(d, "manifest", base_config(), capsys)
        assert code == cli.EXIT_OK
        texts.append((outdir / "manifest.json").read_bytes())
    assert texts[0] == texts[1]


def test_manifest_command_writes_only_manifest(tmp_path, capsys):
    code, outdir, out = run_cli(tmp_path, "manifest", base_config(), capsys)
    assert code == cli.EXIT_OK
    status = json.loads(out.out)
    assert status["written"] == [str(outdir / "manifest.json")]
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["seed"] == 11
    assert manifest["derived"]["rho_crit"] > 0


def test_seed_flag_lands_in_manifest(tmp_path, capsys):
    code, outdir, _ = run_cli(tmp_path, "manifest", base_config(), capsys,
                              extra=["--seed", "99"])
    assert code == cli.EXIT_OK
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["seed"] == 99


def sparse_config():
    # 2720-dimensional composite on a log grid (seed-free conjugate): the
    # per-sector shift-invert path, whose start blocks come from L0 alone
    cfg = base_config()
    cfg["grid"] = {"n_modes": 7, "omega_min": 0.35, "omega_max": 2.8,
                   "spacing": "log"}
    cfg["trunc"] = {"n_max": 3}
    cfg["physics"] = {"lambda": [0.05]}
    cfg["solver"] = {"k_eigs": 20}
    return cfg


# the solver entry of a chiral block beyond those of every block solve
CHIRAL_KEYS = {"fixed", "kernel_residual"}


def test_spectrum_above_dense_cutoff_ignores_seed(tmp_path, capsys):
    cfg = sparse_config()
    texts = []
    for seed in ("11", "109"):
        sub = tmp_path / seed
        sub.mkdir()
        code, outdir, _ = run_cli(sub, "spectrum", cfg, capsys,
                                  extra=["--seed", seed])
        assert code == cli.EXIT_OK
        texts.append((outdir / "spectrum.json").read_bytes())
    assert texts[0] == texts[1]
    run = json.loads(texts[0])["runs"][0]
    assert run["report"]["solver"]["path"] == "sector-shift-invert"
    # diagonal dot pairs times the vacuum and the 7 matched one-quantum pairs
    assert run["kernel_dim"] == run["report"]["kernel_index"] == 2 * (1 + 7)
    assert len(run["report"]["eigenvalues"]) == 20
    # sectors 0..2 solved, 3 and 4 skipped (Weyl's bound on their |e| lies
    # past the 20th pair found), -1..-4 mirrored; sector 0 by its chiral LU,
    # the rest by shift-invert; no wall times in the output
    blocks = run["report"]["solver"]["blocks"]
    assert [b["charge"] for b in blocks] == [0, 1, 2, 3, 4]
    assert run["report"]["solver"]["mirrored"] == 4
    keys = {"charge", "path", "size", "pairs", "iterations"}
    assert set(blocks[0]) == keys | CHIRAL_KEYS
    assert blocks[0]["path"] == "chiral-lu"
    assert all(set(b) == keys and b["path"] == "shift-invert"
               for b in blocks[1:3])
    largest = max(abs(e) for e in run["report"]["eigenvalues"])
    assert all(set(b) == keys | {"bound"} and b["path"] == "skipped"
               and b["pairs"] == b["iterations"] == 0
               and b["bound"] > largest for b in blocks[3:])
    assert 0 < run["report"]["solver"]["overlap_sigma_min"] <= 1


def test_spectrum_sparse_block_solves():
    # the benchmark's spectrum_sparse bundle: sector 0's nonzero pairs take
    # at most 3 iterations in the odd half of its chiral block, Q = 1's
    # doublings 2, 1, 1, Q = 2 and 3 take 3 and 4, and Weyl's bound puts
    # Q = 4 and 5 past the 40th pair, so they are not solved
    cfg = benchmark_workloads()["spectrum_sparse"].config
    dspec, grid = cli._build_grid(cfg)
    b = liouville.build_bundle(dspec, grid, cli._trunc(cfg),
                               cfg["physics"]["lambda"][0])
    rep = spectral.solve_near_zero(b, cfg["solver"]["k_eigs"])
    blocks = rep.solver["blocks"]
    assert [(e["charge"], e["path"]) for e in blocks] == (
        [(0, "chiral-lu")] + [(1, "shift-invert")] * 3
        + [(2, "shift-invert"), (3, "shift-invert"), (4, "skipped"),
           (5, "skipped")])
    assert 1 <= blocks[0]["iterations"] <= 3
    assert [e["iterations"] for e in blocks[1:]] == [2, 1, 1, 3, 4, 0, 0]
    assert all(e["bound"] > np.abs(rep.eigenvalues).max()
               for e in blocks[-2:])
    assert rep.solver["mirrored"] == 5
    assert rep.kernel_dim == rep.kernel_index == 33
    assert rep.residuals.max() <= spectral.RESIDUAL_BOUND * rep.norm_L


def test_sparse_solver_failure_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(spectral, "MAX_BLOCK_ITERATIONS", 1)
    code, _, out = run_cli(tmp_path, "spectrum", sparse_config(), capsys)
    assert code == cli.EXIT_SOLVER
    assert "solver failure" in out.err


@pytest.mark.parametrize("xi", [None, [{"excess": 0.2, "theta": 0.7}]],
                         ids=["sector-0", "gauged-condensate"])
def test_singular_chiral_pair_block_falls_back_to_shift_invert(
        tmp_path, capsys, monkeypatch, xi):
    # the block path takes the chiral kernel from one LU of X_A^T; where
    # that LU is singular, the block is solved by shift-invert on its own LU
    # (spectral's splu), and the pairs and the kernel dimension stay
    cfg = sparse_config()
    if xi is not None:
        cfg["physics"]["xi"] = xi
    reports = []
    for patched in (False, True):
        if patched:
            def singular(*args, **kwargs):
                raise RuntimeError("Factor is exactly singular")

            monkeypatch.setattr(liouville, "splu", singular)
        sub = tmp_path / str(patched)
        sub.mkdir()
        code, outdir, out = run_cli(sub, "spectrum", cfg, capsys)
        assert code == cli.EXIT_OK, out.err
        (run,) = json.loads((outdir / "spectrum.json").read_text())["runs"]
        reports.append(run["report"])
    frame, refused = (r["solver"]["blocks"][0] for r in reports)
    assert frame["path"] == "chiral-lu" and "frame_refused" not in frame
    assert refused["path"] == "shift-invert"
    assert refused["frame_refused"] == ("pair x pair part of the chiral "
                                        "coupling: Factor is exactly singular")
    assert reports[0]["kernel_dim"] == reports[1]["kernel_dim"] > 0
    # a pair +-e may come in either order: its |e| differ by rounding
    want, got = (sorted(row["eigenvalue"] for row in r["diagnostics"])
                 for r in reports)
    assert got == pytest.approx(want, rel=0,
                                abs=1e-12 * reports[0]["norm_L"])


def test_linear_grid_at_lambda_0_solves_on_both_paths(tmp_path, capsys,
                                                      monkeypatch):
    # the default spacing and lambda: from n_max 4 a linear grid puts L0
    # zeros on pair states (omega_1 + omega_3 = 2 omega_2), and at lambda 0
    # nothing couples them, so X_A is singular (dim 840).  The block path
    # solves the block by shift-invert and finds the kernel of the dense
    # factorisation's chiral_eigh SVD columns, in the one frame
    cfg = base_config()
    cfg["grid"] = {"n_modes": 3, "omega_max": 2.2, "spacing": "linear"}
    cfg["trunc"] = {"n_max": 4}
    cfg["physics"] = {"lambda": [0.0]}
    cfg["solver"] = {"k_eigs": 12}
    block, dense = spectrum_reports(tmp_path, capsys, monkeypatch, cfg)
    reports = dense, block
    entry = block["solver"]["blocks"][0]
    assert entry["path"] == "shift-invert"
    assert entry["frame_refused"].startswith("pair x pair part of the "
                                             "chiral coupling")
    assert dense["kernel_dim"] == block["kernel_dim"] > 0
    want, got = ([row["eigenvalue"] for row in r["diagnostics"]]
                 for r in reports)
    assert sorted(got) == pytest.approx(sorted(want), rel=0, abs=1e-12)
    # the kernel is larger than the swap index here, and its first
    # kernel_index rows, the frame of the fixed states, agree
    index = dense["kernel_index"]
    assert dense["kernel_dim"] > index == block["kernel_index"]
    for want, got in zip(*(kernel_rows(r)[:index] for r in reports),
                         strict=True):
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=0, abs=1e-10), key


def test_jobs_flag_parallel_spectrum(tmp_path, capsys):
    cfg = base_config()
    cfg["physics"] = {"lambda": [0.05, 0.1, 0.2]}
    cfg["solver"] = {"k_eigs": 4}
    code, outdir, _ = run_cli(tmp_path, "spectrum", cfg, capsys,
                              extra=["--jobs", "3"])
    assert code == cli.EXIT_OK
    payload = json.loads((outdir / "spectrum.json").read_text())
    assert [r["lambda"] for r in payload["runs"]] == [0.05, 0.1, 0.2]


def test_kac_sweep_factorises_once_per_density(tmp_path, capsys,
                                                 monkeypatch):
    calls = record_factorisations(monkeypatch)
    cfg = base_config()
    cfg["reservoir"]["rho_bar"] = 0.4
    cfg["physics"] = {"lambda": [0.1],
                      "mu": {"kind": "kac", "n_r": 3,
                             "n_theta": 4}}
    code, outdir, _ = run_cli(tmp_path, "rte", cfg, capsys)
    assert code == cli.EXIT_OK
    assert len(calls) == 3
    runs = json.loads((outdir / "rte.json").read_text())["runs"]
    assert len(runs) == 12
    # r outer, theta inner: the first phase of each density factorises
    assert [r["factorised"] for r in runs] == [True, False, False, False] * 3
    assert all(r["factorisation"] == runs[0]["factorisation"] for r in runs)


def cluster_traces(report):
    """Per cluster of equal eigenvalues (gaps of kernel_tol), ascending: its
    size and the sums over its orthonormal eigenvectors of each squared
    diagonal weight and panel entry, traces that no rotation of the
    cluster's basis moves."""
    rows = sorted(report["diagnostics"], key=lambda r: r["eigenvalue"])
    out = []
    for row in rows:
        if not out or row["eigenvalue"] - last >= report["kernel_tol"]:
            out.append({"size": 0, **dict.fromkeys(
                ["lambda_weight", "structure_overlap", *row["panel"]], 0.0)})
        last = row["eigenvalue"]
        out[-1]["size"] += 1
        for key in ("lambda_weight", "structure_overlap"):
            out[-1][key] += row[key] ** 2
        for key, val in row["panel"].items():
            out[-1][key] += val ** 2
    return out


def test_spectrum_theta_sweep_builds_one_bundle_per_density(tmp_path, capsys,
                                                            monkeypatch):
    # three phases of one density: one bundle, one conjugate and no
    # factorisation.
    # A run at one phase alone solves its own L.  Its kernel (8, the swap
    # index) is reported in the Loewdin frame of the swap-fixed states,
    # which no rotation of the solved kernel moves, so its kernel rows
    # agree with the sweep's row by row, and all rows as traces over each
    # cluster, to 1e-12 of the unit scale of a unit vector's weights;
    # eigenvalues, residuals and virial values are rounding noise in the
    # kernel and agree to 1e-12 ||L||
    thetas = (0.0, 0.7, 2.9)
    cfg = base_config()
    cfg["grid"] = {"n_modes": 3, "omega_min": 0.35, "omega_max": 2.3,
                   "spacing": "log"}
    cfg["trunc"] = {"n_max": 2}
    cfg["solver"] = {"k_eigs": 12}     # the kernel of 8 and four pairs
    cfg["physics"]["xi"] = [{"excess": 0.2, "theta": t} for t in thetas]
    counts = dict.fromkeys(("build_bundle", "assemble_conjugate"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("build_bundle", "assemble_conjugate"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    factorised = record_factorisations(monkeypatch)

    def run(command, config, sub):
        (tmp_path / sub).mkdir()
        code, outdir, _ = run_cli(tmp_path / sub, command, config, capsys)
        assert code == cli.EXIT_OK
        return json.loads((outdir / f"{command}.json").read_text())

    runs = run("spectrum", cfg, "sweep")["runs"]
    assert factorised == []
    assert counts == {"build_bundle": 1, "assemble_conjugate": 1}
    assert [r["xi"]["theta"] for r in runs] == list(thetas)
    for theta, got in zip(thetas, runs):
        one = {**cfg, "physics": {**cfg["physics"],
                                  "xi": [{"excess": 0.2, "theta": theta}]}}
        (want,) = run("spectrum", one, f"theta{theta}")["runs"]
        assert got["xi"] == want["xi"]
        assert got["kernel_dim"] == want["kernel_dim"]
        got, want = got["report"], want["report"]
        assert got.keys() == want.keys()
        for key in ("kernel_dim", "kernel_index", "messages"):
            assert got[key] == want[key], key
        # the floats of the solver entry are formed from each bundle's own
        # kernel columns: overlap_sigma_min, and the chiral block's kernel
        # residual, rounding noise like the residuals below
        sigma = want["solver"].pop("overlap_sigma_min")
        assert got["solver"].pop("overlap_sigma_min") == pytest.approx(
            sigma, rel=1e-12)
        bound = 1e-12 * want["norm_L"]
        for g, w in zip(got["solver"]["blocks"], want["solver"]["blocks"],
                        strict=True):
            assert g.pop("kernel_residual", 0.0) == pytest.approx(
                w.pop("kernel_residual", 0.0), rel=0, abs=bound)
        assert got["solver"] == want["solver"]
        for key in ("kernel_tol", "norm_L"):
            assert got[key] == pytest.approx(want[key], rel=1e-12), key
        for g, w in zip(*map(cluster_traces, (got, want)), strict=True):
            assert g == pytest.approx(w, rel=1e-12, abs=1e-12)
        kdim = want["kernel_dim"]
        assert kdim == want["kernel_index"] == 8
        for g, w in zip(got["diagnostics"][:kdim], want["diagnostics"][:kdim],
                        strict=True):
            assert g["eigenvalue"] == w["eigenvalue"] == 0.0
            for key in ("lambda_weight", "structure_overlap"):
                assert g[key] == pytest.approx(w[key], rel=0, abs=1e-12), key
            assert g["panel"] == pytest.approx(w["panel"], rel=0, abs=1e-12)
        for key in ("eigenvalues", "residuals"):
            assert np.allclose(sorted(got[key]), sorted(want[key]),
                               rtol=0, atol=bound), key
        for rows in (got["diagnostics"], want["diagnostics"]):
            assert max(abs(r["virial_value"]) for r in rows) <= bound

    rows = run("virial", cfg, "virial")["rows"]
    per_theta = len(runs[0]["report"]["diagnostics"])
    assert len(rows) == len(thetas) * per_theta
    assert rows == rows[:per_theta] * len(thetas)


def test_rte_jobs_do_not_change_the_output(tmp_path, capsys):
    cfg = base_config()
    cfg["reservoir"]["rho_bar"] = 0.4
    cfg["physics"] = {"lambda": [0.1],
                      "mu": {"kind": "kac", "n_r": 3,
                             "n_theta": 2}}
    texts = []
    for jobs in ("1", "2"):
        sub = tmp_path / jobs
        sub.mkdir()
        code, outdir, _ = run_cli(sub, "rte", cfg, capsys,
                                  extra=["--jobs", jobs])
        assert code == cli.EXIT_OK
        texts.append((outdir / "rte.json").read_bytes())
    assert texts[0] == texts[1]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_config_error(tmp_path, capsys, jobs):
    code, outdir, out = run_cli(tmp_path, "spectrum", base_config(), capsys,
                                extra=["--jobs", jobs])
    assert code == cli.EXIT_CONFIG
    assert out.err == f"config error: --jobs must be at least 1, got {jobs}\n"
    assert not (outdir / "spectrum.json").exists()


def test_missing_kernel_vectors_exit_3(tmp_path, capsys, monkeypatch):
    # no eigenvalue is below 0, so the kernel reads 0 against the swap
    # index 2 of real L
    monkeypatch.setattr(spectral, "CLUSTER_TOL", 0.0)
    cfg = base_config()
    cfg["solver"] = {"k_eigs": 4}
    code, _, out = run_cli(tmp_path, "spectrum", cfg, capsys)
    assert code == cli.EXIT_SOLVER
    assert out.err.startswith("solver failure: kernel_dim 0 is below the "
                              "swap index 2")
