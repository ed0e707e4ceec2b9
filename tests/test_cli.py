import json

import pytest

from bosedot import cli, dynamics, liouville


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


def test_dimension_cap_exit(tmp_path, capsys):
    cfg = base_config()
    cfg["grid"]["n_modes"] = 6
    cfg["trunc"] = {"n_max": 4, "dim_cap": 50}
    code, _, out = run_cli(tmp_path, "spectrum", cfg, capsys)
    assert code == cli.EXIT_CAP
    assert "dimension cap" in out.err


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


def test_levelshift_sweep(tmp_path, capsys):
    cfg = base_config()
    cfg["grid"] = {"n_modes": 2, "omega_max": 3.0, "omega_min": 0.5,
                   "spacing": "log"}
    cfg["solver"] = {"epsilons": [0.4, 0.2], "h_over_eps": 0.05}
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


def test_rte_with_measure_aggregate(tmp_path, capsys, monkeypatch):
    # each task forms one dense eigh (the bundle's) and one KMS vector
    counts = {"eigh": 0, "kms_vector": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(liouville, "eigh", counted("eigh", liouville.eigh))
    kms = counted("kms_vector", liouville.kms_vector)
    monkeypatch.setattr(liouville, "kms_vector", kms)
    monkeypatch.setattr(dynamics, "kms_vector", kms)
    cfg = base_config()
    cfg["physics"] = {"lambda": [0.1],
                      "mu": {"kind": "uniform_theta", "excess": 0.2,
                             "n_theta": 2}}
    code, outdir, _ = run_cli(tmp_path, "rte", cfg, capsys)
    assert code == cli.EXIT_OK
    assert counts == {"eigh": 2, "kms_vector": 2}
    payload = json.loads((outdir / "rte.json").read_text())
    assert len(payload["runs"]) == 2
    for run in payload["runs"]:
        assert run["deviation"] >= 0.0
        assert run["finite_T"][0]["T"] == 60.0
    agg = payload["aggregate"]
    assert agg["aggregate_deviation"] >= 0.0
    assert len(agg["per_xi"]) == 2


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


def test_spectrum_above_dense_cutoff_ignores_seed(tmp_path, capsys):
    # 2720-dimensional composite on a log grid (seed-free conjugate): the
    # block shift-invert path, whose start block comes from L0 alone
    cfg = base_config()
    cfg["grid"] = {"n_modes": 7, "omega_min": 0.35, "omega_max": 2.8,
                   "spacing": "log"}
    cfg["trunc"] = {"n_max": 3}
    cfg["physics"] = {"lambda": [0.05]}
    cfg["solver"] = {"k_eigs": 20}
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
    assert run["report"]["solver"]["path"] == "block-shift-invert"
    # diagonal dot pairs times the vacuum and the 7 matched one-quantum pairs
    assert run["kernel_dim"] == 2 * (1 + 7)
    assert len(run["report"]["eigenvalues"]) == 20


def test_jobs_flag_parallel_spectrum(tmp_path, capsys):
    cfg = base_config()
    cfg["physics"] = {"lambda": [0.05, 0.1, 0.2]}
    cfg["solver"] = {"k_eigs": 4}
    code, outdir, _ = run_cli(tmp_path, "spectrum", cfg, capsys,
                              extra=["--jobs", "3"])
    assert code == cli.EXIT_OK
    payload = json.loads((outdir / "spectrum.json").read_text())
    assert [r["lambda"] for r in payload["runs"]] == [0.05, 0.1, 0.2]
