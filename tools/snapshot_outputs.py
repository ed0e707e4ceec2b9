"""Snapshot the JSON and CSV outputs of the bosedot CLI on a fixed set of configs.

    python3 tools/snapshot_outputs.py SRC OUT
    python3 tools/snapshot_outputs.py --compare OLD NEW [--rtol R]

runs `python -m bosedot.cli` with the package imported from SRC (a checkout's
`src/` directory), `--seed 901` and one BLAS thread, once per config below,
and writes each run's config and outputs to OUT/<name>/.  The configs are the
benchmark workloads of perfbench/workloads.py at both sizes, one or two small
configs per subcommand, two rte runs above liouville.DENSE_CUTOFF (charge
sectors, and one chiral block with a condensate), and two spectra (one above
the cutoff) and an rte on a tabulated complex coupling, whose table
the tool writes beside config.json as form_factor.csv.  Outputs are
deterministic, so `diff -r` of two snapshots taken from two source trees is a
byte-identity check of everything the CLI writes.  Exits 1 when a run fails;
its stderr is echoed.

--compare walks two snapshot trees and prints every number of a JSON or CSV
file that moves by more than R relative to the larger of its two values
(R = 0 by default: any move), with its file and path, and every other
difference: a string, a key, a length, a file only one tree has.  It exits 1
when it prints anything, so a rounding-level move is told from a real one.
"""

import copy
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SEED = "901"
THREADS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS")}
BASE = {
    "dot": {"d": 2},
    "reservoir": {"beta": 1.0, "rho_bar": 0.3},
    "grid": {"n_modes": 3, "omega_min": 0.35, "omega_max": 2.3,
             "spacing": "log"},
    "trunc": {"n_max": 2},
    "physics": {"lambda": [0.1]},
}


# a tabulated coupling g(k) = (1 + 0.5i + 0.6i k) e^{-k^2/2}: Im g != 0, and
# its phase turns with k, so no constant phase makes it real
TABLE = "form_factor.csv"


def complex_table():
    rows = []
    for j in range(161):
        k = j / 20.0
        g = (1.0 + 0.5j + 0.6j * k) * math.exp(-0.5 * k * k)
        rows.append(f"{k!r},{g.real!r},{g.imag!r}\n")
    return "# k, Re g, Im g\n" + "".join(rows)


def _variant(**sections):
    cfg = copy.deepcopy(BASE)
    for key, value in sections.items():
        cfg[key] = {**cfg.get(key, {}), **value}
    return cfg


def cases():
    """(name, command, config) of every run in the snapshot."""
    out = []
    for label, table in (("bench", workloads.WORKLOADS),
                         ("reduced", workloads.REDUCED)):
        for name, w in table.items():
            out.append((f"{label}_{name}", w.command, w.config))
    out += [
        ("thermo_super", "thermo", BASE),
        ("thermo_sub", "thermo",
         _variant(reservoir={"beta": 1.3, "rho_bar": 0.02})),
        # rho0 = 1e-6 above the closed-form critical density zeta(3)/pi^2: a
        # Kac peak far narrower than the unit scale of the half line
        ("thermo_near_critical", "thermo", _variant(reservoir={
            "rho_bar": 1.2020569031595942 / math.pi ** 2 + 1e-6})),
        ("thermo_nonrel_power", "thermo", _variant(reservoir={
            "dispersion": "nonrelativistic",
            "form_factor": {"preset": "power_law", "exponent": 1.0}})),
        ("manifest_sub", "manifest",
         _variant(reservoir={"beta": 1.3, "rho_bar": 0.02})),
        ("virial_log", "virial", _variant(solver={"k_eigs": 6})),
        ("virial_linear_custom", "virial", _variant(
            grid={"n_modes": 2, "omega_min": 0.0, "omega_max": 2.2,
                  "spacing": "linear"},
            solver={"k_eigs": 6, "conjugate": "custom_antisymmetric"})),
        # counts of 2 or more interleave with pairs in the shell order:
        # ((m, 1), (m', 1)) sorts before ((m, 2),)
        ("spectrum_deep_shells", "spectrum", _variant(
            grid={"n_modes": 2}, trunc={"n_max": 4}, solver={"k_eigs": 8})),
        # omega = k^2: the grid's couplings carry dk/domega = 1/(2 sqrt(omega))
        ("spectrum_nonrel", "spectrum", _variant(
            reservoir={"dispersion": "nonrelativistic"},
            solver={"k_eigs": 8})),
        ("spectrum_xi", "spectrum", _variant(
            physics={"xi": [{"excess": 0.2, "theta": 0.7}]},
            solver={"k_eigs": 8})),
        # three phases of one density: one bundle and one report serve all
        ("spectrum_theta_sweep", "spectrum", _variant(
            physics={"xi": [{"excess": 0.2, "theta": theta}
                            for theta in (0.0, 0.7, 2.9)]},
            solver={"k_eigs": 8})),
        ("spectrum_complex_table", "spectrum", _variant(
            reservoir={"form_factor": {"table": TABLE}},
            physics={"xi": [{"excess": 0.2, "theta": 0.7}]},
            solver={"k_eigs": 8})),
        # dim 2720 above the cutoff: the gauged L(0) is one complex block,
        # shift-inverted
        ("spectrum_complex_table_sparse", "spectrum", _variant(
            grid={"n_modes": 7}, trunc={"n_max": 3},
            reservoir={"form_factor": {"table": TABLE}},
            physics={"xi": [{"excess": 0.2, "theta": 0.7}]},
            solver={"k_eigs": 8})),
        ("rte_complex_table", "rte", _variant(
            reservoir={"form_factor": {"table": TABLE}},
            physics={"mu": {"kind": "uniform_theta", "excess": 0.2,
                            "n_theta": 4}},
            solver={"T": [100.0, 1000.0]})),
        ("rte_two_xi", "rte", _variant(
            physics={"xi": [{"excess": 0.2, "theta": 0.0},
                            {"r": 0.5, "theta": 1.3}]},
            solver={"T": [50.0, 500.0]})),
        ("rte_uniform_hop", "rte", _variant(
            physics={"mu": {"kind": "uniform_theta", "excess": 0.2,
                            "n_theta": 4}},
            solver={"T": [100.0, 1000.0]})),
        # hop at d=2 is of degree 3 in theta: the mean of 3 runs aliases,
        # and the aggregate is the exact average, 0
        ("rte_uniform_aliased", "rte", _variant(
            physics={"lambda": [0.3],
                     "mu": {"kind": "uniform_theta", "excess": 0.2,
                            "n_theta": 3}},
            solver={"T": [100.0, 1000.0]})),
        # a complex non-Hermitian observable at d=3, entries as [re, im]:
        # charge parts -2 to 2, so many Fourier frequencies per density
        ("rte_uniform_complex", "rte", _variant(
            dot={"d": 3},
            physics={"observable": {"matrix": [
                [[0.3, 0.0], [1.0, 0.5], [0.0, 0.0]],
                [[0.0, 0.2], [-0.7, 0.0], [0.4, 0.0]],
                [[0.6, -0.1], [0.0, 0.0], [0.0, 0.1]]]},
                     "mu": {"kind": "uniform_theta", "excess": 0.2,
                            "n_theta": 5}},
            solver={"T": [100.0, 1000.0]})),
        ("rte_kac", "rte", _variant(
            reservoir={"rho_bar": 0.4},
            physics={"mu": {"kind": "kac", "n_r": 2, "n_theta": 2}},
            solver={"T": [100.0]})),
        # no condensate, and X has the charge parts -1, 0 and 1: the pass
        # spans the three charge sectors that B omega reaches
        ("rte_sector_mixed", "rte", _variant(
            physics={"observable": {"matrix": [[0.3, 1.0], [1.0, -0.7]]}},
            solver={"T": [100.0, 1000.0]})),
        # dim 2244: its largest charge sector holds 546 states
        ("rte_above_dense_cutoff", "rte", _variant(
            grid={"n_modes": 16},
            physics={"observable": {"matrix": [[0, 0], [0, 1]]}},
            solver={"T": [100.0, 1000.0]})),
        # dim 2244 with a condensate: the gauged L(0) is one chiral block,
        # above the cutoff, whose SVD's larger side (1139) is below it
        ("rte_condensate_above_cutoff", "rte", _variant(
            grid={"n_modes": 16},
            physics={"mu": {"kind": "uniform_theta", "excess": 0.2,
                            "n_theta": 4}},
            solver={"T": [100.0, 1000.0]})),
        ("levelshift_d3", "levelshift", _variant(
            dot={"d": 3}, trunc={"n_max": 1},
            grid={"omega_min": 0.2, "omega_max": 3.0},
            solver={"epsilons": [0.1, 0.05], "h_over_eps": 0.05})),
    ]
    return out


def _number(value):
    """value as a float or complex number, or None: a JSON number (not a
    bool), or a CSV cell that parses as one."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        for kind in (float, complex):
            try:
                return kind(value)
            except ValueError:
                pass
    return None


def _differences(path, old, new, rtol):
    """The lines that describe how new differs from old below path."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in sorted(old.keys() | new.keys()):
            sub = f"{path}.{key}"
            if key not in new or key not in old:
                out.append(f"{sub}: only in {'OLD' if key in old else 'NEW'}")
            else:
                out += _differences(sub, old[key], new[key], rtol)
        return out
    if isinstance(old, list) and isinstance(new, list):
        out = ([f"{path}: length {len(old)} -> {len(new)}"]
               if len(old) != len(new) else [])
        for i, (a, b) in enumerate(zip(old, new)):
            out += _differences(f"{path}[{i}]", a, b, rtol)
        return out
    a, b = _number(old), _number(new)
    if a is None or b is None:
        return [] if old == new else [f"{path}: {old!r} -> {new!r}"]
    if a == b or (a != a and b != b):
        return []
    scale = max(abs(a), abs(b))
    if abs(a - b) <= rtol * scale:
        return []
    return [f"{path}: {old!r} -> {new!r} (relative {abs(a - b) / scale:.2g})"]


def _load(path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            return list(csv.reader(fh))
    return path.read_bytes()


def compare(old, new, rtol):
    """Print every difference of the snapshot tree new from old; returns the
    number of lines printed."""
    files = {p.relative_to(root) for root in (old, new)
             for p in root.rglob("*") if p.is_file()}
    count = 0
    for rel in sorted(files):
        if not (old / rel).is_file() or not (new / rel).is_file():
            lines = [f": only in {'OLD' if (old / rel).is_file() else 'NEW'}"]
        else:
            lines = _differences("", _load(old / rel), _load(new / rel), rtol)
        for line in lines:
            print(f"{rel}{line}")
        count += len(lines)
    return count


def main(argv):
    if argv[:1] == ["--compare"]:
        rest = argv[1:]
        rtol = 0.0
        if len(rest) == 4 and rest[2] == "--rtol":
            rtol, rest = float(rest[3]), rest[:2]
        if len(rest) != 2:
            print("usage: python3 tools/snapshot_outputs.py --compare OLD NEW "
                  "[--rtol R]", file=sys.stderr)
            return 2
        return 1 if compare(Path(rest[0]), Path(rest[1]), rtol) else 0
    if len(argv) != 2:
        print("usage: python3 tools/snapshot_outputs.py SRC OUT", file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if not (src / "bosedot" / "cli.py").is_file():
        print(f"no bosedot package under {src}", file=sys.stderr)
        return 2
    env = {**os.environ, **THREADS, "PYTHONPATH": str(src)}
    runs, failed = cases(), []
    for name, command, config in runs:
        rundir = out / name
        rundir.mkdir(parents=True, exist_ok=True)
        cfg = {**config, "outputs": {"formats": ["json", "csv"]}}
        (rundir / "config.json").write_text(json.dumps(cfg, indent=2) + "\n")
        if cfg["reservoir"].get("form_factor", {}).get("table") == TABLE:
            (rundir / TABLE).write_text(complex_table())
        proc = subprocess.run(
            [sys.executable, "-m", "bosedot.cli", command, "--config",
             "config.json", "--out", ".", "--seed", SEED],
            cwd=rundir, env=env, capture_output=True, text=True)
        if proc.returncode:
            failed.append(name)
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
    print(f"{len(runs) - len(failed)} of {len(runs)} runs written to {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
