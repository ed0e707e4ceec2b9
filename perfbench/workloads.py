"""The four benchmark workloads and the checks on their outputs.

Every workload is one CLI subcommand on one fixed config; the benchmark seed
is passed to the CLI as --seed.  NOTES.md gives the reason for each workload.
All use a Gaussian form factor, beta = 1 and a log grid.

The reference values below were recorded from the CLI before any optimisation
landed.  The rte outputs do not depend on --seed (it only enters the
conjugate operator and the ARPACK start vector, which rte does not use), so
one set of values serves every seed.  Nothing pins a value that ROADMAP.md
lists as a defect: the finite-T warnings, the manifest timestamp and the
kernel-dimension cap are left alone, and kernel_dim is compared with an
independent count instead of a recorded number.
"""

import math
from dataclasses import dataclass

RESERVOIR = {"beta": 1.0, "rho_bar": 0.3,
             "form_factor": {"preset": "gaussian", "width": 1.0}}
PROJECTOR = {"matrix": [[0, 0], [0, 1]]}

# relative tolerance on recorded values; rounding-level changes from a
# different eigensolver or a Krylov KMS vector stay far below it
REF_RTOL = 1e-7
# closed-form ergodic limit against the T = 1000 Richardson estimate
ERGODIC_RTOL = 1e-2
# level-shift fit against the independent Lorentzian quadrature
ORACLE_RTOL = 1e-2
# |<psi, i[L, A] psi>| relative to ||L|| for exact eigenvectors
VIRIAL_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    reference: dict = None


def _config(d, n_modes, n_max, physics, solver, omega=(0.35, 2.3)):
    return {
        "dot": {"d": d},
        "reservoir": RESERVOIR,
        "grid": {"n_modes": n_modes, "omega_min": omega[0],
                 "omega_max": omega[1], "spacing": "log"},
        "trunc": {"n_max": n_max},
        "physics": physics,
        "solver": solver,
    }


def _rte(n_modes, n_max, mu=None, reference=None, name=None):
    physics = {"lambda": [0.1], "observable": PROJECTOR}
    if mu is not None:
        physics["mu"] = mu
    return Workload(name, "rte",
                    _config(2, n_modes, n_max, physics, {"T": [100.0, 1000.0]}),
                    reference)


UNIFORM_THETA = {"kind": "uniform_theta", "excess": 0.2, "n_theta": 4}

WORKLOADS = {w.name: w for w in [
    _rte(5, 3, name="rte_dense", reference={
        "runs": [{"deviation": 0.05445696450392962,
                  "ergodic_limit": 0.12967403071013814,
                  "omega_bb": 0.27425729927607934}]}),
    _rte(4, 3, mu=UNIFORM_THETA, name="rte_condensate", reference={
        "runs": [{"deviation": 0.06653614072807904,
                  "ergodic_limit": 0.14176300387871785,
                  "omega_bb": 0.27427515955813253}] * 4,
        "aggregate": {"aggregate_limit": 0.14176300387871804,
                      "redistribution_target": 0.075226863150639,
                      "aggregate_deviation": 0.06653614072807904}}),
    Workload("spectrum_sparse", "spectrum",
             _config(3, 10, 3, {"lambda": [0.1]}, {"k_eigs": 40})),
    Workload("levelshift_wide", "levelshift",
             _config(2, 4, 1, {"lambda": [0.1]},
                     {"epsilons": [0.02, 0.01, 0.005, 0.0025],
                      "h_over_eps": 0.02}, omega=(0.2, 3.0))),
]}

# the same commands and layers at a size that runs in about a second
REDUCED = {w.name: w for w in [
    _rte(3, 2, name="rte_dense"),
    _rte(2, 2, mu={**UNIFORM_THETA, "n_theta": 2}, name="rte_condensate"),
    Workload("spectrum_sparse", "spectrum",
             _config(2, 4, 2, {"lambda": [0.1]}, {"k_eigs": 12})),
    Workload("levelshift_wide", "levelshift",
             _config(2, 4, 1, {"lambda": [0.1]},
                     {"epsilons": [0.02, 0.01], "h_over_eps": 0.05},
                     omega=(0.2, 3.0))),
]}


def task_count(workload, payload):
    """Tasks the CLI ran: one per (lambda, xi) run or per epsilon."""
    if workload.command == "levelshift":
        return len(payload["sandwich_sweep"])
    return len(payload["runs"])


def kernel_count(config):
    """Independent count of the states where L0 vanishes identically.

    On an incommensurate log grid L0 = (e_i - e_j) + sum_m omega_m
    (n_left,m - n_right,m) is zero exactly when the dot pair is diagonal and
    the left and right occupations agree mode by mode.  With total occupation
    2k <= n_max spread over M modes there are C(M + k - 1, k) such field
    states for each k, times d diagonal dot pairs.
    """
    d = config["dot"]["d"]
    m = config["grid"]["n_modes"]
    n_max = config["trunc"]["n_max"]
    return d * sum(math.comb(m + k - 1, k) for k in range(n_max // 2 + 1))


def _close(value, ref, rtol=REF_RTOL):
    return abs(value - ref) <= rtol * abs(ref)


def _check_rte(workload, payload):
    errors = []
    ref = workload.reference
    runs = payload["runs"]
    if ref is not None and len(runs) != len(ref["runs"]):
        return [f"{len(runs)} runs, expected {len(ref['runs'])}"]
    for i, run in enumerate(runs):
        for key, want in (ref["runs"][i].items() if ref else ()):
            if not _close(run[key], want):
                errors.append(f"run {i} {key} = {run[key]!r}, recorded {want!r}")
        by_t = {f["T"]: f for f in run["finite_T"]}
        last = by_t[max(by_t)]
        if not _close(last["extrapolated"], last["closed_form"], ERGODIC_RTOL):
            errors.append(f"run {i} extrapolated {last['extrapolated']!r} "
                          f"vs closed form {last['closed_form']!r}")
    for key, want in ((ref or {}).get("aggregate") or {}).items():
        got = payload.get("aggregate", {}).get(key)
        if got is None or not _close(got, want):
            errors.append(f"aggregate {key} = {got!r}, recorded {want!r}")
    return errors


def _check_spectrum(workload, payload):
    errors = []
    solver = workload.config["solver"]
    tol = solver.get("tol", 1e-10)
    expected_kernel = kernel_count(workload.config)
    for i, run in enumerate(payload["runs"]):
        rep = run["report"]
        scale = max(rep["norm_L"], 1.0)
        bound = max(tol, 1e-12) * scale * 100
        if len(rep["eigenvalues"]) != solver["k_eigs"]:
            errors.append(f"run {i}: {len(rep['eigenvalues'])} eigenvalues")
        worst = max(rep["residuals"])
        if worst > bound:
            errors.append(f"run {i}: residual {worst:.3g} above bound {bound:.3g}")
        if run["kernel_dim"] != expected_kernel:
            errors.append(f"run {i}: kernel_dim {run['kernel_dim']}, "
                          f"expected {expected_kernel}")
        virial = max(abs(row["virial_value"]) for row in rep["diagnostics"])
        if virial > VIRIAL_RTOL * scale:
            errors.append(f"run {i}: virial value {virial:.3g}")
    return errors


def _check_levelshift(workload, payload):
    errors = []
    sweep = payload["sandwich_sweep"]
    if len(sweep) != len(workload.config["solver"]["epsilons"]):
        return [f"{len(sweep)} sweep rows"]
    for row in sweep:
        if not _close(row["fit_constant"], row["oracle_constant"], ORACLE_RTOL):
            errors.append(f"epsilon {row['epsilon']}: fit {row['fit_constant']!r}"
                          f" vs oracle {row['oracle_constant']!r}")
    for a, b in zip(sweep, sweep[1:]):
        if not b["misfit"] < a["misfit"]:
            errors.append(f"misfit does not fall from epsilon {a['epsilon']} "
                          f"to {b['epsilon']}")
    return errors


CHECKS = {"rte": _check_rte, "spectrum": _check_spectrum,
          "levelshift": _check_levelshift}


def check_outputs(workload, payload):
    """List of failed output checks (empty when the outputs are right)."""
    return CHECKS[workload.command](workload, payload)
