"""In-memory span recorder for traced benchmark samples.

`install` rebinds the layer entry points of `bosedot` to timing wrappers at
every module-level name that binds them (for example `bosedot.cli.build_bundle`
and `bosedot.liouville.build_bundle` are the same function and both get the
same wrapper), so the program's own code is left untouched.  Each call records
one span: name, start, end, parent span and the sample id shared by all spans
of one CLI invocation, plus a few counts read off the call's arguments or
result.  Spans stay in memory; the sample returns them and the benchmark writes
them out when its run ends.

`layer_metrics` turns one sample's spans into the per-layer metrics of
BENCHMARK.json.  A span's self time is its duration minus the part of its
interval covered by its children, so the self times of all spans of a sample
add up to the root span, i.e. to the traced wall time.
"""

import concurrent.futures
import functools
import sys
import threading
import time

# (module, attribute, span name); each span name is one layer
LAYER_FUNCTIONS = [
    ("bosedot.cli", "_write_json", "cli.write"),
    ("bosedot.cli", "_write_csv", "cli.write"),
    ("bosedot.reservoir", "discretize", "reservoir.discretize"),
    ("bosedot.reservoir", "critical_density", "reservoir.thermo"),
    ("bosedot.reservoir", "fugacity", "reservoir.thermo"),
    ("bosedot.fock", "FockBasis", "fock.basis"),
    ("bosedot.liouville", "build_bundle", "liouville.build_bundle"),
    ("bosedot.liouville", "assemble_conjugate", "liouville.assemble_conjugate"),
    ("bosedot.liouville", "kms_vector", "liouville.kms_vector"),
    ("bosedot.krylov", "expm_action", "krylov.expm_action"),
    ("bosedot.spectral", "solve_near_zero", "spectral.solve_near_zero"),
    ("bosedot.spectral", "attach_diagnostics", "spectral.attach_diagnostics"),
    ("bosedot.spectral", "resolvent_sandwich", "spectral.resolvent_sandwich"),
    ("bosedot.dynamics", "equilibrium_vector", "dynamics.equilibrium_vector"),
    ("bosedot.dynamics", "rte_deviation", "dynamics.rte_deviation"),
    ("bosedot.dynamics", "ergodic_mean", "dynamics.ergodic_mean"),
    ("bosedot.dynamics", "superpose_xi", "dynamics.superpose_xi"),
]

# full Hermitian eigendecompositions, whichever bosedot function calls them
EIGH_FUNCTIONS = [("numpy.linalg", "eigh"), ("scipy.linalg", "eigh")]

# layers reported as self time; cli.command wraps the entries of COMMANDS
SELF_TIME_LAYERS = list(dict.fromkeys(name for _, _, name in LAYER_FUNCTIONS))
SELF_TIME_LAYERS.append("cli.command")


class Recorder:
    """Collects spans of one sample; safe to use from several threads."""

    def __init__(self, sample_id):
        self.sample_id = sample_id
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [None]
        return stack

    def current(self):
        return self._stack()[-1]

    def adopt(self, parent):
        """Make `parent` (a span id from another thread) this thread's root."""
        self._local.stack = [parent]

    def call(self, name, fn, args, kwargs, counts=None):
        stack = self._stack()
        with self._lock:
            span_id = len(self.spans)
            span = {"id": span_id, "name": name, "parent": stack[-1],
                    "sample": self.sample_id, "start": 0.0, "end": 0.0}
            self.spans.append(span)
        stack.append(span_id)
        span["start"] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
        if counts is not None:
            try:
                span.update(counts(args, out))
            except (AttributeError, IndexError, TypeError):
                pass            # the layer changed shape; its counts read 0
        return out


def _wrap(recorder, name, fn, counts=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, counts)
    return wrapper


def _counts_for(span_name):
    if span_name == "fock.basis":
        return lambda args, out: {"field_dim": int(out.dim)}
    if span_name == "liouville.build_bundle":
        return lambda args, out: {"dim": int(out.dim),
                                  "L_nnz": int(out.L.matrix.nnz)}
    if span_name == "spectral.solve_near_zero":
        return lambda args, out: {"kernel_dim": int(out.kernel_dim)}
    if span_name == "linalg.eigh":
        return lambda args, out: {"n": int(args[0].shape[0])}
    return None


def _rebind(original, wrapper, owners):
    """Point every module-level name bound to `original` at `wrapper`."""
    for module in owners:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(recorder):
    """Wrap the layer entry points of the already imported bosedot package.

    Entry points the package no longer has are skipped, so the benchmark
    keeps running across refactors; their metrics then read 0.
    """
    import bosedot.cli as cli

    bosedot_modules = [m for name, m in sys.modules.items()
                       if name == "bosedot" or name.startswith("bosedot.")]
    for module_name, attr, span_name in LAYER_FUNCTIONS:
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            continue            # a layer that no longer exists reads 0
        wrapper = _wrap(recorder, span_name, original, _counts_for(span_name))
        _rebind(original, wrapper, bosedot_modules)
    for module_name, attr in EIGH_FUNCTIONS:
        module = sys.modules[module_name]
        original = getattr(module, attr)
        wrapper = _wrap(recorder, "linalg.eigh", original,
                        _counts_for("linalg.eigh"))
        _rebind(original, wrapper, bosedot_modules + [module])
    for command, fn in list(cli.COMMANDS.items()):
        cli.COMMANDS[command] = _wrap(recorder, "cli.command", fn)

    class TracedExecutor(concurrent.futures.ThreadPoolExecutor):
        """Carries the submitting span into the worker thread."""

        def submit(self, fn, /, *args, **kwargs):
            parent = recorder.current()

            def task():
                recorder.adopt(parent)
                return fn(*args, **kwargs)
            return super().submit(task)

    cli.ThreadPoolExecutor = TracedExecutor


def self_times(spans):
    """Self time of every span: duration minus its children's coverage."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], [])):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans):
    """Per-layer self times and counts of one traced sample."""
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    metrics = {f"{layer}_s": 0.0 for layer in SELF_TIME_LAYERS}

    def calls(name):
        return [s for s in spans if s["name"] == name]

    dims = {s.get("dim") for s in calls("liouville.build_bundle")}
    dense = [s for s in calls("linalg.eigh") if s.get("n") in dims]
    dense_ids = {s["id"] for s in dense}
    accounted = 0.0
    for s in spans:
        key = f"{s['name']}_s"
        if key in metrics:
            metrics[key] += own[s["id"]]
            accounted += own[s["id"]]
    dense_s = sum(own[i] for i in dense_ids)

    def contains_dense(span):
        for d in dense:
            p = d["parent"]
            while p is not None:
                if p == span["id"]:
                    return True
                p = by_id[p]["parent"]
        return False

    roots = [s for s in spans if s["parent"] is None]
    traced_wall = sum(s["end"] - s["start"] for s in roots)
    metrics.update({
        "fock.basis_calls": len(calls("fock.basis")),
        "fock.field_dim": max((s.get("field_dim", 0)
                               for s in calls("fock.basis")), default=0),
        "liouville.build_bundle_calls": len(calls("liouville.build_bundle")),
        "liouville.L_nnz": max((s.get("L_nnz", 0)
                                for s in calls("liouville.build_bundle")),
                               default=0),
        "liouville.kms_vector_calls": len(calls("liouville.kms_vector")),
        "krylov.expm_action_calls": len(calls("krylov.expm_action")),
        "krylov.expm_action_dense_calls": sum(
            contains_dense(s) for s in calls("krylov.expm_action")),
        "dense_eigh_calls": len(dense),
        "dense_eigh_s": dense_s,
        "dense_eigh_max_dim": max((s["n"] for s in dense), default=0),
        "spectral.kernel_dim": max((s.get("kernel_dim", 0) for s in
                                    calls("spectral.solve_near_zero")),
                                   default=0),
        "dynamics.ergodic_mean_calls": len(calls("dynamics.ergodic_mean")),
        "trace.wall_s": traced_wall,
        "trace.other_s": traced_wall - accounted - dense_s,
    })
    return metrics
