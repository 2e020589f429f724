"""Traced in-process run: where each workload's time goes, layer by layer.

The layers are the package modules ``cli``, ``sim``, ``darboux``, ``linalg``,
``verify`` and ``model``. While a traced call runs, every public function of
those modules is replaced, in each module namespace that refers to it, by a
wrapper that records a span (name, start, end, parent). Spans stay in memory
and are written out when the run ends. Private helpers (``sim._Monitor``,
``cli._write_csv``) carry no spans; their time is the self time of the public
function that calls them, and the metrics below derive it by subtraction.

Each workload invocation runs in process twice per pass, untraced and then
traced; the difference is the tracing overhead. Layers that a workload does
not reach (simulation for the exact workloads, the nullspace and the checks
for the others) are measured on a small seeded probe instead, so that every
run reports every layer; the report names the source of each figure.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import inspect
import io
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads

LAYERS = ("cli", "sim", "darboux", "linalg", "verify", "model")
MONITOR_STEPS = 1000
MONITOR_PAIRS = 15

# Per-layer metrics and their units. The sim.* figures and cli.steps_per_s
# come from the workload's simulate calls, or the probe's when it has none;
# cli.csv_us_per_row and cli.rows_written from its simulate calls that write
# every step, or the probe's; the darboux nullspace, linalg and verify figures
# from its check calls, or the probe's; the rest always from the workload.
UNITS = {
    "sim.us_per_step": "us", "sim.monitor_us_per_step": "us", "sim.steps_accepted": "count",
    "sim.max_drift_monomial": "1", "cli.steps_per_s": "1/s", "cli.csv_us_per_row": "us",
    "cli.rows_written": "count", "cli.startup_overhead_s": "s", "cli.load_system_spec_s": "s",
    "darboux.integral_basis_s": "s", "darboux.build_exponent_system_s": "s",
    "darboux.nullspace_s": "s", "linalg.rref_s": "s", "verify.check_linear_integral_s": "s",
    "verify.check_xh_zero_s": "s", "verify.check_jacobi_multiplier_s": "s",
    "verify.check_independence_s": "s", "verify.samples": "count",
    "verify.failed_checks": "count", "trace.overhead_s": "s",
    **{f"{layer}.self_share": "%" for layer in LAYERS},
}


def _report_counts(samples_arg):
    def hook(args, report):
        counts = {"failed_checks": int(not report.passed)}
        if samples_arg is not None:
            counts["samples"] = len(args[samples_arg])
        return counts
    return hook


# Counts read off a traced call's arguments and result.
HOOKS = {
    "verify.check_linear_integral": _report_counts(None),
    "verify.check_xh_zero": _report_counts(None),
    "verify.check_jacobi_multiplier": _report_counts(1),
    "verify.check_independence": _report_counts(2),
}


class Tracer:
    """Spans as [name, start, end, parent index, counts] in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, hook = self.spans, self._stack, HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                span[4] = hook(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, modules):
        names = {m.__name__ for m in modules}
        wrappers, replaced = {}, []
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ not in names:
                    continue
                if id(fn) not in wrappers:
                    layer = fn.__module__.rsplit(".", 1)[1]
                    wrappers[id(fn)] = self.wrap(f"{layer}.{fn.__name__}", fn)
                replaced.append((mod, attr, fn))
                setattr(mod, attr, wrappers[id(fn)])
        try:
            yield
        finally:
            for mod, attr, fn in replaced:
                setattr(mod, attr, fn)


def summarize(spans: list[list]) -> dict:
    """Inclusive time per span name, self time per layer, counts, nullspace rref."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    inclusive, self_time, counts = defaultdict(float), defaultdict(float), defaultdict(int)
    rref_in_nullspace = 0.0
    for i, (name, start, end, parent, extra) in enumerate(spans):
        inclusive[name] += end - start
        self_time[name.split(".")[0]] += end - start - child[i]
        for key, value in (extra or {}).items():
            counts[key] += value
        if name == "linalg.rref":
            up = parent
            while up >= 0 and spans[up][0] != "darboux.nullspace":
                up = spans[up][3]
            if up >= 0:
                rref_in_nullspace += end - start
    roots = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    return {"inclusive": dict(inclusive), "self": dict(self_time), "counts": dict(counts),
            "rref_in_nullspace": rref_in_nullspace, "root_s": roots}


def call_main(cli, inv: workloads.Invocation) -> tuple[float, int, bytes]:
    """Run ``cli.main`` in process; returns (wall, exit code, stdout bytes)."""
    out = io.StringIO()
    gc.collect()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(inv.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
            print(f"{type(exc).__name__}: {exc}", file=sys.__stderr__)
            code = -1
    return time.perf_counter() - start, code, out.getvalue().encode("utf-8")


def _integrate_s(pkg, inv: workloads.Invocation, linear_only: bool, t_end: float) -> float:
    """Wall time of ``sim.integrate`` alone, with the full or a linear-only basis."""
    system = pkg.make_system(inv.rates)
    basis = pkg.integral_basis(system)
    if linear_only:
        basis = pkg.IntegralBasis(pkg.Classification.EVEN_NONRESONANT, basis.linear, ())
    x0 = [float(v) for v in inv.argv[inv.argv.index("--x0") + 1].split(",")]
    cfg = pkg.IntegratorConfig(method=pkg.Method(inv.method), step=inv.step, t_end=t_end)
    gc.collect()
    start = time.perf_counter()
    pkg.integrate(system, x0, cfg, basis)
    return time.perf_counter() - start


def monitor_s_per_step(pkg, inv: workloads.Invocation, steps: int) -> float:
    """Median over alternating runs of (full basis - linear-only basis) per step.

    The runs cover about the first MONITOR_STEPS steps of the invocation, so
    several pairs fit in a run and the difference is not swamped by the
    machine's speed drifting between two long runs. Pairs alternate which
    basis runs first.
    """
    taken = min(steps, MONITOR_STEPS)
    t_end = inv.t_end * taken / max(steps, 1)
    diffs = []
    for pair in range(MONITOR_PAIRS):
        first_linear = bool(pair % 2)
        a = _integrate_s(pkg, inv, first_linear, t_end)
        b = _integrate_s(pkg, inv, not first_linear, t_end)
        diffs.append((b - a if first_linear else a - b) / taken)
    return statistics.median(diffs)


def traced(run, seconds: float, src: Path) -> tuple[dict, dict]:
    sys.path.insert(0, str(src))
    import cycliclv as pkg
    from cycliclv import cli, darboux, linalg, model, sim, verify

    modules = (cli, sim, darboux, linalg, verify, model)
    probes = workloads.build("layer-probe", run.seed, run.work)
    own = run.invocations
    sims = [inv for inv in own if inv.command == "simulate"] or [p for p in probes if p.command == "simulate"]
    checks = [inv for inv in own if inv.command == "check"] or [p for p in probes if p.command == "check"]
    # cli's self time on a simulate call is the CSV writer plus the drift
    # summary, a scan over every step's record; with a row for every step the
    # writer dominates it
    dense = [inv for inv in sims if inv.sample_every == 1] or [
        p for p in probes if p.command == "simulate" and p.sample_every == 1]

    passes = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        per_inv = {}
        for inv in own + probes:
            untraced_s, code, out = call_main(cli, inv)
            verdict = run.judge(inv, code, out)
            tracer = Tracer()
            with tracer.installed(modules):
                traced_s, code, out = call_main(cli, inv)
            run.judge(inv, code, out)
            per_inv[inv.label] = {"untraced_s": untraced_s, "traced_s": traced_s,
                                  "verdict": verdict, "spans": tracer.spans,
                                  "summary": summarize(tracer.spans)}
        passes.append(per_inv)
        took = time.monotonic() - began
        # half the time for passes; the integrate and subprocess runs below take the rest
        if time.monotonic() - start + took > seconds / 2 or time.monotonic() > run.deadline - 2 * took:
            break

    def median_of(fn):
        return statistics.median(fn(p) for p in passes)

    # subprocess wall against in-process wall for the same arguments
    untraced_med = {inv.label: median_of(lambda p: p[inv.label]["untraced_s"]) for inv in own + probes}
    budget, chosen = seconds / 4, []
    for inv in sorted(own, key=lambda i: untraced_med[i.label]):
        if chosen and sum(untraced_med[i.label] for i in chosen) + untraced_med[inv.label] > budget:
            break
        chosen.append(inv)
    chosen += [inv for inv in sims if inv not in chosen]
    subprocess_s = {inv.label: run.run_cli(inv).wall_s for inv in chosen}

    first = passes[0]
    # a failed run can have no steps or rows; it is already counted in ``failed``
    steps = sum(first[inv.label]["verdict"].steps for inv in sims) or 1
    rows = sum(first[inv.label]["verdict"].rows for inv in dense) or 1
    # integrate alone, with and without the monomial evaluators
    monitor = {inv.label: monitor_s_per_step(pkg, inv, first[inv.label]["verdict"].steps)
               for inv in sims}

    def total(invs, key, section="inclusive"):
        return median_of(lambda p: sum(p[i.label]["summary"][section].get(key, 0.0) for i in invs))

    def count(invs, key):
        return sum(first[i.label]["summary"]["counts"].get(key, 0) for i in invs)

    values = {
        "sim.us_per_step": 1e6 * total(sims, "sim.integrate") / steps,
        "sim.monitor_us_per_step": 1e6 * sum(
            monitor[i.label] * first[i.label]["verdict"].steps for i in sims) / steps,
        "sim.steps_accepted": sum(first[i.label]["verdict"].steps for i in sims),
        "sim.max_drift_monomial": max(first[i.label]["verdict"].max_drift_monomial for i in sims),
        "cli.steps_per_s": steps / sum(subprocess_s[i.label] for i in sims),
        "cli.csv_us_per_row": 1e6 * total(dense, "cli", "self") / rows,
        "cli.rows_written": sum(first[i.label]["verdict"].rows for i in dense),
        "darboux.build_exponent_system_s": total(checks, "darboux.build_exponent_system"),
        "darboux.nullspace_s": total(checks, "darboux.nullspace"),
        "linalg.rref_s": median_of(lambda p: sum(p[i.label]["summary"]["rref_in_nullspace"] for i in checks)),
        "verify.check_linear_integral_s": total(checks, "verify.check_linear_integral"),
        "verify.check_xh_zero_s": total(checks, "verify.check_xh_zero"),
        "verify.check_jacobi_multiplier_s": total(checks, "verify.check_jacobi_multiplier"),
        "verify.check_independence_s": total(checks, "verify.check_independence"),
        "verify.samples": count(checks, "samples"),
        "verify.failed_checks": count(checks, "failed_checks"),
        "cli.startup_overhead_s": statistics.median(
            subprocess_s[i.label] - untraced_med[i.label] for i in chosen),
        "cli.load_system_spec_s": total(own, "cli.load_system_spec"),
        "darboux.integral_basis_s": total(own, "darboux.integral_basis"),
        "trace.overhead_s": median_of(
            lambda p: sum(p[i.label]["traced_s"] - p[i.label]["untraced_s"] for i in own)),
    }
    root_s = median_of(lambda p: sum(p[i.label]["summary"]["root_s"] for i in own)) or 1.0
    for layer in LAYERS:
        values[f"{layer}.self_share"] = 100.0 * total(own, layer, "self") / root_s

    metrics = {name: (values[name], unit) for name, unit in UNITS.items()}

    breakdown = []
    for inv in own + probes:
        rec = first[inv.label]
        s = rec["summary"]
        row = {
            "invocation": inv.label, "n": inv.n,
            "subprocess_s": subprocess_s.get(inv.label),
            "in_process_s": untraced_med[inv.label],
            "traced_s": rec["traced_s"],
            "self_s": s["self"],
            "load_system_spec_s": s["inclusive"].get("cli.load_system_spec", 0.0),
            "integral_basis_s": s["inclusive"].get("darboux.integral_basis", 0.0),
            "nullspace_s": s["inclusive"].get("darboux.nullspace", 0.0),
        }
        if inv.label in subprocess_s:
            row["startup_and_teardown_s"] = subprocess_s[inv.label] - untraced_med[inv.label]
        if inv.label in monitor:
            row["monomial_monitoring_s"] = monitor[inv.label] * rec["verdict"].steps
            # stepping keeps the record and H1 bookkeeping of a linear-only basis
            row["stepping_s"] = s["inclusive"]["sim.integrate"] - row["monomial_monitoring_s"]
            row["csv_and_summary_s"] = s["self"].get("cli", 0.0)
        breakdown.append(row)

    detail = {
        "samples": {"passes": len(passes), "invocations": len(own), "probes": len(probes),
                    "subprocess_runs": len(subprocess_s)},
        "sources": {"sim": [i.label for i in sims], "csv": [i.label for i in dense],
                    "exact": [i.label for i in checks]},
        "breakdown": breakdown,
        "spans": {inv.label: first[inv.label]["spans"] for inv in own},
    }
    traced_wall = median_of(lambda p: sum(p[i.label]["traced_s"] for i in own))
    untraced_wall = median_of(lambda p: sum(p[i.label]["untraced_s"] for i in own))
    detail["coverage"] = root_s / traced_wall
    print(f"trace: layer self times cover {100 * root_s / traced_wall:.1f}% of the traced "
          f"in-process wall {traced_wall:.4g} s; untraced {untraced_wall:.4g} s")
    for row in breakdown:
        flat = {**row, **{f"self_s[{k}]": v for k, v in row["self_s"].items()}}
        print("breakdown: " + " ".join(
            f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in flat.items() if k != "self_s"))
    return metrics, detail
