"""Per-layer metrics of one traced pass, from its spans and counts.

A layer is a syzkit module.  ``<layer>.self_s`` is the self time of all its
spans; the other names pick out the functions an optimisation is most
likely to move (see README.md for which end-to-end metric each should move).
A layer that does not run in a workload reads 0.
"""

from tracer import LAYERS, self_times

SPAN_METRICS = (
    ("minkowski.enumerate", ("self_s",)),
    ("minkowski.decomposition_init", ("calls", "self_s")),
    ("lattice.hull", ("calls", "self_s")),
    ("lattice.minkowski_sum", ("calls", "self_s")),
    ("lattice.lattice_points", ("calls", "self_s")),
    ("intlinalg.det", ("calls", "self_s")),
    ("algebra.mul", ("calls", "self_s")),
    ("algebra.specialize", ("self_s",)),
    ("algebra.apply_character", ("self_s",)),
    ("algebra.eq", ("self_s",)),
    ("mirror.syz_mirror", ("calls", "self_s")),
    ("mirror.disc_potential", ("self_s",)),
    ("mirror.chamber_uv", ("calls", "self_s")),
    ("transition.match", ("calls", "self_s")),
    ("transition.toric_family", ("self_s",)),
    ("tropical.dual_fan_check", ("self_s",)),
    ("svg.render_diagram", ("self_s",)),
    ("cli.main", ("self_s",)),
)

# Counted by the hooks below or from the pass outputs; must repeat exactly.
COUNTS = (
    ("minkowski.decompositions", "count", "higher"),
    ("lattice.lattice_points.points", "count", "lower"),
    ("lattice.lattice_points.calls_per_match", "calls/match", "lower"),
    ("algebra.mul.terms_out", "count", "lower"),
    ("algebra.coeff_bits_max", "bits", "lower"),
    ("algebra.specialize.param_terms", "count", "lower"),
    ("transition.params", "count", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.spans", "count", "lower"),
)

# Measured by run.py around the traced children.
RUN_METRICS = (
    ("cli.startup_s", "s", "lower"),
    ("trace.untraced_pass_s", "s", "lower"),
    ("trace.traced_pass_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def catalogue():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for span, kinds in SPAN_METRICS:
        for kind in kinds:
            out.append((f"{span}.{kind}", "count" if kind == "calls" else "s", "lower"))
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    return out + list(COUNTS) + list(RUN_METRICS)


def _coeff_bits(poly):
    return max((max(abs(q.numerator).bit_length(), q.denominator.bit_length())
                for c in poly.terms.values() for q in c.terms.values()), default=0)


def hooks():
    """Counts taken once a traced call has returned."""
    def found(t, args, result):
        t.bump("minkowski.decompositions", len(result))

    def points(t, args, result):
        t.bump("lattice.lattice_points.points", len(result))

    def product(t, args, result):
        t.bump("algebra.mul.terms_out", len(result.terms))
        t.note_max("algebra.coeff_bits_max", _coeff_bits(result))

    def specialize(t, args, result):
        poly = args[0]
        t.bump("algebra.specialize.param_terms",
               len(poly.params) * sum(len(c.terms) for c in poly.terms.values()))

    def family(t, args, result):
        t.bump("transition.params", len(result.params))

    return {
        "minkowski.enumerate": found,
        "lattice.lattice_points": points,
        "algebra.mul": product,
        "algebra.specialize": specialize,
        "transition.toric_family": family,
    }


def metrics(workload, spans, counts, outputs):
    """Every per-layer metric of one traced pass except RUN_METRICS."""
    table = self_times(spans)
    out = {}
    for span, kinds in SPAN_METRICS:
        calls, self_s = table.get(span, (0, 0.0))
        for kind in kinds:
            out[f"{span}.{kind}"] = calls if kind == "calls" else self_s
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(s for name, (_, s) in table.items()
                                     if name.split(".", 1)[0] == layer)
    for name, _, _ in COUNTS:
        out[name] = counts.get(name, 0)
    matches = out["transition.match.calls"]
    out["lattice.lattice_points.calls_per_match"] = (
        out["lattice.lattice_points.calls"] / matches if matches else 0)
    if workload == "cli":
        out["cli.stdout_bytes"] = sum(len(o[1]) for o in outputs if isinstance(o, tuple))
    out["trace.spans"] = len(spans)
    return out


def count_mismatch(processes):
    """None when every traced pass of every process has the same counts,
    else a description of the first difference."""
    reference = None
    for p, passes in enumerate(processes):
        for i, values in enumerate(passes):
            counts = {k: v for k, v in values.items() if not k.endswith("_s")}
            if reference is None:
                reference = counts
            elif counts != reference:
                diff = sorted(k for k in counts if counts[k] != reference.get(k))
                return f"traced counts differ in process {p}, pass {i}: {diff}"
    return None
