"""Run one irrfib command in process, with its layers' entry points timed.

    python perfbench/tracer.py SPANS_OUT REQUEST_ID -- ARGV...

The program is not changed: before irrfib.cli.main(argv) runs, each entry
point in LAYERS is replaced by a wrapper that records a span (name, start,
end, parent, request id), in every irrfib module that holds a reference to
it, so calls through a `from .x import f` alias are timed as well. Spans
stay in memory and are written to SPANS_OUT as JSON when the command ends.
`summarize` turns the spans of several commands into per-layer metrics.
"""

import argparse
import json
import sys
import time

# (module, entry points, layer): a call to any entry point is a layer span
CLI_HANDLERS = ("cmd_appendix", "cmd_example", "cmd_family", "cmd_slope",
                "cmd_bounds", "cmd_intersect", "cmd_bundle", "cmd_classify")
LAYERS = (
    ("irrfib.cli", ("build_parser",), "cli.parse"),
    ("irrfib.cli", CLI_HANDLERS, "cli.handler"),
    ("irrfib.report", ("render",), "report.render"),
    ("irrfib.torus", ("classify_origin_singularity_oracle",),
     "torus.classify_oracle"),
    ("irrfib.torus", ("translation_points_for_twist",),
     "torus.translation_points"),
    ("irrfib.torus", ("classify_origin_singularity",),
     "torus.classify_closed"),
    ("irrfib.torus", ("admissible_pairs",), "torus.admissible_pairs"),
    ("irrfib.polarization", ("phi_L_on_point",), "polarization.phi_L"),
    ("irrfib.polarization", ("phi_two_torsion_data",),
     "polarization.phi_two_torsion"),
    ("irrfib.polarization", ("kernel_K_L",), "polarization.kernel_K_L"),
    ("irrfib.lattice", ("torsion_subgroup",), "lattice.torsion_subgroup"),
    ("irrfib.intersection", ("kernel_dot_oracle",),
     "intersection.kernel_oracle"),
    ("irrfib.intersection", ("dot",), "intersection.dot"),
    ("irrfib.linalg", ("smith_normal_form",), "linalg.smith_normal_form"),
    ("irrfib.characters", ("two_torsion_character_tables",
                           "kernel_of_restriction"), "characters.tables"),
    ("irrfib.bundles", ("pushforward_decomposition",), "bundles.pushforward"),
    ("irrfib.bundles", ("h0", "h1", "jump_h1", "ample_part_is_line"),
     "bundles.cohomology"),
    ("irrfib.invariants", ("isotrivial_examples", "nonisotrivial_examples"),
     "invariants.examples"),
    ("irrfib.invariants", ("unbounded_family",), "invariants.family"),
)
LAYER_NAMES = tuple(dict.fromkeys(name for _, _, name in LAYERS))


def _size(name, args, kwargs, result):
    """A span's work size: points returned, cells searched, bytes rendered."""
    if name in ("lattice.torsion_subgroup", "torus.translation_points"):
        return len(result)
    if name == "intersection.kernel_oracle":
        m = args[2] if len(args) > 2 else kwargs["m"]
        return [result, m ** 4]   # hits, and cells of (Z/m)^4
    if name == "report.render":
        return len(result.encode()) + 1  # print() adds the newline
    return None


class Tracer:
    """Spans of one request, kept in memory until the request ends."""

    def __init__(self, request_id):
        self.request_id = request_id
        self.spans = []    # [name, start, end, parent index, request, size]
        self._open = []

    def wrap(self, fn, name):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.request_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[5] = _size(name, args, kwargs, result)
            return result
        return traced

    def install(self):
        """Wrap every layer entry point, rebinding each alias of it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "irrfib" or n.startswith("irrfib.")]
        for module_name, functions, name in LAYERS:
            module = sys.modules[module_name]
            for fn_name in functions:
                original = getattr(module, fn_name, None)
                if original is None:
                    print("trace: %s.%s is gone; %s is not timed there"
                          % (module_name, fn_name, name), file=sys.stderr)
                    continue
                wrapper = self.wrap(original, name)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
        # the argument parse is one call per command, on the stdlib class
        argparse.ArgumentParser.parse_args = self.wrap(
            argparse.ArgumentParser.parse_args, "cli.parse")


def summarize(spans):
    """Per-layer calls, busy and self seconds, and sizes, over all spans.

    Busy time counts a span only when no enclosing span has the same name,
    so recursion is not counted twice; self time is a span's duration minus
    the durations of the spans it directly caused.
    """
    out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "size": 0}
           for name in LAYER_NAMES}
    by_request = {}
    for span in spans:
        by_request.setdefault(span[4], []).append(span)
    enumerated = hits = cells = 0
    for req_spans in by_request.values():
        child_time = [0.0] * len(req_spans)
        for span in req_spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        for i, span in enumerate(req_spans):
            name, start, end, parent = span[:4]
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[i]
            ancestors = []
            while parent >= 0:
                ancestors.append(req_spans[parent][0])
                parent = req_spans[parent][3]
            if name not in ancestors:
                entry["busy_s"] += end - start
            size = span[5]
            if size is None:          # the call raised, or has no size
                continue
            if name == "intersection.kernel_oracle":
                hits += size[0]
                cells += size[1]
                continue
            entry["size"] += size
            if (name == "lattice.torsion_subgroup"
                    and "torus.translation_points" in ancestors):
                enumerated += size
    out["torus.translation_points"]["enumerated"] = enumerated
    out["intersection.kernel_oracle"]["hits"] = hits
    out["intersection.kernel_oracle"]["cells"] = cells
    return out


def main(argv):
    spans_out, request_id, sep = argv[:3]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT REQUEST_ID -- ARGV...")
    import irrfib.cli
    tracer = Tracer(int(request_id))
    tracer.install()
    try:
        return irrfib.cli.main(argv[3:])
    finally:
        with open(spans_out, "w") as handle:
            json.dump(tracer.spans, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
