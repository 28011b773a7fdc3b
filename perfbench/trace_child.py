"""Run one `ovc` command with every layer's public functions traced.

Usage: python3 perfbench/trace_child.py TRACE_JSON OVC_ARG...

The `ovc` package must be importable (the benchmark sets PYTHONPATH to the
checkout's `src`).  Before calling `ovc.cli.main`, each traced function is
replaced by a wrapper that opens a span: name, start, end and the enclosing
span.  A span's self time is its duration minus the time of the spans it
encloses.  Fine-grained spans (hundreds of thousands per run) are folded
into per-name call counts and self times as they close, so memory stays
flat; the root and suite spans are kept whole.  The report on stdout and
the exit code are those of `ovc`; the trace goes to TRACE_JSON.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name).  Each layer's metric names in README.md
# are these span names with `.calls` / `.self_s` appended.
FUNCTIONS = [
    ("ncpart", "cuts", "ncpart.cuts"),
    ("ncpart", "enumerate_nc", "ncpart.enumerate"),
    ("ncpart", "enumerate_interval", "ncpart.enumerate"),
    ("ncpart", "gap_insert", "ncpart.gap_insert"),
    ("formal", "coproduct", "formal.coproduct"),
    ("formal", "reduced_coproduct", "formal.coproduct"),
    ("formal", "delta_prec", "formal.coproduct"),
    ("formal", "delta_succ", "formal.coproduct"),
    ("formal", "map_stack", "formal.map_stack"),
    ("formal", "antipode", "formal.antipode"),
    ("winsert", "w_coproduct", "winsert.coproduct"),
    ("winsert", "w_reduced_coproduct", "winsert.coproduct"),
    ("winsert", "w_delta_prec", "winsert.coproduct"),
    ("winsert", "w_delta_succ", "winsert.coproduct"),
    ("winsert", "split", "winsert.split"),
    ("winsert", "w_antipode", "winsert.antipode"),
    ("ovps", "multimap_dev", "ovps.multimap_dev"),
    ("ovps", "elementary_batch", "ovps.basis.elementary"),
    ("ovps", "probe_batch", "ovps.basis.probes"),
    ("cumulants", "e_pi_map", "cumulants.e_pi_map"),
    ("cumulants", "family_sum_map", "cumulants.family_sum_map"),
]

# (module, class, method, span name)
METHODS = [
    ("formal", "FormalSum", "__init__", "formal.formalsum"),
    ("ovps", "MultiMap", "eval_batch", "ovps.eval_batch"),
    ("cumulants", "CumulantFamily", "generator", "cumulants.generator"),
    ("morphisms", "Morphism", "value", "morphisms.value"),
    ("morphisms", "WordSum", "eval_batch", "morphisms.wordsum_eval"),
]


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []  # kept whole: (name, start, end, parent)
        self.cut_args = set()
        self._stack = []  # [name, start, time covered by child spans]
        self._origin = time.perf_counter()

    def wrap(self, name, fn, on_call=None, keep=False):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            calls[name] += 1
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if keep:
                    parent = stack[-1][0] if stack else None
                    self.spans.append(
                        (name, frame[1] - self._origin, end - self._origin, parent)
                    )

        return functools.wraps(fn)(traced)

    def on_cuts(self, args):
        self.cut_args.add(args[0])

    def on_eval_batch(self, args):
        node, batch = args[0], args[1]
        if node.kind == "gen":
            self.counts["ovps.leaf.calls"] += 1
            self.counts["ovps.leaf.tuples"] += len(batch[0]) if len(batch) else 1

    def install(self):
        """Wrap every traced function and rebind it wherever `ovc` bound it."""
        import ovc
        from ovc import cli, cumulants, formal, morphisms, ncpart, ovps, suites, winsert

        modules = {m.__name__.split(".")[-1]: m for m in
                   (cli, cumulants, formal, morphisms, ncpart, ovps, suites, winsert)}
        hooks = {"ncpart.cuts": self.on_cuts, "ovps.eval_batch": self.on_eval_batch}
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(modules[mod_name], attr)
            wrapped = self.wrap(name, original, hooks.get(name))
            for mod in list(modules.values()) + [ovc]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(modules[mod_name], cls_name)
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), hooks.get(name)))
        for suite, fn in list(suites.SUITES.items()):
            suites.SUITES[suite] = self.wrap("suite." + suite, fn, keep=True)
        return cli

    def summary(self):
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "cuts_distinct": len(self.cut_args),
            "spans": self.spans,
        }


def main(argv):
    out_path, ovc_args = argv[0], argv[1:]
    tracer = Tracer()
    cli = tracer.install()
    code = tracer.wrap("cli.main", cli.main, keep=True)(ovc_args)
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
