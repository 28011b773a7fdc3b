"""Command-line driver: enumeration, cumulant tables and verification runs.

All input and output is JSON.  A configuration file fixes the matrix model
(base and fiber dimensions, named variables given explicitly or as seeded
Hermitian generators), the order and tolerance, and the suites to run.
Identical configuration and seed give byte-identical output.

Exit codes: 0 all checks pass, 1 an assertion failed, 2 usage or
configuration error, or standard output could not be written.

Only ``cumulants`` and the numeric suites load numpy and the numeric layer;
``enumerate`` and ``verify --suite hopf,operad`` start without them.  Only
``verify`` and a configuration that names its suites load ``suites``:
``cumulants`` loads ``ncpart``, ``ovps`` and ``cumulants``, and ``enumerate``
only ``ncpart``.

``main`` runs numpy's BLAS on one thread: its first statement writes
``OPENBLAS_NUM_THREADS=1`` into the process's C environment, which OpenBLAS
reads when numpy loads, and no module-level import of ``ovc`` or
``ovc.cli`` loads numpy before it.  The maps checked here act on d x d
matrices with d*k <= 16, where a second thread never pays but its worker
spins through start-up.  The write overrides a user's value, since a run is
fixed by its configuration and command line; it reads no variable, and a
library caller that imports ``ovc`` keeps its own BLAS settings.

A process runs ``entry``, which calls ``main`` and then ``gc.freeze()``
before ``sys.exit``.  The report is written and flushed by then, so the
freeze changes no output; it moves every object the run built into the
permanent generation, and the collections the interpreter runs while it
shuts down skip them: 6-21 ms less per process on a 2-CPU VM
(``BENCH_28.json``), where a benchmark workload takes 0.2-0.4 s.  ``main``
itself never freezes: a test or library caller that calls it in-process
keeps its collector as it was.  ``os._exit`` would skip the shutdown
too, but also ``atexit`` handlers, so coverage and profiler data would be
lost; after the freeze they run, and the standard streams are flushed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import sys
from typing import TYPE_CHECKING

from . import ncpart
from .ncpart import KINDS, EnumerationBound, enumerate_interval, enumerate_nc

if TYPE_CHECKING:
    from .ovps import OVMatrixSpace

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2
MAX_JSON_INDENT = 16

DEFAULT_CONFIG = {
    "d": 2,
    "k": 2,
    "variables": {"a": {"seed": 101, "hermitian": True}, "b": {"seed": 102, "hermitian": True}},
    "max_order": 4,
    "tolerance": 1e-9,
    "seed": 7,
    "suites": None,  # every suite of ``suites.SUITES``
}
SEED_SPEC_KEYS = ("seed", "hermitian")


class ConfigError(ValueError):
    pass


class OutputError(OSError):
    """Standard output could not be written."""


def _number(value, what, kind=int):
    """``value``, a JSON number, as a ``kind``.  A string or a boolean is
    an error rather than a number to read, and a fraction where ``kind``
    is int an error rather than a number to truncate."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("%s must be a number, got %r" % (what, value))
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError("%s must be an integer, got %r" % (what, value))
    try:
        return kind(value)
    except OverflowError:
        raise ConfigError("%s must be a number, got %r" % (what, value)) from None


def _seed(value, what):
    """A seed numpy accepts: a non-negative integer."""
    seed = _number(value, what)
    if seed < 0:
        raise ConfigError("%s must be non-negative, got %r" % (what, value))
    return seed


def _no_unknown_keys(data, known, what):
    unknown = [key for key in data if key not in known]
    if unknown:
        raise ConfigError("unknown keys in the %s: %s" % (what, ", ".join(map(str, unknown))))


def _checked_suites(names):
    """``names``, a configured list of suite names, after checking that it
    is a non-empty list of distinct names of ``suites.SUITES``."""
    if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
        raise ConfigError("suites must be a list of suite names")
    from .suites import SUITES

    unknown = [s for s in names if s not in SUITES]
    if unknown:
        raise ConfigError("unknown suites: %s" % ", ".join(unknown))
    if not names:
        raise ConfigError("no suites selected")
    repeated = sorted({s for s in names if names.count(s) > 1})
    if repeated:
        raise ConfigError("suites selected more than once: %s" % ", ".join(repeated))
    return names


class RunConfig:
    """Validated run configuration; see DEFAULT_CONFIG for the shape."""

    def __init__(self, data):
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ConfigError("a configuration must be a JSON object")
        _no_unknown_keys(data, DEFAULT_CONFIG, "configuration")
        merged = dict(DEFAULT_CONFIG)
        merged.update(data)
        self.d = _number(merged["d"], "d")
        self.k = _number(merged["k"], "k")
        self.max_order = _number(merged["max_order"], "max_order")
        self.tolerance = _number(merged["tolerance"], "tolerance", float)
        self.seed = _seed(merged["seed"], "seed")
        self.variable_specs = merged["variables"]
        if self.d < 1 or self.k < 1 or self.d * self.k > 16:
            raise ConfigError("require 1 <= d, k and d*k <= 16")
        if not 1 <= self.max_order <= 8:
            raise ConfigError("require 1 <= max_order <= 8")
        if not 1e-12 <= self.tolerance < math.inf:
            raise ConfigError("tolerance must be finite and at least 1e-12")
        if not isinstance(self.variable_specs, dict):
            raise ConfigError("variables must be a JSON object")
        if not self.variable_specs:
            raise ConfigError("at least one variable is required")
        for name in self.variable_specs:  # see _parse_word
            if name in ("", "e") or "." in name or name != name.strip():
                raise ConfigError("variable name %r: no --word can name it" % (name,))
        self._suites = _checked_suites(data["suites"]) if "suites" in data else None
        self._variables = [
            self._variable(i, name, spec)
            for i, (name, spec) in enumerate(self.variable_specs.items())
        ]

    @property
    def suites(self):
        """The selected suite names: the configured list, or every suite."""
        if self._suites is None:
            from .suites import SUITES

            return sorted(SUITES)
        return self._suites

    @property
    def variable_names(self):
        return list(self.variable_specs)

    def variable_index(self, name):
        try:
            return self.variable_names.index(name)
        except ValueError:
            raise ConfigError("unknown variable %r" % name) from None

    def _variable(self, i, name, spec):
        """Variable ``i`` checked without numpy: a seed spec as its seed and
        hermitian flag, a matrix as its rows of complex entries."""
        if isinstance(spec, dict):
            _no_unknown_keys(spec, SEED_SPEC_KEYS, "seed spec of variable %r" % (name,))
            hermitian = spec.get("hermitian", True)
            if not isinstance(hermitian, bool):
                raise ConfigError(
                    "hermitian of variable %r must be true or false, got %r" % (name, hermitian)
                )
            seed = _seed(spec.get("seed", self.seed + i), "the seed of variable %r" % name)
            return seed, hermitian
        not_a_matrix = ConfigError(
            "variable %r is neither a seed spec nor a matrix of [re, im] pairs" % (name,)
        )
        what = "an entry of variable %r" % (name,)
        try:
            rows = [
                [complex(_number(re, what, float), _number(im, what, float)) for re, im in row]
                for row in spec
            ]
        except (TypeError, ValueError):
            raise not_a_matrix from None
        shape = (len(rows), len(rows[0])) if rows else (0,)
        if any(len(row) != shape[-1] for row in rows):
            raise not_a_matrix
        n = self.d * self.k
        if shape != (n, n):
            raise ConfigError("variable %r has shape %r, expected (%d, %d)" % (name, shape, n, n))
        if not all(math.isfinite(z.real) and math.isfinite(z.imag) for row in rows for z in row):
            raise ConfigError("variable %r has a non-finite entry" % (name,))
        return rows

    def build_space(self, d=None, k=None) -> OVMatrixSpace:
        """The configured space, or the same variables split as d x k blocks;
        explicit matrices were checked against the configured d * k."""
        import numpy as np

        from .ovps import OVMatrixSpace, random_hermitian

        d = self.d if d is None else d
        k = self.k if k is None else k
        variables = {}
        for i, variable in enumerate(self._variables):
            if isinstance(variable, tuple):
                seed, hermitian = variable
                mat = random_hermitian(np.random.default_rng(seed), d * k)
                if not hermitian:
                    rng2 = np.random.default_rng(seed + 1)
                    mat = (mat + random_hermitian(rng2, d * k) * 1j) / np.sqrt(2)
            else:
                mat = np.array(variable)
            variables[i] = mat
        return OVMatrixSpace(d=d, k=k, variables=variables, seed=self.seed)


def _load_config(ns) -> RunConfig:
    data = {}
    if getattr(ns, "config", None) is not None:
        try:
            with open(ns.config) as fh:
                data = json.load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("cannot read the configuration: %s" % exc) from None
        if not isinstance(data, dict):
            raise ConfigError("a configuration must be a JSON object")
    if getattr(ns, "order", None) is not None:
        data["max_order"] = ns.order
    if getattr(ns, "tol", None) is not None:
        data["tolerance"] = ns.tol
    if getattr(ns, "seed", None) is not None:
        data["seed"] = ns.seed
    if getattr(ns, "suite", None) is not None:
        data["suites"] = [s.strip() for s in ns.suite.split(",") if s.strip()]
    return RunConfig(data)


def _quiet_float_errors(numeric: bool = True):
    """A context in which numpy prints no floating-point warning, since a
    numeric command reports values that are not finite itself (``"dev":
    null``, exit 2); a null one, loading no numpy, when not ``numeric``."""
    if not numeric:
        return contextlib.nullcontext()
    import numpy as np

    return np.errstate(all="ignore")


def _checked_json_indent(ns) -> None:
    """Check ``--json-indent``: the output grows linearly in it."""
    indent = getattr(ns, "json_indent", None)
    if indent is not None and not 0 <= indent <= MAX_JSON_INDENT:
        raise ConfigError(
            "--json-indent must be between 0 and %d, got %d" % (MAX_JSON_INDENT, indent)
        )


def _emit(ns, payload) -> None:
    """Print ``payload`` and flush, so that a closed or full stdout fails
    here and not at interpreter exit."""
    indent = getattr(ns, "json_indent", None)
    if sys.stdout is None:  # started with descriptor 1 closed: print would drop the report
        raise OutputError("cannot write to standard output: it is closed")
    try:
        print(json.dumps(payload, sort_keys=True, indent=indent), flush=True)
    except OSError as exc:
        raise OutputError("cannot write to standard output: %s" % (exc,)) from None


# ---------------------------------------------------------------------------
# Subcommands


def cmd_enumerate(ns) -> int:
    if ns.p < 0:
        raise ConfigError("the number of elements must be non-negative, got %d" % ns.p)
    kind = enumerate_interval if ns.interval else enumerate_nc
    parts = kind(ns.p)
    _emit(ns, {"count": len(parts), "partitions": [ncpart.to_text(pi) for pi in parts]})
    return EXIT_OK


def _parse_word(config: RunConfig, text: str):
    """Variable indices of ``text``: names joined by ".", "e" the empty
    word, outer spaces stripped; ``RunConfig`` rejects the names it cannot
    read."""
    text = text.strip()
    if text == "e":
        return ()
    return tuple(config.variable_index(t) for t in text.split("."))


def cmd_cumulants(ns) -> int:
    import numpy as np

    from .cumulants import cumulant_families
    from .ovps import basis_values, matrix_to_json

    config = _load_config(ns)
    word = _parse_word(config, ns.word)
    if len(word) > config.max_order:
        raise ConfigError(
            "word length %d exceeds max_order %d" % (len(word), config.max_order)
        )
    with _quiet_float_errors():
        space = config.build_space()
        gen = cumulant_families(space)[ns.kind].generator(word)
        (values,), basis = basis_values((gen,), config.seed)
    # np.max propagates NaN, so the peak is finite only when every value is
    if not math.isfinite(float(np.max(np.abs(values)))):
        raise ConfigError(
            "the %s map of the word %s has values that are not finite" % (ns.kind, ns.word)
        )
    _emit(
        ns,
        {
            "kind": ns.kind,
            "word": ns.word,
            "arity": gen.arity,
            "d": space.d,
            "k": space.k,
            "basis": basis,
            "values": [matrix_to_json(v) for v in values],
        },
    )
    return EXIT_OK


def cmd_verify(ns) -> int:
    from .suites import (
        EXACT_SUITES,
        FAULT_SUITES,
        TWO_VARIABLE_SUITES,
        VerifyContext,
        run_suites,
    )

    config = _load_config(ns)
    two_variable = sorted(TWO_VARIABLE_SUITES.intersection(config.suites))
    if two_variable and len(config.variable_specs) < 2:
        raise ConfigError("suites %s need two variables" % ", ".join(two_variable))
    if ns.inject_fault and not any(
        config.max_order >= FAULT_SUITES.get(s, math.inf) for s in config.suites
    ):
        raise ConfigError(
            "--inject-fault corrupts a table entry that only the suites %s read"
            % " and ".join(
                name if order == 1 else "%s (at order >= %d)" % (name, order)
                for name, order in sorted(FAULT_SUITES.items())
            )
        )
    exact_only = EXACT_SUITES.issuperset(config.suites)
    with _quiet_float_errors(numeric=not exact_only):
        ctx = VerifyContext(
            space=None if exact_only else config.build_space(),
            tol=config.tolerance,
            seed=config.seed,
            max_order=config.max_order,
            inject_fault=ns.inject_fault,
        )
        report = run_suites(ctx, config.suites)
    payload = {
        "config": {
            "d": config.d,
            "k": config.k,
            "max_order": config.max_order,
            "seed": config.seed,
            "suites": sorted(config.suites),
            "tolerance": config.tolerance,
            "fault_injected": bool(ns.inject_fault),
        },
        "passed": report["passed"],
        "suites": report["suites"],
    }
    _emit(ns, payload)
    return EXIT_OK if report["passed"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# Entry point


def _add_json_indent(sub):
    sub.add_argument("--json-indent", type=int, default=None, help="pretty-print JSON")


def _add_common(sub):
    sub.add_argument("--config", help="path to a JSON configuration file")
    sub.add_argument("--order", type=int, help="override max_order")
    sub.add_argument("--tol", type=float, help="override the tolerance")
    sub.add_argument("--seed", type=int, help="override the seed")
    _add_json_indent(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ovc",
        description="non-crossing partition operads and operator-valued moment-cumulant checks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_enum = subs.add_parser("enumerate", help="list non-crossing or interval partitions")
    p_enum.add_argument("p", type=int, help="number of partitioned elements")
    p_enum.add_argument("--interval", action="store_true", help="interval partitions only")
    _add_json_indent(p_enum)
    p_enum.set_defaults(fn=cmd_enumerate)

    p_cum = subs.add_parser("cumulants", help="evaluate a moment or cumulant map")
    p_cum.add_argument("--kind", choices=KINDS, required=True)
    p_cum.add_argument(
        "--word",
        required=True,
        help="variable word, names joined by '.', e.g. a.b.a ('e' for the empty word)",
    )
    _add_common(p_cum)
    p_cum.set_defaults(fn=cmd_cumulants)

    p_ver = subs.add_parser("verify", help="run verification suites")
    p_ver.add_argument("--suite", help="comma-separated suite names (default: all)")
    p_ver.add_argument(
        "--inject-fault",
        action="store_true",
        help="corrupt one free-cumulant table entry; the run must then fail",
    )
    _add_common(p_ver)
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    os.putenv("OPENBLAS_NUM_THREADS", "1")  # before numpy loads; see the module docstring
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        _checked_json_indent(ns)
        return ns.fn(ns)
    except (ConfigError, EnumerationBound, json.JSONDecodeError) as exc:
        error = exc
    except OutputError as exc:
        _to_null_device(sys.stdout)
        error = exc
    if sys.stderr is not None:  # None when started closed; print would write to stdout
        try:
            print(json.dumps({"error": str(error)}), file=sys.stderr, flush=True)
        except OSError:  # unwritable, full or a broken pipe: the exit code reports alone
            _to_null_device(sys.stderr)
    return EXIT_USAGE


def _to_null_device(stream) -> None:
    """Point a standard stream's descriptor at the null device after a failed
    write, so that Python's flush at exit cannot fail again (the SIGPIPE note
    of the signal module's documentation).  A stream closed at start is None."""
    if stream is not None:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def entry() -> None:
    """The process entry of ``ovc`` and ``python -m ovc.cli``: ``main``,
    then a frozen heap, so that the interpreter's exit skips collecting
    what the run built; see the module docstring."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
