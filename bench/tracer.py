"""Per-layer tracing by wrapping pragrate's public functions at run time.

Nothing under ``src/`` is edited: ``Tracer.install`` replaces each listed
function in every pragrate namespace that binds it (modules import some of
them by name, e.g. ``approximations`` and ``coding`` bind
``solve_alpha_star`` and ``moment_envelope``), and ``uninstall`` puts the
originals back.

Every wrapped call keeps aggregate counters (calls, self time, calls that
raised).  Ops and layer-entry functions also record spans with a parent span
and an op id; hot leaf functions (``neumaier_sum`` runs hundreds of thousands
of times per op) keep counters only.  Self time is a call's duration minus
the time spent in wrapped calls it made.  One thread, so children never
overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import sys
from time import perf_counter

SPAN, COUNT = "span", "count"

# (module, function, what to record)
LAYERS = (
    ("cli", "main", SPAN),
    ("approximations", "compute_rate_ladder", SPAN),
    ("approximations", "converse_constants", SPAN),
    ("exponents", "solve_alpha_star", SPAN),
    ("exponents", "moment_envelope", SPAN),
    ("distributions", "tilt", COUNT),
    ("exact_limits", "optimal_rate", SPAN),
    ("exact_limits", "length_distribution", SPAN),
    ("coding", "build_ordering", SPAN),
    ("coding", "encode", COUNT),
    ("coding", "decode", COUNT),
    ("coding", "universal_excess_probability", SPAN),
    ("types_census", "low_entropy_count", SPAN),
    ("types_census", "entropy_slab_count", SPAN),
    ("types_census", "type_entropy_bits", COUNT),
    ("types_census", "rank_in_type_class", COUNT),
    ("types_census", "unrank_in_type_class", COUNT),
    ("numerics", "neumaier_sum", COUNT),
)

# Calls that enumerate every n-type once: (n, m) taken from their arguments.
# universal_excess_probability enumerates through build_ordering.
ENUMERATORS = {
    "exact_limits.length_distribution": lambda a: (a["n"], a["p"].m),
    "coding.build_ordering": lambda a: (a["n"], a["m"]),
    "types_census.low_entropy_count": lambda a: (a["n"], a["m"]),
    "types_census.entropy_slab_count": lambda a: (a["n"], a["m"]),
}


def _namespaces():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "pragrate" or name.startswith("pragrate."))]


class Tracer:
    """Wraps the LAYERS functions while installed; see the module docstring."""

    def __init__(self) -> None:
        self.stats = {f"{mod}.{fn}": [0, 0.0, 0] for mod, fn, _ in LAYERS}
        self.spans: list[dict] = []
        self.types_enumerated = 0
        self.envelope = None  # the original moment_envelope, for cache_info()
        self.hit_ratio = 0.0  # envelope cache hits over lookups, set by the caller
        self._pairs: set = set()  # (op id, source, n) of length_distribution under CLI ops
        self._cli_calls = 0
        self._stack: list[list] = []  # per active wrapped call: [child time, span id]
        self._patches: list[tuple] = []
        self._op_id = None
        self._op_kind = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {mod: importlib.import_module(f"pragrate.{mod}") for mod, _, _ in LAYERS}
        spaces = _namespaces()
        for mod, fn, mode in LAYERS:
            original = getattr(modules[mod], fn)
            if mod == "exponents" and fn == "moment_envelope":
                self.envelope = original
            wrapper = self._wrap(f"{mod}.{fn}", original, mode == SPAN)
            for space in spaces:
                for attr, value in list(vars(space).items()):
                    if value is original:
                        setattr(space, attr, wrapper)
                        self._patches.append((space, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            space, attr, original = self._patches.pop()
            setattr(space, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str, span: bool) -> list:
        span_id = None
        if span:
            parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
            span_id = len(self.spans)
            self.spans.append({"id": span_id, "parent": parent, "op": self._op_id,
                               "name": name, "start": perf_counter()})
        frame = [0.0, span_id]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, t0: float, failed: bool) -> None:
        dt = perf_counter() - t0
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += dt
        stat = self.stats.get(name)
        if stat is not None:
            stat[0] += 1
            stat[1] += dt - frame[0]
            stat[2] += failed
        if frame[1] is not None:
            record = self.spans[frame[1]]
            record["end"] = record["start"] + dt
            record["self"] = dt - frame[0]
            record["error"] = failed

    def _wrap(self, name: str, fn, span: bool):
        enumerates = ENUMERATORS.get(name)
        signature = inspect.signature(fn) if enumerates else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name, span)
            t0 = perf_counter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                self._exit(name, frame, t0, failed)
                if signature is not None and not failed:
                    self._count(name, signature.bind(*args, **kwargs).arguments, enumerates)

        return wrapper

    def _count(self, name: str, arguments: dict, enumerates) -> None:
        if enumerates is not None:
            n, m = enumerates(arguments)
            self.types_enumerated += math.comb(n + m - 1, m - 1)
        if name == "exact_limits.length_distribution" and self._op_kind in ("cli", "codec"):
            self._cli_calls += 1
            self._pairs.add((self._op_id, arguments["p"], arguments["n"]))

    @contextlib.contextmanager
    def op(self, op_id: int, kind: str, cell: str):
        """Record one op as a root span; wrapped calls inside carry its id."""
        self._op_id, self._op_kind = op_id, kind
        frame = self._enter(f"op:{cell}", True)
        t0 = perf_counter()
        failed = True
        try:
            yield
            failed = False
        finally:
            self._exit(f"op:{cell}", frame, t0, failed)
            self._op_id = self._op_kind = None

    # -- results -----------------------------------------------------------

    @property
    def distinct_ratio(self) -> float:
        """Distinct (source, n) pairs per CLI op over length_distribution
        calls made by CLI ops; 0.0 when there were none."""
        return len(self._pairs) / self._cli_calls if self._cli_calls else 0.0
