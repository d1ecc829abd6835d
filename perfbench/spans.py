"""Span tracer that interposes timing wrappers on levyestim's public names.

Nothing in ``src/`` changes: :meth:`Tracer.install` replaces module
attributes (and four class attributes) with wrappers for the duration of a
traced round and :meth:`Tracer.uninstall` puts the originals back, so
untraced rounds run the unmodified program.  A wrapper patches the name in
the namespace the *caller* reads it from: ``mc`` imports the samplers and
estimators by name, ``cli`` reaches most of them as module attributes.

Each call of a wrapped name records one span ``(layer, start_ns, end_ns,
parent, op)``; a layer's self time is its spans' durations minus the time
covered by their direct children.  Counts are taken at the same
boundaries, except ``stable_core.primitive_evals``: the scale-path
constructors hand out paths whose ``primitive`` counts the points it is
evaluated at.  A target that no longer exists is listed in ``absent`` and
skipped.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import time
import warnings
from collections import Counter, defaultdict

import numpy as np

from levyestim.errors import LevyEstimError

# Layer -> the end-to-end metric it should move is documented in README.md.
# Each entry: (layer, [(module, attribute), ...], counter or None).
# "module" is a levyestim submodule name; "Class.method" patches a class
# attribute of that module.  A counter runs after every call, with
# result FAILED when the call raised.

FAILED = object()


def _count_draws(counts, args, result):
    if result is not FAILED:
        counts["stable_core.draws"] += int(result.n)


def _count_sigma_bars(counts, args, result):
    counts["stable_core.sigma_bars_calls"] += 1


def _count_seed(counts, args, result):
    counts["stable_core.seed_calls"] += 1


def _count_symmetric(counts, args, result):
    counts["symmetric.calls"] += 1


def _count_skewed(counts, args, result):
    counts["skewed.calls"] += 1


def _count_experiment(counts, args, result):
    if result is FAILED:
        return
    cells = {}
    for row in result:
        cells[(row.estimator, row.n)] = (row.replications, row.failures)
    counts["mc.cells"] += len(cells)
    counts["mc.reps_attempted"] += sum(r for r, _ in cells.values())
    counts["mc.reps_kept"] += sum(r - f for r, f in cells.values())


def _count_written_path(index):
    def count(counts, args, result):
        if result is not FAILED:
            counts["serialize.bytes_written"] += os.path.getsize(args[index])
    return count


def _count_read(counts, args, result):
    if result is not FAILED:
        counts["serialize.bytes_read"] += os.path.getsize(args[0])


def _count_report_json(counts, args, result):
    if result is not FAILED:
        counts["serialize.bytes_written"] += len(result.encode("utf8")) + 1


def _count_points(counts, args, result):
    counts["stable_density.points"] += int(np.size(args[0]))


def _count_request(counts, args, result):
    counts["cli.requests"] += 1


TARGETS = (
    ("stable_core.draw",
     [("mc", "sample_increments"), ("mc", "sprime_increment_sampler"),
      ("mc", "sample_timevarying"), ("cli", "sample_increments"),
      ("cli", "sample_timevarying"),
      # cli imports the positivity-form sampler inside its handler
      ("stable_core", "sprime_increment_sampler")],
     _count_draws),
    ("stable_core.sigma_bars", [("stable_core", "ScalePath.sigma_bars")],
     _count_sigma_bars),
    ("stable_core.seed", [("mc", "derive_seed")], _count_seed),
    ("special_fn.root",
     [("symmetric", "find_root_monotone"), ("skewed", "find_root_monotone"),
      ("subordinators", "find_root_monotone")],
     None),
    ("symmetric.estimate",
     [("mc", "log_moment_estimate"), ("mc", "frac_moment_estimate"),
      ("mc", "known_scale_beta"), ("mc", "median_gamma"),
      ("symmetric", "log_moment_estimate"),
      ("symmetric", "frac_moment_estimate"),
      ("transforms", "log_moment_estimate"),
      ("transforms", "frac_moment_estimate"),
      ("transforms", "median_gamma")],
     _count_symmetric),
    ("symmetric.cov", [("symmetric", "v_log"), ("symmetric", "v_p")], None),
    ("skewed.estimate",
     [("mc", "sign_statistic"), ("mc", "bipower_beta"),
      ("mc", "sigma_star_power"), ("mc", "tripower_integrated_scale"),
      ("skewed", "sign_bipower_estimate"), ("skewed", "tripower_estimate"),
      ("transforms", "sign_statistic"), ("transforms", "bipower_beta")],
     _count_skewed),
    ("mc", [("mc", "run_preset")], None),
    ("mc", [("mc", "run_experiment")], _count_experiment),
    ("serialize.write", [("serialize", "write_increments")],
     _count_written_path(0)),
    ("serialize.read", [("serialize", "read_increments")], _count_read),
    ("serialize.emit", [("mc", "emit")], _count_written_path(2)),
    ("serialize.emit", [("serialize", "EstimateReport.to_json")],
     _count_report_json),
    ("transforms.pipeline", [("transforms", "full_pipeline")], None),
    ("subordinators.sample",
     [("subordinators", "sample_gamma_sub"),
      ("subordinators", "sample_ig_sub"),
      ("mc", "sample_gamma_sub"), ("mc", "sample_ig_sub")],
     None),
    ("subordinators.mle",
     [("subordinators", "gamma_mle"), ("subordinators", "ig_mle"),
      ("mc", "gamma_mle"), ("mc", "ig_mle"),
      ("mc", "gamma_moment_estimate")],
     None),
    ("stable_density.fisher", [("cli", "fisher_matrix")], None),
    ("stable_density.density", [("cli", "phi")], _count_points),
    ("stable_density.density", [("cli", "phi_deriv")], None),
    ("cli", [("cli", "main")], _count_request),
)

#: Per-layer time metrics: metric name -> layer whose self time it sums.
TIME_METRICS = {
    "stable_core.draw_s": "stable_core.draw",
    "stable_core.sigma_bars_s": "stable_core.sigma_bars",
    "stable_core.seed_s": "stable_core.seed",
    "special_fn.root_s": "special_fn.root",
    "symmetric.estimate_s": "symmetric.estimate",
    "symmetric.cov_s": "symmetric.cov",
    "skewed.estimate_s": "skewed.estimate",
    "mc.self_s": "mc",
    "serialize.write_s": "serialize.write",
    "serialize.read_s": "serialize.read",
    "serialize.emit_s": "serialize.emit",
    "cli.self_s": "cli",
    "transforms.pipeline_s": "transforms.pipeline",
    "subordinators.sample_s": "subordinators.sample",
    "subordinators.mle_s": "subordinators.mle",
    "stable_density.fisher_s": "stable_density.fisher",
    "stable_density.density_s": "stable_density.density",
}

#: Deterministic per-round counts reported as they are.
COUNT_METRICS = (
    "stable_core.draws", "stable_core.sigma_bars_calls",
    "stable_core.primitive_evals", "stable_core.seed_calls",
    "special_fn.root_solves", "special_fn.root_fevals", "symmetric.calls",
    "skewed.calls", "mc.cells", "mc.reps_attempted", "mc.reps_kept",
    "serialize.bytes_written", "serialize.bytes_read", "cli.requests",
    "transforms.clamp_warnings", "stable_density.points",
)

#: Scale-path constructors whose paths get a counting ``primitive``:
#: ``stable_core.primitive_evals`` counts every point the primitive is
#: evaluated at, wherever that happens (block averages, sigma*).
PATH_FACTORIES = ("ScalePath.cosine", "ScalePath.constant")

#: levyestim submodules that hold wrapped names or call them.
MODULES = ("cli", "mc", "serialize", "skewed", "special_fn", "stable_core",
           "stable_density", "subordinators", "symmetric", "transforms")



def error_codes(base: type = LevyEstimError) -> tuple[str, ...]:
    """Stable codes of ``base`` and all its subclasses, in definition order."""
    codes = [base.code]
    for sub in base.__subclasses__():
        codes += [c for c in error_codes(sub) if c not in codes]
    return tuple(codes)


#: Stable error codes of levyestim.errors; anything else is errors.other.
ERROR_CODES = error_codes()


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.modules = {}
        for name in MODULES:
            try:
                self.modules[name] = importlib.import_module(f"levyestim.{name}")
            except ImportError:
                pass  # its targets are reported absent
        self.spans: list[list] = []  # [layer, start_ns, end_ns, parent, op]
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attr, original, wrapper)
        self.absent: list[str] = []
        self._primitive_evals = [0]  # folded into counts by uninstall()
        self._prepare()

    # -- wrapper construction ---------------------------------------------

    def _resolve(self, module: str, attr: str):
        owner = self.modules.get(module)
        if owner is None:
            return None
        if "." in attr:
            cls_name, attr = attr.split(".", 1)
            owner = getattr(owner, cls_name, None)
            if owner is None:
                return None
        if not callable(getattr(owner, attr, None)):
            return None
        return owner, attr

    def _prepare(self) -> None:
        wrappers: dict[tuple, object] = {}
        for layer, names, counter in TARGETS:
            for module, attr in names:
                found = self._resolve(module, attr)
                if found is None:
                    self.absent.append(f"{module}.{attr}")
                    continue
                owner, name = found
                original = owner.__dict__[name] if isinstance(owner, type) \
                    else getattr(owner, name)
                key = (id(original), layer)
                if key not in wrappers:
                    wrappers[key] = self._wrap(original, layer, counter)
                self._patches.append((owner, name, original, wrappers[key]))
        for attr in PATH_FACTORIES:
            found = self._resolve("stable_core", attr)
            if found is None:
                self.absent.append(f"stable_core.{attr}")
                continue
            owner, name = found
            original = owner.__dict__[name]
            if not isinstance(original, classmethod):
                self.absent.append(f"stable_core.{attr}")
                continue
            self._patches.append((owner, name, original,
                                  self._wrap_factory(original)))

    def _wrap(self, fn, layer: str, counter):
        tracer = self
        if layer == "special_fn.root":
            def call(f, *args, **kwargs):
                def counted(x):
                    tracer.counts["special_fn.root_fevals"] += 1
                    return f(x)
                tracer.counts["special_fn.root_solves"] += 1
                return fn(counted, *args, **kwargs)
        elif layer == "transforms.pipeline":
            def call(*args, **kwargs):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = fn(*args, **kwargs)
                tracer.counts["transforms.clamp_warnings"] += sum(
                    "clamped" in str(w.message) for w in caught)
                return result
        else:
            call = fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(layer)
            result = FAILED
            try:
                result = call(*args, **kwargs)
            except Exception as exc:
                tracer._error(exc)
                raise
            finally:
                tracer._close(idx)
                if counter is not None:
                    counter(tracer.counts, args, result)
            return result

        return wrapper

    def _wrap_factory(self, factory: classmethod) -> classmethod:
        """A path constructor whose paths count their primitive's points."""
        evals = self._primitive_evals
        make = factory.__func__

        @functools.wraps(make)
        def wrapper(cls, *args, **kwargs):
            path = make(cls, *args, **kwargs)
            primitive = path.primitive
            if primitive is None:
                return path

            def counted(t):
                # a list cell, not the Counter: this runs 2n times per
                # sigma_bars call and Counter updates would double its cost
                evals[0] += 1 if t.__class__ is float else int(np.size(t))
                return primitive(t)
            return dataclasses.replace(path, primitive=counted)

        return classmethod(wrapper)

    # -- span bookkeeping -------------------------------------------------

    def _open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([layer, time.perf_counter_ns(), 0, parent,
                           self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def _error(self, exc: Exception) -> None:
        # One failure counts once, under the last code that leaves a
        # wrapped name: an error re-raised as another (NoSignChange ->
        # RootOutOfBracket) moves its count to the new code.
        if getattr(exc, "code", None) is None \
                or getattr(exc, "_perfbench_code", None):
            return
        cause = exc.__cause__ or exc.__context__
        while cause is not None:
            if getattr(cause, "_perfbench_code", None):
                self.counts[cause._perfbench_code] -= 1
                break
            cause = cause.__cause__ or cause.__context__
        code = exc.code if exc.code in ERROR_CODES else "other"
        exc._perfbench_code = f"errors.{code}"
        self.counts[exc._perfbench_code] += 1

    def install(self) -> None:
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in reversed(self._patches):
            setattr(owner, name, original)
        self.counts["stable_core.primitive_evals"] += self._primitive_evals[0]
        self._primitive_evals[0] = 0

    # -- aggregation -------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """Position to aggregate from: (span index, counts snapshot)."""
        return len(self.spans), Counter(self.counts)

    def since(self, mark: tuple[int, Counter]) -> tuple[dict, Counter]:
        """Self seconds per layer and count deltas since ``mark``."""
        first, counts_then = mark
        spans = self.spans[first:]
        child_ns = defaultdict(int)
        for layer, start, end, parent, _ in spans:
            if parent >= first:
                child_ns[parent] += end - start
        self_s = defaultdict(float)
        for offset, (layer, start, end, _, _) in enumerate(spans):
            self_s[layer] += (end - start - child_ns[first + offset]) * 1e-9
        delta = Counter(self.counts)
        delta.subtract(counts_then)
        return dict(self_s), delta

    def dump(self, path) -> None:
        """Write every span as one JSON line, absent targets first."""
        with open(path, "w", encoding="utf8") as fh:
            fh.write(json.dumps({"absent": self.absent}) + "\n")
            for idx, (layer, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": layer, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "op": op}) + "\n")
