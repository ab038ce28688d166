"""Span tracer for the benchmark's traced pass.

The tracer wraps the public functions of the traced pastaopt layers from
outside the program. Each function is patched under every name it is bound
to across the package (``from .x import f`` copies a reference into the
importing module, so patching only the defining module would miss those call
sites), plus two class attributes. ``install`` and ``restore`` may alternate
any number of times; ``restore`` puts every original object back, and
``unrestored`` reports any that are not.

Spans live in flat arrays in memory (name, start, end, parent span, op id)
and are written out once, at the end of the run. Boundary counts that the
spans cannot show (fit iterations, region acceptances, inner-step
acceptances, outer iterations) are recorded from arguments and return values
at the same boundaries.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# pastaopt.diagnostics is a test oracle that no solve path calls; it is not traced.
LAYERS = ("datagen", "likelihood", "lp", "solver", "model", "harness", "cli")
# (module, class, attribute, span name) traced besides each layer's public functions
CLASS_ATTRS = (
    ("likelihood", "ConfidenceRegion", "contains", "likelihood.region_contains"),
    ("likelihood", "OfflineDataset", "load_csv", "likelihood.load_csv"),
)
SETUP_OP = -1  # op id of spans recorded while a workload sets up


def _bound_modules() -> list:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if (name == "pastaopt" or name.startswith("pastaopt.")) and name != "pastaopt.diagnostics"
    ]


class Tracer:
    """Patch, record, restore. One tracer serves one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_op = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack: list[int] = []
        self.op = SETUP_OP
        # span name -> [(op id, payload)] recorded from arguments and results
        self.events: dict[str, list] = defaultdict(list)
        # best_assortment calls and solver outputs still to be certified
        self.pending: list[tuple] = []
        self.certified = 0  # best_assortment results that passed the certificate
        self.patches: list[tuple] = []  # (owner, attribute, original, wrapper)

    # ------------------------------------------------------------------ spans
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as the whole op."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    # --------------------------------------------------------------- patching
    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        observe = _OBSERVERS.get(name)
        tracer = self

        if name == "solver.gdls":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                # count inner-step acceptances through the public history argument
                history = args[5] if len(args) > 5 else kwargs.get("history")
                if history is None and len(args) <= 5:
                    history = kwargs["history"] = []
                seen = len(history or ())
                idx = tracer._open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                steps = (history or [])[seen:]
                tracer.events[name].append(
                    (tracer.op, (sum(step.accepted for step in steps), len(steps)))
                )
                return result

            return wrapper

        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(tracer, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def _plan(self) -> None:
        """Find every binding of every traced function and build its wrapper."""
        modules = _bound_modules()
        for layer in LAYERS:
            mod = sys.modules[f"pastaopt.{layer}"]
            for public in mod.__all__:
                fn = getattr(mod, public)
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue  # classes and constants
                wrapped = self._wrap(fn, f"{layer}.{public}")
                for owner in modules:
                    for attr, value in vars(owner).items():
                        if value is fn:
                            self.patches.append((owner, attr, fn, wrapped))
        for layer, cls_name, attr, span_name in CLASS_ATTRS:
            cls = getattr(sys.modules[f"pastaopt.{layer}"], cls_name)
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, span_name))
            else:
                wrapped = self._wrap(raw, span_name)
            self.patches.append((cls, attr, raw, wrapped))

    def install(self) -> None:
        """Bind every wrapper in place of its original."""
        if not self.patches:
            self._plan()
        for owner, attr, _, wrapped in self.patches:
            setattr(owner, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, original, _ in reversed(self.patches):
            setattr(owner, attr, original)

    def unrestored(self) -> list[str]:
        """Names whose current binding is not the original object."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original, _ in self.patches
            if vars(owner).get(attr) is not original
        ]

    # ----------------------------------------------------------------- output
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.span_op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def save(self, path: Path, environment: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            environment=np.array(json.dumps(environment)),
            **self.arrays(),
        )

    def layer_times(self) -> "SpanTable":
        return SpanTable(self.names, self.arrays())


class SpanTable:
    """Per-name sums over spans; self time is a span's duration minus its children's."""

    def __init__(self, names: list[str], spans: dict[str, np.ndarray]):
        self.names = names
        self.spans = spans
        self.duration = spans["end"] - spans["start"]
        has_parent = spans["parent"] >= 0
        covered = np.bincount(
            spans["parent"][has_parent], weights=self.duration[has_parent], minlength=len(self.duration)
        )
        self.self_time = self.duration - covered
        self.in_op = spans["op"] >= 0
        self.op_durations = self.duration[self.in_op & self._is("op")]

    def _is(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.duration), dtype=bool)
        return self.spans["name"] == self.names.index(name)

    def calls_of(self, name: str) -> int:
        """Calls made inside measured ops."""
        return int(np.count_nonzero(self.in_op & self._is(name)))

    def total_of(self, name: str) -> float:
        return float(self.duration[self.in_op & self._is(name)].sum())

    def self_of(self, name: str) -> float:
        return float(self.self_time[self.in_op & self._is(name)].sum())

    def total_in_op(self, name: str, op: int) -> float:
        return float(self.duration[(self.spans["op"] == op) & self._is(name)].sum())

    def calls_under(self, name: str, parents: tuple[str, ...]) -> int:
        """Calls inside measured ops whose direct parent span has one of the given names."""
        mask = self.in_op & self._is(name)
        parent_names = self.spans["name"][self.spans["parent"][mask]]
        wanted = [self.names.index(p) for p in parents if p in self.names]
        return int(np.count_nonzero(np.isin(parent_names, wanted)))


# ------------------------------------------------------------------ observers
# Each observer runs inside the parent span, so it only appends references;
# the expensive checks run between ops.


def _observe_fit(tracer: Tracer, call: dict, fit) -> None:
    tracer.events["likelihood.fit_mle"].append((tracer.op, (fit.n_iters, bool(fit.converged))))


def _observe_contains(tracer: Tracer, call: dict, inside) -> None:
    tracer.events["likelihood.region_contains"].append((tracer.op, bool(inside)))


def _observe_best(tracer: Tracer, call: dict, s) -> None:
    if tracer.op < 0:
        return  # certify the outputs of measured ops only
    tracer.pending.append(
        ("best_assortment", call["catalog"], np.array(call["theta"], dtype=float), call["cons"], s)
    )


def _observe_pasta(tracer: Tracer, call: dict, result) -> None:
    if tracer.op < 0:
        return  # certify the outputs of measured ops only
    s, trace = result
    iterations = trace.iterations
    tracer.events["solver.pasta_solve"].append(
        (tracer.op, (len(iterations), bool(trace.converged_early), len({it[1] for it in iterations})))
    )
    tracer.pending.append(("pasta_solve", None, None, call["cons"], s))


def _observe_baseline(tracer: Tracer, call: dict, s) -> None:
    if tracer.op < 0:
        return  # certify the outputs of measured ops only
    tracer.pending.append(("baseline_solve", None, None, call["cons"], s))


def _observe_instance(tracer: Tracer, call: dict, instance) -> None:
    tracer.events["datagen.generate_instance"].append((tracer.op, instance.v_star))


_OBSERVERS = {
    "likelihood.fit_mle": _observe_fit,
    "likelihood.region_contains": _observe_contains,
    "lp.best_assortment": _observe_best,
    "solver.pasta_solve": _observe_pasta,
    "solver.baseline_solve": _observe_baseline,
    "datagen.generate_instance": _observe_instance,
}
