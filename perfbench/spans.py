"""In-memory span tracing of rtmhd layers, installed from outside the package.

The tracer replaces public functions at the names their callers look up
(for example ``rtmhd.growth.alpha``, which ``growth_rate`` calls through its
module globals) with wrappers that record one span per call: name, start,
end and parent.  Nothing inside ``src/`` changes; ``uninstall`` restores
every original.  Spans stay in memory and are written out once, at the end
of a run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass, field

# (module, attribute, span name).  An attribute of the form "Class.method"
# wraps the method on the class.  Only caller-side names are wrapped, so one
# solve yields one span: eig.max_generalized_eig calls eig.min_generalized_eig
# internally and that inner call is not traced again.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("rtmhd.growth", "min_generalized_eig", "eig.solve"),
    ("rtmhd.dispersion", "min_generalized_eig", "eig.solve"),
    ("rtmhd.dispersion", "max_generalized_eig", "eig.solve"),
    ("rtmhd.growth", "alpha", "growth.alpha"),
    ("rtmhd.dispersion", "growth_rate", "growth.rate"),
    ("rtmhd.cli", "growth_rate", "growth.rate"),
    ("rtmhd.dispersion", "in_growing_domain", "dispersion.membership"),
    ("rtmhd.dispersion", "critical_number_auto", "dispersion.critical"),
    ("rtmhd.dispersion", "critical_freq_horizontal", "dispersion.threshold"),
    ("rtmhd.dispersion", "critical_freq_vertical", "dispersion.threshold"),
    ("rtmhd.dispersion", "assemble_forms", "forms.assemble"),
    ("rtmhd.cli", "assemble_forms", "forms.assemble"),
    ("rtmhd.modes", "build_mode", "modes.build"),
    ("rtmhd.verify", "evolve", "verify.evolve"),
    ("rtmhd.verify", "LinearEvolver.__init__", "verify.cn_factor"),
    ("rtmhd.verify", "LinearEvolver.step", "verify.cn_step"),
    ("rtmhd.config", "build_profile", "profiles.build"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    round: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _attrs(name: str, args: tuple, result) -> dict:
    """Work counts read off a call's arguments and result."""
    if name == "eig.solve":
        return {
            "iterations": int(getattr(result, "iterations", 0)),
            "points": int(args[0].shape[1]) if args else 0,
        }
    if name == "dispersion.critical":
        return {"truncations": len(getattr(result, "trace", ()))}
    return {}


class Tracer:
    """Records spans while installed; one instance per benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.round = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.round))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, attrs: dict) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.attrs = attrs
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named name (used for the command spans)."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(idx, _attrs(name, args, result))

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                # a renamed layer reads as zero work; say so instead of failing
                print(f"trace: {module_name}.{attr} not found", file=sys.stderr)
                continue
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "round": s.round,
                            **s.attrs,
                        }
                    )
                    + "\n"
                )


def self_time(spans: list[Span], idx: int, children: dict[int, list[int]]) -> float:
    """Span duration minus the part of its interval that child spans cover."""
    span = spans[idx]
    covered = 0.0
    cursor = span.start
    for c in sorted(children.get(idx, ()), key=lambda k: spans[k].start):
        lo = max(spans[c].start, cursor)
        hi = min(spans[c].end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.duration - covered


def round_summary(spans: list[Span], rnd: int) -> dict[str, float]:
    """Counts, busy seconds and summed attributes of one round's spans.

    Keys are "<span>.count", "<span>.busy_s" and "<span>.<attr>", plus
    "cli.self_s": the time of the command spans (named "cli.<command>") that
    no child span covers.
    """
    out: dict[str, float] = {"cli.self_s": 0.0}
    children: dict[int, list[int]] = {}
    picked = [i for i, s in enumerate(spans) if s.round == rnd]
    for i in picked:
        if spans[i].parent >= 0:
            children.setdefault(spans[i].parent, []).append(i)
    for i in picked:
        s = spans[i]
        out[f"{s.name}.count"] = out.get(f"{s.name}.count", 0) + 1
        out[f"{s.name}.busy_s"] = out.get(f"{s.name}.busy_s", 0.0) + s.duration
        for k, v in s.attrs.items():
            out[f"{s.name}.{k}"] = out.get(f"{s.name}.{k}", 0) + v
        if s.name.startswith("cli."):
            out["cli.self_s"] += self_time(spans, i, children)
    return out
