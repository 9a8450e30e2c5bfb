"""Spans around kwbias public functions, installed from outside the package.

Each target is a module attribute under the name its caller looks it up,
e.g. ``kwbias.harness.encode`` is the ``encode`` that ``harness`` imported.
Installing replaces the attribute with a timing shim; ``uninstall`` puts the
original back.  A target that a later version of the package renamed or
removed is listed in ``Tracer.missing`` and costs only the metrics read from
it, which then report zero samples.

Spans are kept in memory: name, layer, phase, start, end, the span that
caused it (``parent``) and the top-level span it belongs to (``root``), so
all spans of one request share an identifier.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    layer: str
    phase: str
    start: float
    parent: int | None
    root: int
    end: float = 0.0
    child_time: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _decode_rows(args, kwargs, result) -> dict:
    # decode_next(params, u, cond_ids, t_prev, prefix): every row is recomputed
    prefix = _arg(args, kwargs, 4, "prefix")
    n_prefix = prefix.shape[0] if prefix is not None else 0
    return {"rows": n_prefix + len(_arg(args, kwargs, 2, "cond_ids")) + len(_arg(args, kwargs, 3, "t_prev"))}


def _greedy_budget(args, kwargs, result) -> dict:
    # transcribe_greedy(params, u, cond_ids, prefix, eot_id, max_len)
    return {"tokens": len(result), "max_len": _arg(args, kwargs, 5, "max_len")}


def _train_run(args, kwargs, result) -> dict:
    return {"mode": _arg(args, kwargs, 0, "config").mode, "final_loss": float(result[-1])}


def _condition(args, kwargs, result) -> dict:
    return {"condition": _arg(args, kwargs, 0, "condition"), "wer": result.wer.wer, "f1": result.f1.f1}


# (target, layer, hook).  The hook runs after the call and returns span
# attributes; it reads arguments by position or keyword.
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("kwbias.training.teacher_forced_logits", "model.teacher_forced_logits", None),
    ("kwbias.training.kws_logits", "model.kws_logits", None),
    ("kwbias.model.kws_logits", "model.kws_logits", None),
    ("kwbias.harness.encode", "model.encode", None),
    ("kwbias.training.encode", "model.encode", None),
    ("kwbias.cli.encode", "model.encode", None),
    ("kwbias.model.decode_next", "model.decode_next", _decode_rows),
    ("kwbias.harness.transcribe_greedy", "model.transcribe_greedy", _greedy_budget),
    ("kwbias.cli.transcribe_greedy", "model.transcribe_greedy", _greedy_budget),
    ("kwbias.harness.kws_detect", "model.kws_detect", None),
    ("kwbias.cli.kws_detect", "model.kws_detect", None),
    ("kwbias.training.Tape", "autodiff.tape", None),
    ("kwbias.training.backward", "autodiff.backward", None),
    ("kwbias.harness.train_run", "training.train_run", _train_run),
    ("kwbias.training.loss_asr", "training.loss_asr", None),
    ("kwbias.training.loss_kws", "training.loss_kws", None),
    ("kwbias.training.Adam.step", "training.adam_step", None),
    ("kwbias.training.checkpoint_save", "training.checkpoint_save", None),
    ("kwbias.cli.checkpoint_load", "training.checkpoint_load", None),
    ("kwbias.harness.select_eval_keywords", "prompts.select_eval_keywords", None),
    ("kwbias.training.sample_training_keywords", "prompts.sample_keywords", None),
    ("kwbias.training.sample_word_keywords", "prompts.sample_keywords", None),
    ("kwbias.synth.generate_corpus", "synth.generate_corpus", None),
    ("kwbias.cli.dataset_load", "synth.dataset_load", None),
    ("kwbias.text.build_vocab", "text.build_vocab", None),
    ("kwbias.text.Vocab.load", "text.vocab_load", None),
    ("kwbias.harness.compute_wer", "metrics.compute_wer", None),
    ("kwbias.harness.keyword_f1", "metrics.keyword_f1", None),
    ("kwbias.harness.evaluate_condition", "harness.evaluate_condition", _condition),
    ("kwbias.cli.main", "cli.main", None),
    ("kwbias.cli.write_resolved", "config.write_resolved", None),
)


def _resolve(target: str):
    """(owner, attribute name, current value) for a dotted target, or None."""
    parts = target.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        try:
            return owner, parts[-1], inspect.getattr_static(owner, parts[-1])
        except AttributeError:
            return None
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self.missing: list[str] = []
        self.hook_errors: list[str] = []
        self._open: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str, layer: str) -> Span:
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        root = self.spans[parent].root if parent is not None else index
        span = Span(name, layer, self.phase, time.perf_counter(), parent, root)
        self.spans.append(span)
        self._open.append(index)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration

    def _shim(self, fn: Callable, name: str, layer: str, hook: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            span = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if hook is not None:
                try:
                    span.attrs = hook(args, kwargs, result)
                except Exception as exc:  # a changed signature costs only this hook
                    tracer.hook_errors.append(f"{name}: {exc!r}")
            return result

        return shim

    def _tape_class(self, tape_cls: type, name: str, layer: str) -> type:
        tracer = self

        class TracedTape(tape_cls):
            def __enter__(self):
                self._span = tracer.open(name, layer)
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close(self._span)
                    self._span.attrs = {"nodes": len(self)}

        return TracedTape

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for target, layer, hook in TARGETS:
            found = _resolve(target)
            if found is None:
                self.missing.append(target)
                continue
            owner, attr, value = found
            if isinstance(value, type):
                replacement = self._tape_class(value, target, layer)
            elif isinstance(value, classmethod):
                replacement = classmethod(self._shim(value.__func__, target, layer, hook))
            elif callable(value):
                replacement = self._shim(value, target, layer, hook)
            else:
                self.missing.append(target)
                continue
            self._installed.append((owner, attr, value))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._installed):
            setattr(owner, attr, value)
        self._installed.clear()

    # -- reading ---------------------------------------------------------

    def by_layer(self) -> dict[str, list[Span]]:
        out: dict[str, list[Span]] = {}
        for span in self.spans:
            out.setdefault(span.layer, []).append(span)
        return out

    def enclosing(self, span: Span, layer: str) -> Span | None:
        index = span.parent
        while index is not None:
            if self.spans[index].layer == layer:
                return self.spans[index]
            index = self.spans[index].parent
        return None

    def summary(self) -> dict[str, dict[str, dict[str, float]]]:
        """Per layer and phase: calls, total and self seconds, median ms."""
        out: dict[str, dict[str, dict[str, float]]] = {}
        for layer, spans in sorted(self.by_layer().items()):
            phases: dict[str, list[Span]] = {}
            for span in spans:
                phases.setdefault(span.phase, []).append(span)
            out[layer] = {
                phase: {
                    "calls": len(group),
                    "total_s": sum(s.duration for s in group),
                    "self_s": sum(s.self_time for s in group),
                    "median_ms": 1000 * statistics.median(s.duration for s in group),
                }
                for phase, group in phases.items()
            }
        return out

    def dump(self) -> list[list]:
        """Compact span records: name, phase, start, end, parent, root, attrs."""
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            [s.name, s.phase, round(s.start - t0, 7), round(s.end - t0, 7), s.parent, s.root, s.attrs]
            for s in self.spans
        ]
