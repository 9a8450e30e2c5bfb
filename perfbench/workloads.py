"""The benchmark's set-up, its three phases, and its two workloads.

Every run sets up the default corpus, then runs the pipeline a user of
``kwbias`` runs: train the four-stage stack, score the six prompting
conditions (``eval``) and serve ``kwbias transcribe`` requests
(``transcribe``), the last two interleaved in one mixed pass.  A workload is
the phase it focuses on: that phase runs at full size and repeats until it
has been measured for ``--seconds``; training runs once, and ``eval`` runs
on a probe of the test split when it is not the focus.  So every run reports
every end-to-end metric, while each workload puts its load on other layers.

The corpus, the training seed and the evaluation keywords are fixed by
``RunConfig``; the workload seed orders the conditions of an evaluation pass
and the requests of a transcribe pass, none of which may change an output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kwbias import cli, harness, model, synth, text, training
from kwbias.config import RunConfig
from kwbias.metrics import WerBreakdown, compute_wer, keyword_f1

from tracing import Tracer

CONDITIONS = harness.CONDITIONS
SETUP_REPEATS = 3
STACK_ROLES = ("base", "kws", "ft", "pt")


@dataclass(frozen=True)
class Size:
    overrides: dict
    eval_probe: int  # test utterances scored when eval is not the focus


# "full" trains on a twentieth of RunConfig's default steps (150/30/30/60):
# steps are still 60-70 % of a stack, the rest being mostly the 6000 frozen
# encodes that kws, ft and pt each make up front.  "tiny" is for the smoke
# test only.
SIZES = {
    "full": Size({"steps_asr": 150, "steps_kws": 30, "steps_ft": 30, "steps_pt": 60}, eval_probe=50),
    "tiny": Size({"train_size": 40, "dev_size": 2, "test_size": 4,
                  "steps_asr": 4, "steps_kws": 2, "steps_ft": 2, "steps_pt": 2, "prefix_len": 2,
                  "d_model": 16, "n_heads": 2, "d_ff": 32, "n_enc_layers": 1, "n_dec_layers": 1,
                  "max_tgt_len": 64}, eval_probe=2),
}


def _sha256(*parts: object) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode("utf-8"))
    return h.hexdigest()


class Checks:
    """Named pass/fail correctness checks; a failing one makes the run incorrect."""

    def __init__(self) -> None:
        self.results: dict[str, bool] = {}

    def expect(self, name: str, ok: bool) -> None:
        self.results[name] = self.results.get(name, True) and bool(ok)

    @property
    def ok(self) -> bool:
        return all(self.results.values())


# ---------------------------------------------------------------------------
# set-up


@dataclass(frozen=True)
class Request:
    kind: str  # "baseline" or "pt", the harness condition it reproduces
    index: int
    argv: tuple[str, ...]


@dataclass
class Setup:
    cfg: RunConfig
    work: Path
    train: list
    test: list
    vocab: text.Vocab
    ctx: harness.EvalContext
    keyword_sets: list
    requests: list[Request]
    fingerprint: str


def set_up(cfg: RunConfig, work: Path, seed: int) -> Setup:
    """Corpus, vocabulary, evaluation keywords, the data directory the CLI
    reads, and the request list, keyword lists included."""
    splits, _ = synth.generate_corpus(cfg.synth_spec())
    train_texts = [u.text for u in splits["train"]]
    vocab = text.build_vocab(train_texts, cfg.vocab_target)
    ctx = harness.make_eval_context(cfg, vocab, train_texts)
    test = splits["test"]
    keyword_sets = [ctx.keywords_for(i, u.text) for i, u in enumerate(test)]
    synth.dataset_save(work / "test.ds", test, cfg.synth_spec())
    vocab.save(work / "vocab.tsv")

    common = ("transcribe", "--data", str(work), "--out", str(work / "request"))
    requests = []
    for i in np.random.default_rng(seed).permutation(len(test)).tolist():
        requests.append(Request("baseline", i, (*common, "--index", str(i), "--ckpt", str(work / "base.ckpt"))))
        surfaces = ",".join(kw.surface for kw in keyword_sets[i])
        requests.append(Request("pt", i, (*common, "--index", str(i), "--ckpt", str(work / "pt.ckpt"),
                                          "--kws-ckpt", str(work / "kws.ckpt"), "--keywords", surfaces)))
    fingerprint = _sha256((work / "test.ds").read_bytes(), vocab.content_hash,
                          [[kw.surface for kw in ks] for ks in keyword_sets])
    return Setup(cfg, work, splits["train"], test, vocab, ctx, keyword_sets, requests, fingerprint)


# ---------------------------------------------------------------------------
# phases


@dataclass
class TrainPass:
    wall: float
    examples: int
    stack: dict
    fingerprint: str


def train_pass(s: Setup) -> TrainPass:
    """The four stages base-asr -> kws -> {ft, pt}; train_run's frozen-group
    and finite-loss checks raise on failure.  Checkpoints are saved after
    the timed region for the transcribe phase."""
    cfg = s.cfg
    t0 = time.perf_counter()
    stack = harness.train_stack(cfg, s.train, s.vocab)
    wall = time.perf_counter() - t0
    for role in ("base", "kws", "pt"):
        training.checkpoint_save(s.work / f"{role}.ckpt", stack[role], s.vocab.content_hash, cfg.seed)
    steps = cfg.steps_asr + cfg.steps_kws + cfg.steps_ft + cfg.steps_pt
    fingerprint = _sha256([(role, g, model.param_group_hash(group))
                           for role in STACK_ROLES for g, group in stack[role].groups().items()])
    return TrainPass(wall, steps * cfg.batch_size, stack, fingerprint)


@dataclass
class EvalPass:
    wall: float
    utterances: int
    reports: dict
    fingerprint: str  # of the report CSV, in CONDITIONS order


def _eval_result(wall: float, n_utterances: int, reports) -> EvalPass:
    by_name = {r.condition: r for r in reports}
    csv = harness.report_csv([by_name[c] for c in CONDITIONS if c in by_name])
    return EvalPass(wall, n_utterances, by_name, _sha256(csv))


def _evaluate(s: Setup, stack: dict, n_utterances: int, conditions: list[str]) -> tuple[float, list]:
    t0 = time.perf_counter()
    reports = harness.evaluate_conditions(conditions, stack, stack["kws"], s.test[:n_utterances], s.ctx)
    return time.perf_counter() - t0, reports


def eval_pass(s: Setup, stack: dict, n_utterances: int, order: list[str]) -> EvalPass:
    wall, reports = _evaluate(s, stack, n_utterances, order)
    return _eval_result(wall, n_utterances, reports)


@dataclass
class Response:
    request: Request
    code: int | None  # None: the call raised
    ms: float
    stdout: str


def send(req: Request) -> Response:
    """One in-process ``kwbias transcribe`` request, timed by the client."""
    out = io.StringIO()
    code: int | None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(req.argv))
    except SystemExit as exc:  # argparse refused the request
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # counted as a failed request, the client keeps going
        code = None
    return Response(req, code, 1000 * (time.perf_counter() - t0), out.getvalue())


@dataclass
class TranscribePass:
    wall: float  # time spent in requests
    responses: list[Response]
    fingerprint: str  # order-independent, so it is the same for every seed


def _transcribe_result(responses: list[Response]) -> TranscribePass:
    fingerprint = _sha256(sorted((r.request.kind, r.request.index, r.code, r.stdout) for r in responses))
    return TranscribePass(sum(r.ms for r in responses) / 1000, responses, fingerprint)


def transcribe_pass(s: Setup) -> TranscribePass:
    """One client, closed loop: each request is sent when the previous one
    has returned."""
    return _transcribe_result([send(req) for req in s.requests])


def mixed_pass(s: Setup, stack: dict, n_utterances: int, order: list[str]) -> tuple[EvalPass, TranscribePass]:
    """One evaluation pass and one transcribe pass, interleaved: each
    condition is followed by a sixth of the requests.  Both phases then
    sample the same stretch of the run, so a slow spell of a shared machine
    weighs on each of them less than on two back-to-back blocks."""
    chunks = np.array_split(np.arange(len(s.requests)), len(order))
    eval_wall, reports, responses = 0.0, [], []
    for condition, chunk in zip(order, chunks):
        wall, found = _evaluate(s, stack, n_utterances, [condition])
        eval_wall += wall
        reports += found
        responses += [send(s.requests[i]) for i in chunk.tolist()]
    return _eval_result(eval_wall, n_utterances, reports), _transcribe_result(responses)


def _transcript(stdout: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith("transcript: "):
            return line[len("transcript: "):]
    return None


def check_cli_matches_harness(checks: Checks, s: Setup, tp: TranscribePass, ep: EvalPass) -> None:
    """The CLI must serve the transcripts the harness scores: on the utterances
    of the evaluation pass, WER and keyword F1 of the ``baseline`` and ``pt``
    responses equal the harness's counts for those conditions exactly."""
    for kind in ("baseline", "pt"):
        refs, hyps, keyword_sets = [], [], []
        wer = WerBreakdown(0, 0, 0, 0)
        for r in tp.responses:
            if r.request.kind != kind or r.request.index >= ep.utterances:
                continue
            hyp = _transcript(r.stdout)
            if hyp is None:
                checks.expect(f"cli {kind} transcripts match harness", False)
                return
            ref = text.normalize(s.test[r.request.index].text)
            wer = wer + compute_wer(ref, hyp)
            refs.append(ref)
            hyps.append(hyp)
            keyword_sets.append(s.keyword_sets[r.request.index])
        report = ep.reports[kind]
        f1 = keyword_f1(refs, hyps, keyword_sets)
        checks.expect(f"cli {kind} transcripts match harness",
                      len(refs) == ep.utterances and wer == report.wer and f1 == report.f1)


def check_eval(checks: Checks, ep: EvalPass) -> None:
    checks.expect("eval reports every condition", set(ep.reports) == set(CONDITIONS))
    for r in ep.reports.values():
        checks.expect("eval WER finite and >= 0", math.isfinite(r.wer.wer) and r.wer.wer >= 0)
        checks.expect("eval F1 within [0, 1]", 0.0 <= r.f1.f1 <= 1.0)


# ---------------------------------------------------------------------------
# runs


@dataclass
class Result:
    metrics: dict[str, tuple[float, str, int]]  # name -> (value, unit, samples)
    checks: Checks
    attempted: int
    failed: int
    report: dict = field(default_factory=dict)


def _repeat(seconds: float, one_pass, first) -> list:
    """``first`` and further whole passes until their measured time reaches ``seconds``."""
    passes = [first]
    while sum(p.wall for p in passes) < seconds:
        passes.append(one_pass())
    return passes


def _order(seed: int) -> list[str]:
    return [CONDITIONS[i] for i in np.random.default_rng(seed).permutation(len(CONDITIONS))]


def _eval_size(workload: str, s: Setup, size: Size) -> int:
    return len(s.test) if workload == "eval" else min(size.eval_probe, len(s.test))


def _failed(tp: TranscribePass) -> int:
    return sum(r.code != 0 for r in tp.responses)


def _fingerprints(s: Setup, train: TrainPass, ep: EvalPass, tp: TranscribePass) -> dict:
    return {"setup": s.fingerprint, "stack": train.fingerprint, "eval": ep.fingerprint, "transcribe": tp.fingerprint}


def measure(workload: str, seed: int, seconds: float, size: Size, work: Path) -> Result:
    """The untraced run: every end-to-end metric."""
    cfg = RunConfig(**size.overrides)
    checks = Checks()
    setup_walls, fingerprints = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        s = set_up(cfg, work, seed)
        setup_walls.append(time.perf_counter() - t0)
        fingerprints.append(s.fingerprint)
    checks.expect("set-up repeats are identical", len(set(fingerprints)) == 1)

    n_eval, order = _eval_size(workload, s, size), _order(seed)
    train = train_pass(s)
    ep, tp = mixed_pass(s, train.stack, n_eval, order)
    evals = _repeat(seconds if workload == "eval" else 0, lambda: eval_pass(s, train.stack, n_eval, order), ep)
    transcribes = _repeat(seconds if workload == "transcribe" else 0, lambda: transcribe_pass(s), tp)
    for p in evals:
        check_eval(checks, p)
    checks.expect("eval outputs identical across passes", len({p.fingerprint for p in evals}) == 1)
    checks.expect("transcribe outputs identical across passes", len({p.fingerprint for p in transcribes}) == 1)
    check_cli_matches_harness(checks, s, transcribes[0], evals[0])

    failed = sum(_failed(tp) for tp in transcribes)
    attempted = (4 + sum(len(order) * p.utterances for p in evals)
                 + sum(len(tp.responses) for tp in transcribes))
    checks.expect("every request exits 0", failed == 0)

    latencies = [r.ms for tp in transcribes for r in tp.responses]
    reports = evals[0].reports
    metrics = {
        "setup_s": (statistics.median(setup_walls), "s", len(setup_walls)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "train_examples_per_s": (train.examples / train.wall, "1/s", 1),
        "eval_utts_per_s": (sum(len(order) * p.utterances for p in evals) / sum(p.wall for p in evals),
                            "1/s", len(evals)),
    }
    for c in ("baseline", "pt", "pt-oracle"):
        metrics[f"wer.{c}"] = (reports[c].wer.wer, "ratio", n_eval)
    for c in ("baseline", "pt", "pt-oracle"):
        metrics[f"f1.{c}"] = (reports[c].f1.f1, "ratio", n_eval)
    metrics["request_ms.p50"] = (statistics.median(latencies), "ms", len(latencies))
    metrics["request_ms.p95"] = (statistics.quantiles(latencies, n=20)[18], "ms", len(latencies))

    report = {
        "passes": {"eval": len(evals), "transcribe": len(transcribes)},
        "walls_s": {"setup": setup_walls, "train": train.wall,
                    "eval": [p.wall for p in evals], "transcribe": [p.wall for p in transcribes]},
        "eval_utterances": n_eval,
        "condition_order": order,
        "quality_csv": harness.report_csv([reports[c] for c in CONDITIONS]),
        "fingerprints": _fingerprints(s, train, evals[0], transcribes[0]),
    }
    return Result(metrics, checks, attempted, failed, report)


def trace(workload: str, seed: int, size: Size, work: Path) -> Result:
    """The traced run: set-up, training and one mixed pass under the tracer,
    then the focus phase once more untraced.  Both must give identical
    outputs; their wall times give the tracing overhead."""
    cfg = RunConfig(**size.overrides)
    checks = Checks()
    order = _order(seed)
    tracer = Tracer()
    tracer.install()
    try:
        s = set_up(cfg, work, seed)
        n_eval = _eval_size(workload, s, size)
        tracer.phase = "train"
        traced = {"train": train_pass(s)}
        tracer.phase = "mixed"
        traced["eval"], traced["transcribe"] = mixed_pass(s, traced["train"].stack, n_eval, order)
    finally:
        tracer.uninstall()

    if workload == "eval":
        plain = eval_pass(s, traced["train"].stack, n_eval, order)
    else:
        plain = transcribe_pass(s)
    checks.expect("tracing does not change outputs", plain.fingerprint == traced[workload].fingerprint)
    check_eval(checks, traced["eval"])
    check_cli_matches_harness(checks, s, traced["transcribe"], traced["eval"])
    failed = _failed(traced["transcribe"])
    attempted = 4 + len(order) * n_eval + len(traced["transcribe"].responses)
    checks.expect("every request exits 0", failed == 0)

    metrics = layer_metrics(tracer)
    metrics["trace_overhead"] = (traced[workload].wall / plain.wall, "ratio", 1)
    report = {
        "missing_wrappers": tracer.missing,
        "hook_errors": tracer.hook_errors,
        "walls_s": {"traced": {k: p.wall for k, p in traced.items()}, "untraced": {workload: plain.wall}},
        "eval_utterances": n_eval,
        "condition_order": order,
        "quality_csv": harness.report_csv([traced["eval"].reports[c] for c in CONDITIONS]),
        "fingerprints": _fingerprints(s, traced["train"], traced["eval"], traced["transcribe"]),
        "layers": tracer.summary(),
        "spans": tracer.dump(),
    }
    return Result(metrics, checks, attempted, failed, report)


# ---------------------------------------------------------------------------
# per-layer metrics


def _name(condition: str) -> str:
    """A condition as a metric-name part: letters, digits, '_', '.', '-'."""
    return condition.replace("+", "_")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics over one traced set-up and one traced pass of every
    phase.  ``_ms`` is the median wall time per call, ``_s`` the total;
    a layer that made no call reads 0 with 0 samples."""
    layers = tracer.by_layer()
    out: dict[str, tuple[float, str, int]] = {}

    def spans(layer: str, condition: str | None = None):
        found = layers.get(layer, [])
        if condition is None:
            return found
        return [sp for sp in found
                if (enc := tracer.enclosing(sp, "harness.evaluate_condition")) is not None
                and enc.attrs.get("condition") == condition]

    def median_ms(name: str, found, self_time: bool = False) -> None:
        values = [sp.self_time if self_time else sp.duration for sp in found]
        out[name] = (1000 * statistics.median(values) if values else 0.0, "ms", len(values))

    def total_s(name: str, found) -> None:
        out[name] = (sum(sp.duration for sp in found), "s", len(found))

    def count(name: str, n: int, samples: int) -> None:
        out[name] = (n, "count", samples)

    def mean_attr(name: str, found, key: str, unit: str) -> None:
        values = [sp.attrs[key] for sp in found if key in sp.attrs]
        out[name] = (statistics.fmean(values) if values else 0.0, unit, len(values))

    median_ms("model.teacher_forced_logits_ms", spans("model.teacher_forced_logits"))
    median_ms("model.kws_logits_ms", spans("model.kws_logits"))
    count("model.encode.calls", len(spans("model.encode")), len(spans("model.encode")))
    median_ms("model.encode_ms", spans("model.encode"))
    count("model.decode_next.calls", len(spans("model.decode_next")), len(spans("model.decode_next")))
    median_ms("model.decode_next_ms", spans("model.decode_next"))
    mean_attr("model.decode_rows_per_call", spans("model.decode_next"), "rows", "rows")
    median_ms("model.kws_detect_ms", spans("model.kws_detect"))

    median_ms("autodiff.backward_ms", spans("autodiff.backward"))
    mean_attr("autodiff.tape_nodes_per_step", spans("autodiff.tape"), "nodes", "nodes")

    runs = spans("training.train_run")
    for mode in training.MODES:
        total_s(f"training.train_run_s.{mode}", [sp for sp in runs if sp.attrs.get("mode") == mode])
    median_ms("training.loss_asr_ms", spans("training.loss_asr"))
    median_ms("training.loss_kws_ms", spans("training.loss_kws"))
    median_ms("training.adam_step_ms", spans("training.adam_step"))
    for mode in training.MODES:
        losses = [sp.attrs["final_loss"] for sp in runs if sp.attrs.get("mode") == mode]
        out[f"training.final_loss.{mode}"] = (losses[-1] if losses else 0.0, "nats", len(losses))
    median_ms("training.checkpoint_load_ms", spans("training.checkpoint_load"))
    median_ms("training.checkpoint_save_ms", spans("training.checkpoint_save"))

    selects = spans("prompts.select_eval_keywords")
    count("prompts.select_eval_keywords.calls", len(selects), len(selects))
    median_ms("prompts.select_eval_keywords_ms", selects)
    median_ms("prompts.sample_keywords_ms", spans("prompts.sample_keywords"))

    total_s("synth.generate_corpus_s", spans("synth.generate_corpus"))
    total_s("text.build_vocab_s", spans("text.build_vocab"))
    median_ms("synth.dataset_load_ms", spans("synth.dataset_load"))
    median_ms("text.vocab_load_ms", spans("text.vocab_load"))

    median_ms("metrics.compute_wer_ms", spans("metrics.compute_wer"))
    median_ms("metrics.keyword_f1_ms", spans("metrics.keyword_f1"))

    conditions = {sp.attrs.get("condition"): sp for sp in spans("harness.evaluate_condition")}
    for c in CONDITIONS:
        total_s(f"harness.evaluate_condition_s.{_name(c)}", [conditions[c]] if c in conditions else [])
    # samples: the greedy decodes of the condition
    for c in CONDITIONS:
        count(f"harness.decode_steps.{_name(c)}", len(spans("model.decode_next", c)),
              len(spans("model.transcribe_greedy", c)))
    for c in CONDITIONS:
        decodes = [sp for sp in spans("model.transcribe_greedy", c) if "max_len" in sp.attrs]
        count(f"harness.runaway.{_name(c)}", sum(sp.attrs["tokens"] >= sp.attrs["max_len"] for sp in decodes),
              len(decodes))
    for c in ("baseline+prompt", "ft", "ft-oracle"):
        found = c in conditions and "wer" in conditions[c].attrs
        out[f"harness.wer.{_name(c)}"] = (conditions[c].attrs["wer"] if found else 0.0, "ratio", int(found))
    for c in ("baseline+prompt", "ft", "ft-oracle"):
        found = c in conditions and "f1" in conditions[c].attrs
        out[f"harness.f1.{_name(c)}"] = (conditions[c].attrs["f1"] if found else 0.0, "ratio", int(found))

    median_ms("cli.transcribe_self_ms", spans("cli.main"), self_time=True)
    median_ms("config.write_resolved_ms", spans("config.write_resolved"))
    return out
