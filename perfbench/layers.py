"""Which functions the traced run wraps, and the per-layer metrics from them.

The layers are the package's modules.  Span names are ``<layer>.<what>``;
the layer prefix decides where a span's self time is booked.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.loadgen import percentile
from perfbench.spans import Span, Target, self_times

LAYERS = ("data", "core", "nn", "autograd", "optim", "evaluation", "io", "serving")


def _elementwise_bytes(args, out) -> Optional[dict]:
    """Bytes read plus written by a one-input elementwise op, from tensor sizes."""
    if out is None:
        return None
    x = args[1]
    return {"bytes": 0 if out is x else int(x.data.nbytes + out.data.nbytes)}


def _file_bytes(args, path) -> Optional[dict]:
    return None if path is None else {"bytes": int(path.stat().st_size)}


def _rows(args, out) -> dict:
    return {"rows": int(np.atleast_2d(args[1]).shape[0])}


def _batch_users(args, out) -> dict:
    return {"users": [request.user_id for request in args[1]]}


def _step_mode(args, result) -> Optional[dict]:
    return None if result is None else {"mode": result.mode}


TARGETS: Tuple[Target, ...] = (
    Target("repro.data.synthetic", "generate_interactions", "data.generate"),
    Target("repro.data.dataset", "SequenceDataset.__init__", "data.dataset_build"),
    Target("repro.data.batching", "BatchIterator.epoch", "data.batch", generator=True),
    # The dynamic path and the replay path both count as the forward.
    Target("repro.core.model", "Slime4Rec.loss", "core.forward"),
    Target("repro.autograd.graph", "TapeExecutor.step", "core.forward", _step_mode),
    Target("repro.core.encoder", "SequentialEncoderBase.embed", "core.embed"),
    Target("repro.core.filter_mixer", "FilterMixerLayer.forward", "core.mixer"),
    Target("repro.core.filter_mixer", "FilterMixerLayer.mix_spectra", "core.spectral"),
    Target("repro.core.encoder", "PointwiseFeedForward.forward", "core.ffn"),
    Target("repro.core.encoder", "SequentialEncoderBase.prediction_loss", "core.pred_loss"),
    Target("repro.core.model", "info_nce_loss", "core.contrastive"),
    Target("repro.nn.normalization", "LayerNorm.forward", "nn.layer_norm", _elementwise_bytes),
    Target("repro.nn.activation", "GELU.forward", "nn.gelu", _elementwise_bytes),
    Target("repro.nn.dropout", "Dropout.forward", "nn.dropout", _elementwise_bytes),
    Target("repro.nn.linear", "Linear.forward", "nn.linear"),
    Target("repro.autograd.tensor", "Tensor.backward", "autograd.backward"),
    Target("repro.autograd.graph", "StepResult.backward", "autograd.backward"),
    Target("repro.train.trainer", "clip_grad_norm", "optim.clip"),
    Target("repro.optim.adam", "Adam.step", "optim.adam"),
    Target("repro.evaluation.evaluator", "Evaluator.evaluate", "evaluation.pass"),
    Target("repro.core.encoder", "SequentialEncoderBase.predict_scores", "evaluation.score"),
    Target("repro.evaluation.evaluator", "rank_of_target", "evaluation.rank"),
    Target("repro.utils.io", "CheckpointStore.save", "io.ckpt_save", _file_bytes),
    Target("repro.core.encoder", "SequentialEncoderBase.encode_users", "serving.encode", _rows),
    Target("repro.serving.table", "ItemTable.score_block", "serving.score"),
    Target("repro.evaluation.topk", "TopKAccumulator.update", "serving.topk"),
    Target("repro.evaluation.topk", "TopKAccumulator.result", "serving.topk"),
    # The batch pipeline: the span that answered a request, so queue
    # wait is the request's latency minus this span.
    Target("repro.serving.service", "RecommenderService._serve_batch", "serving.pipeline",
           _batch_users),
    Target("repro.serving.service", "RecommenderService.observe", "serving.observe"),
)

#: name -> unit of every per-layer metric, in report order
UNITS: Dict[str, str] = {
    "data.generate_s": "s", "data.dataset_build_s": "s",
    "data.batch_ms": "ms", "data.batches": "count",
    "nn.layer_norm_ms": "ms", "nn.gelu_ms": "ms", "nn.dropout_ms": "ms", "nn.linear_ms": "ms",
    "nn.layer_norm_gbs": "GB/s", "nn.gelu_gbs": "GB/s", "nn.dropout_gbs": "GB/s",
    "core.forward_ms": "ms", "core.embed_ms": "ms", "core.mixer_ms": "ms",
    "core.spectral_ms": "ms", "core.ffn_ms": "ms", "core.pred_loss_ms": "ms",
    "core.contrastive_ms": "ms",
    "autograd.backward_ms": "ms", "autograd.replay_frac": "frac",
    "optim.clip_ms": "ms", "optim.adam_ms": "ms",
    "train.step_ms_p50": "ms", "train.step_ms_p90": "ms",
    "evaluation.pass_s": "s", "evaluation.score_ms": "ms", "evaluation.rank_ms": "ms",
    "io.ckpt_save_ms": "ms", "io.ckpt_mb": "MB",
    "serving.encode_ms": "ms", "serving.encode_rows": "count",
    "serving.score_ms": "ms", "serving.topk_ms": "ms",
    "serving.queue_wait_ms_p50": "ms", "serving.queue_wait_ms_p99": "ms",
    "serving.batch_size_mean": "count", "serving.vec_reuse_frac": "frac",
    "serving.observe_us": "us", "serving.gen_late_ms_p99": "ms", "serving.table_mb": "MB",
    "serving.max_rps": "1/s", "serving.lat_p50_ms_low": "ms",
    "serving.degraded": "count", "serving.sheds": "count",
    "serving.deadline_expired": "count", "serving.model_errors": "count",
    "host.triad_gbs": "GB/s", "host.gemm_ms": "ms",
    "trace.overhead_train_pct": "%", "trace.overhead_serve_pct": "%", "trace.spans": "count",
}
for _layer in LAYERS:
    UNITS[f"{_layer}.self_s"] = "s"
    UNITS[f"{_layer}.calls"] = "count"


class Windows:
    """Half-open time intervals; answers whether an instant falls in one."""

    def __init__(self, intervals: Iterable[Tuple[float, float]]) -> None:
        self.intervals = sorted(intervals)
        self._starts = np.array([a for a, _ in self.intervals])

    def __contains__(self, t: float) -> bool:
        i = int(np.searchsorted(self._starts, t, side="right")) - 1
        return i >= 0 and t < self.intervals[i][1]


def _top_level(spans: Sequence[Span]) -> List[Span]:
    """Spans of one name whose parent is not a span of that name.

    The replay path's ``TapeExecutor.step`` calls ``Slime4Rec.loss`` when
    it captures, and ``StepResult.backward`` calls ``Tensor.backward`` on
    the dynamic path; each pair is one forward or one backward.
    """
    by_id = {s.sid: s for s in spans}
    return [s for s in spans if s.parent not in by_id]


def _total_ms(spans: Sequence[Span]) -> float:
    return 1e3 * sum(s.duration for s in spans)


def _mean_ms(spans: Sequence[Span]) -> float:
    return _total_ms(spans) / len(spans) if spans else 0.0


def _gbs(spans: Sequence[Span]) -> float:
    seconds = sum(s.duration for s in spans)
    moved = sum((s.attrs or {}).get("bytes", 0) for s in spans)
    return moved / seconds / 1e9 if seconds > 0 else 0.0


def _ancestor_names(span: Span, by_id: Dict[int, Span]) -> Iterable[str]:
    parent = by_id.get(span.parent)
    while parent is not None:
        yield parent.name
        parent = by_id.get(parent.parent)


def train_steps(marks: Sequence[Tuple[float, float, bool]]) -> List[Tuple[float, float, bool]]:
    """Steps of a training epoch from its batch clock.

    A step is the interval from one batch's yield to the request for the
    next, i.e. the interval between yields minus the batch build.
    """
    return [(marks[i][1], marks[i + 1][0], marks[i + 1][2]) for i in range(len(marks) - 1)]


def queue_waits(requests: Sequence[Tuple[int, float, float, float]],
                pipelines: Sequence[Span]) -> List[float]:
    """Latency minus the span of the pipeline that answered each request.

    ``requests`` holds ``(user, sent, done, latency_ms)``.  The answering
    pipeline is the last one that served the user and started while the
    request was in flight.
    """
    by_user: Dict[int, List[Span]] = {}
    for span in pipelines:
        for user in (span.attrs or {}).get("users", ()):
            by_user.setdefault(user, []).append(span)
    waits = []
    for user, sent, done, latency_ms in requests:
        served = [s for s in by_user.get(user, ()) if sent <= s.start <= done]
        if served:
            waits.append(latency_ms - 1e3 * served[-1].duration)
    return waits


def layer_metrics(spans: Sequence[Span], marks: Dict[str, list], serve: dict,
                  host: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    ``serve`` carries what only the run knows: the traced serving
    windows, the traced low-rate requests, generator lateness, the
    service's counter deltas, and the untraced/traced p50 pair.
    """
    by_name: Dict[str, List[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    by_id = {s.sid: s for s in spans}

    steps = train_steps(marks.get("data.batch", []))
    traced_steps = [(a, b) for a, b, traced in steps if traced]
    plain_steps = [1e3 * (b - a) for a, b, traced in steps if not traced]
    in_steps = Windows(traced_steps)
    n_steps = max(len(traced_steps), 1)

    def per_step(name: str, top: bool = False) -> float:
        chosen = [s for s in by_name.get(name, ()) if s.start in in_steps]
        return _total_ms(_top_level(chosen) if top else chosen) / n_steps

    def stepped(name: str) -> List[Span]:
        return [s for s in by_name.get(name, ()) if s.start in in_steps]

    serving = Windows(serve.get("windows", ()))

    def served(name: str) -> List[Span]:
        return [s for s in by_name.get(name, ()) if s.start in serving]

    out: Dict[str, float] = {}
    out["data.generate_s"] = sum(s.duration for s in by_name.get("data.generate", ()))
    builds = by_name.get("data.dataset_build", [])
    out["data.dataset_build_s"] = _mean_ms(builds) / 1e3
    batches = [s for s in by_name.get("data.batch", ()) if not s.attrs]
    out["data.batch_ms"] = _mean_ms(batches)
    out["data.batches"] = float(len(steps))

    for op in ("layer_norm", "gelu", "dropout", "linear"):
        out[f"nn.{op}_ms"] = per_step(f"nn.{op}")
    for op in ("layer_norm", "gelu", "dropout"):
        out[f"nn.{op}_gbs"] = _gbs(stepped(f"nn.{op}"))

    out["core.forward_ms"] = per_step("core.forward", top=True)
    for what in ("embed", "mixer", "spectral", "ffn", "pred_loss", "contrastive"):
        out[f"core.{what}_ms"] = per_step(f"core.{what}")
    out["autograd.backward_ms"] = per_step("autograd.backward", top=True)
    replays = [s for s in stepped("core.forward") if (s.attrs or {}).get("mode") == "replay"]
    out["autograd.replay_frac"] = len(replays) / n_steps if traced_steps else 0.0
    out["optim.clip_ms"] = per_step("optim.clip")
    out["optim.adam_ms"] = per_step("optim.adam")
    step_ms = plain_steps or [1e3 * (b - a) for a, b in traced_steps]
    out["train.step_ms_p50"] = percentile(step_ms, 50) if step_ms else 0.0
    out["train.step_ms_p90"] = percentile(step_ms, 90) if step_ms else 0.0

    passes = by_name.get("evaluation.pass", [])
    out["evaluation.pass_s"] = _mean_ms(passes) / 1e3
    scoring = [s for s in by_name.get("evaluation.score", ())
               if "evaluation.pass" in _ancestor_names(s, by_id)]
    out["evaluation.score_ms"] = _mean_ms(scoring)
    out["evaluation.rank_ms"] = _mean_ms(by_name.get("evaluation.rank", []))

    saves = by_name.get("io.ckpt_save", [])
    out["io.ckpt_save_ms"] = _mean_ms(saves)
    out["io.ckpt_mb"] = (
        float(np.mean([(s.attrs or {}).get("bytes", 0) for s in saves])) / 1e6 if saves else 0.0
    )

    pipelines = served("serving.pipeline")
    n_pipe = max(len(pipelines), 1)
    encodes = served("serving.encode")
    out["serving.encode_ms"] = _mean_ms(encodes)
    out["serving.encode_rows"] = float(sum((s.attrs or {}).get("rows", 0) for s in encodes))
    out["serving.score_ms"] = _total_ms(served("serving.score")) / n_pipe
    out["serving.topk_ms"] = _total_ms(served("serving.topk")) / n_pipe
    waits = queue_waits(serve.get("low_requests", ()), pipelines)
    out["serving.queue_wait_ms_p50"] = percentile(waits, 50) if waits else 0.0
    out["serving.queue_wait_ms_p99"] = percentile(waits, 99) if waits else 0.0
    sizes = [len((s.attrs or {}).get("users", ())) for s in pipelines]
    out["serving.batch_size_mean"] = float(np.mean(sizes)) if sizes else 0.0
    reuses, encoded = serve.get("reuses", 0), serve.get("encodes", 0)
    out["serving.vec_reuse_frac"] = reuses / (reuses + encoded) if reuses + encoded else 0.0
    out["serving.observe_us"] = _mean_ms(served("serving.observe")) * 1e3
    late = serve.get("lateness_ms", ())
    out["serving.gen_late_ms_p99"] = percentile(late, 99) if len(late) else 0.0
    out["serving.max_rps"] = serve.get("max_rps", 0.0)
    # Wall-clock latency of the untraced low-rate schedule; the
    # untraced runs gate CPU time instead (WORKLOADS.md, "Steadiness").
    out["serving.lat_p50_ms_low"] = serve.get("p50_pair", (0.0, 0.0))[0]
    stats = serve.get("stats", {})
    out["serving.table_mb"] = stats.get("table_nbytes", 0) / 1e6
    for counter in ("degraded", "sheds", "deadline_expired", "model_errors"):
        out[f"serving.{counter}"] = float(stats.get(counter, 0))

    out.update(host)
    traced_ms = [1e3 * (b - a) for a, b in traced_steps]
    out["trace.overhead_train_pct"] = (
        100.0 * (np.median(traced_ms) / np.median(plain_steps) - 1.0)
        if traced_ms and plain_steps else 0.0
    )
    p50_plain, p50_traced = serve.get("p50_pair", (0.0, 0.0))
    out["trace.overhead_serve_pct"] = (
        100.0 * (p50_traced / p50_plain - 1.0) if p50_plain else 0.0
    )
    out["trace.spans"] = float(len(spans))

    selfs = self_times(spans)
    for layer in LAYERS:
        mine = [s for s in spans if s.name.split(".", 1)[0] == layer]
        out[f"{layer}.self_s"] = sum(selfs[s.sid] for s in mine)
        out[f"{layer}.calls"] = float(len(mine))
    return {name: float(out[name]) for name in UNITS}
