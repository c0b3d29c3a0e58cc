"""Span recording around eeg2vol's public layer functions.

A traced run replaces each layer function, at every name its callers look it
up, with a wrapper that records a span (name, start, end, parent span, sample
id) and restores the originals on exit. Nothing under src/ is edited: the
program runs unchanged, only the attribute lookups go through the wrappers.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import time


class SpanRecorder:
    """In-memory span and counter store for one traced run.

    Spans are [name, start, end, parent index, sample id] lists. `sample`
    is set by the workload loop (train job or volume index) and stamped on
    every span opened while it holds.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = collections.Counter()
        self.shapes = collections.defaultdict(set)
        self.sample = None
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        rec = [name, self.clock(), None, self._open[-1] if self._open else None, self.sample]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = self.clock()
            self._open.pop()

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for i, (name, start, end, parent, sample) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": parent, "sample": sample}) + "\n")


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Per span: its duration minus the part its child spans cover."""
    children = collections.defaultdict(list)
    for name, start, end, parent, _sample in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [
        (end - start) - covered_length(children[i], start, end)
        for i, (_name, start, end, _parent, _sample) in enumerate(spans)
    ]


def layer_metrics(recorder):
    """`<span>_s` busy time, `<span>_self_s` where the span has children,
    `<span>_calls`, plus every counter, all summed over the run."""
    busy = collections.defaultdict(float)
    own = collections.defaultdict(float)
    calls = collections.Counter()
    parents = set()
    for (name, start, end, parent, _), self_s in zip(recorder.spans, self_times(recorder.spans)):
        busy[name] += end - start
        own[name] += self_s
        calls[name] += 1
        if parent is not None:
            parents.add(recorder.spans[parent][0])
    out = {}
    for name in busy:
        out[f"{name}_s"] = busy[name]
        out[f"{name}_calls"] = calls[name]
        if name in parents:
            out[f"{name}_self_s"] = own[name]
    out.update(recorder.counts)
    return out


class Tracer:
    """Context manager that installs span wrappers and restores the originals.

    targets: (owner, attribute, span name or callable(args) -> name, hook)
    with hook(recorder, args, result) or None, run after the span closes.
    """

    def __init__(self, recorder, targets):
        self.recorder = recorder
        self.targets = targets
        self._saved = []

    def _wrap(self, fn, name, hook):
        recorder = self.recorder

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if isinstance(name, str) else name(args)
            result = recorder.call(span, fn, *args, **kwargs)
            if hook is not None:
                hook(recorder, args, result)
            return result

        return traced

    def __enter__(self):
        try:
            for owner, attr, name, hook in self.targets:
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, hook))
                else:
                    wrapped = self._wrap(raw, name, hook)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
        except BaseException:
            self.__exit__()
            raise
        return self.recorder

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        return False


# ---------------------------------------------------------------------------
# eeg2vol layer boundaries
# ---------------------------------------------------------------------------

def _tape_size(recorder, args, _result):
    tape = args[0]
    recorder.counts["autodiff.tape_nodes"] += len(tape.nodes)
    recorder.counts["autodiff.tape_bytes"] += sum(node[0].data.nbytes for node in tape.nodes)


def _scan_shape(recorder, args, _result):
    recorder.shapes["autodiff.linear_scan"].add(tuple(args[0].shape))


def _file_read(recorder, args, _result):
    recorder.counts["s2vt.read_bytes"] += os.path.getsize(args[0])


def _file_written(recorder, args, _result):
    recorder.counts["s2vt.write_bytes"] += os.path.getsize(args[0])
    recorder.counts["s2vt.files_written"] += 1


def _pairs_built(recorder, _args, result):
    recorder.counts["dsp.pairs"] += len(result)


def _counter(name):
    def hook(recorder, _args, _result):
        recorder.counts[name] += 1

    return hook


def _vss_stage(args):
    # block prefixes read "dec.<stage>.block<j>"
    return "decoder." + args[0].prefix.split(".")[1]


def eeg2vol_targets():
    """Every layer boundary the benchmark traces, at each lookup site."""
    from eeg2vol import autodiff, decoder, dsp, encoder, losses, model, optim, s2vt, train

    return [
        (autodiff.Tape, "backward", "autodiff.backward", _tape_size),
        (autodiff, "linear_scan", "autodiff.linear_scan", _scan_shape),
        (autodiff, "conv2d", "autodiff.conv2d", None),
        (encoder.Encoder, "encode", "encoder.encode", None),
        (encoder.Encoder, "project", "encoder.project", None),
        (encoder.Encoder, "local_block", "encoder.local_block", None),
        (encoder.Encoder, "global_block", "encoder.global_block", None),
        (encoder.Encoder, "freq_downsample", "encoder.freq_downsample", None),
        (decoder.Decoder, "decode", "decoder.decode", None),
        (decoder.VssBlock, "forward", _vss_stage, None),
        (decoder, "s6_scan", "decoder.s6_scan", None),
        (decoder, "scan_expand", "decoder.scan_expand", None),
        (decoder, "scan_merge", "decoder.scan_merge", None),
        (losses, "hybrid_loss", "losses.hybrid_loss", None),
        (train, "hybrid_loss", "losses.hybrid_loss", None),
        (losses, "ssim", "losses.ssim", None),
        (train, "ssim", "losses.ssim", None),
        (optim.AdamW, "step", "optim.step", _counter("optim.steps")),
        (model.Model, "forward", "model.forward", None),
        (model.Model, "predict", "model.predict", None),
        (model.Model, "save", "model.save", _counter("model.saves")),
        (model.Model, "from_checkpoint", "model.from_checkpoint", None),
        (s2vt, "read_tensor", "s2vt.read", _file_read),
        (s2vt, "write_tensor", "s2vt.write", _file_written),
        (dsp, "build_pairs", "dsp.build_pairs", _pairs_built),
        (dsp, "stft", "dsp.stft", None),
        (dsp, "dct_downsample", "dsp.dct_downsample", None),
        (train, "train_run", "train.train_run", None),
        (train, "load_pairs", "train.load_pairs", None),
        (train, "evaluate_samples", "train.evaluate_samples", None),
    ]
