"""In-memory span tracer for kgalign's module-level functions.

The tracer replaces functions in the namespace their caller looks them up
in (`pipeline.evaluate`, `evaluation.infer_batch`,
`embedding.relation_stats`, ...) with wrappers that record one span per
call.  Nothing under `src/` changes; `close()` puts the originals back.

A span is `[id, parent id, name, layer, start, end, pass, attrs]`.  The
name is the lookup name, the layer the module that defines the function,
and attrs hold counts taken from the call's arguments or result.  A
span's self time is its duration minus the durations of its direct
children, so the self times of all spans in a pass plus the time outside
any span add up to the pass's wall time.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

from kgalign import (alignment, embedding, evaluation, grounding, kg,
                     pipeline, synth)

ID, PARENT, NAME, LAYER, START, END, PASS, ATTRS = range(8)

# layers a pass can enter; synth runs only in set-up
LAYERS = ("kg", "grounding", "embedding", "alignment", "evaluation",
          "pipeline")


def _ground_attrs(args, result, before):
    corpus, _stats = result
    return {"tokens": sum(len(doc) for doc in corpus.documents)}


def _state_before(args):
    state = args[0]
    return state.iteration, len(state.ent_pairs)


def _state_delta(args, result, before):
    iterations, n_pairs = before
    return {"iterations": result.iteration - iterations,
            "proposed": [list(p) for p in result.ent_pairs[n_pairs:]]}


def _saved_bytes(args, result, before):
    return {"bytes": os.path.getsize(args[1])}


def _queries(args, result, before):
    return {"queries": len(args[0])}


class Tracer:
    """Wraps the package's functions while open; keeps spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_label = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # A function that is not wrapped counts toward its caller's span and
        # layer.  These are the calls that cross modules and take measurable
        # time, plus the steps each per-layer metric names.
        targets = [
            (synth, "generate_benchmark", None, None),
            (pipeline, "run_ablation_grid", None, None),
            (pipeline, "run_pipeline", None, None),
            (pipeline, "evaluate", None, _queries),
            (kg, "load_kg", None, None),
            (kg, "build_graph_structure", None, None),
            (grounding, "build_index", None, None),
            (grounding, "ground_corpus", None, _ground_attrs),
            (grounding, "write_grounded", None, None),
            (embedding, "relation_stats", None, None),
            (embedding, "train", None, None),
            (embedding, "encode_corpus", None, None),
            (embedding, "_pair_array", None, None),
            (embedding, "_kg_batch", None, None),
            (embedding, "kg_loss", None, None),
            (embedding, "text_loss", None, None),
            (embedding, "_gcn_forward_cached", None, None),
            (embedding, "_gcn_backward", None, None),
            (embedding, "write_embeddings", None, None),
            (embedding.AMSGrad, "step", None, None),
            (alignment, "read_embeddings", None, None),
            (alignment, "load_seed_pairs", None, None),
            (alignment, "self_learn", _state_before, _state_delta),
            (alignment, "solve_once", _state_before, _state_delta),
            (alignment, "procrustes_solve", None, None),
            (alignment, "propose_pairs", None, None),
            (alignment, "_score_matrix", None, None),
            (alignment, "save_state", None, _saved_bytes),
            (alignment, "load_state", None, None),
            (evaluation, "evaluate", None, _queries),
            (evaluation, "infer_batch", None, None),
        ]
        for owner, attr, on_call, on_return in targets:
            self._patch(owner, attr, on_call, on_return)

    def _patch(self, owner, attr, on_call, on_return):
        original = getattr(owner, attr)
        owner_name = getattr(owner, "__name__", "").rsplit(".", 1)[-1]
        if isinstance(owner, type):
            owner_name = f"{owner.__module__.rsplit('.', 1)[-1]}.{owner_name}"
        name = f"{owner_name}.{attr}"
        layer = original.__module__.rsplit(".", 1)[-1]
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            before = on_call(args) if on_call is not None else None
            span = [len(spans), stack[-1] if stack else None, name, layer,
                    0.0, 0.0, self.pass_label, None]
            spans.append(span)
            stack.append(span[ID])
            span[START] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if on_return is not None:
                span[ATTRS] = on_return(args, result, before)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def close(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span, indexed like `spans` (ids must be dense)."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT] - spans[0][ID]] -= s[END] - s[START]
    return out


def pass_metrics(spans: list[list], wall_s: float, gold: set) -> dict:
    """Per-layer metrics of one pass from its spans (ids dense, in order)."""
    own = self_times(spans)

    def total(*names):
        return sum(s[END] - s[START] for s in spans if s[NAME] in names)

    def own_total(*names):
        return sum(t for s, t in zip(spans, own) if s[NAME] in names)

    def count(*names):
        return sum(1 for s in spans if s[NAME] in names)

    def attr_sum(key, *names):
        return sum(s[ATTRS][key] for s in spans
                   if s[NAME] in names and s[ATTRS] is not None)

    proposed = [tuple(p) for s in spans
                if s[NAME] in ("alignment.self_learn", "alignment.solve_once")
                for p in s[ATTRS]["proposed"]]
    correct = sum(1 for p in proposed if p in gold)
    train_s = total("embedding.train")
    kg_steps = count("embedding.kg_loss")
    text_steps = count("embedding.text_loss")
    roots = sum(s[END] - s[START] for s in spans if s[PARENT] is None)

    m = {
        "kg.load_s": total("kg.load_kg"),
        "kg.graph_s": total("kg.build_graph_structure",
                            "embedding.relation_stats"),
        "grounding.index_s": total("grounding.build_index"),
        "grounding.ground_s": total("grounding.ground_corpus",
                                    "grounding.write_grounded"),
        "grounding.tokens": attr_sum("tokens", "grounding.ground_corpus"),
        "embedding.train_s": train_s,
        "embedding.train_calls": count("embedding.train"),
        "embedding.encode_s": total("embedding.encode_corpus",
                                    "embedding._pair_array"),
        "embedding.sample_s": total("embedding._kg_batch"),
        "embedding.kg_loss_s": own_total("embedding.kg_loss"),
        "embedding.text_loss_s": own_total("embedding.text_loss"),
        "embedding.gcn_s": total("embedding._gcn_forward_cached",
                                 "embedding._gcn_backward"),
        "embedding.amsgrad_s": total("embedding.AMSGrad.step"),
        "embedding.kg_steps": kg_steps,
        "embedding.text_steps": text_steps,
        "embedding.steps_per_s": ((kg_steps + text_steps) / train_s
                                  if train_s > 0 else 0.0),
        "embedding.write_s": total("embedding.write_embeddings"),
        "embedding.read_s": total("alignment.read_embeddings"),
        "alignment.self_learn_s": total("alignment.self_learn",
                                        "alignment.solve_once"),
        "alignment.procrustes_s": total("alignment.procrustes_solve"),
        "alignment.propose_s": own_total("alignment.propose_pairs"),
        "alignment.csls_s": total("alignment._score_matrix"),
        "alignment.iterations": attr_sum("iterations", "alignment.self_learn",
                                         "alignment.solve_once"),
        "alignment.proposed_pairs": len(proposed),
        "alignment.proposal_precision": (correct / len(proposed)
                                         if proposed else 0.0),
        "alignment.save_s": total("alignment.save_state"),
        "alignment.load_s": total("alignment.load_state"),
        "alignment.state_bytes": attr_sum("bytes", "alignment.save_state"),
        "evaluation.evaluate_s": total("pipeline.evaluate",
                                       "evaluation.evaluate"),
        "evaluation.infer_s": total("evaluation.infer_batch"),
        "evaluation.queries": attr_sum("queries", "pipeline.evaluate",
                                       "evaluation.evaluate"),
        "pipeline.runs": count("pipeline.run_pipeline"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, own)
                                   if s[LAYER] == layer)
    m["trace.outside_s"] = wall_s - roots
    m["trace.wall_s"] = wall_s
    return m


def median_metrics(per_pass: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in per_pass)
            for k in per_pass[0]}
