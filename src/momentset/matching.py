"""Set matching and the three-channel sigmoid contrastive loss.

Ground-truth moments are matched one-to-one to query slots by minimizing
the negated product of the sigmoids of the three cosine-similarity
matrices. The assignment is discrete and computed off-tape; gradients flow
through the similarities, the temporal table, and the loss scales.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.special import expit

from . import tensor as tt
from .datagen import ConceptVocabulary, MomentSample, VideoRecord, sample_interval
from .errors import CapacityError, ContractError, DomainError
from .model import MomentPrediction, MomentSetModel
from .tensor import Tensor

log = logging.getLogger(__name__)


@dataclass
class GroundTruthSet:
    lang: Tensor       # M x C, unit rows (concept vectors)
    te_start: Tensor   # M x d, unit rows
    te_end: Tensor     # M x d, unit rows


@dataclass
class LossScales:
    log_t: Tensor   # learnable, temperature stored as log
    b: Tensor       # learnable bias


def _check_unit_rows(data: np.ndarray, what: str):
    norms = np.linalg.norm(data, axis=-1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise ContractError(f"{what}: rows not unit-norm (max dev "
                            f"{np.max(np.abs(norms - 1.0)):.2e})")


def similarity_matrices(pred: MomentPrediction, gt: GroundTruthSet):
    """Three N x M cosine matrices: (visual, lang), (start, start), (end, end)."""
    for t, what in ((pred.visual, "pred.visual"), (pred.te_start, "pred.te_start"),
                    (pred.te_end, "pred.te_end"), (gt.lang, "gt.lang"),
                    (gt.te_start, "gt.te_start"), (gt.te_end, "gt.te_end")):
        _check_unit_rows(t.data, what)
    return (
        tt.matmul(pred.visual, tt.transpose(gt.lang)),
        tt.matmul(pred.te_start, tt.transpose(gt.te_start)),
        tt.matmul(pred.te_end, tt.transpose(gt.te_end)),
    )


def build_cost(sims) -> np.ndarray:
    """cost[i, j] = -sigmoid(s1) * sigmoid(s2) * sigmoid(s3), entry-wise.

    Raw cosines through plain sigmoids; no temperature here.
    """
    arrays = [s.data if isinstance(s, Tensor) else np.asarray(s) for s in sims]
    return -(expit(arrays[0]) * expit(arrays[1]) * expit(arrays[2]))


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost injective assignment of gt columns to query rows."""
    n, m = cost.shape
    if n < m:
        raise CapacityError(f"{m} ground-truth moments but only {n} queries")
    if not np.all(np.isfinite(cost)):
        raise DomainError("assignment cost has a non-finite entry")
    _, assignment = linear_sum_assignment(cost.T)
    return assignment


def sigmoid_contrastive_loss(sims, assignment: np.ndarray,
                             scales: LossScales) -> Tensor:
    """SigLIP-style pairwise BCE summed over the three channels.

    Matched pairs get label +1, everything else -1; per channel the loss is
    the mean over all N*M pairs of -log(sigmoid(z * (t*s + b))).
    """
    n, m = sims[0].data.shape
    z = -np.ones((n, m))
    z[assignment, np.arange(m)] = 1.0
    z_t = Tensor(z)
    t = tt.exp(scales.log_t)
    total = None
    for s in sims:
        logits = t * s + scales.b
        channel = tt.neg(tt.tmean(tt.log(tt.sigmoid(z_t * logits))))
        total = channel if total is None else total + channel
    return total


def chunk_ground_truth(model: MomentSetModel, vocab: ConceptVocabulary,
                       chunk: VideoRecord,
                       samples: list[MomentSample]) -> GroundTruthSet:
    """Embed sampled intervals and look up concept vectors for one chunk."""
    lang = Tensor(vocab.vectors[[s.concept_id for s in samples]])
    starts = tt.l2_normalize(model.temporal.embed_timestamps(
        [s.start for s in samples], chunk.duration))
    ends = tt.l2_normalize(model.temporal.embed_timestamps(
        [s.end for s in samples], chunk.duration))
    return GroundTruthSet(lang, starts, ends)


def sample_chunk_intervals(chunk: VideoRecord,
                           rng: np.random.Generator) -> list[MomentSample]:
    return [sample_interval(chunk.narrations, j, chunk.duration, rng)
            for j in range(len(chunk.narrations))]


def chunk_loss(model: MomentSetModel, vocab: ConceptVocabulary,
               chunk: VideoRecord, samples: list[MomentSample],
               assignment: np.ndarray | None = None,
               pred: MomentPrediction | None = None):
    """Forward + match + loss for one chunk.

    Pass a fixed ``assignment`` to evaluate the loss as a smooth function of
    the parameters (used by gradient checks), and the chunk's ``pred`` when
    its forward already ran (as part of a stacked batch).
    """
    if pred is None:
        pred = model.forward(chunk.features)
    gt = chunk_ground_truth(model, vocab, chunk, samples)
    sims = similarity_matrices(pred, gt)
    if assignment is None:
        assignment = hungarian(build_cost(sims))
    scales = LossScales(model.params["loss.log_t"], model.params["loss.b"])
    loss = sigmoid_contrastive_loss(sims, assignment, scales)
    return loss, sims, assignment


@dataclass
class StepStats:
    loss: float
    matched_sim_mean: float
    unmatched_sim_mean: float
    temperature: float
    bias: float


def _sim_means(sims, assignment):
    matched, unmatched = [], []
    m = len(assignment)
    cols = np.arange(m)
    for s in sims:
        mask = np.zeros(s.data.shape, dtype=bool)
        mask[assignment, cols] = True
        matched.append(s.data[mask])
        unmatched.append(s.data[~mask])
    matched = np.concatenate(matched)
    unmatched = np.concatenate(unmatched)
    u_mean = float(unmatched.mean()) if unmatched.size else 0.0
    return float(matched.mean()), u_mean


def train_step(model: MomentSetModel, vocab: ConceptVocabulary,
               chunks: list[VideoRecord], optimizer,
               rng: np.random.Generator,
               fixed_samples: dict[str, list[MomentSample]] | None = None
               ) -> StepStats:
    """One optimizer step on a batch of chunks (mean of per-chunk losses).

    The chunks' forwards run as one stacked pass (``forward_chunks``);
    interval samples are drawn in chunk order before it. The tape is
    cleared on every exit, a failed step included.
    """
    used, samples = [], []
    for chunk in chunks:
        if not chunk.narrations:
            log.warning("chunk %s has no narrations, skipped", chunk.video_id)
            continue
        used.append(chunk)
        samples.append(fixed_samples[chunk.video_id] if fixed_samples is not None
                       else sample_chunk_intervals(chunk, rng))
    if not used:
        raise CapacityError("batch contained no chunk with narrations")
    try:
        preds = model.forward_chunks([c.features for c in used])
        total = None
        matched_all, unmatched_all = [], []
        for chunk, chunk_samples, pred in zip(used, samples, preds):
            loss, sims, assignment = chunk_loss(
                model, vocab, chunk, chunk_samples, pred=pred)
            mm, um = _sim_means(sims, assignment)
            matched_all.append(mm)
            unmatched_all.append(um)
            total = loss if total is None else total + loss
        mean_loss = tt.scale(total, 1.0 / len(used))
        optimizer.zero_grad()
        tt.backward(mean_loss)
        optimizer.step()
    finally:
        tt.clear_tape()
    return StepStats(
        loss=mean_loss.item(),
        matched_sim_mean=float(np.mean(matched_all)),
        unmatched_sim_mean=float(np.mean(unmatched_all)),
        temperature=float(np.exp(model.params["loss.log_t"].data)),
        bias=float(model.params["loss.b"].data),
    )
