"""Set matching and the three-channel sigmoid contrastive loss.

Ground-truth moments are matched one-to-one to query slots by minimizing
the negated product of the sigmoids of the three cosine-similarity
matrices. The assignment is discrete and computed off-tape; gradients flow
through the similarities, the temporal table, and the loss scales.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.special import expit

from . import tensor as tt
from .datagen import (UNIT_NORM_TOL, ConceptVocabulary, MomentSample, VideoRecord,
                      sample_interval)
from .errors import CapacityError, ContractError, NumericError
from .model import MomentPrediction, MomentSetModel
from .tensor import Tensor


@dataclass
class GroundTruthSet:
    lang: Tensor       # [B x] M x C, unit rows (concept vectors)
    te_start: Tensor   # [B x] M x d, unit rows
    te_end: Tensor     # [B x] M x d, unit rows


def _check_unit_rows(data: np.ndarray, what: str):
    norms = np.linalg.norm(data, axis=-1)
    # written so that a NaN norm fails it too
    if not np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL):
        raise ContractError(f"{what}: rows not unit-norm (max dev "
                            f"{np.max(np.abs(norms - 1.0)):.2e})")


def _swap_last(t: Tensor) -> Tensor:
    n = t.data.ndim
    return tt.transpose(t, (*range(n - 2), n - 1, n - 2))


def similarity_matrices(pred: MomentPrediction, gt: GroundTruthSet):
    """Three [B x] N x M cosine matrices: (visual, lang), (start, start),
    (end, end); one (batched) matmul each."""
    for t, what in ((pred.visual, "pred.visual"), (pred.te_start, "pred.te_start"),
                    (pred.te_end, "pred.te_end"), (gt.lang, "gt.lang"),
                    (gt.te_start, "gt.te_start"), (gt.te_end, "gt.te_end")):
        _check_unit_rows(t.data, what)
    return (
        tt.matmul(pred.visual, _swap_last(gt.lang)),
        tt.matmul(pred.te_start, _swap_last(gt.te_start)),
        tt.matmul(pred.te_end, _swap_last(gt.te_end)),
    )


def build_cost(sims) -> np.ndarray:
    """cost[..., i, j] = -sigmoid(s1) * sigmoid(s2) * sigmoid(s3), entry-wise.

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
        raise NumericError("assignment cost has a non-finite entry")
    _, assignment = linear_sum_assignment(cost.T)
    return assignment


def _pair_masks(assignments, n: int, m: int):
    """B x N x M masks of the matched pairs and of the real pairs: chunk b's
    first ``len(assignments[b])`` columns; the rest are padding."""
    matched = np.zeros((len(assignments), n, m), dtype=bool)
    real = np.zeros_like(matched)
    for b, assignment in enumerate(assignments):
        matched[b, assignment, np.arange(len(assignment))] = True
        real[b, :, :len(assignment)] = True
    return matched, real


def sigmoid_contrastive_loss(sims, assignments, log_t: Tensor, b: Tensor) -> Tensor:
    """SigLIP-style pairwise BCE summed over the three channels.

    ``sims`` are B x N x Mmax and ``assignments`` one index array per chunk,
    whose length M_b marks the chunk's real columns; ``log_t`` is the log
    temperature and ``b`` the bias. Matched pairs get label +1, everything
    else -1. Per chunk and channel the loss is the mean over the chunk's
    N*M_b pairs of -log(sigmoid(z * (t*s + b))); chunks are averaged. It is
    computed as one weighted sum over all three channels, with weight
    1 / (B * N * M_b) on real pairs and 0 on padding.
    """
    matched, real = _pair_masks(assignments, *sims[0].data.shape[-2:])
    z = np.where(matched, 1.0, -1.0)
    weight = real / (-len(assignments) * real.sum(axis=(1, 2), keepdims=True))
    # the channels stack along the first axis: everything below is entry-wise
    logits = tt.exp(log_t) * tt.cat(sims) + b
    log_p = tt.log(tt.sigmoid(Tensor(np.concatenate([z] * 3)) * logits))
    return tt.tsum(log_p * Tensor(np.concatenate([weight] * 3)))


def batch_ground_truth(model: MomentSetModel, vocab: ConceptVocabulary,
                       chunks: list[VideoRecord],
                       samples: list[list[MomentSample]]) -> GroundTruthSet:
    """B x Mmax ground truth for chunks with at least one sample each.

    A chunk with fewer samples is padded with copies of its first one, a
    valid unit row whose similarities are those of a real column; the loss
    gives padded columns weight 0. The start and end TEs of all chunks come
    from one table interpolation, each chunk at its own duration, and one
    normalisation.
    """
    m = max(len(s) for s in samples)
    padded = [s + s[:1] * (m - len(s)) for s in samples]
    times = np.array([[[x.start for x in s] for s in padded],
                      [[x.end for x in s] for s in padded]])
    te = tt.l2_normalize(model.temporal.embed_timestamps(
        times, np.array([[c.duration] for c in chunks])))
    shape = te.data.shape[1:]
    return GroundTruthSet(Tensor(vocab.vectors[[[x.concept_id for x in s] for s in padded]]),
                          tt.reshape(tt.narrow(te, 0, 0, 1), shape),
                          tt.reshape(tt.narrow(te, 0, 1, 1), shape))


def chunk_ground_truth(model: MomentSetModel, vocab: ConceptVocabulary,
                       chunk: VideoRecord,
                       samples: list[MomentSample]) -> GroundTruthSet:
    """Embed sampled intervals and look up concept vectors for one chunk
    (M x ...): the only row of a batch of one."""
    gt = batch_ground_truth(model, vocab, [chunk], [samples])
    return GroundTruthSet(*(tt.reshape(t, t.data.shape[1:])
                            for t in (gt.lang, gt.te_start, gt.te_end)))


def sample_chunk_intervals(chunk: VideoRecord,
                           rng: np.random.Generator) -> list[MomentSample]:
    return [sample_interval(chunk.narrations, j, chunk.duration, rng)
            for j in range(len(chunk.narrations))]


def batch_loss(model: MomentSetModel, vocab: ConceptVocabulary,
               chunks: list[VideoRecord], samples: list[list[MomentSample]],
               assignments: list[np.ndarray] | None = None):
    """Forward, match and loss for a batch: the mean of the chunk losses.

    One stacked forward, ground truth and similarity block for the whole
    batch; only the assignment runs per chunk, on its unpadded N x M_b
    slice. Pass fixed ``assignments`` to evaluate the loss as a smooth
    function of the parameters (used by gradient checks).
    """
    pred = model.forward_chunks([c.features for c in chunks])
    sims = similarity_matrices(pred, batch_ground_truth(model, vocab, chunks, samples))
    if assignments is None:
        cost = build_cost(sims)
        assignments = [hungarian(cost[b, :, :len(s)]) for b, s in enumerate(samples)]
    loss = sigmoid_contrastive_loss(sims, assignments, model.params["loss.log_t"],
                                    model.params["loss.b"])
    return loss, sims, assignments


@dataclass
class StepStats:
    loss: float
    matched_sim_mean: float
    unmatched_sim_mean: float
    temperature: float
    bias: float


def _sim_means(sims, assignments):
    """Mean over chunks of each chunk's mean matched and mean unmatched
    similarity over the three channels; 0.0 for a chunk with no unmatched
    pair."""
    s = np.stack([x.data for x in sims])  # 3 x B x N x Mmax
    matched, real = _pair_masks(assignments, *s.shape[-2:])

    def chunk_means(mask):
        total = np.where(mask, s, 0.0).sum(axis=(0, 2, 3))
        count = 3 * mask.sum(axis=(1, 2))
        return np.divide(total, count, out=np.zeros_like(total), where=count > 0)

    return (float(chunk_means(matched).mean()),
            float(chunk_means(real & ~matched).mean()))


def train_step(model: MomentSetModel, vocab: ConceptVocabulary,
               chunks: list[VideoRecord], samples: list[list[MomentSample]],
               optimizer) -> StepStats:
    """One optimizer step on a batch of chunks and their interval samples
    (``batch_loss``); ``samples[b]`` is chunk b's, at least one each. The
    caller picks the chunks and draws the samples (cli.cmd_train). The
    forward and backward run inside one ``tt.recording()`` block, so a step
    that fails leaves no tape behind.

    The previous step's gradients are dropped before the forward, so a step
    never holds two gradient sets: its peak is the parameters, the moments,
    and the larger of the forward's activations and backward's gradients.
    This step's gradients stay on the parameters until the next step.
    """
    optimizer.zero_grad()
    with tt.recording():
        loss, sims, assignments = batch_loss(model, vocab, chunks, samples)
        matched, unmatched = _sim_means(sims, assignments)
        tt.backward(loss)
    optimizer.step()
    return StepStats(
        loss=loss.item(),
        matched_sim_mean=matched,
        unmatched_sim_mean=unmatched,
        temperature=float(np.exp(model.params["loss.log_t"].data)),
        bias=float(model.params["loss.b"].data),
    )
