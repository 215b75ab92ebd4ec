"""Training loops: first-order meta-learning and the plain unsupervised baseline.

Meta-training follows the MAML pattern with first-order outer gradients: the
inner loop takes plain gradient steps on each task's support loss, and the
outer step feeds the sum of per-task query gradients (evaluated at the adapted
parameters, no second-order terms) into Adam. Both the inner objective and the
outer accumulation are unnormalized sums over samples and tasks respectively;
the per-sample scale is absorbed by the inner rate and by Adam's
normalization.

One task and many differ only by a leading task axis: a meta-epoch is two row
stacks, support (T, n_s, K, N) and query (T, n_q, K, N), and T tasks'
parameters are stacks (T, i, o) and (T, 1, o) of the weights and the (1, o)
bias rows (nn.stack_params). The meta step slices groups of at most
TASK_GROUP_SAMPLES samples per tape pass from them; each task keeps its own
parameter slice, SGD steps and gradient, and adds its packed query gradient
into the one flat meta gradient in task order. Every loop passes its
parameters as one nn.PredictorParams, whose leaves are the meta parameters'
own arrays, per-task stacks or views of Adam's packed vector. adapt_stack
holds the one SGD loop: the support steps of the meta step and both test-time
steps of memory.mml_test_loop (a run of memoryless slots, a slice of the
stream, as one stack, and adapt_on_test on a slot with its memory, on the
parameters' own arrays) all run through it. Each loop featurizes a batch
once (pipeline.features) for all passes on it. Every per-task number is
computed by the same floating-point operations as a one-task-at-a-time loop,
so the result is bit-identical to it; the group size only trades tape passes
(each with a fixed Python cost) against the memory of one tape.

No loop writes into an array its caller passed in (parameters, stacks,
batches, streams). The steps overwrite only arrays the loop itself made:
each SGD step writes the stepped parameters into the gradient arrays of the
pass that produced them (nn.sgd_step), so a group's starting stacks can be
read-only views of the meta parameters (nn.stack_params); Adam advances the
loop's own AdamState in place and returns a fresh packed vector
(nn.adam_step), whose views (nn.leaf_views) serve unsupervised_train's
next pass. A caller's AdamState passed to outer_update is advanced in place.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import channels, nn, pipeline

# Samples on one tape pass of the meta step: 10 tasks of 40 at the reference
# shape. One such pass took 7.5 ms (6.8-8.3 ms) with a traced peak of
# 4.0 MiB; a reference-shape epoch took 61 ms at 400 (60-65 ms), 69 ms at
# 200 (67-72 ms) and 57 ms at 800 (51-62 ms), with traced peaks of 7.9, 4.4
# and 15.1 MiB, so 800 doubles the memory for a gain inside the spread
# (medians and ranges of three runs; 2-vCPU x86_64, numpy 2.4.6, one BLAS
# thread).
TASK_GROUP_SAMPLES = 400


@dataclass
class MetaConfig:
    """Knobs of the training loops.

    inner_lr (a): plain-SGD rate of the inner/support steps.
    outer_lr (b): Adam rate of the meta update.
    n_support/n_query: samples per task split; n_tasks: tasks per epoch.
    inner_steps: support steps during meta-training; adapt_steps: steps used
    when adapting to a test batch. batch_size only affects unsupervised_train.
    """

    inner_lr: float = 0.01
    outer_lr: float = 0.001
    n_support: int = 40
    n_query: int = 40
    n_tasks: int = 40
    inner_steps: int = 1
    adapt_steps: int = 5
    epochs: int = 200
    width: int = nn.DEFAULT_WIDTH
    batch_size: int = 40
    loss_variant: str = "corrected"


@dataclass
class TrainLog:
    """Per-epoch scalars recorded by the training loops."""

    epochs: list = field(default_factory=list)
    support_loss: list = field(default_factory=list)  # at the meta parameters
    query_loss: list = field(default_factory=list)  # at the adapted parameters
    wall_time: list = field(default_factory=list)


def _loss_and_grad(params, batch, features, cfg, meta_cfg, reduction):
    """One tape pass: loss and per-leaf gradients on a batch and its features.

    params' leaves become the tape's leaves (nn.leaves_for), and the
    gradients are a list in params.leaves order, each shaped like its leaf.
    With per-leaf stacks of T tasks (nn.stack_params), batch is (T, B, K, N)
    and the loss is per task, (T,); each task's gradient is that of its own
    loss.
    """
    tape = ad.Tape()
    leaves = nn.leaves_for(tape, params)
    loss, _ = pipeline.reconstruct_and_loss(
        tape,
        leaves,
        batch,
        features,
        cfg,
        variant=meta_cfg.loss_variant,
        reduction=reduction,
    )
    return loss.value, ad.grad(tape, loss, leaves.leaves)


def adapt_stack(params, batch, cfg, meta_cfg, steps):
    """Plain gradient descent from params, a PredictorParams.

    Each step is theta <- theta - a * grad of the loss summed over the batch
    (the unnormalized inner objective). params' leaves are either one copy
    of the parameters with batch (B, K, N), or per-leaf stacks of T tasks
    (see nn.stack_params) with batch (T, B, K, N): task t then steps on
    batch[t] alone, by the same floating-point operations as a one-task
    stack. The inputs are never written: each step writes its result into
    the gradients of its own pass. Returns the adapted PredictorParams
    (params itself when steps is 0) and the loss of the first step, at
    params ((T,) per task for a stack; None when steps is 0). The batch is
    featurized only if a step runs.
    """
    first = None
    features = pipeline.features(batch, cfg) if steps else None
    for step in range(steps):
        loss, grads = _loss_and_grad(params, batch, features, cfg, meta_cfg, "sum")
        if step == 0:
            first = loss
        params = nn.PredictorParams(
            [nn.sgd_step(a, g, meta_cfg.inner_lr) for a, g in zip(params.leaves, grads)],
            params.sizes)
        del grads  # not held through the next pass, whose tape sets the peak
    return params, first


def adapt_on_test(params, batch, cfg, meta_cfg):
    """Test-time adaptation: meta_cfg.adapt_steps steps of adapt_stack on
    params' own arrays and a (B, K, N) batch. Returns new parameters; the
    inputs are never mutated.
    """
    adapted, _ = adapt_stack(params, batch, cfg, meta_cfg, meta_cfg.adapt_steps)
    return nn.from_arrays(adapted.leaves, params.sizes)


def outer_update(params, support, query, cfg, meta_cfg, adam_state):
    """One first-order meta step over T tasks given as two row stacks,
    support (T, n_s, K, N) and query (T, n_q, K, N); task t is row t of each.

    For each task: adapt on its support rows, then take the gradient of the
    summed query loss at the adapted parameters. Packed, these gradients are
    summed in task order into one flat vector that drives one Adam step (from
    a fresh AdamState when adam_state is None) on the meta parameters. The
    support loss is the one of the first support step, at the meta
    parameters. Groups of at most TASK_GROUP_SAMPLES samples per tape pass
    are sliced from the stacks, which are never written.

    Returns (new_params, new_adam_state, mean_support_loss, mean_query_loss).
    """
    vec = nn.pack(params)
    total_g = np.zeros_like(vec)
    support_losses, query_losses = [], []
    group = max(1, TASK_GROUP_SAMPLES // max(support.shape[1], query.shape[1]))
    for lo in range(0, len(support), group):
        s_rows, q_rows = support[lo : lo + group], query[lo : lo + group]
        stack, s_loss = adapt_stack(nn.stack_params(params, len(s_rows)), s_rows, cfg,
                                    meta_cfg, meta_cfg.inner_steps)
        if s_loss is None:  # no support step, so the support loss needs a pass
            s_loss, _ = _loss_and_grad(stack, s_rows, pipeline.features(s_rows, cfg),
                                       cfg, meta_cfg, "sum")
        support_losses.extend(s_loss / s_rows.shape[1])
        q_loss, grads = _loss_and_grad(stack, q_rows, pipeline.features(q_rows, cfg), cfg,
                                       meta_cfg, "sum")
        for t in range(len(s_rows)):  # task order, one packed vector per task
            total_g += np.concatenate([g[t].ravel() for g in grads])
        query_losses.extend(q_loss / q_rows.shape[1])
    adam_state = adam_state or nn.AdamState.init(vec.size)
    new_vec, adam_state = nn.adam_step(vec, total_g, adam_state, meta_cfg.outer_lr)
    return (
        nn.unpack(new_vec, params.sizes),
        adam_state,
        float(np.mean(support_losses)),
        float(np.mean(query_losses)),
    )


def meta_train(dataset, cfg, meta_cfg, seed, init):
    """First-order meta-training over tasks drawn from a fixed dataset.

    From the caller's initial parameters init, every epoch stacks n_tasks
    draws of channels.task_from_dataset into (n_tasks, n_s + n_q) rows,
    gathers its two row stacks, support and query, from dataset once, runs
    one outer_update on them, and records epoch means in a TrainLog.
    Deterministic for fixed (dataset, seed, init).
    """
    rng = np.random.default_rng(seed)
    params, log = init, TrainLog()
    adam_state, n_s = None, meta_cfg.n_support
    start = time.perf_counter()
    for epoch in range(1, meta_cfg.epochs + 1):
        rows = np.stack([channels.task_from_dataset(rng, dataset, n_s, meta_cfg.n_query)
                         for _ in range(meta_cfg.n_tasks)])
        support, query = dataset[rows[:, :n_s]], dataset[rows[:, n_s:]]
        params, adam_state, s_loss, q_loss = outer_update(params, support, query, cfg,
                                                          meta_cfg, adam_state)
        log.epochs.append(epoch)
        log.support_loss.append(s_loss)
        log.query_loss.append(q_loss)
        log.wall_time.append(time.perf_counter() - start)
    return params, log


def unsupervised_train(dataset, cfg, meta_cfg, seed, init):
    """Plain Adam minimization of the batch loss, no task structure.

    From the caller's initial parameters init, shuffles the dataset each
    epoch and takes one Adam step per minibatch of meta_cfg.batch_size
    samples. Records the epoch-mean minibatch loss.
    """
    rng = np.random.default_rng(seed)
    log, vec = TrainLog(), nn.pack(init)
    adam_state = nn.AdamState.init(vec.size)
    start = time.perf_counter()
    size = dataset.shape[0]
    bs = min(meta_cfg.batch_size, size)
    features = pipeline.features(dataset, cfg)
    for epoch in range(1, meta_cfg.epochs + 1):
        order = rng.permutation(size)
        losses = []
        for lo in range(0, size - bs + 1, bs):
            rows = order[lo : lo + bs]
            views = nn.leaf_views(vec, init.sizes)  # adam_step never writes vec
            loss, grads = _loss_and_grad(views, dataset[rows], features[rows], cfg, meta_cfg,
                                         "mean")
            g = np.concatenate([g.ravel() for g in grads])
            vec, adam_state = nn.adam_step(vec, g, adam_state, meta_cfg.outer_lr)
            losses.append(float(loss))
        log.epochs.append(epoch)
        log.support_loss.append(float(np.mean(losses)))
        log.query_loss.append(float(np.mean(losses)))
        log.wall_time.append(time.perf_counter() - start)
    return nn.unpack(vec, init.sizes), log
