"""Training loops: first-order meta-learning and the plain unsupervised baseline.

Meta-training follows the MAML pattern with first-order outer gradients: the
inner loop takes plain gradient steps on each task's support loss, and the
outer step feeds the sum of per-task query gradients (evaluated at the adapted
parameters, no second-order terms) into Adam. Both the inner objective and the
outer accumulation are unnormalized sums over samples and tasks respectively;
the per-sample scale is absorbed by the inner rate and by Adam's
normalization.

The meta step runs tasks in groups of at most TASK_GROUP_SAMPLES samples per
tape pass. A group's tasks share one tape with a leading task axis: each task
keeps its own parameter copy (one slice of per-leaf stacks, weights
(T, i, o) and biases (T, 1, o)), its own SGD steps and its own gradient, and
the query gradients enter the meta gradient in task order. adapt_stack holds
the one SGD loop: the support steps of the meta step, the memoryless
test-time stream (memory.mml_test_loop at capacity 0) and test-time
adaptation (adapt_on_test, on the parameters' own arrays) all run through it.
Every per-task number is computed by the same floating-point operations as a
one-task-at-a-time loop, so the result is bit-identical to it; the group
size only trades tape passes (each with a fixed Python cost) against the
memory of one tape.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import channels, nn, pipeline

# Samples on one tape pass of the meta step: 10 tasks of 40 at the reference
# shape. One such pass took 11.3 ms with a traced peak of 7.0 MiB; a
# reference-shape epoch took 76 ms at 400, 84 ms at 200 and 78 ms at 800,
# with traced peaks of 10.9, 5.9 and 21.0 MiB (2-vCPU x86_64, numpy 2.4.6,
# one BLAS thread).
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


def _loss_and_grad(params, batch, cfg, meta_cfg, reduction, stack=None):
    """One tape pass: loss and per-leaf gradients on a channel batch.

    The leaves are params' own arrays, or the per-leaf arrays of stack (see
    adapt_stack); each gradient is shaped like its leaf. With per-leaf
    stacks of T tasks, batch is (T, B, K, N) and the loss is per task, (T,).
    """
    tape = ad.Tape()
    leaves, flat = nn.leaves_for(tape, params, stack)
    loss, _ = pipeline.reconstruct_and_loss(
        tape,
        leaves,
        batch,
        cfg,
        variant=meta_cfg.loss_variant,
        reduction=reduction,
    )
    total = ad.reduce_sum(loss) if loss.value.ndim else loss
    return loss.value, ad.grad(tape, total, flat)


def adapt_stack(params, stack, batch, cfg, meta_cfg, steps, reduction="sum"):
    """Plain gradient descent from per-leaf parameter arrays.

    Each step is theta <- theta - a * grad of the loss reduced over the batch
    ("sum", the unnormalized inner objective, or "mean"). stack holds either
    one copy of the parameters (arrays shaped like params.arrays()) with batch
    (B, K, N), or per-leaf stacks of T tasks (see nn.stack_params) with batch
    (T, B, K, N): task t then steps on batch[t] alone, by the same
    floating-point operations as a one-task stack. The inputs are never
    mutated. Returns the adapted arrays and the loss of the first step, at
    the input arrays ((T,) per task for a stack; None when steps is 0).
    """
    first = None
    for step in range(steps):
        loss, grads = _loss_and_grad(params, batch, cfg, meta_cfg, reduction, stack)
        if step == 0:
            first = loss
        stack = [nn.sgd_step(a, g, meta_cfg.inner_lr) for a, g in zip(stack, grads)]
        del grads  # not held through the next pass, whose tape sets the peak
    return stack, first


def adapt_on_test(params, batch, cfg, meta_cfg, steps=None, reduction="sum"):
    """Test-time adaptation: adapt_stack on params' own arrays and a (B, K, N)
    batch. steps defaults to meta_cfg.adapt_steps (the deployment-time knob).
    Returns new parameters; the inputs are never mutated.
    """
    steps = meta_cfg.adapt_steps if steps is None else steps
    arrays, _ = adapt_stack(
        params, list(params.arrays()), batch, cfg, meta_cfg, steps, reduction
    )
    return nn.from_arrays(arrays, params)


def outer_update(params, tasks, cfg, meta_cfg, adam_state):
    """One first-order meta step over a list of tasks.

    For each task: adapt on the support set, then take the gradient of the
    summed query loss at the adapted parameters. The accumulated (summed)
    per-task gradients drive one Adam step on the meta parameters. The
    support loss is the one of the first support step, at the meta
    parameters. Tasks run in groups of TASK_GROUP_SAMPLES samples per tape
    pass; all tasks must share their support and query sizes.

    Returns (new_params, new_adam_state, mean_support_loss, mean_query_loss).
    """
    vec = nn.pack(params)
    totals = [np.zeros_like(a) for a in params.arrays()]  # per leaf
    support_losses, query_losses = [], []
    per_task = max(len(tasks[0].support), len(tasks[0].query)) if tasks else 1
    group = max(1, TASK_GROUP_SAMPLES // per_task)
    for lo in range(0, len(tasks), group):
        chunk = tasks[lo : lo + group]
        support = np.stack([task.support for task in chunk])
        query = np.stack([task.query for task in chunk])
        stack = nn.stack_params(params, len(chunk))
        stack, s_loss = adapt_stack(
            params, stack, support, cfg, meta_cfg, meta_cfg.inner_steps
        )
        if s_loss is None:  # no support step, so the support loss needs a pass
            s_loss, _ = _loss_and_grad(params, support, cfg, meta_cfg, "sum", stack)
        support_losses.extend(s_loss / support.shape[1])
        q_loss, grads = _loss_and_grad(params, query, cfg, meta_cfg, "sum", stack)
        for total, g in zip(totals, grads):
            for row in g:
                total += row.reshape(total.shape)
        query_losses.extend(q_loss / query.shape[1])
    total_g = np.concatenate([total.ravel() for total in totals])
    new_vec, adam_state = adam_step_packed(vec, total_g, adam_state, meta_cfg.outer_lr)
    return (
        nn.unpack(new_vec, params),
        adam_state,
        float(np.mean(support_losses)),
        float(np.mean(query_losses)),
    )


def adam_step_packed(vec, g, state, lr):
    if state is None:
        state = nn.AdamState.init(vec.size)
    return nn.adam_step(vec, g, state, lr)


def meta_train(dataset, cfg, meta_cfg, seed=0, init=None, log=None):
    """First-order meta-training over tasks drawn from a fixed dataset.

    Every epoch draws n_tasks tasks (support/query index draws without
    replacement within a task), runs one outer_update per epoch over the full
    task list, and records epoch means in a TrainLog. Deterministic for a
    fixed (dataset, seed, init).
    """
    rng = np.random.default_rng(seed)
    params = init or nn.init_predictor(rng, cfg.n, cfg.k, width=meta_cfg.width)
    log = log if log is not None else TrainLog()
    adam_state = None
    start = time.perf_counter()
    for epoch in range(1, meta_cfg.epochs + 1):
        tasks = [
            channels.task_from_dataset(
                rng, dataset, meta_cfg.n_support, meta_cfg.n_query
            )
            for _ in range(meta_cfg.n_tasks)
        ]
        params, adam_state, s_loss, q_loss = outer_update(
            params, tasks, cfg, meta_cfg, adam_state
        )
        log.epochs.append(epoch)
        log.support_loss.append(s_loss)
        log.query_loss.append(q_loss)
        log.wall_time.append(time.perf_counter() - start)
    return params, log


def unsupervised_train(dataset, cfg, meta_cfg, seed=0, init=None, log=None):
    """Plain Adam minimization of the batch loss, no task structure.

    Shuffles the dataset each epoch and takes one Adam step per minibatch of
    meta_cfg.batch_size samples. Records the epoch-mean minibatch loss.
    """
    rng = np.random.default_rng(seed)
    params = init or nn.init_predictor(rng, cfg.n, cfg.k, width=meta_cfg.width)
    log = log if log is not None else TrainLog()
    vec = nn.pack(params)
    adam_state = None
    start = time.perf_counter()
    size = dataset.shape[0]
    bs = min(meta_cfg.batch_size, size)
    for epoch in range(1, meta_cfg.epochs + 1):
        order = rng.permutation(size)
        losses = []
        for lo in range(0, size - bs + 1, bs):
            batch = dataset[order[lo : lo + bs]]
            current = nn.unpack(vec, params)
            loss, grads = _loss_and_grad(current, batch, cfg, meta_cfg, "mean")
            g = np.concatenate([g.ravel() for g in grads])
            vec, adam_state = adam_step_packed(vec, g, adam_state, meta_cfg.outer_lr)
            losses.append(float(loss))
        log.epochs.append(epoch)
        log.support_loss.append(float(np.mean(losses)))
        log.query_loss.append(float(np.mean(losses)))
        log.wall_time.append(time.perf_counter() - start)
    return nn.unpack(vec, params), log
