"""Fitness evaluation: run genome phenotypes against an environment.

This is the software path of walkthrough steps 1-6 (Section IV-B): map
each genome to a network, read environment state, run inference,
translate output activations to actions, repeat until the episode
completes, convert the cumulative reward into a fitness value attached
to the genome.  One core serves every execution shape:

* **seeds** — a *task* is ``(genome, episode_seeds)``, built by
  :func:`episode_tasks`; every episode seed derives from ``(experiment
  seed, generation, genome key, episode)``, so a task's outcome does not
  depend on where it runs.
* **lanes** — an :class:`Executor` runs tasks on the *scalar* walk
  (:func:`run_episode` over one network per genome) or on compiled
  lockstep *lanes* (:func:`run_episodes_batched` over
  :class:`repro.neat.compiled.StackedPlans`, the tasks' genomes
  compiled in one pass, one lane per (genome, episode) pair, with a
  per-genome scalar fallback for genomes the lanes cannot run).  Both
  compute the same plan for each genome with one arithmetic, so they
  give the same bits; either returns one :data:`Outcome` per task, in
  task order.
* **reduce** — :func:`reduce_outcomes` turns each outcome's rewards into
  the genome's fitness and accumulates :class:`EvaluationTotals`.

:class:`FitnessEvaluator` runs the executor in-process;
:class:`repro.api.ParallelFitnessEvaluator` ships the same executor to
pool workers; :class:`repro.core.GeneSysSoC` runs its lanes on the
genomes decoded from the Genome Buffer, with the tables ADAM's cost
envelope reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..neat.compiled import StackedPlans, compile_network
from ..neat.config import GenomeConfig, NEATConfig
from ..neat.genome import Genome
from ..neat.network import FeedForwardNetwork
from .base import Environment
from .batched import make_batched
from .registry import make
from .seeding import episode_seed
from .spaces import Box, Discrete, MultiBinary

#: The inference strategies an evaluator can run tasks on: the scalar
#: node-by-node walk or compiled numpy lanes.
VECTORIZERS = ("scalar", "numpy")

#: One unit of work: a genome and the seeds of its episodes.
Task = Tuple[Genome, Sequence[int]]
#: One task's result: ``(genome_key, episode rewards, env steps,
#: inference MACs)``.
Outcome = Tuple[int, List[float], int, int]

_NEG_INF = float("-inf")


def action_from_outputs(outputs: Sequence[float], env: Environment):
    """Translate network output activations into an environment action.

    Discrete spaces take the argmax output unit; Box spaces clip the raw
    outputs into the action bounds (step 4: "output activations ... are
    translated as actions").

    Tie-breaking is part of the contract: when several output units share
    the maximum activation, the *lowest-index* unit wins, and a NaN
    activation counts as ``-inf`` (it never wins; an all-NaN head picks
    unit 0).  A single output driving a ``Discrete(n > 2)`` space by
    scaling picks action 0 when it is NaN or infinite, the action an
    all-``-inf`` head picks.  This keeps the scalar, vectorized and
    hardware inference paths action-identical on tied or non-finite
    outputs instead of depending on whichever argmax an evaluation
    backend happens to use.
    """
    space = env.action_space
    if isinstance(space, Discrete):
        if len(outputs) == 1:
            # Single-output binary convention for 2-action spaces.
            if space.n == 2:
                return int(outputs[0] > 0.5 if 0.0 <= outputs[0] <= 1.0 else outputs[0] > 0.0)
            scaled = abs(outputs[0]) * space.n
            return int(scaled) % space.n if math.isfinite(scaled) else 0
        best = 0
        best_value = _NEG_INF
        for i, value in enumerate(outputs[: space.n]):
            # strict: ties keep the lowest index, and NaN never compares
            # greater, so it ranks as -inf
            if value > best_value:
                best, best_value = i, value
        return best
    if isinstance(space, Box):
        arr = np.asarray(outputs[: space.flat_dim], dtype=np.float64)
        if arr.size < space.flat_dim:
            # Zero-fill missing dimensions (clipped into bounds below) so a
            # network with fewer outputs than the action space still emits a
            # full, in-bounds action instead of a silently short one.
            arr = np.pad(arr, (0, space.flat_dim - arr.size))
        return np.clip(arr, space.low.ravel(), space.high.ravel())
    if isinstance(space, MultiBinary):
        return [1 if o > 0.5 else 0 for o in outputs[: space.n]]
    raise TypeError(f"unsupported action space {space!r}")


def actions_from_outputs_batch(outputs: np.ndarray, space) -> np.ndarray:
    """Vectorized :func:`action_from_outputs` over a lane axis.

    ``outputs`` is ``(lanes, num_outputs)``; the result holds one action
    per row with semantics identical to the scalar translator, including
    lowest-index tie-breaking and NaN-as-``-inf`` for Discrete argmax,
    and action 0 for a non-finite single output scaled onto
    ``Discrete(n > 2)``.
    Discrete returns an int array, Box a ``(lanes, flat_dim)`` float
    array, MultiBinary a ``(lanes, n)`` int array.
    """
    outputs = np.asarray(outputs, dtype=np.float64)
    if isinstance(space, Discrete):
        if outputs.shape[1] == 1:
            o = outputs[:, 0]
            if space.n == 2:
                in_unit = (o >= 0.0) & (o <= 1.0)
                return np.where(in_unit, o > 0.5, o > 0.0).astype(np.intp)
            # Mirror the scalar `int(abs(o) * n) % n` in float space:
            # floor matches int() on the non-negative product, and fmod on
            # the (exactly representable) floored value matches Python's
            # integer modulo even where a direct int64 cast would overflow
            # for huge activations.  Non-finite products pick action 0.
            scaled = np.abs(o) * space.n
            scaled = np.where(np.isfinite(scaled), scaled, 0.0)
            return np.fmod(np.floor(scaled), space.n).astype(np.intp)
        # np.argmax returns the first (lowest-index) maximum, matching the
        # scalar tie-break contract; it also returns the first NaN, so
        # NaNs are ranked as -inf first.
        head = outputs[:, : space.n]
        if np.count_nonzero(np.isnan(head)):
            head = np.where(np.isnan(head), -np.inf, head)
        return head.argmax(axis=1)
    if isinstance(space, Box):
        arr = outputs[:, : space.flat_dim]
        if arr.shape[1] < space.flat_dim:
            arr = np.pad(arr, ((0, 0), (0, space.flat_dim - arr.shape[1])))
        return np.clip(arr, space.low.ravel(), space.high.ravel())
    if isinstance(space, MultiBinary):
        return (outputs[:, : space.n] > 0.5).astype(np.intp)
    raise TypeError(f"unsupported action space {space!r}")


@dataclass
class EpisodeResult:
    total_reward: float
    steps: int
    inference_macs: int


@dataclass
class EvaluationTotals:
    """Aggregate inference work done during one population evaluation.

    Feeds the platform models: total forward passes and MAC counts are the
    per-generation inference workload of Fig. 9(a)/(b).
    """

    episodes: int = 0
    steps: int = 0
    macs: int = 0


def run_episode(
    network: FeedForwardNetwork,
    env: Environment,
    max_steps: Optional[int] = None,
) -> EpisodeResult:
    """One rollout of ``network`` in ``env`` (steps 2-5 of the walkthrough)."""
    obs = env.reset()
    network.reset()
    total_reward = 0.0
    steps = 0
    macs_per_pass = network.num_macs
    limit = max_steps if max_steps is not None else env.max_episode_steps
    for _ in range(limit):
        outputs = network.activate(obs.ravel().tolist())
        action = action_from_outputs(outputs, env)
        obs, reward, done, _info = env.step(action)
        total_reward += reward
        steps += 1
        if done:
            break
    return EpisodeResult(total_reward, steps, macs_per_pass * steps)


def run_episodes_batched(
    policy,
    env_batch,
    seeds: Sequence[int],
    max_steps: Optional[int] = None,
    macs_per_pass: Optional[Sequence[int]] = None,
) -> List[EpisodeResult]:
    """Batched :func:`run_episode`: one lane per seed, stepped in lockstep.

    ``policy`` maps a packed observation matrix to a packed output matrix
    (``step(obs) -> outputs``) and is told when lanes finish
    (``prune(keep)``) so it can compact its per-lane state alongside
    ``env_batch``.  Rewards accumulate per live lane in step order, so
    each lane's float arithmetic matches the scalar episode loop
    exactly; a lane's totals are written out when it finishes.
    """
    n = len(seeds)
    obs = env_batch.start(seeds)
    limit = max_steps if max_steps is not None else env_batch.max_episode_steps
    space = env_batch.action_space
    rewards = np.zeros(n)
    steps = np.zeros(n, dtype=np.int64)
    live = np.arange(n)
    live_rewards = np.zeros(n)
    step = 0
    while step < limit and len(live):
        outputs = policy.step(obs)
        actions = actions_from_outputs_batch(outputs, space)
        obs, step_rewards, dones = env_batch.step(actions)
        live_rewards += step_rewards
        step += 1
        if np.count_nonzero(dones):
            done = live[dones]
            rewards[done] = live_rewards[dones]
            steps[done] = step
            keep = ~dones
            live = live[keep]
            live_rewards = live_rewards[keep]
            obs = np.compress(keep, obs, axis=0)
            env_batch.prune(keep)
            policy.prune(keep)
    rewards[live] = live_rewards
    steps[live] = step
    per_pass = macs_per_pass if macs_per_pass is not None else [0] * n
    return [
        EpisodeResult(reward, count, int(macs) * count)
        for reward, count, macs in zip(rewards.tolist(), steps.tolist(), per_pass)
    ]


def episode_tasks(
    genomes: Sequence[Genome], seed: Optional[int], generation: int, episodes: int
) -> List[Task]:
    """Each genome's task: the seeds of its ``episodes`` episodes in
    ``generation`` of the experiment seeded ``seed``.

    The one derivation of the episode stream: the serial, pooled,
    vectorized and soc evaluations all build their tasks here, so they
    replay identical episodes.
    """
    return [
        (genome, [episode_seed(seed, generation, genome.key, e) for e in range(episodes)])
        for genome in genomes
    ]


class Executor:
    """Runs :data:`Task` lists on one environment configuration.

    :meth:`scalar` walks each genome's network through
    :func:`run_episode`, one episode per seed.  :meth:`lanes` compiles
    the genomes in one pass and steps every (genome, episode) pair
    as a lane of one batched environment; genomes the lanes cannot run
    take the scalar walk on the same seeds.  Both return one
    :data:`Outcome` per task, in task order, and agree exactly: they
    compute the same plan with the same arithmetic.

    Environments are built on first use — from ``scenario`` when given,
    so a perturbed scenario's lanes run on the lockstep fallback and its
    scalar walk on the same wrapped env — and kept: every episode
    re-seeds its environment, so reuse carries no state between
    episodes.  Pool workers receive the parent's executor through the
    pool initializer and build their own environments.
    """

    def __init__(
        self, env_id: str, max_steps: Optional[int] = None, scenario=None
    ) -> None:
        self.env_id = env_id
        self.max_steps = max_steps
        #: frozen dataclass — pickles into pool initializers cleanly
        self.scenario = scenario
        self._env: Optional[Environment] = None
        self._env_batch = None

    @property
    def env(self) -> Environment:
        if self._env is None:
            if self.scenario is not None:
                from ..scenarios import build_env  # lazy: avoids a package cycle

                self._env = build_env(self.scenario)
            else:
                self._env = make(self.env_id)
        return self._env

    @property
    def env_batch(self):
        if self._env_batch is None:
            if self.scenario is not None:
                from ..scenarios import build_batched_env

                self._env_batch = build_batched_env(self.scenario)
            else:
                self._env_batch = make_batched(self.env_id)
        return self._env_batch

    def scalar(self, tasks: Sequence[Task], genome_config: GenomeConfig) -> List[Outcome]:
        """Every task's episodes on the scalar walk, genome by genome."""
        env = self.env
        outcomes: List[Outcome] = []
        for genome, seeds in tasks:
            net = FeedForwardNetwork.create(genome, genome_config)
            rewards: List[float] = []
            steps = 0
            macs = 0
            for seed in seeds:
                env.seed(seed)
                result = run_episode(net, env, self.max_steps)
                rewards.append(result.total_reward)
                steps += result.steps
                macs += result.inference_macs
            outcomes.append((genome.key, rewards, steps, macs))
        return outcomes

    def lanes(
        self,
        tasks: Sequence[Task],
        genome_config: GenomeConfig,
        stacked: Optional[StackedPlans] = None,
    ) -> Tuple[List[Outcome], StackedPlans]:
        """Every task's episodes as lockstep lanes of stacked plans.

        ``stacked`` holds the tasks' genomes compiled in one pass, in task
        order, when the caller has it (the pass runs here otherwise).
        Returns the outcomes and the stacked plans; genomes the pass set
        aside (:attr:`StackedPlans.fallback`) ran on the scalar walk.
        """
        if stacked is None:
            with obs.span("compile", genomes=len(tasks)) as sp:
                stacked = StackedPlans(
                    [compile_network(genome, genome_config) for genome, _seeds in tasks],
                    genome_config,
                )
                sp.set(compiled=len(stacked.compiled))

        outcomes: List[Optional[Outcome]] = [None] * len(tasks)
        compiled = stacked.compiled
        if compiled:
            lane_plans: List[int] = []
            lane_seeds: List[int] = []
            lane_macs: List[int] = []
            for slot, i in enumerate(compiled):
                for seed in tasks[i][1]:
                    lane_plans.append(slot)
                    lane_seeds.append(seed)
                    lane_macs.append(stacked.macs[slot])
            with obs.span(
                "rollout", genomes=len(compiled), lanes=len(lane_seeds)
            ):
                episodes = run_episodes_batched(
                    stacked.lane_runner(lane_plans),
                    self.env_batch,
                    lane_seeds,
                    max_steps=self.max_steps,
                    macs_per_pass=lane_macs,
                )
            cursor = 0
            for i in compiled:
                genome, seeds = tasks[i]
                lane_results = episodes[cursor : cursor + len(seeds)]
                cursor += len(seeds)
                outcomes[i] = (
                    genome.key,
                    [r.total_reward for r in lane_results],
                    sum(r.steps for r in lane_results),
                    sum(r.inference_macs for r in lane_results),
                )

        fallback = list(stacked.fallback)
        if fallback:
            with obs.span("fallback", genomes=len(fallback)):
                walked = self.scalar([tasks[i] for i in fallback], genome_config)
            for i, outcome in zip(fallback, walked):
                outcomes[i] = outcome
        return outcomes, stacked


def reduce_outcomes(
    genomes: Sequence[Genome],
    outcomes: Sequence[Outcome],
    totals: EvaluationTotals,
) -> None:
    """Step 6: each genome's fitness is its mean episode reward.

    ``genomes[i]`` receives ``outcomes[i]``'s fitness and the outcomes'
    episodes, steps and MACs accumulate into ``totals``.
    """
    for genome, (key, rewards, steps, macs) in zip(genomes, outcomes):
        if key != genome.key:  # executors keep task order; belt and braces
            raise RuntimeError(
                f"evaluation order mismatch: {key} != {genome.key}"
            )
        genome.fitness = sum(rewards) / len(rewards)
        totals.episodes += len(rewards)
        totals.steps += steps
        totals.macs += macs


class FitnessEvaluator:
    """Callable fitness function for :class:`repro.neat.Population`.

    Evaluates each genome over ``episodes`` rollouts with per-genome
    derived seeds and assigns the mean cumulative reward as fitness
    (step 6: "The reward value is then translated into a fitness value").
    Each workload's fitness is its environment's reward, so the
    environment id (and scenario) names it.

    ``vectorizer`` picks the executor path: ``"scalar"`` walks each
    network node by node, ``"numpy"`` rolls the population out on
    compiled lanes.  Both assign identical fitnesses for a fixed seed.
    """

    def __init__(
        self,
        env_id: str,
        episodes: int = 1,
        max_steps: Optional[int] = None,
        seed: Optional[int] = 0,
        start_generation: int = 0,
        scenario=None,
        vectorizer: str = "scalar",
    ) -> None:
        if vectorizer not in VECTORIZERS:
            raise ValueError(
                f"unknown vectorizer {vectorizer!r}; known: {VECTORIZERS}"
            )
        self.episodes = episodes
        self.seed = seed
        self.vectorizer = vectorizer
        self.executor = Executor(env_id, max_steps=max_steps, scenario=scenario)
        self.totals = EvaluationTotals()
        #: Mean levelised depth of the last generation the numpy lanes
        #: compiled in full — the ``feed_forward_layers`` counts fall out
        #: of the compile pass, so analytical cost models read this
        #: instead of re-levelising every genome (None otherwise).
        self.last_mean_depth: Optional[float] = None
        # Episode seeds derive from the generation index, so a resumed
        # run must restart the counter where the checkpoint left off.
        self._generation = start_generation

    def __call__(self, genomes: List[Genome], config: NEATConfig) -> None:
        tasks = episode_tasks(genomes, self.seed, self._generation, self.episodes)
        if self.vectorizer == "numpy":
            outcomes, stacked = self.executor.lanes(tasks, config.genome)
            self.last_mean_depth = (
                None if stacked.fallback
                else int(stacked.depths.sum()) / len(stacked.depths)
            )
        else:
            outcomes = self.executor.scalar(tasks, config.genome)
        reduce_outcomes(genomes, outcomes, self.totals)
        self._generation += 1

    def close(self) -> None:
        """Release execution resources; in-process there are none."""
