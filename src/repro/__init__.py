"""GeneSys reproduction: NEAT neuro-evolution with hardware acceleration.

Reproduction of Samajdar et al., "GeneSys: Enabling Continuous Learning
through Neural Network Evolution in Hardware" (MICRO 2018).

Public API tour:

* :mod:`repro.neat` — from-scratch NEAT (genes, genomes, speciation,
  reproduction, feed-forward phenotypes).
* :mod:`repro.envs` — gym-equivalent environments (classic control,
  simplified Box2D, synthetic Atari-RAM kernels).
* :mod:`repro.hw` — cycle/energy models of the EvE evolution engine, the
  ADAM systolic inference engine, the banked genome SRAM and the NoC.
* :mod:`repro.api` — the unified experiment API: :class:`ExperimentSpec`
  (JSON-round-trippable, the whole experiment), three backends
  (``software``, ``soc``, ``analytical:<platform>``) and parallel
  fitness evaluation.
* :mod:`repro.dse` — declarative design-space exploration: JSON sweep
  specs over experiment and hardware axes, incremental content-hash
  caching, Pareto analysis (``python -m repro dse``).
* :mod:`repro.runs` — durable run artifacts: per-generation metrics
  logs, full-state checkpoints, bit-identical resume
  (``repro run --resume``) and artifact-only reporting
  (``repro report``).
* :mod:`repro.core` — the GeneSys SoC walkthrough loop and workload
  traces.
* :mod:`repro.platforms` — analytical CPU/GPU/GENESYS platform models for
  the paper's evaluation sweeps.
* :mod:`repro.baselines` — DQN with exact op accounting (Table II).
* :mod:`repro.analysis` — characterisation harnesses and ASCII reporting.

Quickstart::

    from repro.api import Experiment, ExperimentSpec
    spec = ExperimentSpec("CartPole-v0", backend="soc", max_generations=20)
    result = Experiment(spec).run()
    print(result.best_fitness, result.total_energy_j)
"""

__version__ = "1.2.0"

from . import analysis, api, baselines, core, dse, envs, hw, neat, platforms, runs

__all__ = [
    "__version__",
    "analysis",
    "api",
    "baselines",
    "core",
    "dse",
    "envs",
    "hw",
    "neat",
    "platforms",
    "runs",
]
