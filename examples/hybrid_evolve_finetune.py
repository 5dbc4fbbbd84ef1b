#!/usr/bin/env python
"""Hybrid learning: NEAT explores topology, gradient descent tunes weights.

Section VII ("Future Directions"): "GENESYS can be run in conjunction
with supervised learning, with the former enabling rapid topology
exploration and then using conventional training to tune the weights."

This example does exactly that on a supervised regression task
(approximating a 2-D function):

1. NEAT evolves topology + weights against the regression fitness;
2. the champion's topology is frozen and its weights are fine-tuned by
   backpropagation through the evolved DAG;
3. the tuned genome is re-encoded into 64-bit hardware words, showing the
   round trip back onto the GeneSys datapath.

Usage:  python examples/hybrid_evolve_finetune.py
The evolution stage is the NEAT library loop, `Population.run`, which
takes this example's supervised fitness function directly; for
gym-style workloads, where the environment's reward is the fitness, use
`python -m repro run <env>` / `repro.api.Experiment`.
"""

import math
import random

from repro.analysis.reporting import render_table
from repro.hw import encode_genome, quantize_genome
from repro.neat import NEATConfig, Population
from repro.neat.backprop import DifferentiableNetwork
from repro.neat.network import FeedForwardNetwork


def target_function(a: float, b: float) -> float:
    return math.tanh(0.9 * a - 0.5 * b + 0.3 * a * b)


def make_dataset(n: int = 40, seed: int = 0):
    rng = random.Random(seed)
    return [
        ((a, b), [target_function(a, b)])
        for a, b in ((rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n))
    ]


def mse(network, samples) -> float:
    return sum(
        (network.activate(list(x))[0] - y[0]) ** 2 for x, y in samples
    ) / len(samples)


def main() -> None:
    train = make_dataset(40, seed=0)
    test = make_dataset(20, seed=1)

    config = NEATConfig.for_env(2, 1, pop_size=60)
    config.genome.activation_options = ["tanh"]

    def fitness(genomes, cfg):
        for genome in genomes:
            network = FeedForwardNetwork.create(genome, cfg.genome)
            genome.fitness = -mse(network, train)

    print("[1/3] evolving topology with NEAT (25 generations) ...")
    population = Population(config, seed=2)
    champion = population.run(fitness, max_generations=25)
    evolved_net = FeedForwardNetwork.create(champion, config.genome)
    evolved_mse = mse(evolved_net, test)
    conns, nodes = champion.size()
    print(f"  champion: {conns} connections / {nodes} nodes, "
          f"test MSE {evolved_mse:.4f}")

    print("[2/3] gradient fine-tuning the evolved topology ...")
    trainable = DifferentiableNetwork(champion, config.genome)
    result = trainable.train(train, epochs=300, learning_rate=0.4)
    trainable.write_back()
    tuned_net = FeedForwardNetwork.create(champion, config.genome)
    tuned_mse = mse(tuned_net, test)
    print(f"  train loss {result.initial_loss:.4f} -> {result.final_loss:.4f}")

    print("[3/3] back onto the hardware datapath (64-bit genes, Q4.4) ...")
    quantised = quantize_genome(champion, config.genome)
    quantised_net = FeedForwardNetwork.create(quantised, config.genome)
    quantised_mse = mse(quantised_net, test)
    stream = encode_genome(champion, config.genome)

    print()
    print(render_table(
        ["stage", "test MSE"],
        [
            ["NEAT evolution only", f"{evolved_mse:.4f}"],
            ["+ gradient fine-tuning", f"{tuned_mse:.4f}"],
            ["+ Q4.4 hardware quantisation", f"{quantised_mse:.4f}"],
        ],
        title="Hybrid learning pipeline",
    ))
    print(f"\nfinal genome = {len(stream)} x 64-bit gene words "
          f"({len(stream) * 8} bytes in the genome buffer)")
    if tuned_mse <= evolved_mse:
        print("fine-tuning improved (or matched) the evolved champion.")


if __name__ == "__main__":
    main()
