"""Input generators. The benchmark makes every input from its seed; the
program only ever sees the generated arrays and files."""

import numpy as np

# The acceptance suite's shell mixture (tests/test_acceptance.py), copied
# so the benchmark does not depend on the test tree. ROADMAP's fixed
# instance is DATA_SEED at 100k x 64 with 1000 held-out queries.
D, LATENT, COMPONENTS = 64, 16, 128
SIGMA_TIGHT, SIGMA_WIDE, WIDE_FRACTION = 0.18, 0.5, 0.5
AMBIENT, WEIGHT_CONCENTRATION = 0.02, 0.5
DATA_SEED = 2024


class ShellMixture:
    """Unit-sphere component means in a latent subspace, mixed tight/wide
    widths, Dirichlet-skewed point weights; held-out queries are spread
    uniformly across components."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        rng = self.rng
        means = rng.standard_normal((COMPONENTS, LATENT))
        self.means = means / np.linalg.norm(means, axis=1, keepdims=True)
        self.widths = np.where(rng.random(COMPONENTS) < WIDE_FRACTION, SIGMA_WIDE, SIGMA_TIGHT)
        self.weights = rng.dirichlet(np.full(COMPONENTS, WEIGHT_CONCENTRATION))
        self.basis, _ = np.linalg.qr(rng.standard_normal((D, LATENT)))

    def sample(self, count: int, skewed: bool, rng=None) -> np.ndarray:
        rng = self.rng if rng is None else rng
        if skewed:
            labels = rng.choice(COMPONENTS, size=count, p=self.weights)
        else:
            labels = rng.integers(0, COMPONENTS, size=count)
        z = self.means[labels] + self.widths[labels, None] * rng.standard_normal((count, LATENT))
        return (z @ self.basis.T + AMBIENT * rng.standard_normal((count, D))).astype(np.float32)


def fixed_shell_instance(n: int, nq: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The shell mixture's data drawn by DATA_SEED, with queries drawn by
    `seed`. Seed DATA_SEED gives exactly the acceptance suite's
    shell_mixture(n, nq, DATA_SEED): at n=100k, ROADMAP's fixed instance
    with its held-out queries. Any other seed draws fresh queries from the
    same mixture. The data stays fixed because posting sizes, and with them the
    per-query scan, vary widely between data seeds."""
    mix = ShellMixture(DATA_SEED)
    X = mix.sample(n, True)
    rng = None if seed == DATA_SEED else np.random.default_rng(seed)
    return X, mix.sample(nq, False, rng)


def gaussian_mixture(n: int, nq: int, d: int, clusters: int, sigma: float, data_seed: int,
                     query_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """`soar synth`'s mixture (uniform means in [-1, 1]^d, isotropic noise)
    drawn by `data_seed`, with queries from the same components drawn by
    `query_seed`."""
    rng = np.random.default_rng(data_seed)
    means = rng.uniform(-1.0, 1.0, size=(clusters, d))

    def draw(count, rng):
        labels = rng.integers(0, clusters, size=count)
        return (means[labels] + sigma * rng.standard_normal((count, d))).astype(np.float32)

    return draw(n, rng), draw(nq, np.random.default_rng([data_seed, query_seed]))
