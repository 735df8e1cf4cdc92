import random

import pytest

from mscr import CodeParams, FieldSpec, SourceBlock, encode, generate
from mscr.codec import node_contents
from mscr.linalg import Matrix
from mscr.params import solve_dual_constants


@pytest.fixture(scope="session")
def gf256():
    return FieldSpec(8)


@pytest.fixture(scope="session")
def params63(gf256):
    return generate(3, gf256, seed=7)


@pytest.fixture(scope="session")
def params_k4(gf256):
    return generate(4, gf256, seed=11)


@pytest.fixture(scope="session")
def params_k5(gf256):
    return generate(5, gf256, seed=13)


def make_params(cs, v, d: int, e: int) -> CodeParams:
    """Params from Cauchy generators, V and delta=d, epsilon=e (seed 0)."""
    field = cs.spec
    delta, epsilon = field.element(d), field.element(e)
    delta_prime, epsilon_prime = solve_dual_constants(delta, epsilon)
    return CodeParams(k=cs.k, field=field, cauchy=cs, v=v, delta=delta, epsilon=epsilon,
                      delta_prime=delta_prime, epsilon_prime=epsilon_prime, seed=0)


def random_block(params, rng: random.Random) -> SourceBlock:
    k, order = params.k, params.field.order
    return SourceBlock(Matrix(params.field,
                              [[rng.randrange(order) for _ in range(k)]
                               for _ in range(k)]))


def ground_truth(params, rng: random.Random):
    """A random block, its parity, and all 2k node contents keyed by id."""
    block = random_block(params, rng)
    parity = encode(block, params)
    by_id = {c.node_id: c for c in node_contents(block, parity, params)}
    return block, parity, by_id
