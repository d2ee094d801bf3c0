import random

import pytest

from conftest import dense_gf2_rank
from lcfoliage.gf2 import rank_of_rows


def test_identity_rank():
    rows = [1 << i for i in range(8)]
    assert rank_of_rows(rows) == 8


def test_zero_rank():
    assert rank_of_rows([0, 0, 0]) == 0
    assert rank_of_rows([]) == 0


def test_dependent_triple():
    # third row is the sum of the first two
    assert rank_of_rows([0b011, 0b110, 0b101]) == 2


def test_input_rows_not_mutated():
    rows = [0b011, 0b110, 0b101]
    snapshot = list(rows)
    rank_of_rows(rows)
    assert rows == snapshot


@pytest.mark.parametrize("seed", range(20))
def test_rank_matches_dense_oracle(seed):
    rng = random.Random(seed)
    r = rng.randrange(1, 10)
    c = rng.randrange(1, 10)
    dense = [[rng.randrange(2) for _ in range(c)] for _ in range(r)]
    packed = [sum(bit << j for j, bit in enumerate(row)) for row in dense]
    assert rank_of_rows(packed) == dense_gf2_rank(dense)


@pytest.mark.parametrize("seed", range(10))
def test_rank_equals_transpose_rank(seed):
    rng = random.Random(100 + seed)
    r = rng.randrange(1, 9)
    c = rng.randrange(1, 9)
    rows = tuple(rng.randrange(1 << c) for _ in range(r))
    cols = [sum((row >> j & 1) << i for i, row in enumerate(rows)) for j in range(c)]
    assert rank_of_rows(rows) == rank_of_rows(cols)
