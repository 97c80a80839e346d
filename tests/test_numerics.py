import random
from fractions import Fraction

from pragrate.numerics import neumaier_sum


def test_sum_is_correctly_rounded():
    rng = random.Random(20250117)
    for _ in range(2000):
        values = [
            rng.choice((-1.0, 1.0)) * rng.random() * 2.0 ** rng.randint(-60, 60)
            for _ in range(rng.randint(2, 6))
        ]
        if rng.random() < 0.3:  # near-total cancellation
            values[-1] = -sum(values[:-1])
        assert neumaier_sum(values) == float(sum(Fraction(v) for v in values))


def test_accepts_a_generator():
    assert neumaier_sum(x / 10 for x in range(1, 11)) == 5.5
