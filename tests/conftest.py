"""Hypothesis profiles of the test suite.

The `thorough` profile is registered here but never loaded, so a plain
pytest run keeps each test's own example count.  Under
`pytest --hypothesis-profile thorough`, each test that takes its count
from `examples` runs ten times as many.
"""

from hypothesis import settings

settings.register_profile("thorough", max_examples=1000)


def examples(n: int) -> int:
    """n under the default profile; the loaded profile's multiple of n,
    relative to the default's max_examples, otherwise."""
    return n * settings().max_examples // settings.get_profile("default").max_examples
