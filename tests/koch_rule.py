"""The Koch edge replacement run by run: a reference the tests hold
koch_directions against.

The order-(k+1) snowflake is the order-k one with every edge stretched
threefold and then every straight run of length L replaced by four runs of
length L/3, the middle two bumping outward by 60 degrees. koch_directions
applies a unit-step substitution instead; the tests check that one round
of this replacement takes its order-k steps to its order-(k+1) steps.
"""


def scale_directions(dirs: list[int], factor: int = 3) -> list[int]:
    """The same polygon with every edge stretched by an integer factor."""
    out: list[int] = []
    for d in dirs:
        out += [d] * factor
    return out


def replace_runs(dirs: list[int]) -> list[int]:
    """One outward Koch replacement applied to every maximal straight run.
    Run lengths must be divisible by 3."""
    out: list[int] = []
    i = 0
    while i < len(dirs):
        j = i
        while j < len(dirs) and dirs[j] == dirs[i]:
            j += 1
        length = j - i
        if length % 3:
            raise ValueError(f"run of length {length} is not divisible by 3")
        d, third = dirs[i], length // 3
        out += [d] * third + [(d + 5) % 6] * third + [(d + 1) % 6] * third + [d] * third
        i = j
    return out
