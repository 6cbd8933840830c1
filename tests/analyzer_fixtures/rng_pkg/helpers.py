"""Helpers the engine reaches — each RNG sin one frame removed."""

import random
from random import Random


def step(seed):
    jitter()
    return fork(seed)


def fork(seed):
    """No loop in sight *here* — the engine's round loop makes this
    the cross-function form of the PR 2 regression."""
    return Random(seed + 1).random()


def jitter():
    return random.random()


def waived_draw():
    # repro: noqa[RC102] -- diagnostic draw outside the certified path
    return random.random()


def unreached_draw():
    """Tainted but unreachable from any engine — stays silent."""
    return random.random()
