"""RC102 fixture: global RNG anywhere, unseeded Random, seed arithmetic in loops."""

import random


def global_state(items):
    random.shuffle(items)                     # module-level RNG
    return random.random()                    # module-level RNG


def unseeded():
    return random.Random()                    # no explicit seed


def os_entropy():
    return random.SystemRandom()              # never reproducible


def reseeds_per_iteration(fractions, seed):
    results = []
    for k, fraction in enumerate(fractions):
        rng = random.Random(seed + k)         # the PR 2 'seed + 1' bug
        results.append(rng.random() * fraction)
    return results


def derived_outside_loop_is_fine(seed):
    rng = random.Random(seed + 1)
    other = random.Random("scenario:%d" % seed)
    return rng, other


_DECK = list(range(52))
random.shuffle(_DECK)                         # module-level code


class Jittered:
    offset = random.random()                  # class-body code
