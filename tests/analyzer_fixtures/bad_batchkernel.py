"""RC111 fixture: per-element Python iteration inside batch kernels."""

from repro.lookup.hotpath import hot_path


@hot_path
def leaky_kernel(ctable, dsts, clue_lens):
    out = []
    for dst in dsts:  # RC111: bare parameter loop
        out.append(dst)
    totals = [length + 1 for length in clue_lens]  # RC111: comprehension
    for index in range(len(dsts)):  # RC111: range(len(param))
        out[index] += 1
    for pair in zip(dsts, clue_lens):  # RC111: zip over parameters
        del pair
    for dst in enumerate(reversed(dsts)):  # RC111: nested wrappers
        del dst
    return out, totals


@hot_path
def clean_kernel(ctable, dsts, width):
    total = 0
    for depth in range(width):  # fine: bounded by the word, not the batch
        total += depth
    for level in ctable.layout.level_shifts:  # fine: attribute, not a batch
        del level
    derived = list(range(3))
    for item in derived:  # fine: a local, not a parameter
        del item
    return total


def undecorated_fallback(ctable, dsts, clue_lens):
    # Fallback kernels are per-element by design and stay undecorated.
    return [dst for dst in dsts]
