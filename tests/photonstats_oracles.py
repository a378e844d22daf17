"""Nested loops of the per-port photon-number weights, kept as a test oracle.

This is the sum that ``mfqcka.photonstats`` once evaluated directly: for
every split of m photons between the two users of a port, the binomial
survival of each user's photons times the click probability of the
survivors, roughly O(n_max^5) per channel.  The package now evaluates
the same weights from their generating-function closed form; the tests
compare the two.
"""

import math


def threshold_click_prob(f: int, g: int, p_d: float) -> float:
    """Probability that exactly one detector clicks after interfering f and g photons.

    Photon bunching on the balanced splitter sends all f+g photons out of
    one side with probability (f+g)! / (2^(f+g) f! g!) per side; dark
    counts fill in the vacuum case.
    """
    if f < 0 or g < 0:
        raise ValueError("photon numbers must be nonnegative")
    n = f + g
    if n == 0:
        return 2.0 * p_d * (1.0 - p_d)
    return 2.0 * (1.0 - p_d) * math.comb(n, f) / float(2**n)


def pair_yield(l: int, r: int, eta_t: float, p_d: float) -> float:
    """Successful-click probability when the two users emit l and r photons.

    Binomial survival through the lossy arms followed by the interference
    click probability of the survivors.
    """
    if l < 0 or r < 0:
        raise ValueError("photon numbers must be nonnegative")
    total = 0.0
    for f in range(l + 1):
        wf = math.comb(l, f) * eta_t**f * (1.0 - eta_t) ** (l - f)
        for g in range(r + 1):
            wg = math.comb(r, g) * eta_t**g * (1.0 - eta_t) ** (r - g)
            total += wf * wg * threshold_click_prob(f, g, p_d)
    return total


def port_weight_sequence(eta_t: float, p_d: float, n_max: int) -> tuple[float, ...]:
    """w[m] = sum_l Y(l, m-l) / (l! (m-l)!), the per-port photon-number weight."""
    seq = []
    for m in range(n_max + 1):
        acc = 0.0
        for l in range(m + 1):
            acc += pair_yield(l, m - l, eta_t, p_d) / (
                float(math.factorial(l)) * float(math.factorial(m - l))
            )
        seq.append(acc)
    return tuple(seq)
