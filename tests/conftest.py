import pytest

from polyxform import ptransform

# One line per acceptance criterion, filled in by tests/test_acceptance.py
# and echoed after the run so the verdicts survive output capturing.
acceptance_lines = []


def fold_coefficients(x, slot, root_index):
    """The boxed reference fold: folded[t] = sum of x[k] over k = t mod d, as Residues."""
    period = slot.periods[root_index]
    sums = [0] * period
    for k, v in enumerate(x):
        sums[k % period] += v
    return [slot.q.residue(v) for v in sums]


def limbs_from_int(value, limb_bits):
    """value as little-endian limbs of limb_bits bits, one limb a step."""
    limbs = []
    mask = (1 << limb_bits) - 1
    while value:
        limbs.append(value & mask)
        value >>= limb_bits
    return tuple(limbs)


def int_from_limbs(limbs, limb_bits):
    """The loop reference for reading limbs back as one integer."""
    value = 0
    for l in reversed(limbs):
        value = (value << limb_bits) | l
    return value


def pack_limbs(limbs, limb_bits, length):
    """The loop reference for pack: 64-bit limbs regrouped through one integer,
    zero-padded to length."""
    out = list(limbs_from_int(int_from_limbs(limbs, 64), limb_bits))
    return out + [0] * (length - len(out))


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(acceptance_lines):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def plan13():
    """Small strict plan: p = 13, for coefficients up to 12."""
    return ptransform.preprocess(p=13)


@pytest.fixture(scope="session")
def plan7():
    """Tiny strict plan: p = 7 (scan extends above p)."""
    return ptransform.preprocess(p=7)
