"""Explicit-atom measures the tests build by hand."""

from fractions import Fraction

from rigidlab.measure import AtomicMeasure


def dirac(position=0) -> AtomicMeasure:
    return AtomicMeasure([(Fraction(position), Fraction(1))])


def uniform_atoms(positions) -> AtomicMeasure:
    n = len(positions)
    return AtomicMeasure([(Fraction(x), Fraction(1, n)) for x in positions])


def total_weight(m: AtomicMeasure) -> Fraction:
    return Fraction(sum(m.counts), m.denominator)
