"""Finite-field transform laboratory.

A CRT- and root-adjunction-based DFT pipeline over finite fields, the
number theory that supports it, and a transform-backed big-integer
multiplier, with every stage cross-checked against independent
brute-force oracles.
"""

__version__ = "0.1.0"
