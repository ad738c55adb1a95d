"""Exact combinatorics of the valley-hopping action on permutations.

The package verifies, by direct enumeration at small n, a family of results
tied to one group action: orbit descent polynomials of the form
t^k (1+t)^(n-1-2k), invariance of stack sorting and of the vincular patterns
(2-31) and (13-2), the extension to linear extensions of sign-graded posets,
and tree statistics (veh, veh') with their Eulerian and Euler-Mahonian
partners.
"""

# harness first: compiling the largest module while the heap is smallest lowers the import's memory peak
from . import harness

__version__ = "0.1.0"
