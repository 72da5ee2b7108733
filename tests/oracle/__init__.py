"""Test oracles that live beside the suite, not on the production path.

:mod:`oracle.scan` is the row GMDJ scan the vector scan must match by
``repr``; ``row_scan()`` swaps it in for the production one.
"""

from oracle.scan import accumulate, row_scan

__all__ = ["accumulate", "row_scan"]
