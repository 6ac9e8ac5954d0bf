"""The embedding-gradient scatter used by `autodiff.gather_rows`.

`scatter_add` is looked up as a module attribute at call time, so a
caller can wrap or replace it from outside the package.
"""

import numpy as np


def scatter_add(table, idx, rows):
    """table[idx[i]] += rows[i] for every i, in index order.

    `np.add.at` applies the additions unbuffered and in the order of
    `idx`, so rows sharing an index are summed in a fixed sequence and
    float results are bit-reproducible. A sort- or bincount-based
    segment sum would change that order and with it the checkpoint bytes.
    """
    np.add.at(table, idx, rows)
