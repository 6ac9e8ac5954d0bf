"""The embedding-gradient scatter used by `autodiff.embed_window`.

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
    The additions run as one 1-D `np.add.at` over flat element indices,
    row-major, so each element still receives its rows in `idx` order;
    that needs `table` C-contiguous, since a flattened copy would take
    the writes.
    """
    if not table.flags.c_contiguous:
        raise ValueError("scatter_add needs a C-contiguous table")
    d = table.shape[1]
    flat = (idx[:, None] * d + np.arange(d)).ravel()
    np.add.at(table.reshape(-1), flat, rows.reshape(-1))
