"""Adam with bias correction, updating parameter arrays in place.

A step updates only the rows that can change. A row (a slice along the
first axis) is live once its gradient has had a nonzero entry (`g != 0`,
so NaN and inf count, and +-0.0 does not). A row that was never live
has m = v = +0.0 and a zero gradient. Adam's rule then leaves m and v at
+0.0 and moves the row by lr * (0 / c1) / (sqrt(0 / c2) + eps) = +0.0,
and p - 0.0 is p bit for bit, -0.0 included. So skipping such rows gives
the same bytes as updating them whenever lr is finite and >= 0, eps > 0
and both betas lie in [0, 1), which the constructor checks.

While fewer than half of a parameter's rows are live, a step gathers the
live rows, applies the formula to them with the same ops in the same
order, and writes them back. The elementwise ops round each element
alike wherever it sits, so the results are those of the full update.
Once at least half are live, gathering and scattering cost about as much
as the rows they skip, so the parameter drops its mask for good and
every later step updates it whole. A training step gathers an embedding
row only for the nodes in its batch, so the table stays mostly not live
until an epoch has touched half of its nodes.
"""

import numpy as np


class Adam:
    def __init__(self, params, lr=1e-4, betas=(0.9, 0.999), eps=1e-8):
        """params: {name: Tensor}. Entries whose grad is None are skipped."""
        if not (0 <= lr < np.inf and eps > 0 and all(0 <= b < 1 for b in betas)):
            raise ValueError(f"Adam needs finite lr >= 0, eps > 0 and betas in "
                             f"[0, 1), got lr={lr!r}, betas={betas!r}, eps={eps!r}")
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        # which rows have had a nonzero gradient; None once half of them have
        self.live = {k: np.zeros(len(p.data), bool) if p.data.ndim else None
                     for k, p in params.items()}

    def step(self):
        self.t += 1
        c1 = 1.0 - self.b1 ** self.t
        c2 = 1.0 - self.b2 ** self.t
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            live = self.live[k]
            if live is not None:
                live |= np.any(g.reshape(len(g), -1), axis=1)
                if 2 * np.count_nonzero(live) >= live.size:
                    self.live[k] = live = None
            if live is None:
                self._update(p.data, g, self.m[k], self.v[k], c1, c2)
                continue
            rows = np.flatnonzero(live)
            x, m, v = p.data[rows], self.m[k][rows], self.v[k][rows]
            self._update(x, g[rows], m, v, c1, c2)
            p.data[rows], self.m[k][rows], self.v[k][rows] = x, m, v

    def _update(self, p, g, m, v, c1, c2):
        """One Adam step on arrays p, m and v, in place."""
        m *= self.b1
        m += (1.0 - self.b1) * g
        v *= self.b2
        v += (1.0 - self.b2) * (g * g)
        p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None
