"""CART-style decision tree on the Gini criterion, grown to purity."""

from __future__ import annotations

import numpy as np

from .. import _core


class DecisionTree:
    """Binary tree with axis-aligned threshold splits.

    Nodes are stored in parallel arrays in preorder (left subtree before
    right), so a split node's left child is node ``i + 1`` and its right
    child ``right[i]``. ``feature[i] == -1`` marks a leaf whose prediction
    is ``leaf_class[i]``. A sample goes left when ``x[feature] <= threshold``.
    No depth limit: growth stops when a node is pure or no split separates
    two distinct feature values. Zero-gain splits are still taken when a
    boundary exists, which lets patterns like XOR resolve on a later level.
    """

    def fit(self, X, y, n_classes, rng=None):
        self.feature = []
        self.threshold = []
        self.right = []
        self.leaf_class = []
        # Work stack keeps growth iterative; pushing the right child first
        # makes node ids come out in preorder. An entry's parent awaits its
        # ``right``; it is -1 for the root and for a left child.
        stack = [(np.arange(X.shape[0]), -1)]
        while stack:
            idx, parent = stack.pop()
            node = len(self.feature)
            if parent >= 0:
                self.right[parent] = node
            self.feature.append(-1)
            self.threshold.append(0.0)
            self.right.append(-1)
            self.leaf_class.append(-1)
            counts = np.bincount(y[idx], minlength=n_classes)
            majority = int(np.argmax(counts))
            if counts[majority] == idx.shape[0]:
                self.leaf_class[node] = majority
                continue
            feat, thr, found = _core.best_split(X[idx], y[idx], n_classes)
            if not found:
                self.leaf_class[node] = majority
                continue
            go_left = X[idx, feat] <= thr
            self.feature[node] = int(feat)
            self.threshold[node] = float(thr)
            stack.append((idx[~go_left], node))
            stack.append((idx[go_left], -1))
        return self

    def predict_codes(self, X):
        out = np.empty(X.shape[0], dtype=np.int64)
        for r in range(X.shape[0]):
            node = 0
            while self.feature[node] >= 0:
                if X[r, self.feature[node]] <= self.threshold[node]:
                    node += 1
                else:
                    node = self.right[node]
            out[r] = self.leaf_class[node]
        return out

    @property
    def n_nodes(self):
        return len(self.feature)

    @property
    def depth(self):
        # Iterative to stay safe on degenerate chains.
        best = 0
        stack = [(0, 0)] if self.feature else []
        while stack:
            node, d = stack.pop()
            best = max(best, d)
            if self.feature[node] >= 0:
                stack.append((node + 1, d + 1))
                stack.append((self.right[node], d + 1))
        return best
