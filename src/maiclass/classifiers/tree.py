"""CART-style decision tree on the Gini criterion, grown to purity."""

from __future__ import annotations

import numpy as np

from .. import _core


class DecisionTree:
    """Binary tree with axis-aligned threshold splits.

    Nodes are stored in parallel arrays in preorder (left subtree before
    right). ``feature[i] == -1`` marks a leaf whose prediction is
    ``leaf_class[i]``. A sample goes left when ``x[feature] <= threshold``.
    No depth limit: growth stops when a node is pure or no split separates
    two distinct feature values. Zero-gain splits are still taken when a
    boundary exists, which lets patterns like XOR resolve on a later level.
    """

    def __init__(self):
        self.feature: list = []
        self.threshold: list = []
        self.left: list = []
        self.right: list = []
        self.leaf_class: list = []

    def fit(self, X, y, n_classes, rng=None):
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.leaf_class = []
        # Work stack keeps growth iterative; pushing the right child first
        # makes node ids come out in preorder.
        stack = [(np.arange(X.shape[0]), -1, False)]
        while stack:
            idx, parent, is_left = stack.pop()
            node = self._new_node()
            if parent >= 0:
                if is_left:
                    self.left[parent] = node
                else:
                    self.right[parent] = node
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
            stack.append((idx[~go_left], node, False))
            stack.append((idx[go_left], node, True))
        return self

    def _new_node(self):
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.leaf_class.append(-1)
        return len(self.feature) - 1

    def predict_codes(self, X):
        out = np.empty(X.shape[0], dtype=np.int64)
        for r in range(X.shape[0]):
            node = 0
            while self.feature[node] >= 0:
                if X[r, self.feature[node]] <= self.threshold[node]:
                    node = self.left[node]
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
                stack.append((self.left[node], d + 1))
                stack.append((self.right[node], d + 1))
        return best
