"""Depth-capped CART over the 16 rank-encoded features.

Deliberately minimal and fully deterministic: greedy Gini splits with
midpoint thresholds, "value <= threshold goes left", ties broken by
lowest feature index then lowest threshold, majority-label ties by
lowest label. Split quality is compared in exact integer arithmetic so
no float noise can flip a tie across platforms. Training and evaluation
use the same records (no held-out split), matching the small-sample
protocol this feeds.

The two functions that build a ``Fraction`` import ``fractions``
themselves, so importing this module, and applying a stored tree
(``demgranulo classify``), loads only ``json``, ``math`` and
``collections.abc`` of the standard library.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence

from ._base import FeatureRecord, Record


class TreeNode(Record):
    _fields = ("feature", "threshold", "left", "right", "label", "counts")

    def __init__(self, feature: int | None = None, threshold: float | None = None,
                 left: TreeNode | None = None, right: TreeNode | None = None,
                 label: str | None = None, counts: dict | None = None):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.label = label
        self.counts = counts

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class DecisionTree(Record):
    _fields = ("root", "max_depth", "classes")

    def __init__(self, root: TreeNode, max_depth: int, classes: tuple[str, ...]):
        self.root = root
        self.max_depth = max_depth
        self.classes = classes

    def depth(self) -> int:
        def walk(node, d):
            if node.is_leaf:
                return d
            return max(walk(node.left, d + 1), walk(node.right, d + 1))
        return walk(self.root, 0)


def _majority(counts: dict) -> str:
    # tie -> lowest label
    return min(counts, key=lambda lab: (-counts[lab], lab))


def _split_cost(left: dict, right: dict) -> tuple[int, int, int]:
    """Exact integer surrogate for the weighted child Gini.

    With n_l + n_r = n, weighted Gini is
    (n_l/n)(1 - sum(c/n_l)^2) + (n_r/n)(1 - sum(c/n_r)^2)
    = [ (n_l^2 - sum c_l^2) n_r + (n_r^2 - sum c_r^2) n_l ] / (n n_l n_r);
    the bracketed numerator with fixed n ranks splits identically.
    """
    n_l = sum(left.values())
    n_r = sum(right.values())
    sq_l = sum(c * c for c in left.values())
    sq_r = sum(c * c for c in right.values())
    return (n_l * n_l - sq_l) * n_r + (n_r * n_r - sq_r) * n_l, n_l, n_r


def _best_split(xs, labels, indices, n_features):
    """Best (feature, threshold) by Gini, None when nothing improves."""
    from fractions import Fraction
    total: dict[str, int] = {}
    for i in indices:
        total[labels[i]] = total.get(labels[i], 0) + 1
    n = len(indices)
    sq_t = sum(c * c for c in total.values())
    # improving means J * n < (n^2 - sum c^2) * n_l * n_r, both sides integers
    best = None
    for f in range(n_features):
        ordered = sorted(indices, key=lambda i: xs[i][f])
        left: dict[str, int] = {}
        right = dict(total)
        for pos in range(n - 1):
            i = ordered[pos]
            lab = labels[i]
            left[lab] = left.get(lab, 0) + 1
            right[lab] -= 1
            if right[lab] == 0:
                del right[lab]
            v, v_next = xs[i][f], xs[ordered[pos + 1]][f]
            if v == v_next:
                continue
            cost, n_l, n_r = _split_cost(left, right)
            if cost * n >= (n * n - sq_t) * n_l * n_r:
                continue  # no strict impurity decrease
            threshold = (v + v_next) / 2.0
            cand = (Fraction(cost, n_l * n_r), f, threshold)
            if best is None or cand < best:
                best = cand
    if best is None:
        return None
    return best[1], best[2]


def train_cart(records: Sequence[FeatureRecord], max_depth: int) -> DecisionTree:
    """Grow a depth-capped tree over labeled feature records.

    Splitting stops at the depth cap, at pure nodes, and when no split
    strictly lowers the weighted Gini impurity. ``max_depth`` 0 yields
    the single majority leaf (the baseline classifier).
    """
    records = list(records)
    if not records:
        raise ValueError("cannot train on an empty dataset")
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    xs = [tuple(float(v) for v in r.x) for r in records]
    labels = []
    for r in records:
        if r.label is None:
            raise ValueError(f"record {r.watershed_id!r} has no label")
        labels.append(r.label)
    n_features = len(xs[0])
    classes = tuple(sorted(set(labels)))

    def grow(indices, depth):
        counts: dict[str, int] = {}
        for i in indices:
            counts[labels[i]] = counts.get(labels[i], 0) + 1
        if depth >= max_depth or len(counts) == 1:
            return TreeNode(label=_majority(counts), counts=counts)
        split = _best_split(xs, labels, indices, n_features)
        if split is None:
            return TreeNode(label=_majority(counts), counts=counts)
        f, thr = split
        left_idx = [i for i in indices if xs[i][f] <= thr]
        right_idx = [i for i in indices if xs[i][f] > thr]
        return TreeNode(feature=f, threshold=thr, counts=counts,
                        left=grow(left_idx, depth + 1),
                        right=grow(right_idx, depth + 1))

    return DecisionTree(grow(list(range(len(records))), 0), max_depth, classes)


def predict(tree: DecisionTree, record) -> str:
    """Label for one record (FeatureRecord or bare feature sequence)."""
    x = record.x if isinstance(record, FeatureRecord) else record
    node = tree.root
    while not node.is_leaf:
        # exact threshold goes left, by convention
        node = node.left if float(x[node.feature]) <= node.threshold else node.right
    return node.label


def training_accuracy(tree: DecisionTree, records: Sequence[FeatureRecord]) -> Fraction:
    """Exact fraction of records the tree labels correctly."""
    from fractions import Fraction
    records = list(records)
    if not records:
        raise ValueError("no records to score")
    hits = sum(1 for r in records if predict(tree, r) == r.label)
    return Fraction(hits, len(records))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def tree_to_json(tree: DecisionTree) -> str:
    nodes = []

    def emit(node):
        idx = len(nodes)
        nodes.append(None)
        if node.is_leaf:
            nodes[idx] = {"id": idx, "leaf": node.label,
                          "counts": dict(sorted(node.counts.items()))}
        else:
            nodes[idx] = {"id": idx, "feature": node.feature,
                          "threshold": node.threshold,
                          "left": None, "right": None}
            nodes[idx]["left"] = emit(node.left)
            nodes[idx]["right"] = emit(node.right)
        return idx

    emit(tree.root)
    doc = {"max_depth": tree.max_depth, "classes": list(tree.classes),
           "nodes": nodes}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def tree_from_json(text: str) -> DecisionTree:
    """Read a tree written by :func:`tree_to_json`.

    Raises ``ValueError`` for a document of any other shape. A split
    needs a feature in 0..15, a finite numeric threshold, and child
    indices greater than its own inside the node list, which is how
    ``tree_to_json`` numbers nodes (pre-order). That rules out cycles,
    so the nodes are built from the last to the first, without recursion.
    """
    doc = json.loads(text)
    if not (isinstance(doc, dict) and isinstance(doc.get("nodes"), list) and doc["nodes"]
            and type(doc.get("max_depth")) is int and isinstance(doc.get("classes"), list)):
        raise ValueError("a tree file is an object with max_depth, classes "
                         "and a non-empty nodes list")
    nodes = doc["nodes"]
    built = [None] * len(nodes)
    for idx in reversed(range(len(nodes))):
        built[idx] = _node_from_json(nodes[idx], idx, built)
    return DecisionTree(built[0], doc["max_depth"], tuple(doc["classes"]))


def _node_from_json(raw, idx: int, built: list) -> TreeNode:
    """Node ``idx`` of a tree file; ``built`` holds every later node."""
    if not isinstance(raw, dict):
        raise ValueError(f"tree node {idx}: not an object")
    if "leaf" in raw:
        if not (isinstance(raw["leaf"], str) and isinstance(raw.get("counts"), dict)):
            raise ValueError(f"tree node {idx}: a leaf needs a label and a counts object")
        return TreeNode(label=raw["leaf"], counts=dict(raw["counts"]))
    feature, threshold = raw.get("feature"), raw.get("threshold")
    if type(feature) is not int or not 0 <= feature < 16:
        raise ValueError(f"tree node {idx}: feature must be in 0..15, got {feature!r}")
    if type(threshold) not in (int, float) or not math.isfinite(threshold):
        raise ValueError(f"tree node {idx}: threshold must be a finite number, "
                         f"got {threshold!r}")
    children = [raw.get("left"), raw.get("right")]
    for child in children:
        if type(child) is not int or not idx < child < len(built):
            raise ValueError(f"tree node {idx}: child index must be in "
                             f"{idx + 1}..{len(built) - 1}, got {child!r}")
    return TreeNode(feature=feature, threshold=threshold,
                    left=built[children[0]], right=built[children[1]])


def render_tree(tree: DecisionTree) -> str:
    """Human-readable indented rendering of the decision rules."""
    lines = []

    def walk(node, indent):
        pad = "  " * indent
        if node.is_leaf:
            counts = ", ".join(f"{k}:{v}" for k, v in sorted(node.counts.items()))
            lines.append(f"{pad}leaf -> {node.label} ({counts})")
        else:
            lines.append(f"{pad}x[{node.feature}] <= {node.threshold:.6g}")
            walk(node.left, indent + 1)
            lines.append(f"{pad}x[{node.feature}] > {node.threshold:.6g}")
            walk(node.right, indent + 1)

    walk(tree.root, 0)
    return "\n".join(lines) + "\n"
