"""CART training, prediction, accuracy and serialization."""

from fractions import Fraction

import pytest

from demgranulo.classify import (DecisionTree, TreeNode, predict, render_tree,
                                 train_cart, training_accuracy, tree_from_json,
                                 tree_to_json)
from demgranulo.spectrum import FeatureRecord
from demgranulo.synth import synthetic_watershed_features


def rec(x, label, wid=""):
    xs = tuple(list(x) + [0.0] * (16 - len(x)))
    return FeatureRecord(watershed_id=wid, x=xs, label=label)


def gini(counts):
    n = sum(counts.values())
    return 1 - sum(Fraction(c, n) ** 2 for c in counts.values())


def exhaustive_best_split(records):
    """Brute-force best (feature, threshold) by exact weighted Gini."""
    best = None
    n = len(records)
    for f in range(16):
        values = sorted({r.x[f] for r in records})
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2.0
            left, right = {}, {}
            for r in records:
                side = left if r.x[f] <= thr else right
                side[r.label] = side.get(r.label, 0) + 1
            cost = (Fraction(sum(left.values()), n) * gini(left)
                    + Fraction(sum(right.values()), n) * gini(right))
            cand = (cost, f, thr)
            if best is None or cand < best:
                best = cand
    return best


class TestTraining:
    def test_two_class_depth_one(self):
        records = [rec([0.2], "a"), rec([0.8], "b")]
        tree = train_cart(records, 1)
        assert training_accuracy(tree, records) == 1
        assert tree.root.feature == 0

    def test_identical_features_majority_leaf(self):
        records = [rec([0.5], "b"), rec([0.5], "a"), rec([0.5], "b")]
        tree = train_cart(records, 4)
        assert tree.root.is_leaf and tree.root.label == "b"

    def test_majority_tie_lowest_label(self):
        records = [rec([0.5], "b"), rec([0.5], "a")]
        tree = train_cart(records, 3)
        assert tree.root.is_leaf and tree.root.label == "a"

    def test_single_class_single_leaf(self):
        records = [rec([v], "only") for v in (0.1, 0.5, 0.9)]
        tree = train_cart(records, 5)
        assert tree.root.is_leaf and tree.root.label == "only"

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_cart([], 2)

    def test_unlabeled_record_rejected(self):
        with pytest.raises(ValueError):
            train_cart([rec([0.5], None)], 1)

    def test_three_class_two_splits(self):
        records = ([rec([0.1, 0.5], "a", f"a{i}") for i in range(4)]
                   + [rec([0.9, 0.1], "b", f"b{i}") for i in range(4)]
                   + [rec([0.9, 0.9], "c", f"c{i}") for i in range(4)])
        tree = train_cart(records, 2)
        assert training_accuracy(tree, records) == 1
        assert tree.depth() == 2
        # greedy root choice matches the exhaustive search
        _, f, thr = exhaustive_best_split(records)
        assert (tree.root.feature, tree.root.threshold) == (f, thr)

    def test_root_split_matches_exhaustive_on_tangled_data(self):
        records = synthetic_watershed_features()
        tree = train_cart(records, 1)
        _, f, thr = exhaustive_best_split(records)
        assert (tree.root.feature, tree.root.threshold) == (f, thr)

    def test_depth_zero_is_majority_baseline(self):
        records = ([rec([0.0], "indus", f"i{k}") for k in range(31)]
                   + [rec([0.0], "wardha", f"w{k}") for k in range(69)]
                   + [rec([0.0], "barmer", f"b{k}") for k in range(38)])
        tree = train_cart(records, 0)
        assert tree.root.is_leaf and tree.root.label == "wardha"
        assert training_accuracy(tree, records) == Fraction(69, 138) == Fraction(1, 2)

    def test_determinism(self):
        records = synthetic_watershed_features()
        a = tree_to_json(train_cart(records, 4))
        b = tree_to_json(train_cart(list(records), 4))
        assert a == b

    def test_depth_monotone_accuracy(self):
        records = synthetic_watershed_features()
        accs = [training_accuracy(train_cart(records, d), records)
                for d in range(0, 10)]
        assert all(a <= b for a, b in zip(accs, accs[1:]))
        assert accs[0] == Fraction(69, 138)
        assert accs[2] > accs[0]


class TestPredict:
    def test_single_leaf(self):
        tree = train_cart([rec([0.5], "x")], 3)
        assert predict(tree, rec([9.9], None)) == "x"

    def test_exact_threshold_goes_left(self):
        records = [rec([0.0], "lo"), rec([1.0], "hi")]
        tree = train_cart(records, 1)
        assert tree.root.threshold == 0.5
        assert predict(tree, rec([0.5], None)) == "lo"

    def test_depth_two_hand_trace(self):
        records = ([rec([0.1, 0.5], "a")] * 3 + [rec([0.9, 0.1], "b")] * 3
                   + [rec([0.9, 0.9], "c")] * 3)
        tree = train_cart(records, 2)
        for x, want in (((0.0, 0.0), "a"), ((1.0, 0.0), "b"), ((1.0, 1.0), "c")):
            assert predict(tree, rec(x, None)) == want


class TestAccuracy:
    def test_perfect(self):
        records = [rec([0.1], "a"), rec([0.9], "b")]
        tree = train_cart(records, 1)
        assert training_accuracy(tree, records) == 1

    def test_empty_rejected(self):
        tree = train_cart([rec([0.1], "a")], 1)
        with pytest.raises(ValueError):
            training_accuracy(tree, [])

    def test_exact_rational(self):
        records = [rec([0.5], "a"), rec([0.5], "a"), rec([0.5], "b")]
        tree = train_cart(records, 2)
        assert training_accuracy(tree, records) == Fraction(2, 3)


class TestSerialization:
    def test_round_trip_predictions(self):
        records = synthetic_watershed_features()
        tree = train_cart(records, 5)
        clone = tree_from_json(tree_to_json(tree))
        assert all(predict(clone, r) == predict(tree, r) for r in records)
        assert tree_to_json(clone) == tree_to_json(tree)

    def test_render_mentions_splits(self):
        records = [rec([0.1], "a"), rec([0.9], "b")]
        text = render_tree(train_cart(records, 1))
        assert "x[0] <= 0.5" in text
        assert "leaf -> a" in text


class TestRecords:
    def test_feature_record_keywords_and_defaults(self):
        r = FeatureRecord("w", (1.0,))
        assert (r.watershed_id, r.x, r.gi, r.z, r.degenerate, r.label) == (
            "w", (1.0,), {}, (0.0, 0.0, 0.0, 0.0), False, None)
        r = FeatureRecord(watershed_id="w", x=(), gi={"B": 1.0}, z=(1.0,) * 4,
                          degenerate=True, label="a")
        assert (r.gi, r.z, r.degenerate, r.label) == ({"B": 1.0}, (1.0,) * 4, True, "a")
        assert FeatureRecord("a", ()).gi is not FeatureRecord("a", ()).gi

    def test_feature_record_is_immutable(self):
        r = FeatureRecord("w", (1.0,))
        with pytest.raises(AttributeError):
            r.label = "a"
        with pytest.raises(AttributeError):
            del r.x
        with pytest.raises(AttributeError):
            r.new_field = 1
        assert r.label is None

    def test_feature_record_equality_and_repr(self):
        r = FeatureRecord("w", (1.0,), label="a")
        assert r == FeatureRecord("w", (1.0,), label="a")
        assert r != FeatureRecord("w", (1.0,), label="b")
        assert r != ("w", (1.0,), {}, (0.0, 0.0, 0.0, 0.0), False, "a")
        assert repr(r) == ("FeatureRecord(watershed_id='w', x=(1.0,), gi={}, "
                           "z=(0.0, 0.0, 0.0, 0.0), degenerate=False, label='a')")

    def test_tree_classes_keywords_defaults_equality_and_repr(self):
        leaf = TreeNode(label="a", counts={"a": 2})
        assert (leaf.feature, leaf.threshold, leaf.left, leaf.right) == (None,) * 4
        assert leaf.is_leaf
        node = TreeNode(3, 0.5, leaf, TreeNode(label="b", counts={"b": 1}))
        assert (node.feature, node.threshold, node.left) == (3, 0.5, leaf)
        assert repr(leaf) == ("TreeNode(feature=None, threshold=None, left=None, "
                              "right=None, label='a', counts={'a': 2})")
        tree = DecisionTree(node, max_depth=1, classes=("a", "b"))
        assert tree == DecisionTree(node, 1, ("a", "b"))
        assert tree != DecisionTree(node, 2, ("a", "b"))
        assert repr(tree) == f"DecisionTree(root={node!r}, max_depth=1, classes=('a', 'b'))"
        # a split node stores no counts, so this tree reads back equal
        assert tree_from_json(tree_to_json(tree)) == tree
