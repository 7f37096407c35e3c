"""Tests for the synthetic dataset generator and loaders."""

import numpy as np
import pytest

from repro.data import (
    ArrayDataset,
    DataLoader,
    make_synth_cifar,
    train_val_test_split,
)


class TestSynthCIFAR:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_synth_cifar(
            num_classes=6, image_size=12, train_per_class=20, val_per_class=5,
            test_per_class=5, seed=3,
        )

    def test_shapes(self, dataset):
        assert dataset.train_images.shape == (120, 3, 12, 12)
        assert dataset.val_images.shape == (30, 3, 12, 12)
        assert dataset.test_images.shape == (30, 3, 12, 12)

    def test_labels_balanced(self, dataset):
        values, counts = np.unique(dataset.train_labels, return_counts=True)
        np.testing.assert_array_equal(values, np.arange(6))
        assert np.all(counts == 20)

    def test_deterministic_given_seed(self):
        a = make_synth_cifar(num_classes=3, image_size=8, train_per_class=5, seed=9)
        b = make_synth_cifar(num_classes=3, image_size=8, train_per_class=5, seed=9)
        np.testing.assert_array_equal(a.train_images, b.train_images)
        np.testing.assert_array_equal(a.train_labels, b.train_labels)

    def test_different_seed_differs(self):
        a = make_synth_cifar(num_classes=3, image_size=8, train_per_class=5, seed=1)
        b = make_synth_cifar(num_classes=3, image_size=8, train_per_class=5, seed=2)
        assert not np.allclose(a.train_images, b.train_images)

    def test_roughly_unit_scale(self, dataset):
        assert dataset.train_images.std() == pytest.approx(1.0, abs=0.05)

    def test_class_batches_shapes(self, dataset):
        batches = dataset.class_batches(per_class=4, split="val")
        assert set(batches) == set(range(6))
        for images in batches.values():
            assert images.shape == (4, 3, 12, 12)

    def test_class_batches_capped_at_available(self, dataset):
        batches = dataset.class_batches(per_class=1000, split="test")
        assert all(len(images) == 5 for images in batches.values())

    def test_class_batches_unknown_split(self, dataset):
        with pytest.raises(KeyError):
            dataset.class_batches(2, split="bogus")

    def test_num_classes_and_shape_properties(self, dataset):
        assert dataset.num_classes == 6
        assert dataset.image_shape == (3, 12, 12)

    def test_classes_are_separable(self, dataset):
        """Nearest-prototype classification must beat chance by a wide
        margin — the datasets must be learnable for CQ's search to see
        meaningful accuracy signals."""
        prototypes = dataset.prototypes
        scores = np.einsum("nchw,mchw->nm", dataset.test_images, prototypes)
        accuracy = (scores.argmax(axis=1) == dataset.test_labels).mean()
        assert accuracy > 0.5

    def test_invalid_fraction_config(self):
        with pytest.raises(ValueError):
            make_synth_cifar(
                num_classes=2, shared_fraction=0.7, global_fraction=0.4,
                train_per_class=2,
            )

    def test_hundred_classes(self):
        dataset = make_synth_cifar(num_classes=100, image_size=8, train_per_class=2,
                                   val_per_class=1, test_per_class=1, seed=0)
        assert dataset.num_classes == 100
        assert len(np.unique(dataset.train_labels)) == 100


class TestArrayDataset:
    def test_len_and_getitem(self, rng):
        ds = ArrayDataset(rng.standard_normal((10, 3)), np.arange(10))
        assert len(ds) == 10
        image, label = ds[3]
        assert label == 3

    def test_length_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            ArrayDataset(rng.standard_normal((10, 3)), np.arange(5))

    def test_subset(self, rng):
        ds = ArrayDataset(rng.standard_normal((10, 3)), np.arange(10))
        sub = ds.subset([1, 3, 5])
        assert len(sub) == 3
        assert sub[1][1] == 3


class TestDataLoader:
    def make(self, n=10, batch_size=3, **kwargs):
        images = np.arange(n, dtype=np.float64).reshape(n, 1)
        return DataLoader(ArrayDataset(images, np.arange(n)), batch_size=batch_size, **kwargs)

    def test_batch_count(self):
        assert len(self.make(10, 3)) == 4
        assert len(self.make(10, 3, drop_last=True)) == 3
        assert len(self.make(9, 3)) == 3

    def test_batches_cover_all_samples(self):
        loader = self.make(10, 3)
        seen = np.concatenate([labels for _, labels in loader])
        np.testing.assert_array_equal(np.sort(seen), np.arange(10))

    def test_drop_last_drops_partial(self):
        loader = self.make(10, 3, drop_last=True)
        batches = list(loader)
        assert all(len(labels) == 3 for _, labels in batches)

    def test_shuffle_changes_order(self):
        loader = self.make(50, 50, shuffle=True, seed=0)
        (_, labels1) = next(iter(loader))
        assert not np.array_equal(labels1, np.arange(50))

    def test_shuffle_deterministic_with_seed(self):
        l1 = self.make(20, 20, shuffle=True, seed=5)
        l2 = self.make(20, 20, shuffle=True, seed=5)
        np.testing.assert_array_equal(
            next(iter(l1))[1], next(iter(l2))[1]
        )

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            self.make(batch_size=0)


class TestSplit:
    def test_fractions(self, rng):
        images = rng.standard_normal((100, 2))
        labels = np.arange(100)
        train, val, test = train_val_test_split(images, labels, 0.2, 0.1, seed=0)
        assert len(val) == 20 and len(test) == 10 and len(train) == 70

    def test_disjoint_and_complete(self, rng):
        images = rng.standard_normal((50, 2))
        labels = np.arange(50)
        train, val, test = train_val_test_split(images, labels, 0.2, 0.2, seed=1)
        combined = np.concatenate([train.labels, val.labels, test.labels])
        np.testing.assert_array_equal(np.sort(combined), np.arange(50))

    def test_invalid_fractions_raise(self, rng):
        with pytest.raises(ValueError):
            train_val_test_split(np.zeros((10, 1)), np.zeros(10), 0.6, 0.5)
