import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setloss.batch import (ClassPartition, EmbeddingBatch, partition_from_labels,
                           read_embedding_file)
from setloss.errors import EmptyGroundSet, ParseError, ValidationError


def test_basic_construction():
    b = EmbeddingBatch(np.eye(3), np.array([0, 0, 1]))
    assert b.n == 3
    assert b.dim == 3
    assert b.num_classes == 2


def test_rejects_label_gap():
    with pytest.raises(ValidationError, match="class 1 is empty"):
        EmbeddingBatch(np.eye(3), np.array([0, 0, 2]))


def test_rejects_negative_label():
    with pytest.raises(ValidationError):
        EmbeddingBatch(np.eye(2), np.array([0, -1]))


@pytest.mark.parametrize("labels", [[0, 1.7, 0.2], [0, 1, np.nan],
                                    [0, 1, np.inf], [0, 1, 2.0 ** 64]])
def test_rejects_labels_that_are_not_integers(labels):
    # The int64 cast used to truncate them: [0, 1.7, 0.2] became [0, 1, 0].
    with pytest.raises(ValidationError, match="labels must be integers"):
        EmbeddingBatch(np.eye(3), labels)
    with pytest.raises(ValidationError, match="labels must be integers"):
        partition_from_labels(labels)


def test_integral_labels_of_any_dtype_are_taken():
    for labels in ([0, 1, 0], [0.0, 1.0, 0.0], np.array([0, 1, 0], np.uint8),
                   np.array([False, True, False])):
        b = EmbeddingBatch(np.eye(3), labels)
        assert b.labels.dtype == np.int64 and b.labels.tolist() == [0, 1, 0]
        part = ClassPartition(labels)
        assert part.labels.dtype == np.int64 and part.labels.tolist() == [0, 1, 0]
        assert [a.tolist() for a in part.sets] == [[0, 2], [1]]
        assert all(a.dtype == np.int64 for a in part.sets)


def test_rejects_empty():
    with pytest.raises(EmptyGroundSet):
        EmbeddingBatch(np.zeros((0, 3)), np.zeros(0, dtype=int))


def test_rejects_nonfinite():
    v = np.eye(2)
    v[0, 0] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        EmbeddingBatch(v, np.array([0, 1]))


def test_rejects_shape_mismatch():
    with pytest.raises(ValidationError):
        EmbeddingBatch(np.eye(3), np.array([0, 1]))


def test_partition_covers_everything():
    labels = np.array([2, 0, 1, 0, 2, 2])
    part = partition_from_labels(labels)
    assert len(part.sets) == 3
    got = np.sort(np.concatenate(part.sets))
    assert np.array_equal(got, np.arange(6))
    for k, members in enumerate(part.sets):
        assert np.all(labels[members] == k)


@pytest.mark.parametrize("labels,error,match", [
    (np.zeros(0, dtype=int), EmptyGroundSet, "ground set is empty"),
    ([0, -1], ValidationError, "labels must be nonnegative"),
    ([[0, 1], [1, 0]], ValidationError, "labels shape \\(2, 2\\)"),
    (np.int64(0), ValidationError, "labels shape \\(\\)"),
    ([0, 2], ValidationError,
     "^labels must cover 0..2 contiguously; class 1 is empty$"),
    ([0, 1.5], ValidationError, "^labels must be integers$"),
    (None, ValidationError, "^labels must be integers$"),
    (["a", "b", "c"], ValidationError, "^labels must be integers$"),
])
def test_partition_from_labels_refuses_what_a_batch_refuses(labels, error, match):
    # It used to raise numpy's zero-size reduction error on no labels, to
    # take [0, -1] as a one-row partition, and to flatten labels of any
    # shape: [[0, 1], [1, 0]] gave [[0, 3], [1, 2]] and a 0-d 0 gave [[0]].
    # A gap gave the partition's own "class 1 is empty", and None or words
    # let numpy's TypeError or ValueError out.
    with pytest.raises(error, match=match):
        partition_from_labels(labels)
    with pytest.raises(error, match=match):
        EmbeddingBatch(np.ones((np.size(labels), 3)), labels)


@st.composite
def _shuffled_labels(draw):
    # Uneven class sizes, always with a singleton class, in shuffled order.
    sizes = draw(st.lists(st.integers(1, 7), min_size=0, max_size=5)) + [1]
    labels = np.repeat(np.arange(len(sizes)), sizes)
    return labels[draw(st.permutations(range(labels.size)))]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_shuffled_labels())
def test_partition_forms_match_brute_force(labels):
    # Labels in, labels out: the sets partition range(n), labels[sets[k]]
    # is k throughout and the sizes are the label counts.
    n = labels.size
    part = ClassPartition(labels)
    assert part.labels.tolist() == labels.tolist()
    assert np.array_equal(np.sort(np.concatenate(part.sets)), np.arange(n))
    assert all(np.all(labels[a] == k) for k, a in enumerate(part.sets))
    assert part.sizes.tolist() == [int(np.sum(labels == k))
                                   for k in range(labels.max() + 1)]
    pairs = list(part.with_complements())
    assert len(pairs) == part.num_classes
    for k, (a, comp) in enumerate(pairs):
        assert a.tolist() == [i for i in range(n) if labels[i] == k]
        assert comp.tolist() == [i for i in range(n) if labels[i] != k]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_shuffled_labels(), st.booleans())
def test_a_batch_holds_the_partition_of_its_labels(labels, class_sorted):
    # A batch builds its one partition from its labels, equal field for
    # field to the partition built from the same labels alone.
    if class_sorted:
        labels = np.sort(labels)
    b = EmbeddingBatch(np.ones((labels.size, 2)), labels)
    part = partition_from_labels(labels)
    assert b.labels is b.classes.labels
    assert b.classes.labels.tolist() == part.labels.tolist()
    assert b.classes.labels.dtype == part.labels.dtype == np.int64
    assert b.classes.sizes.tolist() == part.sizes.tolist()
    assert b.classes.num_classes == part.num_classes == b.num_classes
    assert len(b.classes.sets) == len(part.sets)
    for mine, theirs in zip(b.classes.sets, part.sets):
        assert mine.dtype == theirs.dtype and mine.tolist() == theirs.tolist()
    for (a, o), (pa, po) in zip(b.classes.with_complements(), part.with_complements()):
        assert a.tolist() == pa.tolist() and o.tolist() == po.tolist()


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,label,f0\na,0,1.0\nb,zero,2.0\n")
    with pytest.raises(ParseError) as err:
        read_embedding_file(path)
    assert err.value.line == 3
    assert "zero" in str(err.value)


@pytest.mark.parametrize("text, line", [
    ("a,0,1.0\nb,2,2.0\nc,0,3.0\n", 3),
    # Blank lines are skipped but counted; class 2 is the first empty one.
    ("a,0,1.0\n\nb,0,2.0\nc,3,3.0\nd,1,4.0\n", 5),
])
def test_parse_reports_the_line_of_a_label_gap(tmp_path, text, line):
    # The line is the first row labelled above the first empty class.
    path = tmp_path / "gap.csv"
    path.write_text("id,label,f0\n" + text)
    with pytest.raises(ParseError, match="is empty") as err:
        read_embedding_file(path)
    assert err.value.line == line


def test_parse_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("sample,label,f0\na,0,1.0\n")
    with pytest.raises(ParseError) as err:
        read_embedding_file(path)
    assert err.value.line == 1


def test_parse_rejects_short_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,label,f0,f1\na,0,1.0\n")
    with pytest.raises(ParseError, match="expected 4 fields"):
        read_embedding_file(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_parse_reports_the_line_of_a_non_finite_feature(tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text(f"id,label,f0\na,0,1.0\nb,1,2.0\nc,0,{value}\nd,1,3.0\n")
    with pytest.raises(ParseError) as err:
        read_embedding_file(path)
    assert err.value.line == 4
    assert str(err.value) == f"{path}:4: non-finite feature value"
