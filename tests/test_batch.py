import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setloss.batch import (EmbeddingBatch, partition_from_labels,
                           read_embedding_file, write_embedding_file)
from setloss.errors import EmptyGroundSet, ParseError, ValidationError


def test_basic_construction():
    b = EmbeddingBatch(np.eye(3), np.array([0, 0, 1]))
    assert b.n == 3
    assert b.dim == 3
    assert b.num_classes == 2
    assert b.ids == ["0", "1", "2"]


def test_rejects_label_gap():
    with pytest.raises(ValidationError, match="class 1 is empty"):
        EmbeddingBatch(np.eye(3), np.array([0, 0, 2]))


def test_rejects_negative_label():
    with pytest.raises(ValidationError):
        EmbeddingBatch(np.eye(2), np.array([0, -1]))


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
    with pytest.raises(ValidationError):
        EmbeddingBatch(np.eye(2), np.array([0, 1]), ids=["only-one"])


def test_partition_covers_everything():
    labels = np.array([2, 0, 1, 0, 2, 2])
    part = partition_from_labels(labels)
    assert len(part.sets) == 3
    got = np.sort(np.concatenate(part.sets))
    assert np.array_equal(got, np.arange(6))
    for k, members in enumerate(part.sets):
        assert np.all(labels[members] == k)


@st.composite
def _shuffled_labels(draw):
    # Uneven class sizes, always with a singleton class, in shuffled order.
    sizes = draw(st.lists(st.integers(1, 7), min_size=0, max_size=5)) + [1]
    labels = np.repeat(np.arange(len(sizes)), sizes)
    return labels[draw(st.permutations(range(labels.size)))]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_shuffled_labels())
def test_partition_forms_match_brute_force(labels):
    n = labels.size
    part = partition_from_labels(labels)
    same = np.array([[labels[i] == labels[j] for j in range(n)] for i in range(n)])
    assert part.labels.tolist() == labels.tolist()
    assert part.sizes.tolist() == [int(np.sum(labels == k))
                                   for k in range(labels.max() + 1)]
    assert np.array_equal(part.same_class(), same)
    out = ~same
    assert part.same_class(out) is out
    assert np.array_equal(out, same)
    pairs = list(part.with_complements())
    assert len(pairs) == part.num_classes
    for k, (a, comp) in enumerate(pairs):
        assert a.tolist() == [i for i in range(n) if labels[i] == k]
        assert comp.tolist() == [i for i in range(n) if labels[i] != k]


def test_file_round_trip(tmp_path):
    b = EmbeddingBatch(np.arange(12.0).reshape(4, 3), np.array([0, 1, 1, 0]),
                       ids=["w", "x", "y", "z"])
    path = tmp_path / "batch.csv"
    write_embedding_file(path, b)
    back = read_embedding_file(path)
    assert np.array_equal(back.vectors, b.vectors)
    assert np.array_equal(back.labels, b.labels)
    assert back.ids == b.ids


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
