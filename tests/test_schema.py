import pickle

import pytest

from ngram_graph import FULL_SCHEMA, REDUCED_SCHEMA, AttributeSchema, SchemaError


class TestLayout:
    def test_full_schema_width(self):
        assert FULL_SCHEMA.num_attributes == 8
        assert FULL_SCHEMA.total_width == 42

    def test_reduced_schema_width(self):
        assert REDUCED_SCHEMA.num_attributes == 5
        assert REDUCED_SCHEMA.total_width == 32

    def test_offsets_partition_width(self):
        offs = FULL_SCHEMA.offsets
        ks = FULL_SCHEMA.cardinalities
        assert offs[0] == 0
        for j in range(1, len(ks)):
            assert offs[j] == offs[j - 1] + ks[j - 1]
        assert offs[-1] + ks[-1] == FULL_SCHEMA.total_width

    def test_degree_block_starts_at_ten(self):
        # symbol occupies slots 0-9, degree starts at slot 10
        assert FULL_SCHEMA.offsets[1] == 10


class TestInvariants:
    def test_duplicate_attribute_names_rejected(self):
        with pytest.raises(SchemaError):
            AttributeSchema.from_pairs([("a", ("x", "y")), ("a", ("p", "q"))])

    def test_duplicate_values_rejected(self):
        with pytest.raises(SchemaError):
            AttributeSchema.from_pairs([("a", ("x", "x"))])

    def test_empty_attribute_list_rejected(self):
        with pytest.raises(SchemaError, match="at least one attribute"):
            AttributeSchema.from_pairs([])
        with pytest.raises(SchemaError):
            AttributeSchema.from_dict({"attributes": []})

    def test_single_value_attribute_rejected(self):
        with pytest.raises(SchemaError):
            AttributeSchema.from_pairs([("a", ("x",))])

    def test_unknown_fallback(self):
        sch = AttributeSchema.from_pairs([("a", ("x", "y", "Unknown"))])
        assert sch.index_of(0, "x") == 0
        assert sch.index_of(0, "zzz") == 2

    def test_no_unknown_slot_raises(self):
        sch = AttributeSchema.from_pairs([("a", ("x", "y"))])
        with pytest.raises(SchemaError):
            sch.index_of(0, "zzz")


class TestFingerprint:
    def test_fingerprint_stable_under_rebuild(self):
        sch = AttributeSchema.from_pairs([("a", ("x", "y")), ("b", ("p", "q", "r"))])
        again = AttributeSchema.from_dict(sch.to_dict())
        assert sch.fingerprint == again.fingerprint

    def test_fingerprint_changes_with_vocabulary(self):
        a = AttributeSchema.from_pairs([("a", ("x", "y"))])
        b = AttributeSchema.from_pairs([("a", ("x", "z"))])
        assert a.fingerprint != b.fingerprint

    def test_name_not_part_of_fingerprint(self):
        a = AttributeSchema.from_pairs([("a", ("x", "y"))], name="one")
        b = AttributeSchema.from_pairs([("a", ("x", "y"))], name="two")
        assert a.fingerprint == b.fingerprint
        assert a.schema_id != b.schema_id


class TestCachedLayout:
    @staticmethod
    def _layout(sch):
        return sch.cardinalities, sch.offsets, sch.total_width, sch.attribute_names

    def test_values_equality_hash_and_pickle_unchanged(self):
        pairs = [("a", ("x", "y")), ("b", ("p", "q", "r"))]
        read, unread = AttributeSchema.from_pairs(pairs), AttributeSchema.from_pairs(pairs)
        assert self._layout(read) == ((2, 3), (0, 2), 5, ("a", "b"))
        assert read.cardinalities is read.cardinalities  # computed once
        assert read == unread and hash(read) == hash(unread)
        for sch in (read, unread):  # a pickled copy acts like the original
            back = pickle.loads(pickle.dumps(sch))
            assert back == read and hash(back) == hash(read)
            assert self._layout(back) == self._layout(read)
            assert back.fingerprint == read.fingerprint and back.index_of(1, "r") == 2
