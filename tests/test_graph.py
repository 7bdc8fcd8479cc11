import dataclasses
import gc
import io
import json
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ngram_graph as ng
from ngram_graph import EmbeddingError, MolecularGraph, random_embedding
from ngram_graph import graph as graph_module
from ngram_graph.cli import main
from ngram_graph.featurize import featurize_corpus
from ngram_graph.graph import (_collector_paused, build_graphs, ones_csr, read_json_graphs,
                               write_jsonl)
from ngram_graph.sdf import parse_sdf
from ngram_graph.vertex import check_schema

from . import synth
from .synth import dumps_graph, one_hot, permute


class TestValidation:
    """``MolecularGraph(...)`` checks its tables by the reader's rules and
    refuses a bad one with the reader's message; ``check_schema`` checks
    the attributes against an embedding's schema."""

    def test_smallest_legal_graph(self, schema):
        g = MolecularGraph(num_vertices=1, attr=[[0, 0]], edges=[])
        check_schema(g, random_embedding(schema, 2))
        assert g.num_edges == 0 and g.attr.dtype == np.int64

    def test_self_loop_reported(self, schema):
        with pytest.raises(ng.GraphError, match="^self-loop@0$"):
            MolecularGraph(num_vertices=2, attr=[[0, 0], [0, 0]], edges=[[0, 0]])

    def test_attr_index_out_of_range(self, schema):
        attr = [[0, 0], [0, 0], [0, schema.cardinalities[1]]]
        g = MolecularGraph(num_vertices=3, attr=attr, edges=[])  # a graph has no schema
        with pytest.raises(EmbeddingError, match="out of range"):
            check_schema(g, random_embedding(schema, 2))

    def test_attribute_width_reported(self, schema):
        g = MolecularGraph(num_vertices=2, attr=[[0, 0, 0], [0, 0, 0]], edges=[[0, 1]])
        with pytest.raises(EmbeddingError) as info:
            check_schema(g, random_embedding(schema, 2))
        assert str(info.value) == ("graph invalid under embedding schema: "
                                   "attribute table width 3 != schema S=2")

    def test_duplicate_edge_reported(self, schema):
        with pytest.raises(ng.GraphError, match=r"^duplicate edge \(0,1\) listed 2 times$"):
            MolecularGraph(num_vertices=2, attr=[[0, 0], [0, 0]], edges=[[0, 1], [1, 0]])

    def test_edge_endpoint_out_of_range(self, schema):
        with pytest.raises(ng.GraphError,
                           match=r"^edge \(0,5\) endpoint out of range for m=2$"):
            MolecularGraph(num_vertices=2, attr=[[0, 0], [0, 0]], edges=[[0, 5]])

    def test_degrees_match_adjacency_rows(self, rng, schema):
        g = synth.random_graph(rng, schema, m=7, density=0.5)
        assert np.array_equal(g.degrees(), synth.dense_adjacency(g).sum(axis=0))

    def test_bitset_membership_matches_edge_list(self, rng, schema):
        g = synth.random_graph(rng, schema, m=8, density=0.4)
        a = synth.dense_adjacency(g)
        for u in range(8):
            for v in range(8):
                assert synth.has_edge(g, u, v) == bool(a[u, v])

    @pytest.mark.parametrize(
        "m, attr, edges, expected",
        [
            (3, [[0, 0]] * 3, [[1, 1], [0, 2]], ["self-loop@1"]),
            (2, [[0, 0]] * 2, [[0, 5], [-1, 1]],
             ["edge (0,5) endpoint out of range for m=2",
              "edge (-1,1) endpoint out of range for m=2"]),
            (3, [[0, 0]] * 3, [[0, 1], [2, 1], [1, 0], [1, 2], [0, 1]],
             ["duplicate edge (0,1) listed 3 times", "duplicate edge (1,2) listed 2 times"]),
            (2, [[0, 0]] * 2, [[3, 3], [0, 1], [1, 0], [3, 3]],
             ["self-loop@3", "edge (3,3) endpoint out of range for m=2",
              "self-loop@3", "edge (3,3) endpoint out of range for m=2",
              "duplicate edge (0,1) listed 2 times"]),
            (2, [[0, 0]] * 2, [[0, 5], [5, 0]],
             ["edge (0,5) endpoint out of range for m=2",
              "edge (5,0) endpoint out of range for m=2",
              "duplicate edge (0,5) listed 2 times"]),
            (2, [[0, 4], [5, 0]], [[0, 1]],
             ["attr index out of range: attr[1][0]=5 with k_0=5",
              "attr index out of range: attr[0][1]=4 with k_1=4"]),
        ],
        ids=["self-loop", "out-of-range", "duplicates", "mixed", "duplicate-out-of-range",
             "attr"],
    )
    def test_violation_strings_in_order(self, schema, m, attr, edges, expected):
        """The reader's message, and the constructor's; attribute ranges,
        which a graph without a schema cannot know, are check_schema's."""
        message = "; ".join(expected)
        doc = {"schema_id": schema.schema_id, "num_vertices": m, "attributes": attr,
               "edges": edges}
        errors = []
        assert read_json_graphs(json.dumps(doc), schema, errors) == []
        assert errors == [(0, message)]
        for fingerprint in (None, schema.fingerprint):
            fields = dict(num_vertices=m, attr=attr, edges=edges, schema_fingerprint=fingerprint)
            if expected[0].startswith("attr index"):
                with pytest.raises(EmbeddingError) as info:
                    check_schema(MolecularGraph(**fields), random_embedding(schema, 2))
                assert str(info.value) == f"graph invalid under embedding schema: {message}"
            else:
                with pytest.raises(ng.GraphError) as info:
                    MolecularGraph(**fields)
                assert str(info.value) == message

    @settings(max_examples=300, deadline=None)
    @given(drawn=synth.messy_pair_lists(synth.small_schema(), max_m=6),
           fingerprinted=st.booleans())
    def test_constructor_refuses_as_the_reader_does(self, drawn, fingerprinted):
        """A pair list with a self-loop, an endpoint out of range or a
        repeated pair: ``MolecularGraph(...)`` raises the message that the
        reader records for the same document, with or without a
        fingerprint; any other list builds the graph the reader reads."""
        schema = synth.small_schema()
        m, attr, pairs = drawn
        doc = {"schema_id": schema.schema_id, "num_vertices": m, "attributes": attr,
               "edges": [list(p) for p in pairs]}
        errors = []
        read = read_json_graphs(json.dumps(doc), schema, errors)
        messy = synth.proper_pairs(m, pairs) != pairs
        assert bool(errors) == messy
        fields = dict(num_vertices=m, attr=attr, edges=pairs,
                      schema_fingerprint=schema.fingerprint if fingerprinted else None)
        if messy:
            with pytest.raises(ng.GraphError) as info:
                MolecularGraph(**fields)
            assert errors == [(0, str(info.value))]
            assert str(info.value) == "; ".join(synth.reference_violations(m, attr, pairs,
                                                                            schema))
        else:
            g = MolecularGraph(**fields)
            assert np.array_equal(g.indptr, read[0].indptr)
            assert np.array_equal(g.indices, read[0].indices)

    @pytest.mark.parametrize("attr,edges,message", [
        ([0, 0, 1, 1, 0, 0, 1, 1], [[0, 1]], "attributes must be 4 rows of value indices"),
        ([[0, 0], [1, 1]], [[0, 1]], "attributes must be 4 rows of value indices"),
        ([[0, 0]] * 4, [[0, 1, 2], [3, 0, 2]], "edges must be a list of [u, v] pairs"),
        ([[0, 0]] * 4, [0, 1, 2, 3], "edges must be a list of [u, v] pairs"),
        ([[0, 0]] * 4, [[0.7, 1.2]], "edges must be JSON integers"),
        (np.zeros((4, 2)), [[0, 1]], "attributes must be JSON integers"),
        ([[0, 0]] * 4, [[True, False]], "edges must be JSON integers"),
    ], ids=["flat-attributes", "too-few-rows", "wide-edges", "flat-edges", "float-edges",
            "float-attributes", "bool-edges"])
    def test_constructor_refuses_a_table_the_reader_refuses(self, schema, attr, edges,
                                                            message):
        for fingerprint in (None, schema.fingerprint):
            with pytest.raises(ng.GraphError) as info:
                MolecularGraph(num_vertices=4, attr=attr, edges=edges,
                               schema_fingerprint=fingerprint)
            assert str(info.value) == message

    @pytest.mark.parametrize("count", [2.0, np.float64(2), True, np.True_, "2", None],
                             ids=["float", "float64", "bool", "numpy-bool", "str", "none"])
    def test_constructor_refuses_a_count_the_reader_refuses(self, count):
        with pytest.raises(ng.GraphError) as info:
            MolecularGraph(num_vertices=count, attr=[[0, 0], [0, 0]], edges=[])
        kind = type(count).__name__
        assert str(info.value) == f"num_vertices must be a JSON integer, got {kind}"

    @pytest.mark.parametrize("field, key, value", [
        ("graph_id", "id", 7), ("graph_id", "id", 1.5), ("graph_id", "id", ["g"]),
        ("label", "label", "1.5"), ("label", "label", [1]), ("label", "label", {"y": 1}),
    ], ids=["id-int", "id-float", "id-list", "label-str", "label-list", "label-dict"])
    def test_constructor_refuses_a_label_or_id_the_reader_refuses(self, schema, field, key,
                                                                   value):
        doc = {"schema_id": schema.schema_id, "num_vertices": 1, "attributes": [[0, 0]],
               key: value}
        errors = []
        assert read_json_graphs(json.dumps(doc), schema, errors) == []
        with pytest.raises(ng.GraphError) as info:
            MolecularGraph(num_vertices=1, attr=[[0, 0]], edges=[], **{field: value})
        assert errors == [(0, str(info.value))]

    @pytest.mark.parametrize("label", [np.float32(1.5), np.float64(0.1), np.float16(-2.5),
                                       np.int64(-3), np.uint8(7), True, np.False_, 2, 0.25],
                             ids=["float32", "float64", "float16", "int64", "uint8", "bool",
                                  "numpy-bool", "int", "float"])
    def test_real_labels_are_kept_as_floats_the_writer_writes(self, schema, label):
        g = MolecularGraph(num_vertices=1, attr=[[0, 0]], edges=[], label=label)
        assert type(g.label) is float and g.label == float(label)
        stream = io.StringIO()
        write_jsonl([g], schema, stream)
        (back,) = read_json_graphs(stream.getvalue(), schema)
        assert type(back.label) is float and back.label == g.label

    @settings(max_examples=200, deadline=None)
    @given(drawn=synth.messy_pair_lists(synth.small_schema(), max_m=6),
           count=st.sampled_from([int, np.int64, np.int32, np.uint8, np.intp]),
           label=st.none() | st.floats(allow_nan=False, allow_infinity=False)
           | st.integers(-9, 9),
           graph_id=st.none() | st.text(), as_array=st.booleans())
    def test_constructed_graphs_survive_the_writer_and_reader(self, drawn, count, label,
                                                              graph_id, as_array):
        """A count given as any integer type is kept as an int, so every
        graph the constructor builds is written as a document the reader
        reads back."""
        schema = synth.small_schema()
        m, attr, pairs = drawn
        g = MolecularGraph(num_vertices=count(m), attr=np.array(attr) if as_array else attr,
                           edges=synth.proper_pairs(m, pairs), label=label, graph_id=graph_id)
        assert type(g.num_vertices) is int
        stream = io.StringIO()
        write_jsonl([g], schema, stream)
        (back,) = read_json_graphs(stream.getvalue(), schema)
        assert synth.structurally_equal(back, g)

    def test_replace_on_constructed_and_read_graphs(self, schema):
        g = MolecularGraph(num_vertices=2, attr=[[0, 0], [1, 1]], edges=[[1, 0]],
                           schema_fingerprint=schema.fingerprint)
        (read,) = read_json_graphs(dumps_graph(g, schema), schema)
        for h in (g, read):
            labelled = dataclasses.replace(h, label=3.0)
            assert labelled.label == 3.0 and h.label is None
            assert synth.structurally_equal(dataclasses.replace(labelled, label=None), h)
        with pytest.raises(ng.GraphError, match="self-loop@1"):
            dataclasses.replace(read, edges=[[1, 1]])

    def test_equality_is_identity(self, schema):
        """Two graphs of equal vertex count and several attribute entries
        compare, and are found in a list, by identity, not by their arrays."""
        g, h = (MolecularGraph(num_vertices=2, attr=[[0, 0], [1, 1]], edges=[[0, 1]])
                for _ in range(2))
        assert g == g and g != h and not (g == h)
        assert [h, g].index(g) == 1 and g in [h, g] and g not in [h]
        assert len({g, h, g}) == 2


class TestAdjacency:
    @settings(max_examples=200, deadline=None)
    @given(g=synth.messy_graphs(synth.small_schema(), max_m=9))
    def test_csr_queries_match_dense_adjacency(self, g):
        a = synth.dense_adjacency(g)
        m = g.num_vertices
        assert np.array_equal(g.degrees(), a.sum(axis=1))
        assert np.array_equal(ones_csr(g.indptr, g.indices, m).toarray(), a)
        for u in range(m):
            row = g.indices[g.indptr[u] : g.indptr[u + 1]]
            assert row.tolist() == np.flatnonzero(a[u]).tolist()
        upper = np.argwhere(np.triu(a, 1))
        assert np.array_equal(synth.canonical_edges(g), upper)
        assert upper.shape == (g.num_edges, 2)

    def test_replace_keeps_fields_and_rebuilds_csr(self, schema):
        g = MolecularGraph(num_vertices=3, attr=[[0, 0]] * 3, edges=[[0, 1], [1, 2]],
                           label=1.0, graph_id="g", schema_fingerprint=schema.fingerprint)
        h = dataclasses.replace(g, edges=[[2, 0]])
        assert (h.label, h.graph_id, h.schema_fingerprint) == (1.0, "g", schema.fingerprint)
        assert np.array_equal(h.attr, g.attr)
        assert h.indptr.tolist() == [0, 1, 1, 2] and h.indices.tolist() == [2, 0]
        assert synth.canonical_edges(h).tolist() == [[0, 2]] and h.num_edges == 1
        assert g.indices.tolist() == [1, 0, 2, 1]  # the original is untouched

    def test_path_graph_memory_linear_in_vertices(self):
        # a 32k-vertex path; an m^2 adjacency layout would retain ~64 MiB
        m = 32_768
        attr = np.zeros((m, 2), dtype=np.int64)
        edges = np.stack([np.arange(m - 1), np.arange(1, m)], axis=1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            g = MolecularGraph(num_vertices=m, attr=attr, edges=edges)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert g.num_edges == m - 1
        assert g.degrees().sum() == 2 * (m - 1)
        assert retained <= 4 * 2**20


class TestOneHot:
    def test_two_attribute_rows(self):
        sch = synth.small_schema(ks=(2, 3))
        g = MolecularGraph(num_vertices=1, attr=[[1, 2]], edges=[])
        h = one_hot(g, sch, 0)
        assert h.shape == (5,)
        assert sorted(np.nonzero(h)[0].tolist()) == [1, 4]

    def test_single_attribute(self):
        sch = synth.small_schema(ks=(2,))
        g = MolecularGraph(num_vertices=1, attr=[[0]], edges=[])
        assert one_hot(g, sch, 0).tolist() == [1, 0]

    def test_full_schema_carbon_degree_four(self, full_schema):
        # symbol C is slot 0; the degree block starts at slot 10, so degree 4
        # lights slot 14
        row = [0, 4, 0, 0, 2, 0, 0, 0]
        g = MolecularGraph(num_vertices=1, attr=[row], edges=[])
        hot = set(np.nonzero(one_hot(g, full_schema, 0))[0].tolist())
        assert 0 in hot and 14 in hot

    def test_exactly_one_per_block(self, rng, schema):
        g = synth.random_graph(rng, schema, m=6)
        h = one_hot(g, schema, 3)
        for j, off in enumerate(schema.offsets):
            block = h[off : off + schema.cardinalities[j]]
            assert block.sum() == 1

    def test_index_out_of_range_faults(self, schema):
        g = MolecularGraph(num_vertices=1, attr=[[0, 0]], edges=[])
        with pytest.raises(ng.GraphError):
            one_hot(g, schema, 1)


class TestPermute:
    def test_identity(self, rng, schema):
        g = synth.random_graph(rng, schema, m=5)
        assert synth.structurally_equal(permute(g, np.arange(5)), g)

    def test_swap_on_single_edge(self, schema):
        g = MolecularGraph(num_vertices=2, attr=[[0, 0], [1, 1]], edges=[[0, 1]])
        swapped = permute(g, [1, 0])
        assert np.array_equal(synth.canonical_edges(swapped), synth.canonical_edges(g))
        assert swapped.attr[1].tolist() == [0, 0]

    def test_degree_multiset_preserved(self, rng, schema):
        g = synth.random_graph(rng, schema, m=6, density=0.5)
        pi = rng.permutation(6)
        assert sorted(permute(g, pi).degrees().tolist()) == sorted(g.degrees().tolist())

    def test_inverse_round_trip(self, rng, schema):
        g = synth.random_graph(rng, schema, m=6)
        pi = rng.permutation(6)
        assert synth.structurally_equal(permute(permute(g, pi), np.argsort(pi)), g)

    def test_non_bijection_faults(self, schema):
        g = MolecularGraph(num_vertices=3, attr=np.zeros((3, 2), dtype=np.int64), edges=[])
        with pytest.raises(ng.GraphError):
            permute(g, [0, 0, 1])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_group_action(self, seed):
        r = np.random.default_rng(seed)
        sch = synth.small_schema()
        g = synth.random_graph(r, sch, m=6, density=0.4)
        pi, rho = r.permutation(6), r.permutation(6)
        left = permute(g, pi[rho])  # composition: apply rho, then pi
        right = permute(permute(g, rho), pi)
        assert synth.structurally_equal(left, right)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_validation_invariant_under_permutation(self, seed):
        r = np.random.default_rng(seed)
        sch = synth.small_schema()
        g = synth.random_graph(r, sch, m=5, density=0.4)
        pi = r.permutation(5)
        h = permute(g, pi)
        assert (synth.reference_violations(h.num_vertices, h.attr, h.edges, sch)
                == synth.reference_violations(g.num_vertices, g.attr, g.edges, sch) == ())


class TestJsonDocuments:
    def test_round_trip(self, rng, schema):
        g = synth.random_graph(rng, schema, m=5, label=1.5, graph_id="abc")
        text = dumps_graph(g, schema)
        back = read_json_graphs(text, schema)[0]
        assert synth.structurally_equal(back, g)

    def test_self_loop_document_rejected(self, schema):
        doc = {
            "schema_id": schema.schema_id,
            "id": "bad",
            "num_vertices": 4,
            "attributes": [[0, 0]] * 4,
            "edges": [[3, 3]],
        }
        errors = []
        graphs = read_json_graphs(json.dumps(doc), schema, errors)
        assert not graphs
        assert "self-loop" in errors[0][1]

    def test_schema_id_mismatch_faults(self, schema):
        other = synth.small_schema(ks=(3, 3), name="other")
        doc = {
            "schema_id": other.schema_id,
            "id": None,
            "num_vertices": 1,
            "attributes": [[0, 0]],
            "edges": [],
        }
        with pytest.raises(ng.GraphError):
            read_json_graphs(json.dumps(doc), schema)

    def test_thousand_random_graphs_canonical_reserialization(self, rng, schema):
        graphs = synth.random_corpus(rng, schema, 1000, density=0.4)
        lines = [dumps_graph(g, schema) for g in graphs]
        parsed = read_json_graphs("\n".join(lines), schema)
        again = [dumps_graph(g, schema) for g in parsed]
        assert again == lines  # byte-identical canonical re-serialization

    def test_empty_stream(self, schema):
        assert read_json_graphs("", schema) == []

    @pytest.mark.parametrize("field,value,message", [
        (None, 5, "expected a JSON object, got int"),
        (None, None, "expected a JSON object, got NoneType"),
        ("num_vertices", None, "num_vertices must be a JSON integer, got NoneType"),
        ("num_vertices", [2], "num_vertices must be a JSON integer, got list"),
        pytest.param("label", {"y": 1}, "label must be a JSON number or null, got dict",
                     id="label-dict"),
        ("attributes", {"a": 1}, "attributes must be JSON integers"),
        ("num_vertices", float("inf"), "num_vertices must be a JSON integer, got float"),
        ("attributes", [[2**70, 0], [0, 0]], "attributes must be JSON integers"),
    ])
    def test_wrong_typed_document_is_a_document_error(self, rng, schema, field, value,
                                                      message):
        good = json.loads(dumps_graph(synth.random_graph(rng, schema, m=2), schema))
        bad = dict(good)
        if field is None:
            bad = value
        else:
            bad[field] = value
        text = json.dumps(bad) + "\n" + json.dumps(good)
        errors = []
        graphs = read_json_graphs(text, schema, errors)
        assert len(graphs) == 1 and errors[0][0] == 0 and message in errors[0][1]
        with pytest.raises(ng.GraphError, match="document 0"):
            read_json_graphs(text, schema)

    @pytest.mark.parametrize("field,value,message", [
        ("num_vertices", 2.7, "num_vertices must be a JSON integer, got float"),
        ("num_vertices", "2", "num_vertices must be a JSON integer, got str"),
        ("num_vertices", True, "num_vertices must be a JSON integer, got bool"),
        ("attributes", [[0, 0], [1.9, 1]], "attributes must be JSON integers"),
        ("attributes", [[True, False], [False, True]], "attributes must be JSON integers"),
        ("edges", [[0, 1.5]], "edges must be JSON integers"),
        ("edges", [["0", "1"]], "edges must be JSON integers"),
        ("label", "1.5", "label must be a JSON number or null, got str"),
        ("label", "nan", "label must be a JSON number or null, got str"),
        ("label", "inf", "label must be a JSON number or null, got str"),
        ("label", "abc", "label must be a JSON number or null, got str"),
        ("label", [1], "label must be a JSON number or null, got list"),
    ], ids=["vertices-float", "vertices-string", "vertices-bool", "attributes-float",
            "attributes-bool", "edges-float", "edges-string", "label-number-string",
            "label-nan-string", "label-inf-string", "label-word", "label-list"])
    def test_non_integer_value_is_refused_not_cast(self, schema, field, value, message):
        good = {"schema_id": schema.schema_id, "id": "g", "num_vertices": 2,
                "attributes": [[0, 0], [1, 1]], "edges": [[0, 1]]}
        text = json.dumps(good) + "\n" + json.dumps({**good, field: value})
        errors = []
        assert len(read_json_graphs(text, schema, errors)) == 1
        assert errors == [(1, message)]

    def test_bool_label_reads_as_a_number(self, schema):
        doc = {"schema_id": schema.schema_id, "num_vertices": 1, "attributes": [[0, 0]]}
        text = "\n".join(json.dumps({**doc, "label": b}) for b in (True, False))
        assert [g.label for g in read_json_graphs(text, schema)] == [1.0, 0.0]

    def test_integer_list_with_a_stray_bool_converts(self, schema):
        doc = {"schema_id": schema.schema_id, "id": "g", "num_vertices": 2,
               "attributes": [[0, True], [1, 1]], "edges": [[False, 1]]}
        (g,) = read_json_graphs(json.dumps(doc), schema)
        assert g.attr.tolist() == [[0, 1], [1, 1]]
        assert g.edges.tolist() == [[0, 1]] and g.indices.tolist() == [1, 0]

    def test_empty_list_is_a_table_of_no_rows(self, schema):
        docs = [{"schema_id": schema.schema_id, "num_vertices": 0, "attributes": [],
                 "edges": []},
                {"schema_id": schema.schema_id, "num_vertices": 2,
                 "attributes": [[0, 0], [1, 1]], "edges": []}]
        empty, lone = read_json_graphs("\n".join(map(json.dumps, docs)), schema)
        assert empty.attr.shape == (0, 2) and empty.edges.shape == (0, 2)
        assert lone.attr.shape == (2, 2) and lone.edges.shape == (0, 2)

    @pytest.mark.parametrize("field,value,message", [
        ("num_vertices", None, "missing field 'num_vertices'"),
        ("attributes", None, "missing field 'attributes'"),
        ("attributes", [[0, 0], [0]], "attributes must be 2 rows of 2 value indices"),
        ("attributes", [[0, 0, 0], [0, 0, 0]], "attributes must be 2 rows of 2 value indices"),
        ("attributes", [0, 0, 1, 1], "attributes must be 2 rows of 2 value indices"),
        ("attributes", [[0, 0, 1, 1]], "attributes must be 2 rows of 2 value indices"),
        ("attributes", [[[0, 0]], [[1, 1]]], "attributes must be 2 rows of 2 value indices"),
        ("attributes", [], "attributes must be 2 rows of 2 value indices"),
        ("edges", [0, 1], "edges must be a list of [u, v] pairs"),
        ("edges", [[0, 1, 1]], "edges must be a list of [u, v] pairs"),
        ("edges", [[0, 1, 1], [1, 0, 1]], "edges must be a list of [u, v] pairs"),
        ("edges", [[[0, 1]]], "edges must be a list of [u, v] pairs"),
        ("edges", [[0, 1], [1]], "edges must be a list of [u, v] pairs"),
        ("edges", [[]], "edges must be a list of [u, v] pairs"),
        ("edges", 5, "edges must be a list of [u, v] pairs"),
    ], ids=["missing-vertex-count", "missing-attributes", "ragged", "wrong-width",
            "flat-attributes", "one-wide-row", "attributes-3-deep", "no-rows",
            "flat-edges", "wide-edge", "wide-edges", "edges-3-deep", "ragged-edges",
            "empty-pair", "edges-scalar"])
    def test_document_error_names_the_field(self, schema, field, value, message):
        good = {"schema_id": schema.schema_id, "id": "g", "num_vertices": 2,
                "attributes": [[0, 0], [1, 1]], "edges": [[0, 1]]}
        bad = dict(good)
        if value is None:
            del bad[field]
        else:
            bad[field] = value
        text = json.dumps(good) + "\n" + json.dumps(bad)
        errors = []
        assert len(read_json_graphs(text, schema, errors)) == 1
        assert errors == [(1, message)]
        with pytest.raises(ng.GraphError) as err:
            read_json_graphs(text, schema)
        assert str(err.value) == f"document 1: {message}"


class TestJsonLines:
    """JSONL is decoded and parsed one line at a time; a JSON array is one
    document."""

    def _lines(self, schema):
        graphs = synth.random_corpus(np.random.default_rng(1), schema, 3, density=0.5)
        return [dumps_graph(g, schema).encode() for g in graphs]

    @pytest.mark.parametrize("broken,problem", [
        (lambda line: line[:40], json.JSONDecodeError),
        (lambda line: line[:12] + b"\xff" + line[13:], UnicodeDecodeError),
    ], ids=["truncated", "not-utf8"])
    def test_bad_line_skipped_alone(self, schema, broken, problem):
        lines = self._lines(schema)
        data = b"\n".join([lines[0], broken(lines[1]), b"", lines[2]]) + b"\n"
        errors = []
        graphs = read_json_graphs(data, schema, errors)
        assert [dumps_graph(g, schema).encode() for g in graphs] == [lines[0], lines[2]]
        assert [pos for pos, _ in errors] == [1]
        with pytest.raises(problem):
            read_json_graphs(data, schema)

    def test_json_array_is_one_document(self, schema):
        lines = self._lines(schema)
        array = b"[" + b",\n".join(lines) + b"]"
        assert [dumps_graph(g, schema).encode()
                for g in read_json_graphs(array, schema)] == lines
        errors = []
        assert read_json_graphs(array[:-1], schema, errors) == []
        assert [pos for pos, _ in errors] == [0]


_SCHEMA = synth.small_schema()
# a canonical corpus with a labelled graph of no vertices and one of no edges
_BASE = "".join(
    dumps_graph(g, _SCHEMA) + "\n"
    for g in [*synth.random_corpus(np.random.default_rng(3), _SCHEMA, 4, density=0.5),
              MolecularGraph(num_vertices=0, attr=np.zeros((0, 2)), edges=[],
                             label=2.5, schema_fingerprint=_SCHEMA.fingerprint),
              MolecularGraph(num_vertices=2, attr=[[4, 3], [0, 0]], edges=[],
                             graph_id="lone", schema_fingerprint=_SCHEMA.fingerprint)]
).encode()


class TestReaderDifferential:
    """``read_json_graphs`` against the per-document reader in ``synth``:
    with an ``errors`` list, the same graphs field by field and the same
    ``(pos, message)`` entries in the same order; without one, the same
    exception."""

    @staticmethod
    def _outcome(reader, data, schema, errors):
        try:
            graphs = reader(data, schema, errors)
        except ValueError as exc:  # GraphError, UnicodeDecodeError, JSONDecodeError
            return type(exc), str(exc), getattr(exc, "document", None)
        return [synth.graph_fields(g) for g in graphs], errors

    def _agree(self, data, schema=_SCHEMA):
        for errors in ([], None):
            new = self._outcome(read_json_graphs, data, schema,
                                None if errors is None else [])
            ref = self._outcome(synth.reference_read_json_graphs, data, schema,
                                None if errors is None else [])
            assert new == ref

    @settings(max_examples=300, deadline=None)
    @given(data=synth.graph_document_corpora(_SCHEMA))
    def test_generated_corpora(self, data):
        self._agree(data)

    @settings(max_examples=10, deadline=None)
    @given(data=synth.graph_document_corpora(_SCHEMA, min_docs=65, max_docs=140,
                                             defect_percent=2))
    def test_long_corpora_with_few_defects(self, data):
        self._agree(data)

    @settings(max_examples=300, deadline=None)
    @given(data=synth.graph_document_corpora(_SCHEMA, ng.FULL_SCHEMA, ng.REDUCED_SCHEMA))
    def test_corpora_read_without_a_schema(self, data):
        """The bundled schema that the first document naming one names."""
        self._agree(data, None)

    @settings(max_examples=300, deadline=None)
    @given(data=synth.byte_mutations(_BASE))
    def test_mutated_bytes(self, data):
        self._agree(data)

    @settings(max_examples=200, deadline=None)
    @given(data=synth.graph_document_corpora(_SCHEMA))
    def test_str_reads_as_its_utf8_bytes(self, data):
        """Lines break at \\n, \\r and \\r\\n in a str too, not at U+2028,
        U+0085 or \\x1c: the same graphs, errors and exception."""
        text = data.decode("utf-8", errors="replace") if isinstance(data, bytes) else data
        for errors in ([], None):
            outcomes = [self._outcome(read_json_graphs, form, _SCHEMA,
                                      None if errors is None else [])
                        for form in (text, text.encode())]
            assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("depth", [300, 5000])
    def test_deep_nesting_reads_as_json_reads_it(self, depth):
        """Past the interpreter's recursion limit json raises RecursionError,
        and orjson must not see such a line: orjson 3.8 nests without a
        limit. Closing brackets inside a string must not hide the depth."""
        nested = "[" * depth + "]" * depth
        line = '{"x":"' + "]" * 2 * depth + '","id":' + nested + "}"
        for data in (_BASE + line.encode(), "[" + line + "]"):
            outcomes = []
            for reader in (read_json_graphs, synth.reference_read_json_graphs):
                try:
                    outcomes.append(self._outcome(reader, data, _SCHEMA, []))
                except RecursionError:
                    outcomes.append(RecursionError)
            assert outcomes[0] == outcomes[1]
            assert (outcomes[0] is RecursionError) == (depth > 1000)

    def test_raw_line_separator_inside_a_string(self):
        doc = json.loads(_BASE.splitlines()[5])
        line = json.dumps({**doc, "id": "a\u2028b"}, ensure_ascii=False)
        for form in (line, line.encode()):
            errors = []
            (g,) = read_json_graphs(form, _SCHEMA, errors)
            assert g.graph_id == "a\u2028b" and errors == []

    @settings(max_examples=300, deadline=None)
    @given(data=synth.json_field_mutations([json.loads(line)
                                            for line in _BASE.decode().splitlines()]))
    def test_field_replaced(self, data):
        self._agree(data)

    def test_first_problem_raises_before_later_lines_decode(self):
        # a line nested this deep makes json raise RecursionError, not a
        # document error
        data = json.dumps({"schema_id": "other:0"}) + "\n" + "[" * 100_000
        for schema, message in ((_SCHEMA, "schema_id mismatch"),
                                (None, "schema_id 'other:0' is not a bundled schema")):
            for reader in (read_json_graphs, synth.reference_read_json_graphs):
                with pytest.raises(ng.GraphError, match=f"^document 0: {message}"):
                    reader(data, schema)

    @pytest.mark.parametrize("data", [b"", "", b"\n\n", "[]", b"[]", b"  \n"])
    def test_empty_corpora(self, data):
        for schema in (_SCHEMA, None):
            self._agree(data, schema)
        assert read_json_graphs(data, _SCHEMA) == []
        assert read_json_graphs(data, None, []) == []
        with pytest.raises(ng.GraphError, match="^no graph documents$"):
            read_json_graphs(data)

    def test_corpus_graphs_are_read_only_views(self):
        graphs = read_json_graphs(_BASE, _SCHEMA)
        assert len(graphs) == 6
        for name in ("attr", "edges", "indptr", "indices"):
            arrays = [getattr(g, name) for g in graphs]
            assert not any(a.flags.writeable for a in arrays)
            assert len({id(a.base) for a in arrays}) == 1  # one corpus array

    @settings(max_examples=300, deadline=None)
    @given(data=synth.table_spelling_corpora(_SCHEMA))
    def test_table_spellings(self, data):
        """Whitespace, ``-0``, leading zeros and 19-digit integers in a
        table, a key that is escaped, repeated, nested, spaced from its
        colon or an id's value, and ``[[]]`` and ``[]`` tables."""
        self._agree(data)


class TestTablesFromBytes:
    """A canonical JSONL line's tables are read from its bytes and only the
    rest of the line is parsed; any other line is parsed whole, and every
    line reads as it reads alone."""

    @staticmethod
    def _parsed(monkeypatch) -> list:
        """The texts that ``graph._loads`` is given from now on."""
        seen, loads = [], graph_module._loads

        def recorded(chunk):
            seen.append(chunk)
            return loads(chunk)

        monkeypatch.setattr(graph_module, "_loads", recorded)
        return seen

    def test_big_line_parses_only_its_rest(self, monkeypatch):
        rng, m = np.random.default_rng(5), 10_000
        attr = np.stack([rng.integers(0, k, m) for k in _SCHEMA.cardinalities], axis=1)
        tree = np.stack([(rng.random(m - 1) * np.arange(1, m)).astype(np.int64),
                         np.arange(1, m)], axis=1)
        g = MolecularGraph(num_vertices=m, attr=attr, edges=tree, label=1.5, graph_id="big",
                           schema_fingerprint=_SCHEMA.fingerprint)
        line = dumps_graph(g, _SCHEMA).encode()
        seen = self._parsed(monkeypatch)
        for data in (line, line.decode(), line + b"\n" + line):
            assert all(synth.structurally_equal(h, g) for h in read_json_graphs(data, _SCHEMA))
        assert len(line) > 100_000 and len(seen) == 4
        assert max(map(len, seen)) < 150

    @settings(max_examples=100, deadline=None)
    @given(data=synth.table_spelling_corpora(_SCHEMA, max_docs=12),
           pass_bytes=st.integers(1, 400))
    def test_numeric_passes_of_any_size(self, data, pass_bytes):
        """Tables converted a few at a time read as those converted at once."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph_module, "_PASS_BYTES", pass_bytes)
            TestReaderDifferential()._agree(data)

    def test_negative_numbers_are_read_from_bytes(self, monkeypatch):
        doc = json.loads(_BASE.splitlines()[0])
        attr = [[-7, *row[1:]] for row in doc["attributes"]]
        line = json.dumps({**doc, "attributes": attr, "edges": [[-1, 0], [0, -22]]},
                          separators=(",", ":"))
        seen = self._parsed(monkeypatch)
        errors, expected = [], []
        assert read_json_graphs(line, _SCHEMA, errors) == []
        assert len(seen) == 1 and "-" not in seen[0]  # the rest of the line only
        synth.reference_read_json_graphs(line, _SCHEMA, expected)
        assert errors == expected and "edge (0,-22) endpoint out of range" in errors[0][1]

    @pytest.mark.parametrize("spelling", synth.TABLE_SPELLINGS)
    @pytest.mark.parametrize("key", ["attributes", "edges"])
    def test_spelled_lines_are_parsed_whole(self, monkeypatch, spelling, key):
        doc = json.loads(_BASE.splitlines()[0])
        line = synth.respelled_line(doc, spelling, key)
        seen = self._parsed(monkeypatch)
        read_json_graphs(line, _SCHEMA, [])
        # "[]" is the canonical spelling of no rows, read from the bytes
        assert (seen[-1] == line) == (spelling != "empty-table")

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_each_line_reads_as_it_reads_alone(self, data):
        """A corpus of canonical lines and lines of every defect."""
        docs = [data.draw(synth.graph_documents(_SCHEMA, defect_percent=100, defects=(d,)))
                for d in synth.DOCUMENT_DEFECTS]
        docs += data.draw(st.lists(synth.graph_documents(_SCHEMA, defect_percent=0),
                                   min_size=5, max_size=10))
        # a valid first line, so that neither the corpus nor a line read
        # after it is one JSON array
        head = _BASE.splitlines()[0]
        lines = [head] + [json.dumps(d, separators=(",", ":")).encode()
                          for d in data.draw(st.permutations(docs))]
        errors = []
        graphs = iter(read_json_graphs(b"\n".join(lines), _SCHEMA, errors))
        problems = dict(errors)
        for pos, line in enumerate(lines):
            alone = []
            read = read_json_graphs(head + b"\n" + line, _SCHEMA, alone)
            if alone:
                assert [(1, problems.pop(pos))] == alone
            else:
                assert synth.graph_fields(next(graphs)) == synth.graph_fields(read[-1])
        assert problems == {} and next(graphs, None) is None

    @pytest.mark.parametrize("table", [
        "[[1,-,2]]", "[[--3,1]]", "[[,,]]", "[[1,2],[3]]", "[[-]]", "[[1-2,3]]",
        "[[99999999999999999999999,1]]", "[[1,2],,[3,4]]", "[]]", "[[1]2]]", "[[[1,2]]]",
        "[[1,2]", "[[1,2],[3,4],]]", "[[-9223372036854775809,1]]", "[[],[1,2]]",
    ])
    def test_junk_tables_raise_no_warning(self, table):
        doc = json.loads(_BASE.splitlines()[0])
        for key in ("attributes", "edges"):
            line = synth.line_with(doc, key, table)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                TestReaderDifferential()._agree(line.encode())


# json escapes DEL and every character outside ASCII; orjson writes both raw
_ID_CHARACTERS = st.characters() | st.sampled_from('\x7f\x01\n"\\/\u00e9\u2028')
_LABELS = (st.none() | st.floats() | st.integers()
           | st.sampled_from([1e16, -1e16, 9999999999999998.0, 1e-4, 1e-5, -0.0, 5e-324]))


@st.composite
def _graphs_to_write(draw):
    """Graphs with any string id or none and any label, some with no
    vertices or no edges, some with an F-ordered attribute table."""
    g = draw(synth.messy_graphs(_SCHEMA, max_m=6)
             | st.just(MolecularGraph(num_vertices=0, attr=np.zeros((0, 2)), edges=[])))
    attr = np.asfortranarray(g.attr) if draw(st.booleans()) else g.attr
    return dataclasses.replace(g, attr=attr, label=draw(_LABELS),
                               graph_id=draw(st.none() | st.text(_ID_CHARACTERS)))


class TestWriter:
    @settings(max_examples=300, deadline=None)
    @given(graphs=st.lists(_graphs_to_write(), max_size=6),
           schema=st.sampled_from([_SCHEMA, synth.small_schema(name="caf\u00e9")]))
    def test_lines_are_dumps_graph(self, graphs, schema):
        stream = io.StringIO()
        write_jsonl(graphs, schema, stream)
        assert stream.getvalue() == "".join(dumps_graph(g, schema) + "\n" for g in graphs)

    @settings(max_examples=200, deadline=None)
    @given(corpus=st.lists(_graphs_to_write(), max_size=6),
           alone=st.lists(_graphs_to_write(), max_size=3), data=st.data())
    def test_corpus_views_mixed_with_lone_graphs(self, corpus, alone, data):
        """Graphs that are views of one build_graphs corpus, and of one
        read_json_graphs corpus, shuffled in with stand-alone graphs."""
        built, faults = build_graphs(
            [g.num_vertices for g in corpus],
            np.concatenate([g.attr for g in corpus] or [np.zeros((0, 2))]),
            np.concatenate([g.edges for g in corpus] or [np.zeros((0, 2))]),
            [len(g.edges) for g in corpus], [g.label for g in corpus],
            [g.graph_id for g in corpus])
        assert faults == {}
        read = read_json_graphs("".join(dumps_graph(g, _SCHEMA) + "\n" for g in corpus),
                                _SCHEMA, [])
        graphs = data.draw(st.permutations(built + read + alone))
        stream = io.StringIO()
        write_jsonl(graphs, _SCHEMA, stream)
        assert stream.getvalue() == "".join(dumps_graph(g, _SCHEMA) + "\n" for g in graphs)

    def test_no_graphs_write_nothing(self):
        stream = io.StringIO()
        write_jsonl([], _SCHEMA, stream)
        write_jsonl(iter(()), _SCHEMA, stream)
        assert stream.getvalue() == ""

    def test_generator_input(self):
        graphs = read_json_graphs(_BASE, _SCHEMA)
        stream = io.StringIO()
        write_jsonl((g for g in graphs), _SCHEMA, stream)
        assert stream.getvalue().encode() == _BASE


_SDF = synth.sdf_stream(synth.WATER, synth.ETHANOL)
# (call, exception it raises or None), each with the collector as the test set it
_READER_CALLS = {
    "json": (lambda: read_json_graphs(_BASE, _SCHEMA), None),
    "json-errors": (lambda: read_json_graphs(_BASE + b"nul\n\xff\n", _SCHEMA, []), None),
    "json-bad-document": (lambda: read_json_graphs(b'{"schema_id": "other:0"}\n' + _BASE,
                                                   _SCHEMA), ng.GraphError),
    "json-undecodable": (lambda: read_json_graphs(b"\xff\n" + _BASE, _SCHEMA),
                         UnicodeDecodeError),
    "sdf": (lambda: parse_sdf(_SDF), None),
    "sdf-errors": (lambda: parse_sdf(_SDF.replace("  1  2  1", "  1  9  1")), None),
    "sdf-raises": (lambda: parse_sdf(None), AttributeError),
    "featurize": (lambda: featurize_corpus(parse_sdf(_SDF)[0]), None),
    "featurize-raises": (lambda: featurize_corpus([None]), AttributeError),
}


class TestCollectorPause:
    """The readers run with the cyclic garbage collector paused, and leave
    it as their caller had it."""

    @pytest.fixture(autouse=True)
    def _collector_enabled_after(self):
        yield
        gc.enable()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("call,raises", _READER_CALLS.values(), ids=_READER_CALLS)
    def test_reader_leaves_the_callers_setting(self, call, raises, enabled):
        (gc.enable if enabled else gc.disable)()
        if raises is None:
            call()
        else:
            with pytest.raises(raises):
                call()
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_featurize_command_leaves_the_callers_setting(self, tmp_path, enabled):
        """SDF input, JSON input with a bad document, and no graphs (exit 2)."""
        sdf, jsonl, empty = tmp_path / "m.sdf", tmp_path / "g.jsonl", tmp_path / "e.jsonl"
        sdf.write_text(_SDF)
        empty.write_text("\n")
        (gc.enable if enabled else gc.disable)()
        assert main(["featurize", str(sdf), "-o", str(jsonl)]) == 0
        line = jsonl.read_text().splitlines()[0]
        jsonl.write_text(line.replace('"edges":', '"edges":5,"e":') + "\n" + line + "\n")
        assert [main(["featurize", str(path), "-o", str(tmp_path / "out.jsonl")])
                for path in (jsonl, empty)] == [0, 2]
        assert gc.isenabled() is enabled

    def test_reader_inside_a_pause_keeps_it(self):
        gc.enable()
        with _collector_paused():
            read_json_graphs(_BASE, _SCHEMA)
            featurize_corpus(parse_sdf(_SDF)[0])
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_overlapping_pauses_restore_at_the_last_exit(self):
        """Two callers at once: A enters, B enters, A exits, B exits."""
        gc.enable()
        a, b = _collector_paused(), _collector_paused()
        a.__enter__()
        b.__enter__()
        a.__exit__(None, None, None)
        assert not gc.isenabled()
        b.__exit__(None, None, None)
        assert gc.isenabled()

    def test_pauses_from_many_threads(self):
        """More threads than cores, switching often: while any thread holds
        a pause the collector is off, and after the last one it is on."""
        gc.enable()
        faults = []

        def work(k):
            for i in range(300):
                with _collector_paused():
                    if i % 50 == k:
                        read_json_graphs(_BASE, _SCHEMA)
                    if gc.isenabled():
                        faults.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert faults == [] and gc.isenabled()

    def test_large_document_reads_without_a_collection(self):
        """A 10,000-vertex document decodes to ~25,000 live lists, which
        would start collections if the collector ran."""
        m = 10_000
        attr = np.random.default_rng(0).integers(0, _SCHEMA.cardinalities, size=(m, 2))
        edges = [[i, i + 1] for i in range(m - 1)] + [[i, i + 2] for i in range(0, m - 2, 2)]
        data = json.dumps({"schema_id": _SCHEMA.schema_id, "id": "big", "num_vertices": m,
                           "attributes": attr.tolist(), "edges": edges})
        started = []

        def hook(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.enable()
        gc.collect()
        gc.callbacks.append(hook)
        try:
            (g,) = read_json_graphs(data, _SCHEMA)
        finally:
            gc.callbacks.remove(hook)
        assert started == [] and g.num_edges == len(edges)
