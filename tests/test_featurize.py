import io

import numpy as np
import pytest
from hypothesis import assume, given, settings

from ngram_graph import FULL_SCHEMA, REDUCED_SCHEMA, GraphError
from ngram_graph.featurize import featurize_corpus
from ngram_graph.graph import write_jsonl
from ngram_graph.cli import main
from ngram_graph.schema import BUNDLED_SCHEMAS
from ngram_graph.sdf import parse_sdf

from . import synth
from .synth import ETHANOL, METHANE, WATER, charge_line, molblock, sdf_stream


def _attr_by_name(schema, g, vertex, name):
    j = schema.attribute_names.index(name)
    return schema.values_of(j)[g.attr[vertex, j]]


def _featurize_text(block, schema=FULL_SCHEMA):
    records, errors = parse_sdf(block)
    assert not errors, errors
    (g,), (warnings,) = featurize_corpus(records[:1], schema)
    return g, warnings


class TestHydrogenCollapse:
    def test_water_single_oxygen_vertex(self):
        g, warnings = _featurize_text(WATER)
        assert not warnings
        assert g.num_vertices == 1
        assert g.num_edges == 0
        assert _attr_by_name(FULL_SCHEMA, g, 0, "symbol") == "O"
        assert _attr_by_name(FULL_SCHEMA, g, 0, "num_hydrogen") == "2"
        assert _attr_by_name(FULL_SCHEMA, g, 0, "degree") == "0"

    def test_methane(self):
        g, _ = _featurize_text(METHANE)
        assert g.num_vertices == 1
        assert _attr_by_name(FULL_SCHEMA, g, 0, "degree") == "0"
        assert _attr_by_name(FULL_SCHEMA, g, 0, "num_hydrogen") == "4"
        assert _attr_by_name(FULL_SCHEMA, g, 0, "is_donor") == "no"
        assert _attr_by_name(FULL_SCHEMA, g, 0, "is_acceptor") == "no"


class TestAttributeRules:
    def test_ethanol_oxygen_acceptor_and_donor(self):
        # rules applied by hand: O has one heavy bond, default valence 2,
        # no charge -> one implicit hydrogen -> donor and acceptor
        g, _ = _featurize_text(ETHANOL)
        assert g.num_vertices == 3
        assert _attr_by_name(FULL_SCHEMA, g, 2, "symbol") == "O"
        assert _attr_by_name(FULL_SCHEMA, g, 2, "num_hydrogen") == "1"
        assert _attr_by_name(FULL_SCHEMA, g, 2, "is_acceptor") == "yes"
        assert _attr_by_name(FULL_SCHEMA, g, 2, "is_donor") == "yes"

    def test_carbon_not_acceptor(self):
        g, _ = _featurize_text(ETHANOL)
        assert _attr_by_name(FULL_SCHEMA, g, 0, "is_acceptor") == "no"

    def test_charged_oxygen_loses_hydrogen(self):
        # O with charge -1 and one bond: 2 - 1 - |-1| = 0 implicit hydrogens
        block = molblock("alkoxide", ["C", "O"], [(1, 2, 1)], charge_codes=[0, 5])
        g, _ = _featurize_text(block)
        assert _attr_by_name(FULL_SCHEMA, g, 1, "charge") == "-1"
        assert _attr_by_name(FULL_SCHEMA, g, 1, "num_hydrogen") == "0"
        assert _attr_by_name(FULL_SCHEMA, g, 1, "is_donor") == "no"

    def test_charge_line_charges_the_oxygen(self):
        # the same alkoxide with its charge on an M  CHG line instead
        block = molblock("alkoxide", ["C", "O"], [(1, 2, 1)], props=[charge_line((2, -1))])
        g, _ = _featurize_text(block)
        assert _attr_by_name(FULL_SCHEMA, g, 1, "charge") == "-1"
        assert _attr_by_name(FULL_SCHEMA, g, 1, "num_hydrogen") == "0"
        assert _attr_by_name(FULL_SCHEMA, g, 1, "is_donor") == "no"

    def test_aromatic_flag_from_order_four_bond(self):
        block = molblock("arom", ["C", "C", "N"], [(1, 2, 4), (2, 3, 1)])
        g, _ = _featurize_text(block)
        assert _attr_by_name(FULL_SCHEMA, g, 0, "is_aromatic") == "yes"
        assert _attr_by_name(FULL_SCHEMA, g, 2, "is_aromatic") == "no"

    def test_unknown_element_symbol_bucketed(self):
        block = molblock("exotic", ["Xe"], [])
        g, warnings = _featurize_text(block)
        assert _attr_by_name(FULL_SCHEMA, g, 0, "symbol") == "Unknown"
        assert _attr_by_name(FULL_SCHEMA, g, 0, "num_hydrogen") == "Unknown"
        assert warnings  # missing valence entry

    def test_out_of_vocab_charge_becomes_unknown(self):
        block = molblock("charged", ["C"], [], charge_codes=[1])  # +3
        g, _ = _featurize_text(block)
        assert _attr_by_name(FULL_SCHEMA, g, 0, "charge") == "Unknown"

    def test_reduced_schema_has_five_attributes(self):
        g, _ = _featurize_text(WATER, REDUCED_SCHEMA)
        assert g.attr.shape == (1, 5)
        assert synth.reference_violations(g.num_vertices, g.attr, g.edges, REDUCED_SCHEMA) == ()

    def test_unknown_schema_key_rejected(self, tmp_path, capsys):
        src = tmp_path / "water.sdf"
        src.write_text(WATER)
        assert main(["featurize", str(src), "-o", str(tmp_path / "w.jsonl"),
                     "--schema", "bogus"]) == 2
        assert "'bogus' is not one of 'full', 'reduced'" in capsys.readouterr().err


class TestInvariants:
    def test_output_always_validates(self, rng):
        symbols = ["C", "N", "O", "S", "H", "Cl"]
        for trial in range(50):
            n = int(rng.integers(1, 7))
            atoms = [symbols[i] for i in rng.integers(0, len(symbols), n)]
            bonds = []
            for u in range(1, n):
                v = int(rng.integers(1, u + 1))
                bonds.append((u + 1, v, int(rng.integers(1, 5))))
            block = molblock(f"t{trial}", atoms, bonds)
            records, errors = parse_sdf(block)
            if errors:
                continue
            (g,), _ = featurize_corpus(records[:1])
            assert synth.reference_violations(g.num_vertices, g.attr, g.edges, FULL_SCHEMA) == ()

    def test_permutation_equivariance(self):
        # reordering record atoms reorders vertices but preserves structure
        block_a = molblock("fwd", ["C", "N", "O"], [(1, 2, 1), (2, 3, 2)])
        block_b = molblock("rev", ["O", "N", "C"], [(3, 2, 1), (2, 1, 2)])
        ga, _ = _featurize_text(block_a)
        gb, _ = _featurize_text(block_b)
        assert np.array_equal(ga.attr, gb.attr[::-1])
        assert sorted(ga.degrees().tolist()) == sorted(gb.degrees().tolist())

    def test_permutation_equivariance_random_records(self, rng):
        # featurize(reorder(rec)) equals permute(featurize(rec)) under the
        # permutation induced on the surviving heavy atoms
        from ngram_graph.sdf import MolRecord

        symbols = ["C", "N", "O", "S", "H"]
        for trial in range(25):
            n = int(rng.integers(2, 7))
            atoms = tuple(symbols[i] for i in rng.integers(0, len(symbols), n))
            bonds = np.array(
                [(u + 1, int(rng.integers(0, u)) + 1, int(rng.integers(1, 5)))
                 for u in range(1, n)],
                dtype=np.int64,
            ).reshape(-1, 3)
            rec = MolRecord(name=f"t{trial}", symbols=atoms,
                            charges=np.zeros(n, dtype=np.int64), bonds=bonds)

            pi = rng.permutation(n)  # atom i moves to position pi[i]
            new_atoms = [None] * n
            for i, a in enumerate(atoms):
                new_atoms[pi[i]] = a
            new_bonds = bonds.copy()
            new_bonds[:, :2] = pi[bonds[:, :2] - 1] + 1
            reordered = MolRecord(name=rec.name, symbols=tuple(new_atoms),
                                  charges=rec.charges, bonds=new_bonds)

            (ga,), _ = featurize_corpus([rec])
            (gb,), _ = featurize_corpus([reordered])
            heavy_a = [i for i, a in enumerate(atoms) if a != "H"]
            heavy_b = [i for i, a in enumerate(new_atoms) if a != "H"]
            pos_b = {old: new for new, old in enumerate(heavy_b)}
            induced = np.array([pos_b[pi[i]] for i in heavy_a], dtype=np.int64)
            gp = synth.permute(ga, induced)
            assert np.array_equal(gp.attr, gb.attr)
            assert np.array_equal(synth.canonical_edges(gp), synth.canonical_edges(gb))

    def test_record_with_a_repeated_bond_is_refused(self):
        """A record built by hand, which parse_sdf has not checked, does not
        lose its repeated bond without a word."""
        from ngram_graph.sdf import MolRecord

        ok = MolRecord(name="ok", symbols=("C", "O"), charges=np.zeros(2, dtype=np.int64),
                       bonds=np.array([[1, 2, 1]]))
        twice = MolRecord(name="twice", symbols=("C", "O"), charges=np.zeros(2, dtype=np.int64),
                          bonds=np.array([[1, 2, 1], [2, 1, 1]]))
        with pytest.raises(GraphError, match=r"^record 1: duplicate edge \(0,1\) listed 2 times$"):
            featurize_corpus([ok, twice])

    def test_all_hydrogen_record_gives_empty_graph(self):
        block = molblock("h2", ["H", "H"], [(1, 2, 1)])
        g, _ = _featurize_text(block)
        assert g.num_vertices == 0
        assert synth.reference_violations(g.num_vertices, g.attr, g.edges, FULL_SCHEMA) == ()


def _array_outputs(data, schema_key):
    schema = BUNDLED_SCHEMAS[schema_key]
    records, errors = parse_sdf(data)
    graphs, warnings = featurize_corpus(records, schema)
    text = io.StringIO()
    write_jsonl(graphs, schema, text)
    return (text.getvalue(),
            [(r.name, r.warnings, w) for r, w in zip(records, warnings)],
            [(e.line, e.message) for e in errors],
            [synth.graph_fields(g) for g in graphs])


def _reference_outputs(data, schema_key):
    schema = BUNDLED_SCHEMAS[schema_key]
    records, errors = synth.reference_parse_sdf(data)
    out = [synth.reference_featurize(r, schema) for r in records]
    text = io.StringIO()
    write_jsonl([g for g, _ in out], schema, text)
    return (text.getvalue(),
            [(r.name, r.warnings, w) for r, (_, w) in zip(records, out)],
            errors,
            [synth.graph_fields(g) for g, _ in out])  # per-record MolecularGraph(...)


class TestDifferential:
    """The array reader and corpus featurizer against the per-atom reference
    in ``synth``: the same JSONL bytes, record and featurizer warnings,
    ``(line, message)`` errors, and graphs equal field by field to the
    reference's per-record ``MolecularGraph(...)`` construction. The
    reference does not read ``M  CHG`` lines, so neither do the streams
    here."""

    SDF = sdf_stream(
        WATER,
        # every charge code, order-4 ring bonds, explicit H, elements
        # without a valence entry (Si, Xe)
        molblock("zoo", ["C", "N", "O", "S", "Si", "Xe", "Cl", "H"],
                 [(1, 2, 4), (2, 3, 4), (3, 1, 4), (3, 4, 1), (4, 5, 2), (5, 6, 1),
                  (6, 7, 1), (1, 8, 1)],
                 charge_codes=[0, 1, 2, 3, 4, 5, 6, 7]),
        ETHANOL,
        molblock("", ["N", "H", "H", "H"], [(1, 2, 1), (1, 3, 1), (1, 4, 1)],
                 charge_codes=[3, 0, 0, 0]),
    ).encode()

    @pytest.mark.parametrize("schema_key", ["full", "reduced"])
    @settings(max_examples=300, deadline=None)
    @given(data=synth.byte_mutations(SDF))
    def test_mutated_stream(self, schema_key, data):
        assume(b"M  CHG" not in data)
        assert _array_outputs(data, schema_key) == _reference_outputs(data, schema_key)

    @pytest.mark.parametrize("schema_key", ["full", "reduced"])
    @pytest.mark.parametrize("seed", range(4))
    def test_generated_corpus(self, seed, schema_key):
        data = synth.random_sdf(np.random.default_rng(seed), 80)
        outputs = _array_outputs(data, schema_key)
        assert outputs == _reference_outputs(data, schema_key)
        assert outputs[0].count("\n") == 80

    @pytest.mark.parametrize("seed", range(4))
    def test_generated_corpus_with_defects(self, seed):
        data = synth.random_sdf(np.random.default_rng(seed), 200, defects=0.3)
        outputs = _array_outputs(data, "full")
        assert outputs == _reference_outputs(data, "full")
        assert 30 < len(outputs[2]) < 90
